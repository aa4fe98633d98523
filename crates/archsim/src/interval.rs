//! The interval CPI model.
//!
//! Execution time splits into a frequency-scaled core component and a
//! frequency-invariant exposed-memory component:
//!
//! ```text
//! time(f) = N * cpi_core / f  +  N * dram_apki/1000 * exposed_latency
//! ```
//!
//! where `cpi_core` covers issue-limited cycles, L1/L2 access stalls and
//! coherence bus round trips (all in core cycles), and `exposed_latency`
//! is the DRAM round trip discounted by the profile's memory-level
//! parallelism. This split is exactly why a frequency boost helps
//! compute-bound code more than memory-bound code — the mechanism behind
//! the paper's Figs. 9-12.

use serde::{Deserialize, Serialize};

use xylem_workloads::WorkloadProfile;

use crate::config::ArchConfig;

/// CPI decomposition at one operating frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpiBreakdown {
    /// Issue-limited CPI.
    pub base: f64,
    /// L1I miss stalls, cycles/instr.
    pub l1i_stall: f64,
    /// L1D miss (L2 access) stalls, cycles/instr.
    pub l2_access: f64,
    /// Coherence (cache-to-cache) stalls, cycles/instr.
    pub coherence: f64,
    /// Exposed DRAM stalls at this frequency, cycles/instr.
    pub dram: f64,
}

impl CpiBreakdown {
    /// Core-only CPI (everything that scales with frequency).
    pub fn core(&self) -> f64 {
        self.base + self.l1i_stall + self.l2_access + self.coherence
    }

    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.core() + self.dram
    }
}

/// Fraction of an L1-miss/L2-hit round trip that out-of-order execution
/// hides.
const L2_OVERLAP: f64 = 0.5;

/// Computes the CPI breakdown for `profile` at `f_ghz` with the given
/// average DRAM round-trip latency (ns, including on-die overhead).
pub fn cpi_breakdown(
    arch: &ArchConfig,
    profile: &WorkloadProfile,
    f_ghz: f64,
    dram_latency_ns: f64,
) -> CpiBreakdown {
    let l1i_stall =
        profile.l1i_mpki / 1000.0 * f64::from(arch.l2.round_trip_cycles) * (1.0 - L2_OVERLAP);
    let l2_access =
        profile.l1d_mpki / 1000.0 * f64::from(arch.l2.round_trip_cycles) * (1.0 - L2_OVERLAP);
    let coherence =
        profile.l2_mpki * profile.sharing_fraction / 1000.0 * f64::from(arch.c2c_cycles);
    let exposed_ns = dram_latency_ns * (1.0 - profile.mlp_overlap);
    let dram = profile.dram_apki() / 1000.0 * exposed_ns * f_ghz;
    CpiBreakdown {
        base: profile.base_cpi,
        l1i_stall,
        l2_access,
        coherence,
        dram,
    }
}

/// Execution time of one thread's `profile.instructions` instructions at
/// `f_ghz`, seconds.
pub fn exec_time_s(
    arch: &ArchConfig,
    profile: &WorkloadProfile,
    f_ghz: f64,
    dram_latency_ns: f64,
) -> f64 {
    let b = cpi_breakdown(arch, profile, f_ghz, dram_latency_ns);
    profile.instructions as f64 * b.total() / (f_ghz * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_workloads::Benchmark;

    const LAT: f64 = 42.0;

    /// Speedup of `f_ghz` over `f_ref_ghz` for `profile` (same DRAM latency).
    fn speedup(
        arch: &ArchConfig,
        profile: &WorkloadProfile,
        f_ref_ghz: f64,
        f_ghz: f64,
        dram_latency_ns: f64,
    ) -> f64 {
        exec_time_s(arch, profile, f_ref_ghz, dram_latency_ns)
            / exec_time_s(arch, profile, f_ghz, dram_latency_ns)
    }

    #[test]
    fn dram_component_scales_with_frequency_in_cycles_not_time() {
        let arch = ArchConfig::paper_default();
        let p = Benchmark::Ft.profile();
        let a = cpi_breakdown(&arch, &p, 2.4, LAT);
        let b = cpi_breakdown(&arch, &p, 3.5, LAT);
        assert!((a.core() - b.core()).abs() < 1e-12);
        assert!((b.dram / a.dram - 3.5 / 2.4).abs() < 1e-9);
        // Exposed DRAM *time* per instruction is frequency-invariant.
        let ta = a.dram / 2.4;
        let tb = b.dram / 3.5;
        assert!((ta - tb).abs() < 1e-12);
    }

    #[test]
    fn compute_bound_scales_better_than_memory_bound() {
        let arch = ArchConfig::paper_default();
        let s_compute = speedup(&arch, &Benchmark::LuNas.profile(), 2.4, 3.5, LAT);
        let s_memory = speedup(&arch, &Benchmark::Is.profile(), 2.4, 3.5, LAT);
        assert!(s_compute > 1.35, "{s_compute}");
        assert!(s_memory < 1.22, "{s_memory}");
        assert!(s_compute > s_memory);
    }

    #[test]
    fn every_benchmark_speeds_up_with_frequency() {
        let arch = ArchConfig::paper_default();
        for b in Benchmark::ALL {
            let s = speedup(&arch, &b.profile(), 2.4, 2.8, LAT);
            assert!(s > 1.0 && s < 2.8 / 2.4 + 1e-9, "{b}: {s}");
        }
    }

    #[test]
    fn higher_dram_latency_hurts_memory_bound_more() {
        let arch = ArchConfig::paper_default();
        let rel_slowdown = |b: Benchmark| {
            let p = b.profile();
            exec_time_s(&arch, &p, 2.4, 80.0) / exec_time_s(&arch, &p, 2.4, 42.0)
        };
        assert!(rel_slowdown(Benchmark::Is) > rel_slowdown(Benchmark::LuNas));
    }

    #[test]
    fn coherence_component_tracks_sharing() {
        let arch = ArchConfig::paper_default();
        let barnes = cpi_breakdown(&arch, &Benchmark::Barnes.profile(), 2.4, LAT);
        let black = cpi_breakdown(&arch, &Benchmark::Blackscholes.profile(), 2.4, LAT);
        assert!(barnes.coherence > black.coherence);
    }
}

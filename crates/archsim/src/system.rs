//! The simulated machine: profiles + caches + DRAM, end to end.
//!
//! [`Machine::run`] is the fast path the experiments use: it combines the
//! interval model with a DRAM-latency-under-load fixed point driven
//! through the real `xylem-dram` channel model, and derives the activity
//! factors the power model consumes.
//!
//! [`Machine::simulate_hierarchy`] is the measurement path: it generates
//! synthetic traces and runs them through the set-associative L1s and the
//! MESI-coherent L2s, reporting measured miss rates (used by tests to keep
//! profiles and simulation mutually consistent).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use xylem_dram::channel::{MemoryRequest, RequestKind, WideIoStack};
use xylem_dram::timing::WideIoTiming;
use xylem_workloads::{Benchmark, TraceGenerator, WorkloadProfile};

use crate::cache::{Cache, LineState};
use crate::coherence::{CoherentL2s, MissSource};
use crate::config::ArchConfig;
use crate::interval::{cpi_breakdown, CpiBreakdown};

/// Everything the power/thermal chain needs to know about one application
/// run at one frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppMetrics {
    /// Core frequency, GHz.
    pub f_ghz: f64,
    /// Threads in the run.
    pub threads: usize,
    /// CPI decomposition.
    pub cpi: CpiBreakdown,
    /// Execution time of the run, s.
    pub exec_time_s: f64,
    /// Average loaded DRAM round trip (incl. on-die overhead), ns.
    pub dram_latency_ns: f64,
    /// Per-core dynamic activity factor, 0..=1.
    pub activity: f64,
    /// Memory intensity (for the power-fraction blend), 0..=1.
    pub memory_intensity: f64,
    /// LLC/L2-traffic activity factor, 0..=1.
    pub llc_activity: f64,
    /// Per-channel memory-controller utilization, 0..=1.
    pub mc_utilization: [f64; 4],
    /// Coherence-bus activity factor, 0..=1.
    pub noc_activity: f64,
    /// DRAM reads/s across the stack.
    pub dram_read_rate: f64,
    /// DRAM writes/s across the stack.
    pub dram_write_rate: f64,
    /// DRAM activates/s across the stack.
    pub dram_activate_rate: f64,
    /// Sustained DRAM bandwidth, GB/s.
    pub dram_bandwidth_gbps: f64,
}

/// Measured miss rates from the trace-driven hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// Instructions simulated (all threads).
    pub instructions: u64,
    /// Measured L1I misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// Measured L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// Measured L2 misses per kilo-instruction (to bus).
    pub l2_mpki: f64,
    /// Fraction of L2 misses served cache-to-cache.
    pub c2c_fraction: f64,
    /// Measured DRAM accesses per kilo-instruction.
    pub dram_apki: f64,
}

/// The simulated 8-core machine.
#[derive(Debug, Clone)]
pub struct Machine {
    arch: ArchConfig,
    timing: WideIoTiming,
}

impl Machine {
    /// The paper's machine (Table 3).
    pub fn paper_default() -> Self {
        Machine {
            arch: ArchConfig::paper_default(),
            timing: WideIoTiming::paper_default(),
        }
    }

    /// Creates a machine from explicit parameters.
    pub fn new(arch: ArchConfig, timing: WideIoTiming) -> Self {
        Machine { arch, timing }
    }

    /// The architecture parameters.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs `benchmark` with `threads` threads at `f_ghz`; returns the
    /// full metrics bundle.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds the core count.
    pub fn run(&self, benchmark: Benchmark, f_ghz: f64, threads: usize) -> AppMetrics {
        assert!(
            threads >= 1 && threads <= self.arch.cores,
            "threads {threads} out of range"
        );
        let profile = benchmark.profile();
        let lat = self.dram_latency_under_load(&profile, f_ghz, threads);
        self.metrics_for_latency(&profile, f_ghz, threads, lat)
    }

    fn metrics_for_latency(
        &self,
        profile: &WorkloadProfile,
        f_ghz: f64,
        threads: usize,
        dram_latency_ns: f64,
    ) -> AppMetrics {
        let cpi = cpi_breakdown(&self.arch, profile, f_ghz, dram_latency_ns);
        let total_cpi = cpi.total();
        let exec_time_s = profile.instructions as f64 * total_cpi / (f_ghz * 1e9);

        let instr_rate_per_core = f_ghz * 1e9 / total_cpi;
        let dram_access_rate = threads as f64 * instr_rate_per_core * profile.dram_apki() / 1000.0;
        let read_rate = dram_access_rate * profile.read_fraction;
        let write_rate = dram_access_rate * (1.0 - profile.read_fraction);
        let activate_rate = dram_access_rate * (1.0 - profile.row_hit_fraction);
        let bandwidth_gbps = dram_access_rate * 64.0 / 1e9;

        // Activity: issue utilization shrinks as memory stalls grow.
        let activity = profile.activity_peak * (cpi.core() / total_cpi);

        // LLC activity from L2 accesses per cycle; MCs from channel
        // bandwidth; NoC from bus transactions.
        let l2_apc = profile.l1d_mpki / 1000.0 / total_cpi;
        let llc_activity = (l2_apc / 0.04).min(1.0);
        let per_channel_gbps = bandwidth_gbps / 4.0;
        let mc_util = (per_channel_gbps / 12.8).min(1.0);
        let bus_rate = threads as f64 * instr_rate_per_core * profile.l2_mpki / 1000.0;
        let noc_activity = (bus_rate / 400e6).min(1.0);

        AppMetrics {
            f_ghz,
            threads,
            cpi,
            exec_time_s,
            dram_latency_ns,
            activity,
            memory_intensity: profile.memory_intensity,
            llc_activity,
            mc_utilization: [mc_util; 4],
            noc_activity,
            dram_read_rate: read_rate,
            dram_write_rate: write_rate,
            dram_activate_rate: activate_rate,
            dram_bandwidth_gbps: bandwidth_gbps,
        }
    }

    /// Average DRAM round trip under the application's own load, ns
    /// (including on-die overhead): a fixed point between the interval
    /// model's access rate and the channel model's loaded latency.
    pub fn dram_latency_under_load(
        &self,
        profile: &WorkloadProfile,
        f_ghz: f64,
        threads: usize,
    ) -> f64 {
        let idle = self.timing.closed_latency() + self.arch.dram_overhead_ns;
        let mut lat = idle;
        for round in 0..3 {
            let cpi = cpi_breakdown(&self.arch, profile, f_ghz, lat);
            let rate = threads as f64 * (f_ghz * 1e9 / cpi.total()) * profile.dram_apki() / 1000.0;
            if rate <= 0.0 {
                return idle;
            }
            lat = self.simulate_channel_latency(profile, rate, 64 + round)
                + self.arch.dram_overhead_ns;
        }
        lat
    }

    /// Drives the Wide I/O channel model with a synthetic arrival process
    /// at `rate` accesses/s and returns the mean device latency, ns.
    fn simulate_channel_latency(&self, profile: &WorkloadProfile, rate: f64, seed: u64) -> f64 {
        const REQUESTS: usize = 4000;
        let mut stack = WideIoStack::new(self.timing);
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_gap_ns = 1e9 / rate;
        let mut now = 0.0_f64;
        // Track a current row per bank to honor the row-hit fraction.
        let mut rows = [[0u64; 16]; 4];
        for _ in 0..REQUESTS {
            // Exponential interarrival.
            let u: f64 = rng.gen_range(1e-9..1.0);
            now += -mean_gap_ns * u.ln();
            let ch = rng.gen_range(0..4usize);
            let bank16 = rng.gen_range(0..16usize);
            if !rng.gen_bool(profile.row_hit_fraction) {
                rows[ch][bank16] = rng.gen_range(0..4096);
            }
            let row = rows[ch][bank16];
            let addr = (row << 12)
                | ((bank16 as u64 & 0x3) << 10)
                | (((bank16 as u64) >> 2) << 8)
                | ((ch as u64) << 6);
            let kind = if rng.gen_bool(profile.read_fraction) {
                RequestKind::Read
            } else {
                RequestKind::Write
            };
            stack.access(MemoryRequest {
                addr,
                kind,
                issue_ns: now,
            });
        }
        stack.total_stats().mean_latency_ns()
    }

    /// Trace-driven cache-hierarchy simulation: `instructions` slots per
    /// thread through private L1I/L1D (write-through, no-write-allocate
    /// data cache per Table 3) and the MESI-coherent private L2s.
    pub fn simulate_hierarchy(
        &self,
        benchmark: Benchmark,
        instructions: u64,
        threads: usize,
        seed: u64,
    ) -> HierarchyReport {
        assert!(threads >= 1 && threads <= self.arch.cores);
        let profile = benchmark.profile();
        let mut l1i: Vec<Cache> = (0..threads).map(|_| Cache::new(self.arch.l1i)).collect();
        let mut l1d: Vec<Cache> = (0..threads).map(|_| Cache::new(self.arch.l1d)).collect();
        let mut l2s = CoherentL2s::new(threads, self.arch.l2);
        let mut gens: Vec<TraceGenerator> = (0..threads)
            .map(|t| TraceGenerator::new(profile, t, seed))
            .collect();

        let mut l1i_misses = 0u64;
        let mut l1d_misses = 0u64;
        let mut l2_misses = 0u64;
        let mut c2c = 0u64;
        let mut dram = 0u64;

        for _ in 0..instructions {
            for t in 0..threads {
                let ev = gens[t].next_event();
                if matches!(
                    l1i[t].access(ev.pc, false, LineState::Exclusive),
                    crate::cache::AccessOutcome::Miss { .. }
                ) {
                    l1i_misses += 1;
                    // Instruction fill goes through the local L2.
                    if let Some(src) = l2s.access(t, ev.pc | 1 << 62, false) {
                        l2_misses += 1;
                        match src {
                            MissSource::CacheToCache => c2c += 1,
                            MissSource::Dram => dram += 1,
                        }
                    }
                }
                if let Some((addr, is_write)) = ev.access {
                    if is_write {
                        // Write-through, no-write-allocate: the write always
                        // reaches the L2; the L1 is updated only on a hit.
                        let _ = l1d[t].state_of(addr); // modeling note: no allocate
                        if let Some(src) = l2s.access(t, addr, true) {
                            l2_misses += 1;
                            match src {
                                MissSource::CacheToCache => c2c += 1,
                                MissSource::Dram => dram += 1,
                            }
                        }
                        l1d_misses += 1; // WT writes count as L2 traffic
                    } else if matches!(
                        l1d[t].access(addr, false, LineState::Exclusive),
                        crate::cache::AccessOutcome::Miss { .. }
                    ) {
                        l1d_misses += 1;
                        if let Some(src) = l2s.access(t, addr, false) {
                            l2_misses += 1;
                            match src {
                                MissSource::CacheToCache => c2c += 1,
                                MissSource::Dram => dram += 1,
                            }
                        }
                    }
                }
            }
        }

        let total_instr = instructions * threads as u64;
        let k = 1000.0 / total_instr as f64;
        HierarchyReport {
            instructions: total_instr,
            l1i_mpki: l1i_misses as f64 * k,
            l1d_mpki: l1d_misses as f64 * k,
            l2_mpki: l2_misses as f64 * k,
            c2c_fraction: if l2_misses == 0 {
                0.0
            } else {
                c2c as f64 / l2_misses as f64
            },
            dram_apki: dram as f64 * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_consistent_metrics() {
        let m = Machine::paper_default();
        let a = m.run(Benchmark::Fft, 2.4, 8);
        assert!(a.exec_time_s > 0.0);
        assert!(a.activity > 0.0 && a.activity <= 1.0);
        assert!(a.dram_latency_ns >= 40.0, "{}", a.dram_latency_ns);
        assert!(a.dram_bandwidth_gbps < 51.2, "{}", a.dram_bandwidth_gbps);
    }

    #[test]
    fn memory_bound_apps_have_higher_latency_and_lower_activity() {
        let m = Machine::paper_default();
        let is = m.run(Benchmark::Is, 2.4, 8);
        let lu = m.run(Benchmark::LuNas, 2.4, 8);
        assert!(is.activity < lu.activity);
        assert!(is.dram_bandwidth_gbps > lu.dram_bandwidth_gbps);
        assert!(is.dram_latency_ns >= lu.dram_latency_ns - 2.0);
    }

    #[test]
    fn frequency_boost_shrinks_time_sublinearly_for_memory_bound() {
        let m = Machine::paper_default();
        let t24 = m.run(Benchmark::Ft, 2.4, 8).exec_time_s;
        let t35 = m.run(Benchmark::Ft, 3.5, 8).exec_time_s;
        let speedup = t24 / t35;
        assert!(speedup > 1.0 && speedup < 1.25, "{speedup}");
        let c24 = m.run(Benchmark::LuNas, 2.4, 8).exec_time_s;
        let c35 = m.run(Benchmark::LuNas, 3.5, 8).exec_time_s;
        assert!(c24 / c35 > 1.35, "{}", c24 / c35);
    }

    #[test]
    fn hierarchy_measurement_tracks_profile_ordering() {
        let m = Machine::paper_default();
        let is = m.simulate_hierarchy(Benchmark::Is, 40_000, 4, 11);
        let lu = m.simulate_hierarchy(Benchmark::LuNas, 40_000, 4, 11);
        assert!(
            is.l1d_mpki > lu.l1d_mpki,
            "{} vs {}",
            is.l1d_mpki,
            lu.l1d_mpki
        );
        assert!(
            is.dram_apki > lu.dram_apki,
            "{} vs {}",
            is.dram_apki,
            lu.dram_apki
        );
    }

    #[test]
    fn sharing_apps_see_cache_to_cache_traffic() {
        let m = Machine::paper_default();
        let barnes = m.simulate_hierarchy(Benchmark::Barnes, 60_000, 8, 5);
        assert!(barnes.c2c_fraction > 0.02, "{}", barnes.c2c_fraction);
    }

    #[test]
    fn loaded_latency_reasonable_for_all_benchmarks() {
        let m = Machine::paper_default();
        for b in Benchmark::ALL {
            // Row hits pull the mean below the idle closed-row latency;
            // queuing pushes it above. Both are bounded.
            let lat = m.dram_latency_under_load(&b.profile(), 2.4, 8);
            assert!((20.0..200.0).contains(&lat), "{b}: {lat} ns");
        }
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn too_many_threads_panics() {
        let m = Machine::paper_default();
        let _ = m.run(Benchmark::Fft, 2.4, 9);
    }
}

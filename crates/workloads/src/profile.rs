//! Workload profiles: the per-application numbers that drive the models.

use serde::{Deserialize, Serialize};

/// Per-application characterization used by the performance, power, and
/// DRAM models.
///
/// Rates are per-thread unless stated otherwise; the evaluated apps run
/// 8 threads (one per core) except in the thread-placement and migration
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Instructions per thread for one run (synthetic scale).
    pub instructions: u64,
    /// Core-limited CPI: cycles per instruction with a perfect memory
    /// system (issue width, dependencies, branches).
    pub base_cpi: f64,
    /// L1 instruction misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// L1 data misses per kilo-instruction (serviced by the private L2).
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction (go to DRAM or another L2).
    pub l2_mpki: f64,
    /// Fraction of L2 misses served by cache-to-cache transfer (MESI
    /// snooping) rather than DRAM.
    pub sharing_fraction: f64,
    /// Fraction of DRAM accesses that are reads.
    pub read_fraction: f64,
    /// Fraction of DRAM accesses that hit an open row.
    pub row_hit_fraction: f64,
    /// Fraction of DRAM latency hidden by memory-level parallelism /
    /// out-of-order overlap (0 = fully exposed, 1 = fully hidden).
    pub mlp_overlap: f64,
    /// Peak dynamic activity factor of a core running this code, 0..=1.
    pub activity_peak: f64,
    /// Memory intensity for the power-fraction blend, 0..=1.
    pub memory_intensity: f64,
    /// Working-set size per thread, bytes (a profile record; no model
    /// reads it).
    pub working_set: u64,
}

impl WorkloadProfile {
    /// Validates ranges; used by the constructor table test.
    pub fn validate(&self) -> Result<(), String> {
        fn frac(name: &str, v: f64) -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} = {v} outside [0,1]"))
            }
        }
        if self.instructions == 0 {
            return Err("instructions must be > 0".into());
        }
        if !(self.base_cpi.is_finite() && self.base_cpi > 0.0) {
            return Err(format!("base_cpi = {} invalid", self.base_cpi));
        }
        for (n, v) in [
            ("l1i_mpki", self.l1i_mpki),
            ("l1d_mpki", self.l1d_mpki),
            ("l2_mpki", self.l2_mpki),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{n} = {v} invalid"));
            }
        }
        frac("sharing_fraction", self.sharing_fraction)?;
        frac("read_fraction", self.read_fraction)?;
        frac("row_hit_fraction", self.row_hit_fraction)?;
        frac("mlp_overlap", self.mlp_overlap)?;
        frac("activity_peak", self.activity_peak)?;
        frac("memory_intensity", self.memory_intensity)?;
        if self.working_set == 0 {
            return Err("working_set must be > 0".into());
        }
        Ok(())
    }

    /// DRAM accesses per kilo-instruction (L2 misses not served by
    /// cache-to-cache transfers).
    pub fn dram_apki(&self) -> f64 {
        self.l2_mpki * (1.0 - self.sharing_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> WorkloadProfile {
        WorkloadProfile {
            instructions: 1_000_000,
            base_cpi: 0.6,
            l1i_mpki: 1.0,
            l1d_mpki: 20.0,
            l2_mpki: 3.0,
            sharing_fraction: 0.2,
            read_fraction: 0.7,
            row_hit_fraction: 0.6,
            mlp_overlap: 0.4,
            activity_peak: 0.8,
            memory_intensity: 0.4,
            working_set: 1 << 20,
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(valid().validate().is_ok());
        let mut p = valid();
        p.base_cpi = 0.0;
        assert!(p.validate().is_err());
        let mut p = valid();
        p.read_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = valid();
        p.instructions = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn dram_apki_discounts_sharing() {
        let p = valid();
        assert!((p.dram_apki() - 2.4).abs() < 1e-12);
    }
}

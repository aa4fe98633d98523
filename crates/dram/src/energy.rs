//! DRAM energy and power (the DRAMSim2 energy model stand-in).
//!
//! Produces per-die power for the thermal model from access rates and the
//! DRAM temperature (refresh power follows the JEDEC derating of
//! [`crate::timing::refresh_interval_ms`]). Calibrated so the 8-die stack
//! spans the paper's 2-4.5 W envelope (Sec. 6.2) between compute-bound and
//! memory-bound workloads.

use serde::{Deserialize, Serialize};

use crate::timing::refresh_interval_ms;

/// Per-operation energies and background power of one Wide I/O slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramEnergyModel {
    /// Energy of one 64-byte read burst (array + I/O), J.
    pub read_energy: f64,
    /// Energy of one 64-byte write burst, J.
    pub write_energy: f64,
    /// Energy of one ACT+PRE pair, J.
    pub activate_energy: f64,
    /// Energy of one refresh command (per die), J.
    pub refresh_energy: f64,
    /// Standby/peripheral background power per die, W.
    pub background_power: f64,
    /// Refresh commands per refresh window.
    pub refresh_commands: f64,
}

impl DramEnergyModel {
    /// The calibrated Wide I/O model.
    pub fn paper_default() -> Self {
        DramEnergyModel {
            read_energy: 4e-9,
            write_energy: 4.4e-9,
            activate_energy: 8e-9,
            refresh_energy: 0.5e-6,
            background_power: 0.15,
            refresh_commands: 8192.0,
        }
    }

    /// Refresh power of one die at `temp_c`, W.
    pub fn refresh_power(&self, temp_c: f64) -> f64 {
        let window_s = refresh_interval_ms(temp_c) * 1e-3;
        self.refresh_commands * self.refresh_energy / window_s
    }

    /// Total stack dynamic power for the given command rates (commands per
    /// second across the whole stack), W.
    pub fn dynamic_power(&self, read_rate: f64, write_rate: f64, activate_rate: f64) -> f64 {
        read_rate * self.read_energy
            + write_rate * self.write_energy
            + activate_rate * self.activate_energy
    }

    /// Power of one die, W: its share of the stack's dynamic power plus
    /// its own background and refresh power.
    ///
    /// # Panics
    ///
    /// Panics if `n_dies == 0`.
    pub fn die_power(
        &self,
        read_rate: f64,
        write_rate: f64,
        activate_rate: f64,
        temp_c: f64,
        n_dies: usize,
    ) -> f64 {
        assert!(n_dies > 0, "stack must have dies");
        self.dynamic_power(read_rate, write_rate, activate_rate) / n_dies as f64
            + self.background_power
            + self.refresh_power(temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_envelope_matches_paper() {
        let m = DramEnergyModel::paper_default();
        // Memory-bound: ~50% of 51.2 GB/s -> 400M accesses/s, 40% miss
        // activates.
        let hot = 8.0 * m.die_power(300e6, 100e6, 160e6, 85.0, 8);
        assert!((3.5..5.0).contains(&hot), "memory-bound stack {hot} W");
        // Compute-bound: ~5% utilization.
        let cold = 8.0 * m.die_power(30e6, 10e6, 16e6, 75.0, 8);
        assert!((1.5..2.6).contains(&cold), "compute-bound stack {cold} W");
    }

    #[test]
    fn refresh_power_doubles_past_85c() {
        let m = DramEnergyModel::paper_default();
        let p85 = m.refresh_power(85.0);
        let p95 = m.refresh_power(95.0);
        assert!((p95 / p85 - 2.0).abs() < 1e-9, "{}", p95 / p85);
        // 8192 * 0.5 uJ / 64 ms = 64 mW.
        assert!((p85 - 0.064).abs() < 1e-6, "{p85}");
    }

    #[test]
    fn die_power_splits_dynamic_evenly() {
        let m = DramEnergyModel::paper_default();
        let die = m.die_power(100e6, 50e6, 60e6, 80.0, 8);
        let per_die_static = m.background_power + m.refresh_power(80.0);
        let dynamic = m.dynamic_power(100e6, 50e6, 60e6);
        assert!((8.0 * die - (dynamic + 8.0 * per_die_static)).abs() < 1e-9);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let m = DramEnergyModel::paper_default();
        assert!(m.write_energy > m.read_energy);
        let p_w = m.dynamic_power(0.0, 100e6, 0.0);
        let p_r = m.dynamic_power(100e6, 0.0, 0.0);
        assert!(p_w > p_r);
    }
}

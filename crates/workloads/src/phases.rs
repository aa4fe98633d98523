//! Phased workload behaviour for transient experiments.
//!
//! The steady-state experiments use one average profile per application.
//! Transient studies (DTM throttling, thread migration) are more
//! interesting when applications move through phases — an
//! initialization/data-load phase (memory-heavy, cool), a main compute
//! phase (hot), and a reduce/writeback phase. [`PhasedWorkload`] wraps a
//! [`Benchmark`] in such a schedule while preserving the benchmark's
//! instruction-weighted average characteristics (the invariant the tests
//! enforce), so steady-state results remain consistent with the phased
//! view.

use serde::{Deserialize, Serialize};

use crate::benchmark::Benchmark;
use crate::profile::WorkloadProfile;

/// One phase of execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Fraction of the benchmark's instructions spent in this phase
    /// (phases of a workload sum to 1).
    pub weight: f64,
    /// Multiplier on the dynamic activity factor (clamped to [0, 1]).
    pub activity_scale: f64,
    /// Multiplier on the memory-side miss rates (L1D/L2).
    pub memory_scale: f64,
}

/// A benchmark with a phase schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedWorkload {
    benchmark: Benchmark,
    phases: Vec<Phase>,
}

impl PhasedWorkload {
    /// The default three-phase schedule: a short memory-heavy warm-up, a
    /// long main phase slightly hotter than average, and a short
    /// writeback tail. Scales are chosen so the instruction-weighted
    /// averages equal 1 (the benchmark's published profile).
    pub fn standard(benchmark: Benchmark) -> Self {
        // weights: 15% / 70% / 15%.
        // activity: w1*a1 + w2*a2 + w3*a3 = 1 with a1 = 0.6, a3 = 0.8:
        // a2 = (1 - 0.15*0.6 - 0.15*0.8) / 0.7 = 1.3/... computed below.
        let (w1, w2, w3) = (0.15, 0.70, 0.15);
        let (a1, a3) = (0.6, 0.8);
        let a2 = (1.0 - w1 * a1 - w3 * a3) / w2;
        let (m1, m3) = (1.8, 1.3);
        let m2 = (1.0 - w1 * m1 - w3 * m3) / w2;
        PhasedWorkload {
            benchmark,
            phases: vec![
                Phase {
                    weight: w1,
                    activity_scale: a1,
                    memory_scale: m1,
                },
                Phase {
                    weight: w2,
                    activity_scale: a2,
                    memory_scale: m2,
                },
                Phase {
                    weight: w3,
                    activity_scale: a3,
                    memory_scale: m3,
                },
            ],
        }
    }

    /// Creates a custom schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or weights do not sum to ~1.
    pub fn new(benchmark: Benchmark, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "schedule needs phases");
        let total: f64 = phases.iter().map(|p| p.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "phase weights sum to {total}, expected 1"
        );
        PhasedWorkload { benchmark, phases }
    }

    /// The underlying benchmark.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The schedule.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The effective profile during phase `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn phase_profile(&self, i: usize) -> WorkloadProfile {
        let phase = self.phases[i];
        let base = self.benchmark.profile();
        let mut p = base;
        p.instructions = ((base.instructions as f64) * phase.weight).round().max(1.0) as u64;
        p.activity_peak = (base.activity_peak * phase.activity_scale).clamp(0.0, 1.0);
        p.l1d_mpki = base.l1d_mpki * phase.memory_scale;
        p.l2_mpki = (base.l2_mpki * phase.memory_scale).min(p.l1d_mpki);
        p.memory_intensity = (base.memory_intensity * phase.memory_scale).clamp(0.0, 1.0);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instruction-weighted mean of a quantity over the phases.
    fn weighted_mean(w: &PhasedWorkload, f: impl Fn(&WorkloadProfile) -> f64) -> f64 {
        w.phases
            .iter()
            .enumerate()
            .map(|(i, ph)| ph.weight * f(&w.phase_profile(i)))
            .sum()
    }

    #[test]
    fn standard_schedule_preserves_averages() {
        for b in [Benchmark::Cholesky, Benchmark::Is, Benchmark::Fft] {
            let w = PhasedWorkload::standard(b);
            let base = b.profile();
            let act = weighted_mean(&w, |p| p.activity_peak);
            // Clamping bends the average for near-peak bases (Cholesky's
            // main phase saturates at activity 1.0), by up to ~6%.
            assert!(
                (act - base.activity_peak).abs() < 0.06,
                "{b}: {act} vs {}",
                base.activity_peak
            );
            let l1d = weighted_mean(&w, |p| p.l1d_mpki);
            assert!((l1d - base.l1d_mpki).abs() / base.l1d_mpki < 0.02, "{b}");
        }
    }

    #[test]
    fn phase_profiles_validate_and_differ() {
        let w = PhasedWorkload::standard(Benchmark::Barnes);
        let warmup = w.phase_profile(0);
        let main = w.phase_profile(1);
        warmup.validate().unwrap();
        main.validate().unwrap();
        assert!(warmup.activity_peak < main.activity_peak);
        assert!(warmup.l1d_mpki > main.l1d_mpki);
        // L2 never exceeds L1D after scaling.
        assert!(warmup.l2_mpki <= warmup.l1d_mpki);
    }

    #[test]
    fn instruction_split_follows_weights() {
        let w = PhasedWorkload::standard(Benchmark::Lu);
        let total: u64 = (0..3).map(|i| w.phase_profile(i).instructions).sum();
        let base = Benchmark::Lu.profile().instructions;
        let rel = (total as f64 - base as f64).abs() / (base as f64);
        assert!(rel < 0.01, "{rel}");
    }

    #[test]
    #[should_panic(expected = "weights sum")]
    fn bad_weights_panic() {
        let _ = PhasedWorkload::new(
            Benchmark::Fft,
            vec![Phase {
                weight: 0.5,
                activity_scale: 1.0,
                memory_scale: 1.0,
            }],
        );
    }
}

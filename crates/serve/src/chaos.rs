//! Deterministic fault injection for the serve chaos harness.
//!
//! Mirrors the sweep engine's chaos design: every injection decision is
//! a pure function of `(seed, session, step, attempt)`, so a chaos run
//! is exactly reproducible — re-running with the same seed injects the
//! same panics at the same slices, which is what lets the selftest
//! assert bit-identical recovery instead of merely "it didn't crash".

/// The serve hash: session, source and digest keys all use the spool's
/// frozen FNV-1a variant.
pub use xylem_obs::hash::fnv1a_serve as fnv1a;
use xylem_obs::hash::splitmix64;

/// What chaos decided to do to one slice attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Run the slice normally.
    None,
    /// Panic inside the slice (exercises `catch_unwind` isolation).
    Panic,
    /// Fail the slice with a synthetic solver error (exercises retry).
    Error,
    /// Miss the slice deadline (exercises the degradation ladder).
    Deadline,
}

/// Per-server fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability of an injected panic, per mille.
    pub panic_per_mille: u16,
    /// Probability of a synthetic solver error, per mille.
    pub error_per_mille: u16,
    /// Probability of a synthetic deadline miss, per mille.
    pub deadline_per_mille: u16,
}

impl ChaosConfig {
    /// A configuration that injects nothing (useful as a base).
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            error_per_mille: 0,
            deadline_per_mille: 0,
        }
    }

    /// Decides the fate of one slice attempt.
    ///
    /// `session_key` is a stable hash of the session id, `step` the
    /// state's step counter at slice start, `attempt` the retry count.
    /// Faults are mutually exclusive and checked in panic → error →
    /// deadline order over one uniform draw.
    pub fn decide(&self, session_key: u64, step: u64, attempt: u32) -> ChaosOutcome {
        let key = session_key ^ step.rotate_left(17) ^ (u64::from(attempt) << 48);
        let draw = splitmix64(self.seed ^ splitmix64(key)) % 1000;
        let p = u64::from(self.panic_per_mille);
        let e = u64::from(self.error_per_mille);
        let d = u64::from(self.deadline_per_mille);
        if draw < p {
            ChaosOutcome::Panic
        } else if draw < p + e {
            ChaosOutcome::Error
        } else if draw < p + e + d {
            ChaosOutcome::Deadline
        } else {
            ChaosOutcome::None
        }
    }
}

/// The marker every injected panic's payload starts with; the panic
/// hook filter and the outcome classifier both key on it.
pub const CHAOS_PANIC_MARKER: &str = "chaos: injected panic";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_mixed() {
        let c = ChaosConfig {
            seed: 42,
            panic_per_mille: 100,
            error_per_mille: 100,
            deadline_per_mille: 100,
        };
        let mut counts = [0usize; 4];
        for s in 0..200u64 {
            for step in 0..5u64 {
                let a = c.decide(s, step, 0);
                let b = c.decide(s, step, 0);
                assert_eq!(a, b, "decision must be a pure function");
                counts[match a {
                    ChaosOutcome::None => 0,
                    ChaosOutcome::Panic => 1,
                    ChaosOutcome::Error => 2,
                    ChaosOutcome::Deadline => 3,
                }] += 1;
            }
        }
        // 10% each over 1000 draws: every class must actually occur.
        assert!(
            counts[1] > 10 && counts[2] > 10 && counts[3] > 10,
            "{counts:?}"
        );
        assert!(counts[0] > counts[1], "{counts:?}");
    }

    #[test]
    fn attempts_redraw_independently() {
        let c = ChaosConfig {
            seed: 7,
            panic_per_mille: 500,
            error_per_mille: 0,
            deadline_per_mille: 0,
        };
        // Across many sessions, at least one flips outcome between
        // attempt 0 and attempt 1 — retries are not doomed to repeat.
        let flipped = (0..100u64).any(|s| c.decide(s, 0, 0) != c.decide(s, 0, 1));
        assert!(flipped);
    }

    #[test]
    fn quiet_injects_nothing() {
        let c = ChaosConfig::quiet(9);
        for s in 0..50 {
            assert_eq!(c.decide(s, 3, 1), ChaosOutcome::None);
        }
    }
}

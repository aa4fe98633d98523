//! Deterministic fault injection for the serve chaos harness.
//!
//! The roll itself is [`xylem::supervise::ChaosConfig::roll`], shared
//! with the sweep engine; serve keys it by `(session, step, attempt)`
//! ([`slice_key`]), so a chaos run is exactly reproducible — re-running
//! with the same seed injects the same panics at the same slices, which
//! is what lets the selftest assert bit-identical recovery instead of
//! merely "it didn't crash".

pub use xylem::supervise::ChaosConfig;
/// The serve hash: session, source and digest keys all use the spool's
/// frozen FNV-1a variant.
pub use xylem_obs::hash::fnv1a_serve as fnv1a;

/// The roll key of one slice attempt. `session_key` is a stable hash of
/// the session id, `step` the state's step counter at slice start,
/// `attempt` the retry count; each redraws independently.
#[must_use]
pub fn slice_key(session_key: u64, step: u64, attempt: u32) -> u64 {
    session_key ^ step.rotate_left(17) ^ (u64::from(attempt) << 48)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem::supervise::Fault;

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
                let a = c.roll(slice_key(s, step, 0));
                let b = c.roll(slice_key(s, step, 0));
                assert_eq!(a, b, "decision must be a pure function");
                counts[match a {
                    Fault::None => 0,
                    Fault::Panic => 1,
                    Fault::Error => 2,
                    Fault::Deadline => 3,
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
        let flipped = (0..100u64).any(|s| c.roll(slice_key(s, 0, 0)) != c.roll(slice_key(s, 0, 1)));
        assert!(flipped);
    }

    #[test]
    fn quiet_injects_nothing() {
        let c = ChaosConfig {
            seed: 9,
            ..ChaosConfig::default()
        };
        for s in 0..50 {
            assert_eq!(c.roll(slice_key(s, 3, 1)), Fault::None);
        }
    }
}

//! Deterministic retry backoff: exponential envelope, seeded splitmix64
//! jitter.
//!
//! The delay before retry `attempt` is drawn from
//! `[envelope/2, envelope]` where `envelope = base · 2^(attempt-1)`
//! capped at `max_ms`. The jitter is a counter-based splitmix64 hash of
//! `(seed, task key, attempt)` — no RNG state exists, so replaying a
//! task (e.g. after a journal resume) or re-sharding the pool reproduces
//! the identical schedule at any thread count.

use xylem_obs::hash::splitmix64;

/// Exponential-backoff policy with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Envelope for the first retry, milliseconds. Zero disables
    /// sleeping entirely (useful in tests).
    pub base_ms: u64,
    /// Hard cap on any single delay, milliseconds.
    pub max_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 25,
            max_ms: 1_000,
        }
    }
}

impl BackoffPolicy {
    /// Delay in milliseconds before retrying after failed attempt
    /// `attempt` (1-based). Pure in `(self, seed, task_key, attempt)`:
    /// the same inputs always produce the same delay, and every delay is
    /// `<= max_ms`.
    #[must_use]
    pub fn delay_ms(&self, seed: u64, task_key: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 || self.max_ms == 0 {
            return 0;
        }
        // 2^(attempt-1) envelope, saturating well before u64 overflow.
        let shift = attempt.saturating_sub(1).min(20);
        let envelope = self.base_ms.saturating_mul(1u64 << shift).min(self.max_ms);
        let half = envelope / 2;
        let jitter = splitmix64(seed ^ splitmix64(task_key ^ u64::from(attempt))) % (half + 1);
        (envelope - half + jitter).min(self.max_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_under_a_fixed_seed() {
        let p = BackoffPolicy::default();
        for attempt in 1..=8 {
            for key in [0u64, 7, 0xDEAD_BEEF] {
                assert_eq!(
                    p.delay_ms(42, key, attempt),
                    p.delay_ms(42, key, attempt),
                    "attempt {attempt} key {key}"
                );
            }
        }
        // Different seeds decorrelate the jitter.
        assert_ne!(
            (1..=8).map(|a| p.delay_ms(1, 9, a)).collect::<Vec<_>>(),
            (1..=8).map(|a| p.delay_ms(2, 9, a)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn delay_is_bounded_by_max_delay() {
        let p = BackoffPolicy {
            base_ms: 40,
            max_ms: 300,
        };
        for seed in 0..20u64 {
            for key in 0..20u64 {
                for attempt in 1..=64u32 {
                    let d = p.delay_ms(seed, key, attempt);
                    assert!(
                        d <= p.max_ms,
                        "{d} > {} for {seed}/{key}/{attempt}",
                        p.max_ms
                    );
                }
            }
        }
        // Huge attempt numbers must not overflow the envelope.
        assert!(p.delay_ms(0, 0, u32::MAX) <= p.max_ms);
    }

    #[test]
    fn envelope_grows_until_the_cap() {
        let p = BackoffPolicy {
            base_ms: 10,
            max_ms: 640,
        };
        // Lower bound of the jitter window is envelope/2, which doubles
        // per attempt until max_ms pins it.
        for attempt in 1..=6u32 {
            let d = p.delay_ms(3, 3, attempt);
            let envelope = (10u64 << (attempt - 1)).min(640);
            assert!(d >= envelope - envelope / 2, "{d} vs {envelope}");
            assert!(d <= envelope, "{d} vs {envelope}");
        }
    }

    #[test]
    fn zero_base_disables_sleeping() {
        let p = BackoffPolicy {
            base_ms: 0,
            max_ms: 500,
        };
        assert_eq!(p.delay_ms(1, 2, 3), 0);
    }
}

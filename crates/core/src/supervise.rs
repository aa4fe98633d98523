//! Supervision shared by the sweep engine and the serve scheduler.
//!
//! * [`fork_join`] runs a batch of jobs on worker threads that are
//!   joined before it returns, with each job isolated by
//!   `catch_unwind`: a panic becomes that job's `Err`, never the
//!   caller's.
//! * [`ChaosConfig::roll`] is the seeded fault draw behind both chaos
//!   harnesses. A roll is a pure function of the seed and a caller key,
//!   so a chaos campaign is reproducible bit for bit; each caller mixes
//!   its own key (task and attempt for the sweep; session, step and
//!   attempt for serve).
//! * [`panic_message`], [`CHAOS_PANIC_MARKER`] and
//!   [`silence_expected_panics`] are the panic idiom: how a caught
//!   payload reads, and how injected panics stay off stderr.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use xylem_obs::hash::splitmix64;

/// Runs `run` over every job and returns the results in job order.
///
/// `workers == 0` runs every job inline on the caller. Otherwise
/// `min(workers, jobs.len())` scoped threads take jobs in order from a
/// shared queue (FIFO), and every thread is joined before the call
/// returns. A bare `std::thread::scope` returns once each closure has
/// finished, which can be before the thread's own teardown (thread-local
/// destructors, the allocator's arena release) has run; `join` waits for
/// the thread to exit.
///
/// A job that panics yields `Err(panic_message(payload))` and the other
/// jobs still run. A worker that cannot be spawned leaves its share of
/// the queue to the caller's thread.
pub fn fork_join<J, R, F>(workers: usize, jobs: Vec<J>, run: F) -> Vec<Result<R, String>>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let attempt = |job: J| {
        catch_unwind(AssertUnwindSafe(|| run(job))).map_err(|payload| panic_message(&*payload))
    };
    if workers == 0 {
        return jobs.into_iter().map(attempt).collect();
    }
    let n = jobs.len();
    // The queue lock is held only for `next()`, which cannot panic, so
    // a poisoned lock still guards a consistent iterator.
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, job)) = next else {
                return done;
            };
            done.push((i, attempt(job)));
        }
    };
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| std::thread::Builder::new().spawn_scoped(s, drain))
            .collect();
        let mut done = if handles.iter().any(Result::is_err) {
            drain()
        } else {
            Vec::new()
        };
        for handle in handles.into_iter().flatten() {
            // Job panics are caught inside `drain`, so a join error
            // means the loop glue itself died; its jobs stay unreported.
            if let Ok(part) = handle.join() {
                done.extend(part);
            }
        }
        for (i, result) in done {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err("worker thread died before reporting".to_string())))
        .collect()
}

/// Seeded fault injection. Each knob is a per-mille probability; the
/// three faults are mutually exclusive, checked in panic → error →
/// deadline order over one uniform draw per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Seed mixed into every roll.
    pub seed: u64,
    /// Probability (0..=1000) of an injected panic.
    pub panic_per_mille: u16,
    /// Probability (0..=1000) of an injected solver error.
    pub error_per_mille: u16,
    /// Probability (0..=1000) of an injected deadline miss.
    pub deadline_per_mille: u16,
}

/// What one chaos roll injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Run normally.
    None,
    /// Panic (exercises `catch_unwind` isolation).
    Panic,
    /// Fail with a synthetic solver error (exercises retry).
    Error,
    /// Miss the deadline (exercises the deadline path).
    Deadline,
}

impl ChaosConfig {
    /// The fault for `key`: `splitmix64(seed ^ splitmix64(key)) % 1000`
    /// against the cumulative thresholds.
    #[must_use]
    pub fn roll(&self, key: u64) -> Fault {
        let draw = splitmix64(self.seed ^ splitmix64(key)) % 1000;
        let panic_to = u64::from(self.panic_per_mille);
        let error_to = panic_to + u64::from(self.error_per_mille);
        let deadline_to = error_to + u64::from(self.deadline_per_mille);
        if draw < panic_to {
            Fault::Panic
        } else if draw < error_to {
            Fault::Error
        } else if draw < deadline_to {
            Fault::Deadline
        } else {
            Fault::None
        }
    }
}

/// The marker every injected panic's payload starts with; the panic
/// hook of [`silence_expected_panics`] keys on it.
pub const CHAOS_PANIC_MARKER: &str = "chaos: injected panic";

/// Renders a caught panic payload: `panic: <message>` for the two
/// string payload kinds `panic!` produces.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that drops panics whose
/// message carries [`CHAOS_PANIC_MARKER`] and prints every other panic.
/// Call it before enabling fault injection, so an injected panic does
/// not spray a report (and, with `RUST_BACKTRACE` set, a backtrace)
/// onto stderr.
pub fn silence_expected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(CHAOS_PANIC_MARKER) {
                eprintln!("{info}");
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_job_order() {
        let out = fork_join(3, (0..40u64).collect(), |x| x * x);
        let want: Vec<Result<u64, String>> = (0..40u64).map(|x| Ok(x * x)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        silence_expected_panics();
        let ran = AtomicUsize::new(0);
        let out = fork_join(2, (0..9u32).collect(), |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 4 {
                panic!("{CHAOS_PANIC_MARKER} (job {x})");
            }
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 9, "every job still runs");
        for (x, r) in out.iter().enumerate() {
            if x == 4 {
                assert_eq!(r, &Err(format!("panic: {CHAOS_PANIC_MARKER} (job 4)")));
            } else {
                assert_eq!(r, &Ok(x as u32));
            }
        }
    }

    #[test]
    fn inline_mode_runs_every_job_on_the_caller() {
        let caller = std::thread::current().id();
        let out = fork_join(0, vec![1, 2, 3], |x| (x, std::thread::current().id()));
        let want: Vec<Result<_, String>> = [1, 2, 3].map(|x| Ok((x, caller))).into();
        assert_eq!(out, want);
    }

    #[test]
    fn more_jobs_than_workers_run_once_each_on_the_workers() {
        let caller = std::thread::current().id();
        let out = fork_join(2, (0..50usize).collect(), |x| {
            (x, std::thread::current().id())
        });
        let mut threads = Vec::new();
        for (i, r) in out.into_iter().enumerate() {
            let (x, id) = r.expect("no job panics");
            assert_eq!(x, i);
            assert_ne!(id, caller, "worker mode never runs a job on the caller");
            if !threads.contains(&id) {
                threads.push(id);
            }
        }
        assert!(
            threads.len() <= 2,
            "{} worker threads for 2 workers",
            threads.len()
        );
    }

    /// Bumped by the thread-local destructor each worker thread runs at
    /// exit, after its last job.
    static EXITED: AtomicUsize = AtomicUsize::new(0);

    struct ExitProbe;

    impl Drop for ExitProbe {
        fn drop(&mut self) {
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static PROBE: ExitProbe = const { ExitProbe };
    }

    #[test]
    fn no_worker_outlives_the_call() {
        const WORKERS: usize = 2;
        const CALLS: usize = 200;
        for call in 1..=CALLS {
            // One job per worker, each held until all have started, so
            // every spawned thread runs exactly one job and registers
            // its thread-local destructor.
            let barrier = Barrier::new(WORKERS);
            let out = fork_join(WORKERS, vec![(); WORKERS], |()| {
                PROBE.with(|_| {});
                barrier.wait();
            });
            assert!(out.iter().all(Result::is_ok));
            assert_eq!(
                EXITED.load(Ordering::SeqCst),
                call * WORKERS,
                "call {call}: a worker thread was still tearing down after fork_join returned"
            );
        }
    }

    #[test]
    fn panic_messages_extract_both_payload_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "panic: static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "panic: owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "panic with non-string payload");
    }
}

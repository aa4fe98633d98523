//! The sweep orchestrator: sharded workers, panic isolation, retries,
//! deadlines, quarantine, and journal-backed resume.
//!
//! The supervision ladder (DESIGN.md §18) runs bottom-up:
//!
//! 1. **attempt** — one evaluation, wrapped in `catch_unwind` so a
//!    panicking model can never take down the orchestrator, with an
//!    optional wall-clock [`DeadlineGuard`] threaded into the CG loop so
//!    a stuck solve aborts cleanly instead of hanging the worker;
//! 2. **task** — up to `max_attempts` attempts with deterministic
//!    seeded exponential backoff between them; a failed attempt evicts
//!    the worker's cached [`XylemSystem`] for that stack (it may hold
//!    partially-updated state); exhausting every attempt quarantines
//!    the task;
//! 3. **worker** — one shard of tasks (sharded by
//!    [`TaskSpec::stack_key`], so every distinct stack is built exactly
//!    once per sweep) per fork-join worker thread
//!    ([`xylem::supervise::fork_join`]), which isolates the whole shard
//!    in its own `catch_unwind` and is joined before the sweep goes on;
//! 4. **sweep** — merges worker output with journal replay; tasks a
//!    crashed shard never reached are synthesized as quarantined, so
//!    the final report accounts for *every* task either `ok` or
//!    `quarantined` and [`run_sweep`] itself never panics.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use xylem::headroom::max_frequency_at_iso_temperature;
use xylem::supervise::{fork_join, panic_message, ChaosConfig, Fault, CHAOS_PANIC_MARKER};
use xylem::{SweepError, XylemError, XylemSystem};
use xylem_obs::metrics::{incr, record_ns, summarize, Counter, Hist, HistSummary};
use xylem_thermal::units::Celsius;
use xylem_thermal::{DeadlineGuard, ThermalError};

use crate::backoff::BackoffPolicy;
use crate::journal::{Journal, JournalScan, TaskRecord, TaskResult, TaskStatus};
use crate::spec::{SweepSpec, TaskSpec};

/// The chaos roll key of one task attempt.
fn chaos_key(task_key: u64, attempt: u32) -> u64 {
    task_key ^ (u64::from(attempt) << 32)
}

/// Knobs for [`run_sweep`]. `Default` is a journal-less in-process sweep
/// with 3 attempts per task and automatic shard count.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (0 = one per available core, capped at the
    /// pending-task count).
    pub shards: usize,
    /// Attempts per task before quarantine (minimum 1).
    pub max_attempts: u32,
    /// Backoff between attempts.
    pub backoff: BackoffPolicy,
    /// Seed for backoff jitter (combined with each task's key hash).
    pub seed: u64,
    /// Per-attempt wall-clock deadline, ms (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Journal file (`None` = in-memory only, no resume).
    pub journal_path: Option<PathBuf>,
    /// Replay an existing journal at `journal_path` instead of starting
    /// over (ignored when the file does not exist).
    pub resume: bool,
    /// Unit-response cache directory for built stacks (`None` disables
    /// the disk cache).
    pub cache_dir: Option<PathBuf>,
    /// Journal appends per fsync (1 = every record).
    pub fsync_every: usize,
    /// Artificial delay after each task, ms — slows the sweep down so
    /// crash tests can kill it mid-run at a predictable point.
    pub pace_ms: u64,
    /// Fault injection for chaos tests.
    pub chaos: Option<ChaosConfig>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            shards: 0,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            seed: 0,
            deadline_ms: None,
            journal_path: None,
            resume: false,
            cache_dir: None,
            fsync_every: 8,
            pace_ms: 0,
            chaos: None,
        }
    }
}

/// The outcome of a completed sweep. Every task of the spec appears in
/// [`SweepReport::records`] exactly once, `ok` or `quarantined`, sorted
/// by task id.
#[derive(Debug)]
pub struct SweepReport {
    /// The spec's config hash (also the journal header hash).
    pub spec_hash: String,
    /// Tasks in the (possibly sampled) grid.
    pub total: usize,
    /// Tasks that evaluated successfully.
    pub ok: usize,
    /// Tasks that exhausted every attempt.
    pub quarantined: usize,
    /// Failed attempts that were retried (fresh tasks only).
    pub retried_attempts: u64,
    /// Tasks replayed from the journal instead of re-evaluated.
    pub replayed: usize,
    /// Duplicate journal records tolerated during replay (keep-first).
    pub duplicate_journal_records: usize,
    /// Torn-tail bytes dropped from the journal during resume.
    pub torn_tail_bytes: u64,
    /// Wall-clock time of this run, s.
    pub elapsed_s: f64,
    /// Freshly-evaluated tasks per second of wall-clock time.
    pub tasks_per_sec: f64,
    /// Per-task latency distribution (process-wide `sweep_task_ms`).
    pub task_latency: HistSummary,
    /// One terminal record per task, sorted by id.
    pub records: Vec<TaskRecord>,
}

impl SweepReport {
    /// The record for task `id`, if it is part of this sweep.
    #[must_use]
    pub fn result_of(&self, id: u64) -> Option<&TaskRecord> {
        self.records
            .binary_search_by_key(&id, |r| r.id)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Fails if any task was quarantined, carrying every quarantined
    /// task's key and final error.
    ///
    /// # Errors
    ///
    /// [`XylemError::Sweep`] with [`SweepError::Quarantined`].
    pub fn require_complete(&self) -> Result<(), XylemError> {
        if self.quarantined == 0 {
            return Ok(());
        }
        let tasks = self
            .records
            .iter()
            .filter(|r| r.status == TaskStatus::Quarantined)
            .map(|r| {
                let reason = r
                    .error
                    .clone()
                    .unwrap_or_else(|| "no error recorded".to_string());
                (r.key.clone(), reason)
            })
            .collect();
        Err(SweepError::Quarantined {
            total: self.total,
            tasks,
        }
        .into())
    }
}

fn effective_shards(requested: usize, pending: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = if requested == 0 { auto } else { requested };
    n.clamp(1, pending.max(1))
}

/// Recovers a poisoned mutex: the protected values (record vectors,
/// first-error slots) are written atomically from the holder's view, so
/// the data is usable even if the holding thread died.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        if xylem_obs::enabled() {
            xylem_obs::event("sweep_state_lock_recovered").emit();
        }
        poisoned.into_inner()
    })
}

/// Builds (or reuses) the task's stack and evaluates it: one uniform
/// 8-thread run, plus the DTM max-frequency search when the task has a
/// trip-temperature axis.
fn evaluate_task(
    systems: &mut BTreeMap<u64, XylemSystem>,
    task: &TaskSpec,
    grid: usize,
    cache_dir: Option<&Path>,
) -> Result<TaskResult, XylemError> {
    let system = match systems.entry(task.stack_key()) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(v) => v.insert(XylemSystem::new(task.system_config(grid, cache_dir))?),
    };
    let e = system.evaluate_uniform(task.benchmark, task.f_ghz)?;
    let dtm_f_ghz = match task.trip_c {
        None => None,
        Some(trip) => max_frequency_at_iso_temperature(system, task.benchmark, Celsius::new(trip))?
            .map(|b| b.f_ghz),
    };
    Ok(TaskResult {
        proc_hotspot_c: e.proc_hotspot_c,
        dram_hotspot_c: e.dram_hotspot_c,
        total_power_w: e.total_power_w,
        exec_time_s: e.workloads.first().map_or(0.0, |w| w.metrics.exec_time_s),
        core_hotspot_c: e.core_hotspot_c,
        dtm_f_ghz,
    })
}

/// One attempt: optional chaos injection, optional deadline, the
/// evaluation itself — all inside the caller's `catch_unwind`.
fn attempt_task(
    systems: &mut BTreeMap<u64, XylemSystem>,
    task: &TaskSpec,
    grid: usize,
    cache_dir: Option<&Path>,
    deadline_ms: Option<u64>,
    chaos: Option<&ChaosConfig>,
    attempt: u32,
) -> Result<TaskResult, XylemError> {
    if let Some(chaos) = chaos {
        match chaos.roll(chaos_key(task.key_hash(), attempt)) {
            Fault::None => {}
            Fault::Panic => {
                panic!(
                    "{CHAOS_PANIC_MARKER} (task {}, attempt {attempt})",
                    task.key()
                )
            }
            Fault::Error => {
                return Err(ThermalError::NoConvergence {
                    iterations: 0,
                    residual: 1.0,
                    tolerance: 1e-9,
                }
                .into());
            }
            Fault::Deadline => {
                // A real blowout would trip the in-CG deadline check;
                // synthesizing the same error keeps chaos runs fast and
                // exercises the identical recovery path.
                return Err(ThermalError::DeadlineExceeded { iterations: 0 }.into());
            }
        }
    }
    let _deadline =
        deadline_ms.map(|ms| DeadlineGuard::install(Instant::now() + Duration::from_millis(ms)));
    evaluate_task(systems, task, grid, cache_dir)
}

struct WorkerCtx<'a> {
    grid: usize,
    cache_dir: Option<&'a Path>,
    opts: &'a SweepOptions,
    journal: Option<&'a Journal>,
    results: &'a Mutex<Vec<TaskRecord>>,
    journal_error: &'a Mutex<Option<SweepError>>,
}

/// Processes one shard of tasks. Returns early (leaving tasks
/// unprocessed) only when the journal itself fails — those tasks are
/// synthesized as quarantined by the orchestrator.
fn run_worker(ctx: &WorkerCtx<'_>, tasks: &[TaskSpec]) {
    let mut systems: BTreeMap<u64, XylemSystem> = BTreeMap::new();
    for task in tasks {
        let started = Instant::now();
        let mut record = None;
        let max_attempts = ctx.opts.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                attempt_task(
                    &mut systems,
                    task,
                    ctx.grid,
                    ctx.cache_dir,
                    ctx.opts.deadline_ms,
                    ctx.opts.chaos.as_ref(),
                    attempt,
                )
            }));
            let error = match outcome {
                Ok(Ok(result)) => {
                    record = Some(TaskRecord {
                        id: task.id as u64,
                        key: task.key(),
                        status: TaskStatus::Ok,
                        attempts: attempt,
                        result: Some(result),
                        error: None,
                    });
                    break;
                }
                Ok(Err(e)) => e.to_string(),
                Err(payload) => panic_message(payload.as_ref()),
            };
            // The failed attempt may have left this stack's cached
            // system partially updated — rebuild it next attempt.
            systems.remove(&task.stack_key());
            if attempt < max_attempts {
                incr(Counter::SweepTasksRetried);
                let delay = ctx
                    .opts
                    .backoff
                    .delay_ms(ctx.opts.seed, task.key_hash(), attempt);
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
            } else {
                record = Some(TaskRecord {
                    id: task.id as u64,
                    key: task.key(),
                    status: TaskStatus::Quarantined,
                    attempts: attempt,
                    result: None,
                    error: Some(error),
                });
            }
        }
        let Some(record) = record else {
            // Unreachable (max_attempts >= 1 always produces a record),
            // but never panic the worker over it.
            continue;
        };
        match record.status {
            TaskStatus::Ok => incr(Counter::SweepTasksOk),
            TaskStatus::Quarantined => incr(Counter::SweepTasksQuarantined),
        }
        let elapsed = started.elapsed();
        record_ns(
            Hist::SweepTaskMs,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        if xylem_obs::enabled() {
            xylem_obs::event("sweep_task_done")
                .u64("id", record.id)
                .str("key", &record.key)
                .str("status", record.status.label())
                .u64("attempts", u64::from(record.attempts))
                .f64("elapsed_ms", elapsed.as_secs_f64() * 1e3)
                .emit();
        }
        if let Some(journal) = ctx.journal {
            if let Err(e) = journal.append(&record) {
                let mut slot = lock_or_recover(ctx.journal_error);
                slot.get_or_insert(e);
                // A dead journal means completed work can no longer be
                // made durable; stop burning CPU on this shard.
                return;
            }
        }
        lock_or_recover(ctx.results).push(record);
        if ctx.opts.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(ctx.opts.pace_ms));
        }
    }
}

/// Runs `spec` to completion under `opts`.
///
/// Always returns a report in which **every** task is `ok` or
/// `quarantined` — evaluation failures never fail the sweep. The `Err`
/// path is reserved for infrastructure failures: an invalid spec, or a
/// journal that cannot be created, replayed, or appended to.
///
/// # Errors
///
/// [`XylemError::Config`] for an invalid spec; [`XylemError::Sweep`] for
/// journal I/O, corruption, or spec-mismatch failures.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepReport, XylemError> {
    spec.validate()?;
    let started = Instant::now();
    let tasks = spec.tasks();
    let spec_hash = spec.spec_hash();
    let total = tasks.len();

    // Journal setup: create fresh, or replay an existing file.
    let mut replayed: Vec<TaskRecord> = Vec::new();
    let mut duplicate_journal_records = 0usize;
    let mut torn_tail_bytes = 0u64;
    let journal = match &opts.journal_path {
        None => None,
        Some(path) => {
            if opts.resume && path.exists() {
                let (journal, scan) =
                    Journal::open_resume(path, &spec_hash, total, opts.fsync_every)?;
                let JournalScan {
                    records,
                    duplicates,
                    torn_tail_bytes: torn,
                    ..
                } = scan;
                replayed = records;
                duplicate_journal_records = duplicates;
                torn_tail_bytes = torn;
                Some(journal)
            } else {
                Some(Journal::create(path, &spec_hash, total, opts.fsync_every)?)
            }
        }
    };

    let mut done = vec![false; total];
    for r in &replayed {
        done[r.id as usize] = true;
    }
    let pending: Vec<TaskSpec> = tasks.into_iter().filter(|t| !done[t.id]).collect();

    // Shard by stack so each distinct stack is built exactly once.
    let n_shards = effective_shards(opts.shards, pending.len());
    let mut shards: Vec<Vec<TaskSpec>> = (0..n_shards).map(|_| Vec::new()).collect();
    for task in pending {
        let shard = (task.stack_key() % n_shards as u64) as usize;
        shards[shard].push(task);
    }

    let results: Mutex<Vec<TaskRecord>> = Mutex::new(Vec::new());
    let journal_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let ctx = WorkerCtx {
        grid: spec.grid,
        cache_dir: opts.cache_dir.as_deref(),
        opts,
        journal: journal.as_ref(),
        results: &results,
        journal_error: &journal_error,
    };
    let live: Vec<&[TaskSpec]> = shards
        .iter()
        .filter(|shard| !shard.is_empty())
        .map(Vec::as_slice)
        .collect();
    // A panic escaping the per-attempt net (e.g. in journaling glue)
    // ends only its shard; records it pushed before stay.
    let worker_crashed = fork_join(n_shards, live, |shard| run_worker(&ctx, shard))
        .iter()
        .any(Result::is_err);

    let mut fresh = results.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = lock_or_recover(&journal_error).take() {
        return Err(e.into());
    }

    // Tasks no worker completed (journal death or a crashed worker):
    // account for them as quarantined so the report covers every task.
    let mut covered = vec![false; total];
    for r in replayed.iter().chain(&fresh) {
        covered[r.id as usize] = true;
    }
    for task in spec.tasks() {
        if !covered[task.id] {
            if worker_crashed && xylem_obs::enabled() {
                xylem_obs::event("sweep_worker_crashed")
                    .u64("id", task.id as u64)
                    .str("key", &task.key())
                    .emit();
            }
            incr(Counter::SweepTasksQuarantined);
            let record = TaskRecord {
                id: task.id as u64,
                key: task.key(),
                status: TaskStatus::Quarantined,
                attempts: 0,
                result: None,
                error: Some("worker thread crashed outside task isolation".to_string()),
            };
            if let Some(journal) = &journal {
                journal.append(&record).map_err(XylemError::from)?;
            }
            fresh.push(record);
        }
    }
    if let Some(journal) = &journal {
        journal.sync().map_err(XylemError::from)?;
    }

    let retried_attempts: u64 = fresh
        .iter()
        .map(|r| u64::from(r.attempts.saturating_sub(1)))
        .sum();
    let fresh_count = fresh.len();
    let mut records = replayed;
    records.append(&mut fresh);
    records.sort_by_key(|r| r.id);
    let ok = records
        .iter()
        .filter(|r| r.status == TaskStatus::Ok)
        .count();
    let quarantined = records.len() - ok;
    let elapsed_s = started.elapsed().as_secs_f64();
    let tasks_per_sec = if elapsed_s > 0.0 {
        fresh_count as f64 / elapsed_s
    } else {
        0.0
    };

    let report = SweepReport {
        spec_hash,
        total,
        ok,
        quarantined,
        retried_attempts,
        replayed: total - fresh_count,
        duplicate_journal_records,
        torn_tail_bytes,
        elapsed_s,
        tasks_per_sec,
        task_latency: summarize(Hist::SweepTaskMs),
        records,
    };
    if xylem_obs::enabled() {
        xylem_obs::event("sweep_done")
            .str("spec_hash", &report.spec_hash)
            .u64("total", report.total as u64)
            .u64("ok", report.ok as u64)
            .u64("quarantined", report.quarantined as u64)
            .u64("replayed", report.replayed as u64)
            .u64("retried_attempts", report.retried_attempts)
            .f64("elapsed_s", report.elapsed_s)
            .emit();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_rolls_are_deterministic_and_cover_all_actions() {
        let chaos = ChaosConfig {
            seed: 11,
            panic_per_mille: 300,
            error_per_mille: 300,
            deadline_per_mille: 300,
        };
        let (mut panics, mut errors, mut deadlines, mut nones) = (0, 0, 0, 0);
        for key in 0..200u64 {
            for attempt in 1..=3 {
                let fault = chaos.roll(chaos_key(key, attempt));
                match fault {
                    Fault::Panic => panics += 1,
                    Fault::Error => errors += 1,
                    Fault::Deadline => deadlines += 1,
                    Fault::None => nones += 1,
                }
                // Rerolling the same (key, attempt) gives the same fault.
                assert_eq!(chaos.roll(chaos_key(key, attempt)), fault);
            }
        }
        assert!(panics > 0 && errors > 0 && deadlines > 0 && nones > 0);
    }

    /// Pins the fault class of every roll under both callers' key
    /// schemes, sweep `(task, attempt)` and serve `(session, step,
    /// attempt)`: 5 seeds x 300 keys x 3 attempts, one sweep and three
    /// serve rolls each. The hash was taken from the two separate
    /// pre-`supervise` roll implementations, so a chaos campaign of
    /// either harness replays the faults it always did.
    #[test]
    fn chaos_rolls_are_pinned_across_both_key_schemes() {
        let mut classes = Vec::new();
        for seed in [0u64, 1, 5, 42, 0x5EED_CAFE] {
            let chaos = ChaosConfig {
                seed,
                panic_per_mille: 150,
                error_per_mille: 200,
                deadline_per_mille: 250,
            };
            let class = |key| match chaos.roll(key) {
                Fault::None => 0u8,
                Fault::Panic => 1,
                Fault::Error => 2,
                Fault::Deadline => 3,
            };
            for key in 0..300u64 {
                let k = xylem_obs::hash::splitmix64(key);
                for attempt in 0..3u32 {
                    classes.push(class(chaos_key(k, attempt)));
                    for step in [0u64, 7, 1 << 20] {
                        classes.push(class(xylem_serve::chaos::slice_key(k, step, attempt)));
                    }
                }
            }
        }
        let mut counts = [0usize; 4];
        for &c in &classes {
            counts[usize::from(c)] += 1;
        }
        assert_eq!(counts, [7180, 2770, 3553, 4497]);
        assert_eq!(xylem_obs::hash::fnv1a(&classes), 0x825e_204a_0e46_46e4);
    }

    #[test]
    fn shard_count_is_clamped_to_pending_tasks() {
        assert_eq!(effective_shards(8, 3), 3);
        assert_eq!(effective_shards(2, 100), 2);
        assert_eq!(effective_shards(1, 0), 1);
        assert!(effective_shards(0, 64) >= 1);
    }
}

//! `xylem-sweep`: a crash-safe, self-healing batched design-space sweep
//! engine.
//!
//! The paper's sensitivity studies (Fig. 18 die-thickness sweep, Fig. 19
//! die-count sweep) are batch evaluations over a configuration grid —
//! exactly the heavy-traffic path for research users, where one request
//! means thousands of solves. A serial loop dies with its process: one
//! poisoned configuration, one stuck solve, or one SIGKILL loses
//! everything computed so far. This crate makes robustness the
//! first-class design axis instead (see DESIGN.md §18):
//!
//! * a declarative [`SweepSpec`] enumerates a deterministic task grid
//!   over (scheme × geometry × die count × workload × DTM policy), with
//!   optional seeded random subsampling;
//! * tasks run in shards on fork-join worker threads ([`run_sweep`],
//!   [`xylem::supervise::fork_join`]: joined before the sweep returns)
//!   with per-task `catch_unwind` panic isolation, stack-affinity
//!   sharding (each
//!   distinct stack is built once, and shared sub-solves dedupe through
//!   the response cache), and wall-clock deadlines threaded into the CG
//!   loop via [`xylem_thermal::DeadlineGuard`];
//! * failed attempts retry with deterministic seeded exponential backoff
//!   ([`BackoffPolicy`], splitmix64 jitter like `sensor.rs`); tasks that
//!   exhaust every attempt land on a quarantine list — the sweep always
//!   completes and reports partial results;
//! * completed tasks stream to an append-only JSONL [`Journal`]
//!   (fsync'd in batches, torn-tail tolerant on read), so a killed sweep
//!   resumes by replaying the journal and skipping done or quarantined
//!   tasks; the header carries the spec's config hash (the checkpoint
//!   layer's hash discipline) so a journal from a different sweep is
//!   refused with [`xylem::SweepError::SpecMismatch`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod engine;
pub mod journal;
pub mod scenario_sweep;
pub mod spec;

pub use backoff::BackoffPolicy;
pub use engine::{run_sweep, SweepOptions, SweepReport};
pub use journal::{Journal, JournalScan, TaskRecord, TaskResult, TaskStatus};
pub use scenario_sweep::{
    run_scenario_sweep, ScenarioPointRecord, ScenarioSweepReport, ScenarioSweepSpec,
};
pub use spec::{SweepSpec, TaskSpec};
pub use xylem::supervise::ChaosConfig;

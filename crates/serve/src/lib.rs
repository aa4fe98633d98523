//! `xylem-serve`: a crash-only, overload-tolerant multi-tenant
//! simulation service over `.stk` scenarios.
//!
//! The server accepts scenario submissions (source + workload
//! parameters + budgets), runs hundreds of concurrent transient
//! sessions a batch of slices per tick on fork-join worker threads
//! ([`xylem::supervise::fork_join`]), and streams per-session JSONL
//! frames and lifecycle events over a line-delimited stdio/socket
//! protocol ([`protocol`]).
//!
//! Robustness contracts, each locked by a test or the chaos harness:
//!
//! * **Explicit backpressure** — a full queue or exhausted tenant
//!   quota yields a reject-with-retry-after response, never unbounded
//!   buffering ([`error::Rejection`], `tests/backpressure.rs`).
//! * **Fairness** — scheduling is round-robin across tenants per tick;
//!   a tenant submitting 10x-oversized jobs cannot materially degrade
//!   another tenant's tick-measured latency (`tests/load.rs`).
//! * **Graceful degradation** — per-slice wall-clock deadlines drive a
//!   ladder: economy stepping → checkpoint-and-suspend → quarantine.
//!   No panic ever escapes a session ([`scheduler`]).
//! * **Crash-only** — every admitted session is durable before it
//!   computes; `kill -9` at any instant resumes every in-flight
//!   session bit-identically with zero duplicate frames
//!   ([`spool`], `tests/crash.rs`).
//! * **Chaos-tested** — a seeded harness ([`selftest`]) drives
//!   thousands of client submissions while injecting panics, solver
//!   errors, deadline exhaustion, and a mid-run SIGKILL, then checks
//!   completion, isolation, and latency percentiles.

pub mod chaos;
pub mod error;
pub mod protocol;
pub mod scheduler;
pub mod selftest;
pub mod session;
pub mod spool;

pub use chaos::ChaosConfig;
pub use error::{Rejection, ServeError};
pub use scheduler::{
    ResumeReport, Server, ServerConfig, ServerStatus, Submission, SubmitParams, TenantQuota,
};
pub use selftest::{run_selftest, SelftestConfig, SelftestReport};

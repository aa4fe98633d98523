//! `xylem-obs`: the workspace observability layer.
//!
//! A zero-dependency crate providing, in one place:
//!
//! - a process-global **JSONL event sink** ([`install_file`] /
//!   [`install_memory`] / [`shutdown`]) that the solver, DTM runtime,
//!   bench harness, CLI, and examples all write through;
//! - **monotonic counters** and finite-only **gauges** ([`metrics`]) that
//!   record unconditionally at a few nanoseconds per update;
//! - **histogram-bucketed span timers** ([`span`]) for p50/p99 latency;
//! - **run manifests** with FNV-1a config hashes ([`RunManifest`]) and an
//!   end-of-run [`RunReport`] summary.
//!
//! Design rules (see DESIGN.md §14):
//!
//! 1. *Disabled is free.* No sink installed ⇒ every emit site is a single
//!    relaxed atomic load; counters still count (they are how the
//!    determinism tests compare runs) but cost only an atomic add.
//! 2. *Counters are deterministic.* They total iterations, steps, and
//!    events — never wall-clock — so identical seeded runs produce
//!    identical totals at any thread count. Latency lives in histograms,
//!    which are excluded from that guarantee.
//! 3. *No NaN escapes.* Gauges drop non-finite stores; event floats
//!    serialise non-finite values as `null`.
//! 4. *Every line parses back.* The emitter and parser in [`json`] are a
//!    matched pair; round-tripping is property-tested.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{event, Event};
pub use hash::fnv1a;
pub use metrics::{
    add, counter, counters_snapshot, gauge, gauges_snapshot, incr, record_ns, reset_metrics,
    set_gauge, summarize, Counter, Gauge, Hist, HistSummary,
};
pub use report::{RunManifest, RunReport};
pub use sink::{
    elapsed_ms, enabled, flush, install_file, install_memory, install_writer, shutdown, MemorySink,
};
pub use span::{span, span_depth, Span};

//! The per-layer ledger of a traced run.
//!
//! Spans are taken by the benchmark around its own calls into each
//! layer's public functions. Layers reachable only inside one enclosing
//! call (`run_sweep`, `Server::tick`, `dtm_transient_configured`) are
//! measured by replaying their constituent public functions on the same
//! inputs after the enclosing op, and the part of the op they do not
//! cover is reported as a residual.
//!
//! A traced run first times the workload's ops untraced, then times the
//! same seeded schedule again with the spans and replays; the second
//! phase feeds the ledger, and the two phases' median op latencies give
//! `obs.trace_overhead_pct`.

use std::collections::BTreeMap;

use crate::harness::{median, Outcome};

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.compile_ms", "ms"),
    ("scenario.discretize_ms", "ms"),
    ("stack.build_ms", "ms"),
    ("thermal.assemble_ms", "ms"),
    ("thermal.steady_solve_ms", "ms"),
    ("thermal.steady_cg_iters", "count"),
    ("thermal.transient_step_ms", "ms"),
    ("thermal.transient_cg_iters", "count"),
    ("thermal.fallback_events", "count"),
    ("thermal.bytes_per_cg_iter_computed", "bytes"),
    ("core.response_compute_ms", "ms"),
    ("core.response_load_ms", "ms"),
    ("core.response_cache_bytes", "bytes"),
    ("core.evaluate_us", "us"),
    ("power.block_powers_us", "us"),
    ("archsim.machine_run_us", "us"),
    ("core.headroom_ms", "ms"),
    ("core.headroom_evals_per_search", "count"),
    ("core.dtm_period_ms", "ms"),
    ("core.sensor_sample_us", "us"),
    ("core.dvfs_maps_ms", "ms"),
    ("core.dtm_residual_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.dtm_throttle_events", "count"),
    ("core.dtm_failsafe_events", "count"),
    ("sweep.journal_append_us", "us"),
    ("sweep.journal_bytes_per_task", "bytes"),
    ("sweep.engine_residual_ms", "ms"),
    ("sweep.retried_tasks", "count"),
    ("sweep.quarantined_tasks", "count"),
    ("serve.submit_us", "us"),
    ("serve.tick_ms", "ms"),
    ("serve.slices_per_tick", "count"),
    ("serve.tick_residual_ms", "ms"),
    ("serve.slice_ms_light", "ms"),
    ("serve.slice_ms_heavy", "ms"),
    ("serve.first_frame_ms_p50", "ms"),
    ("serve.first_frame_ms_p90", "ms"),
    ("serve.spool_bytes_per_session", "bytes"),
    ("serve.rejections", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.sink_overhead_pct", "%"),
    ("obs.sink_overhead_iqr_pct", "%"),
    ("fail_ratio", "1"),
];

/// Per-layer values collected during a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Samples reported as their median.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic counts, reported as their mean per item.
    counts: BTreeMap<&'static str, (f64, usize)>,
    /// Values reported as given, with their sample count.
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Ledger {
    /// Adds one sample of a timing (reported as the median).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds one item of a count. Callers add only over a fixed, seeded
    /// prefix of the run, so two traced runs with one seed agree exactly.
    pub fn count(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Sets a value directly (counts, ratios, already-reduced timings).
    pub fn set(&mut self, name: &'static str, v: f64, n: usize) {
        self.values.insert(name, (v, n));
    }

    /// Sets `obs.trace_overhead_pct`: the traced phase's median op
    /// latency against the untraced phase's, in percent.
    pub fn set_trace_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) {
        let untraced = median(untraced_ms);
        if untraced > 0.0 {
            self.set(
                "obs.trace_overhead_pct",
                (median(traced_ms) / untraced - 1.0) * 100.0,
                traced_ms.len(),
            );
        }
    }

    /// Moves every per-layer metric into `out`, in table order.
    pub fn into_metrics(self, out: &mut Outcome) {
        let mut bypassed = Vec::new();
        for &(name, unit) in PER_LAYER {
            let (value, n) = if let Some(&(v, n)) = self.values.get(name) {
                (v, n)
            } else if let Some(&(sum, n)) = self.counts.get(name) {
                (sum / n as f64, n)
            } else if let Some(xs) = self.samples.get(name) {
                (median(xs), xs.len())
            } else {
                bypassed.push(name);
                (0.0, 0)
            };
            out.push_n(name, value, unit, n);
        }
        if !bypassed.is_empty() {
            out.notes.push(format!(
                "bypassed layers (reported as 0): {}",
                bypassed.join(" ")
            ));
        }
    }
}

/// Relative slowdown, percent, of `with` against `without`, pairing the
/// i-th sample of each; returns (median, interquartile range).
pub fn paired_overhead_pct(without: &[f64], with: &[f64]) -> (f64, f64) {
    let diffs: Vec<f64> = without
        .iter()
        .zip(with)
        .filter(|(a, _)| **a > 0.0)
        .map(|(a, b)| (b / a - 1.0) * 100.0)
        .collect();
    let q1 = crate::harness::quantile(&diffs, 0.25);
    let q3 = crate::harness::quantile(&diffs, 0.75);
    (median(&diffs), q3 - q1)
}

/// Bytes one CG iteration moves, computed (not measured) from the
/// operator's size: the CSR matvec streams every value and column index
/// (8 + 8 bytes per nonzero), the row pointers, and reads `x` and writes
/// `y`; the preconditioned update touches about ten more vectors.
pub fn bytes_per_cg_iter(nodes: usize, nnz: usize) -> f64 {
    const VECTOR_PASSES: usize = 10;
    (nnz * 16 + (nodes + 1) * 8 + 2 * nodes * 8 + VECTOR_PASSES * nodes * 8) as f64
}

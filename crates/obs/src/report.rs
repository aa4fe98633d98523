//! Run-scoped provenance and end-of-run summaries.
//!
//! A [`RunManifest`] is the first line of every metrics file: tool name,
//! target, and an FNV-1a hash of the configuration key/value pairs, so a
//! CSV in `target/xylem-results/` can be traced back to the exact knobs
//! that produced it. A [`RunReport`] condenses the global metric registry
//! into the handful of numbers a human wants at end of run (p50/p99 step
//! latency, total CG iterations, recovery counts).

use std::fmt;

use crate::event::event;
use crate::hash::fnv1a;
use crate::json::Value;
use crate::metrics::{
    counter, counters_snapshot, gauges_snapshot, summarize, Counter, Hist, HistSummary,
};

/// Provenance for one run: what produced this file, with which config.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Producing tool (`xylem`, `bench`, an example name...).
    pub tool: String,
    /// Specific target within the tool (subcommand, figure name...).
    pub target: String,
    /// Ordered configuration key/value pairs.
    pub config: Vec<(String, String)>,
}

impl RunManifest {
    /// Starts a manifest for `tool` running `target`.
    pub fn new(tool: &str, target: &str) -> Self {
        RunManifest {
            tool: tool.to_owned(),
            target: target.to_owned(),
            config: Vec::new(),
        }
    }

    /// Adds one configuration key/value pair.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.config.push((key.to_owned(), value.to_string()));
        self
    }

    /// FNV-1a hash over tool, target, and the ordered config pairs.
    pub fn config_hash(&self) -> u64 {
        let mut text = format!("{}\x1f{}", self.tool, self.target);
        for (k, v) in &self.config {
            text.push('\x1f');
            text.push_str(k);
            text.push('=');
            text.push_str(v);
        }
        fnv1a(text.as_bytes())
    }

    /// The manifest as a JSON object (the schema of the `manifest` event).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ev".to_owned(), Value::Str("manifest".to_owned())),
            ("tool".to_owned(), Value::Str(self.tool.clone())),
            ("target".to_owned(), Value::Str(self.target.clone())),
            (
                "config_hash".to_owned(),
                Value::Str(format!("{:016x}", self.config_hash())),
            ),
            (
                "config".to_owned(),
                Value::Object(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Emits the manifest to the sink (typically as the first line of a
    /// metrics file).
    pub fn emit(&self) {
        let mut ev = event("manifest")
            .str("tool", &self.tool)
            .str("target", &self.target)
            .str("config_hash", &format!("{:016x}", self.config_hash()));
        let config = Value::Object(
            self.config
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        );
        ev = ev.value("config", config);
        ev.emit();
    }
}

/// End-of-run summary distilled from the global metric registry.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// DTM control steps executed.
    pub dtm_steps: u64,
    /// DTM step latency summary.
    pub step_latency: HistSummary,
    /// Linear-solve latency summary.
    pub solve_latency: HistSummary,
    /// Total CG iterations.
    pub cg_iterations: u64,
    /// CG solves attempted.
    pub solve_calls: u64,
    /// Resilience-ladder escalations attempted.
    pub solve_fallbacks: u64,
    /// Solves rescued by a fallback rung.
    pub solve_recoveries: u64,
    /// DVFS throttle decisions.
    pub throttle_events: u64,
    /// DVFS boost decisions.
    pub boost_events: u64,
    /// Failsafe entries.
    pub failsafe_events: u64,
    /// Sweep tasks completed successfully.
    pub sweep_tasks_ok: u64,
    /// Sweep task attempts retried.
    pub sweep_tasks_retried: u64,
    /// Sweep tasks quarantined.
    pub sweep_tasks_quarantined: u64,
    /// Per-sweep-task latency summary (all attempts of one task).
    pub sweep_task_latency: HistSummary,
    /// Checkpoint text encode (state JSON + envelope) summary.
    pub checkpoint_encode: HistSummary,
    /// Checkpoint atomic write (fsync included) summary.
    pub checkpoint_write: HistSummary,
    /// All nonzero counters (label, value).
    pub counters: Vec<(&'static str, u64)>,
    /// All set gauges (label, value).
    pub gauges: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// Captures the current state of the global metric registry.
    pub fn capture() -> Self {
        RunReport {
            dtm_steps: counter(Counter::DtmSteps),
            step_latency: summarize(Hist::DtmStepMs),
            solve_latency: summarize(Hist::SolveMs),
            cg_iterations: counter(Counter::CgIterations),
            solve_calls: counter(Counter::SolveCalls),
            solve_fallbacks: counter(Counter::SolveFallbacks),
            solve_recoveries: counter(Counter::SolveRecoveries),
            throttle_events: counter(Counter::ThrottleEvents),
            boost_events: counter(Counter::BoostEvents),
            failsafe_events: counter(Counter::FailsafeEvents),
            sweep_tasks_ok: counter(Counter::SweepTasksOk),
            sweep_tasks_retried: counter(Counter::SweepTasksRetried),
            sweep_tasks_quarantined: counter(Counter::SweepTasksQuarantined),
            sweep_task_latency: summarize(Hist::SweepTaskMs),
            checkpoint_encode: summarize(Hist::CheckpointEncodeMs),
            checkpoint_write: summarize(Hist::CheckpointWriteMs),
            counters: counters_snapshot(),
            gauges: gauges_snapshot(),
        }
    }

    /// Emits the report as a `run_report` event (typically the last line
    /// of a metrics file).
    pub fn emit(&self) {
        let mut ev = event("run_report")
            .u64("dtm_steps", self.dtm_steps)
            .f64("step_p50_ms", self.step_latency.p50_ms)
            .f64("step_p99_ms", self.step_latency.p99_ms)
            .u64("cg_iterations", self.cg_iterations)
            .u64("solve_calls", self.solve_calls)
            .u64("solve_fallbacks", self.solve_fallbacks)
            .u64("solve_recoveries", self.solve_recoveries);
        if self.sweep_tasks_ok + self.sweep_tasks_quarantined > 0 {
            ev = ev
                .u64("sweep_tasks_ok", self.sweep_tasks_ok)
                .u64("sweep_tasks_retried", self.sweep_tasks_retried)
                .u64("sweep_tasks_quarantined", self.sweep_tasks_quarantined)
                .f64("sweep_task_p50_ms", self.sweep_task_latency.p50_ms)
                .f64("sweep_task_p99_ms", self.sweep_task_latency.p99_ms);
        }
        if self.checkpoint_encode.count > 0 {
            ev = ev
                .u64("checkpoints", self.checkpoint_encode.count)
                .f64("checkpoint_encode_mean_ms", self.checkpoint_encode.mean_ms)
                .f64("checkpoint_write_mean_ms", self.checkpoint_write.mean_ms);
        }
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|&(k, v)| (k.to_owned(), Value::U64(v)))
                .collect(),
        );
        ev = ev.value("counters", counters);
        ev.emit();
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run report")?;
        if self.dtm_steps > 0 {
            writeln!(
                f,
                "  dtm steps        {:>10}   latency p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
                self.dtm_steps,
                self.step_latency.p50_ms,
                self.step_latency.p99_ms,
                self.step_latency.max_ms
            )?;
        }
        writeln!(
            f,
            "  cg iterations    {:>10}   over {} solves (p50 {:.3} ms, p99 {:.3} ms)",
            self.cg_iterations,
            self.solve_calls,
            self.solve_latency.p50_ms,
            self.solve_latency.p99_ms
        )?;
        writeln!(
            f,
            "  recoveries       {:>10}   ({} fallback attempts)",
            self.solve_recoveries, self.solve_fallbacks
        )?;
        if self.sweep_tasks_ok + self.sweep_tasks_quarantined > 0 {
            writeln!(
                f,
                "  sweep tasks      {:>10}   ok, {} retried, {} quarantined \
                 (p50 {:.3} ms, p99 {:.3} ms)",
                self.sweep_tasks_ok,
                self.sweep_tasks_retried,
                self.sweep_tasks_quarantined,
                self.sweep_task_latency.p50_ms,
                self.sweep_task_latency.p99_ms
            )?;
        }
        if self.checkpoint_encode.count > 0 {
            writeln!(
                f,
                "  checkpoints      {:>10}   encode mean {:.3} ms, write+fsync mean {:.3} ms",
                self.checkpoint_encode.count,
                self.checkpoint_encode.mean_ms,
                self.checkpoint_write.mean_ms
            )?;
        }
        if self.throttle_events + self.boost_events + self.failsafe_events > 0 {
            writeln!(
                f,
                "  dvfs             {:>10} throttles, {} boosts, {} failsafe entries",
                self.throttle_events, self.boost_events, self.failsafe_events
            )?;
        }
        for (label, value) in &self.gauges {
            if value.abs() < 1.0e-3 && value.abs() > 0.0 {
                writeln!(f, "  gauge {label:<22} {value:.3e}")?;
            } else {
                writeln!(f, "  gauge {label:<22} {value:.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors for the hash behind
        // `RunManifest::config_hash`.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checkpoint_split_is_reported_once_a_checkpoint_is_timed() {
        crate::metrics::record_ns(Hist::CheckpointEncodeMs, 3_000_000);
        crate::metrics::record_ns(Hist::CheckpointWriteMs, 1_000_000);
        let report = RunReport::capture();
        assert!(report.checkpoint_encode.count >= 1);
        assert!(report.checkpoint_write.count >= 1);
        let text = report.to_string();
        assert!(text.contains("encode mean"), "{text}");
    }

    #[test]
    fn manifest_hash_is_order_sensitive_and_stable() {
        let a = RunManifest::new("xylem", "dtm")
            .with("grid", 32)
            .with("seed", 7);
        let b = RunManifest::new("xylem", "dtm")
            .with("grid", 32)
            .with("seed", 7);
        let c = RunManifest::new("xylem", "dtm")
            .with("seed", 7)
            .with("grid", 32);
        assert_eq!(a.config_hash(), b.config_hash());
        assert_ne!(a.config_hash(), c.config_hash());
    }
}

//! Process-global metric registry: monotonic counters, finite-only
//! gauges, and log2-bucketed latency histograms.
//!
//! Everything here is lock-free (`AtomicU64` with relaxed ordering) so
//! the hot solver and DTM paths can record unconditionally: an increment
//! costs a handful of nanoseconds whether or not a sink is installed.
//! Counters are monotonic by construction — the only mutating operations
//! are `add` and the test-only [`reset_metrics`].

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Stable snake_case label used in JSONL output.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum!(
    /// Monotonic counters. Totals of *deterministic* quantities
    /// (iterations, steps, events) — never wall-clock — so two runs with
    /// the same seed must produce identical totals regardless of thread
    /// count or sink state.
    Counter {
        /// CG solves attempted (including ladder retries).
        SolveCalls => "solve_calls",
        /// Total CG iterations across all solves.
        CgIterations => "cg_iterations",
        /// Resilience-ladder escalations (preconditioner downgrades /
        /// tolerance relaxations attempted after a failed solve).
        SolveFallbacks => "solve_fallbacks",
        /// Solves that recovered on a fallback rung.
        SolveRecoveries => "solve_recoveries",
        /// DTM control steps executed.
        DtmSteps => "dtm_steps",
        /// DVFS throttle decisions.
        ThrottleEvents => "throttle_events",
        /// DVFS boost decisions.
        BoostEvents => "boost_events",
        /// Failsafe entries (sensor quorum lost).
        FailsafeEvents => "failsafe_events",
        /// Sensor readings sampled.
        SensorSamples => "sensor_samples",
        /// Sensor readings rejected by the plausibility window.
        SensorRejected => "sensor_rejected",
        /// DTM checkpoints written.
        CheckpointsWritten => "checkpoints_written",
        /// Adaptive transient steps accepted (including forced accepts).
        AdaptiveAccepts => "adaptive_accepts",
        /// Adaptive transient steps rejected and rolled back.
        AdaptiveRejects => "adaptive_rejects",
        /// Adaptive hold steps (state carried unchanged across an
        /// unsolvable interval).
        AdaptiveHolds => "adaptive_holds",
        /// Adaptive run-budget exhaustions (CG iterations, wall clock,
        /// or rejection streak).
        BudgetExhaustions => "budget_exhaustions",
        /// JSONL events written to the sink (zero when disabled).
        EventsEmitted => "events_emitted",
        /// Sweep tasks that completed successfully.
        SweepTasksOk => "sweep_tasks_ok",
        /// Sweep task attempts that failed and were retried.
        SweepTasksRetried => "sweep_tasks_retried",
        /// Sweep tasks quarantined after exhausting all attempts.
        SweepTasksQuarantined => "sweep_tasks_quarantined",
        /// `.stk` scenarios parsed successfully.
        ScenarioParsed => "scenario_parsed",
        /// `.stk` scenarios lowered to a solvable stack.
        ScenarioLowered => "scenario_lowered",
        /// `.stk` sources rejected by the lexer, parser, or validator.
        ScenarioRejected => "scenario_rejected",
        /// Preconditioners built (steady, transient-operator and
        /// fallback-rung setups): the solver setup a run paid for.
        PreconditionerBuilds => "preconditioner_builds",
        /// Transient-operator cache lookups that reused a cached factor.
        TransientCacheHits => "transient_cache_hits",
        /// Transient-operator cache lookups that built a new factor.
        TransientCacheMisses => "transient_cache_misses",
        /// Transient-operator cache slots evicted (LRU).
        TransientCacheEvictions => "transient_cache_evictions",
        /// Serve submissions received (before admission).
        ServeSubmitted => "serve_submitted",
        /// Serve submissions admitted into the run queue.
        ServeAdmitted => "serve_admitted",
        /// Serve submissions rejected by admission control or a full
        /// queue (the reject carries an explicit retry-after hint).
        ServeRejected => "serve_rejected",
        /// Serve sessions that ran to completion.
        ServeSessionsCompleted => "serve_sessions_completed",
        /// Serve sessions quarantined after exhausting the degradation
        /// ladder.
        ServeSessionsQuarantined => "serve_sessions_quarantined",
        /// Serve sessions resumed from a durable checkpoint after a
        /// process kill.
        ServeSessionsResumed => "serve_sessions_resumed",
        /// Session panics caught at the slice boundary (state restored
        /// from the pre-dispatch snapshot).
        ServePanicsCaught => "serve_panics_caught",
        /// Deadline misses that triggered a degradation rung (economy
        /// stepping or checkpoint-and-suspend).
        ServeDeadlineDegradations => "serve_deadline_degradations",
        /// Sessions parked by checkpoint-and-suspend.
        ServeSuspends => "serve_suspends",
        /// Temperature frames emitted to clients.
        ServeFramesEmitted => "serve_frames_emitted",
        /// Frames suppressed during resume because they were already
        /// durable in the frame journal (duplicate-frame guard).
        ServeFramesSuppressed => "serve_frames_suppressed",
        /// Slow-client overflows: a session's outbound buffer filled and
        /// streaming was shed for that client (frames stay durable).
        ServeSlowClientSheds => "serve_slow_client_sheds",
        /// Slice outcomes lost to a dead worker pool (the tick barrier
        /// degraded to applying only what arrived).
        ServeOutcomesLost => "serve_outcomes_lost",
        /// Shared-model materializations that failed at dispatch (the
        /// session quarantines; the server keeps serving).
        ServeMaterializationFailures => "serve_materialization_failures",
    }
);

metric_enum!(
    /// Last-value gauges. Setters silently drop non-finite values, so a
    /// gauge can never hold (or emit) NaN/inf — fault-injection runs keep
    /// this invariant under proptest.
    Gauge {
        /// Relative residual of the most recent CG solve.
        LastResidual => "last_residual",
        /// Current DTM operating frequency (GHz).
        DtmFreqGhz => "dtm_freq_ghz",
        /// Most recent processor hotspot estimate (°C).
        DtmMaxTempC => "dtm_max_temp_c",
        /// Most recent fused sensor temperature (°C).
        SensorFusedC => "sensor_fused_c",
        /// Current adaptive time step (s).
        AdaptiveDtS => "adaptive_dt_s",
        /// WRMS local-truncation-error estimate of the latest adaptive
        /// step (1.0 = at tolerance).
        AdaptiveLte => "adaptive_lte",
    }
);

metric_enum!(
    /// Latency histograms (log2 buckets over nanoseconds).
    Hist {
        /// One DTM control step (solve + sense + decide).
        DtmStepMs => "dtm_step_ms",
        /// One linear solve (CG, any preconditioner).
        SolveMs => "solve_ms",
        /// One sensor sample+fuse pass.
        SensorFuseMs => "sensor_fuse_ms",
        /// One design-space sweep task (all attempts, success or
        /// quarantine).
        SweepTaskMs => "sweep_task_ms",
        /// Submit-to-first-frame latency of a serve session.
        ServeFirstFrameMs => "serve_first_frame_ms",
        /// Submit-to-completion latency of a serve session.
        ServeSessionMs => "serve_session_ms",
        /// One scheduler slice (dispatch to outcome) of a serve session.
        ServeSliceMs => "serve_slice_ms",
        /// Text encode of one checkpoint (state JSON, checksum and
        /// envelope), for DTM checkpoints and serve session state alike.
        CheckpointEncodeMs => "checkpoint_encode_ms",
        /// Atomic write of one checkpoint file (temp file, fsync,
        /// rename, directory fsync).
        CheckpointWriteMs => "checkpoint_write_ms",
    }
);

const N_COUNTERS: usize = Counter::ALL.len();
const N_GAUGES: usize = Gauge::ALL.len();
const N_HISTS: usize = Hist::ALL.len();
/// log2 buckets: bucket `i` holds samples with `ns` in `[2^(i-1), 2^i)`.
const N_BUCKETS: usize = 64;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Sentinel meaning "gauge never set". `u64::MAX` is a NaN bit pattern,
/// so it can never collide with a stored finite value.
const GAUGE_UNSET: u64 = u64::MAX;
#[allow(clippy::declare_interior_mutable_const)]
const UNSET: AtomicU64 = AtomicU64::new(GAUGE_UNSET);

static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static GAUGES: [AtomicU64; N_GAUGES] = [UNSET; N_GAUGES];

struct HistCell {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_HIST: HistCell = HistCell {
    buckets: [ZERO; N_BUCKETS],
    count: ZERO,
    sum_ns: ZERO,
    max_ns: ZERO,
};

static HISTS: [HistCell; N_HISTS] = [EMPTY_HIST; N_HISTS];

/// Adds `by` to a counter. Monotonic: there is no decrement operation.
#[inline]
pub fn add(counter: Counter, by: u64) {
    COUNTERS[counter as usize].fetch_add(by, Ordering::Relaxed);
}

/// Adds 1 to a counter.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Current value of a counter.
#[inline]
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Sets a gauge. Non-finite values are dropped (the previous value, if
/// any, is retained) so gauges can never report NaN or infinity.
#[inline]
pub fn set_gauge(gauge: Gauge, value: f64) {
    if value.is_finite() {
        GAUGES[gauge as usize].store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Current gauge value, or `None` if the gauge was never set.
#[inline]
pub fn gauge(gauge: Gauge) -> Option<f64> {
    let bits = GAUGES[gauge as usize].load(Ordering::Relaxed);
    if bits == GAUGE_UNSET {
        None
    } else {
        Some(f64::from_bits(bits))
    }
}

#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(N_BUCKETS - 1)
}

/// Records one latency sample, in nanoseconds.
#[inline]
pub fn record_ns(hist: Hist, ns: u64) {
    let cell = &HISTS[hist as usize];
    cell.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(ns, Ordering::Relaxed);
}

/// Summary of one histogram at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Approximate p50 (upper bound of the median's log2 bucket), ms.
    pub p50_ms: f64,
    /// Approximate p99, ms.
    pub p99_ms: f64,
    /// Exact maximum, ms.
    pub max_ms: f64,
}

const NS_PER_MS: f64 = 1.0e6;

/// Summarises a histogram. Quantiles are upper bounds of the log2 bucket
/// containing the requested rank (at most 2x the true value).
pub fn summarize(hist: Hist) -> HistSummary {
    let cell = &HISTS[hist as usize];
    let count = cell.count.load(Ordering::Relaxed);
    if count == 0 {
        return HistSummary {
            count: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        };
    }
    let sum = cell.sum_ns.load(Ordering::Relaxed);
    let max_ns = cell.max_ns.load(Ordering::Relaxed);
    let quantile = |q: f64| -> f64 {
        let rank = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in cell.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i is 2^i ns, capped at the
                // observed maximum.
                let upper = if i >= 63 { u64::MAX } else { 1u64 << i };
                return upper.min(max_ns) as f64 / NS_PER_MS;
            }
        }
        max_ns as f64 / NS_PER_MS
    };
    HistSummary {
        count,
        mean_ms: sum as f64 / count as f64 / NS_PER_MS,
        p50_ms: quantile(0.50),
        p99_ms: quantile(0.99),
        max_ms: max_ns as f64 / NS_PER_MS,
    }
}

/// Snapshot of every nonzero counter, in declaration order.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .map(|&c| (c.label(), counter(c)))
        .filter(|&(_, v)| v > 0)
        .collect()
}

/// Snapshot of every set gauge, in declaration order.
pub fn gauges_snapshot() -> Vec<(&'static str, f64)> {
    Gauge::ALL
        .iter()
        .filter_map(|&g| gauge(g).map(|v| (g.label(), v)))
        .collect()
}

/// Zeroes all counters, gauges, and histograms. Test/bench support only:
/// metrics are process-global, so concurrent recorders will race a reset.
pub fn reset_metrics() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(GAUGE_UNSET, Ordering::Relaxed);
    }
    for h in &HISTS {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum_ns.store(0, Ordering::Relaxed);
        h.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let before = counter(Counter::CheckpointsWritten);
        add(Counter::CheckpointsWritten, 3);
        incr(Counter::CheckpointsWritten);
        assert_eq!(counter(Counter::CheckpointsWritten), before + 4);
    }

    #[test]
    fn gauges_reject_non_finite() {
        set_gauge(Gauge::LastResidual, 0.5);
        set_gauge(Gauge::LastResidual, f64::NAN);
        set_gauge(Gauge::LastResidual, f64::INFINITY);
        assert_eq!(gauge(Gauge::LastResidual), Some(0.5));
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        for ns in [10_000u64, 20_000, 40_000, 80_000, 1_000_000] {
            record_ns(Hist::SensorFuseMs, ns);
        }
        let s = summarize(Hist::SensorFuseMs);
        assert_eq!(s.count, 5);
        assert!(s.p50_ms >= 0.02 && s.p50_ms <= 0.08, "{s:?}");
        assert!((s.max_ms - 1.0).abs() < 1e-9, "{s:?}");
        assert!(s.p99_ms <= s.max_ms + 1e-12);
    }
}

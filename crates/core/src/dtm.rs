//! Closed-loop dynamic thermal management (DTM).
//!
//! Fig. 7 reports unthrottled steady-state temperatures and notes that "a
//! real machine, a Dynamic Thermal Management (DTM) system would throttle
//! frequencies to prevent excessive temperatures" (Sec. 7.2). This module
//! makes that loop executable: a reactive controller samples the hotspot
//! every control period during a transient simulation and steps the DVFS
//! point down when the trip temperature is exceeded (up again below the
//! release temperature, with hysteresis).
//!
//! Beyond the seed's perfect-telemetry loop, [`dtm_transient_configured`]
//! runs the controller against an imperfect [`SensorModel`] with
//! injectable faults, throttles to the DVFS floor when no sensor reading
//! is credible (fail-safe), survives solver trouble through the fallback
//! ladder (the per-field [`RecoveryReport`]s are aggregated into
//! [`DtmResult::recovery`]), and periodically checkpoints its full state
//! so a killed run resumes bit-identically (see [`crate::checkpoint`]).
//!
//! There is one controller loop. It reads each period's power map from a
//! schedule indexed by phase and DVFS level: a plain run is a one-phase
//! schedule of [`dvfs_power_maps`], and [`dtm_transient_phased`] runs
//! the same loop on a per-phase schedule, so phased runs record the
//! same obs counters and `dtm_step` events. Every map comes from
//! [`XylemSystem::power_map`] with leakage at a 95 C estimate.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use xylem_power::{CoreActivity, UncoreActivity};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::model::ThermalModel;
use xylem_thermal::power::PowerMap;
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Celsius;
use xylem_thermal::{
    AdaptiveController, AdaptiveOptions, AdaptiveSummary, DeadlineGuard, RecoveryReport,
    SolverOptions, SolverWorkspace,
};
use xylem_workloads::Benchmark;

use crate::checkpoint::{self, DtmCheckpoint};
use crate::error::{CheckpointError, ConfigError};
use crate::placement::ThreadPlacement;
use crate::sensor::{SensorArray, SensorFault, SensorModel};
use crate::system::XylemSystem;
use crate::Result;

/// Leakage-temperature estimate used when precomputing per-DVFS-point
/// power maps: the die is assumed near its thermal limit.
const LEAKAGE_TEMP_ESTIMATE: Celsius = Celsius::new(95.0);

/// Transient stepping mode of the DTM control loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SteppingMode {
    /// One fixed backward-Euler step per control period — the historical
    /// behavior, and bit-compatible with pre-adaptive runs.
    #[default]
    Fixed,
    /// Error-controlled adaptive sub-stepping within each control period
    /// (see [`xylem_thermal::adaptive`]): the engine step-doubles,
    /// rejects over-tolerance or diverging steps, and refines the step
    /// after every DVFS level change so control decisions land on
    /// accurately resolved temperatures.
    Adaptive(AdaptiveOptions),
}

impl SteppingMode {
    /// True for the fixed (pre-adaptive) mode.
    pub fn is_fixed(&self) -> bool {
        matches!(self, SteppingMode::Fixed)
    }
}

// The vendored serde stub cannot derive data-carrying enums or skip
// fields, so `SteppingMode` and `DtmPolicy` serialize by hand. The
// `stepping` key is omitted entirely for fixed runs: the serialized
// policy — and therefore every run fingerprint and config hash a
// pre-adaptive (format v1) checkpoint recorded — stays byte-identical.
impl Serialize for SteppingMode {
    fn to_value(&self) -> serde::Value {
        match self {
            SteppingMode::Fixed => serde::Value::String("fixed".to_owned()),
            SteppingMode::Adaptive(o) => o.to_value(),
        }
    }
}

impl Deserialize for SteppingMode {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        match v {
            serde::Value::Null => Ok(SteppingMode::Fixed),
            serde::Value::String(s) if s == "fixed" => Ok(SteppingMode::Fixed),
            serde::Value::Object(_) => AdaptiveOptions::from_value(v).map(SteppingMode::Adaptive),
            other => Err(serde::DeError::new(format!(
                "expected stepping mode, got {}",
                other.kind()
            ))),
        }
    }
}

/// Reactive DTM policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmPolicy {
    /// Throttle when the hotspot exceeds this (paper: T_j,max = 100 C).
    pub trip: Celsius,
    /// Re-boost when the hotspot falls below this (hysteresis).
    pub release: Celsius,
    /// Controller sampling period, s.
    pub control_period_s: f64,
    /// How the thermal state advances across each control period.
    pub stepping: SteppingMode,
}

impl Serialize for DtmPolicy {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("trip".to_owned(), self.trip.to_value());
        m.insert("release".to_owned(), self.release.to_value());
        m.insert(
            "control_period_s".to_owned(),
            self.control_period_s.to_value(),
        );
        if !self.stepping.is_fixed() {
            m.insert("stepping".to_owned(), self.stepping.to_value());
        }
        serde::Value::Object(m)
    }
}

impl Deserialize for DtmPolicy {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let o = v.as_object().ok_or_else(|| {
            serde::DeError::new(format!("expected object for DtmPolicy, got {}", v.kind()))
        })?;
        let null = serde::Value::Null;
        Ok(DtmPolicy {
            trip: Deserialize::from_value(o.get("trip").unwrap_or(&null))
                .map_err(|e| e.in_field("trip"))?,
            release: Deserialize::from_value(o.get("release").unwrap_or(&null))
                .map_err(|e| e.in_field("release"))?,
            control_period_s: Deserialize::from_value(o.get("control_period_s").unwrap_or(&null))
                .map_err(|e| e.in_field("control_period_s"))?,
            stepping: Deserialize::from_value(o.get("stepping").unwrap_or(&null))
                .map_err(|e| e.in_field("stepping"))?,
        })
    }
}

impl DtmPolicy {
    /// The paper's limits with a 2 C hysteresis band and 1 ms control.
    pub fn paper_default() -> Self {
        DtmPolicy {
            trip: Celsius::new(100.0),
            release: Celsius::new(98.0),
            control_period_s: 1e-3,
            stepping: SteppingMode::Fixed,
        }
    }

    /// This policy with adaptive stepping enabled under `opts`.
    #[must_use]
    pub fn with_adaptive(mut self, opts: AdaptiveOptions) -> Self {
        self.stepping = SteppingMode::Adaptive(opts);
        self
    }

    /// Checks the policy is physically meaningful: finite temperatures,
    /// `release <= trip` (the hysteresis band must not invert), and a
    /// positive, finite control period.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if !self.trip.get().is_finite() || !self.release.get().is_finite() {
            return Err(ConfigError::new(
                "trip/release",
                format!(
                    "temperatures must be finite, got trip {} release {}",
                    self.trip, self.release
                ),
            ));
        }
        if self.release > self.trip {
            return Err(ConfigError::new(
                "release",
                format!(
                    "release {} must not exceed trip {} (inverted hysteresis)",
                    self.release, self.trip
                ),
            ));
        }
        if !(self.control_period_s.is_finite() && self.control_period_s > 0.0) {
            return Err(ConfigError::new(
                "control_period_s",
                format!(
                    "control period {} s must be positive and finite",
                    self.control_period_s
                ),
            ));
        }
        if let SteppingMode::Adaptive(o) = &self.stepping {
            if let Err(e) = o.validate() {
                return Err(ConfigError::new("stepping", e.to_string()));
            }
        }
        Ok(())
    }
}

/// One controller sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtmSample {
    /// Simulation time, s.
    pub time_s: f64,
    /// DVFS point in force during this period, GHz.
    pub f_ghz: f64,
    /// Hotspot at the end of the period.
    pub hotspot: Celsius,
}

/// Result of a DTM transient run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtmResult {
    /// Controller trace.
    pub samples: Vec<DtmSample>,
    /// DVFS point at the end of the run, GHz.
    pub final_f_ghz: f64,
    /// Downward frequency steps taken.
    pub throttle_events: usize,
    /// Fraction of samples above the trip temperature.
    pub time_above_trip: f64,
    /// Total conjugate-gradient iterations spent across all transient
    /// steps. Each step warm-starts from the previous field, so this is
    /// far below `samples * cold_iterations`; benchmarks use it to
    /// quantify the warm-start saving.
    pub cg_iterations: usize,
    /// Control periods where no sensor reading was credible and the
    /// controller fail-safed to the DVFS floor. Always 0 for a
    /// perfect-telemetry run.
    pub failsafe_events: usize,
    /// Solver fallback-ladder activity aggregated over every transient
    /// step. Empty when every solve converged on the configured path.
    pub recovery: RecoveryReport,
    /// Adaptive-stepping summary (accept/reject/hold counts, BE solves,
    /// final step size). `None` for fixed-step runs.
    pub adaptive: Option<AdaptiveSummary>,
}

impl DtmResult {
    /// Mean frequency over the run, GHz — the effective (DTM-limited)
    /// operating point.
    pub fn mean_f_ghz(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let freqs: Vec<f64> = self.samples.iter().map(|s| s.f_ghz).collect();
        xylem_thermal::reduce::pairwise_sum(&freqs) / self.samples.len() as f64
    }

    /// Peak hotspot seen.
    pub fn peak_hotspot(&self) -> Celsius {
        Celsius::new(
            self.samples
                .iter()
                .map(|s| s.hotspot.get())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

/// Renders a coarse frequency-over-time strip for a controller trace:
/// one digit per sampled step, `0` = 2.4 GHz (DVFS floor) up to `9` =
/// 3.5 GHz (design point), at most `width` glyphs. Shared by the CLI
/// `dtm` command and the `dtm_trace` example so the two render the same
/// format.
#[must_use]
pub fn frequency_strip(samples: &[DtmSample], width: usize) -> String {
    const F_FLOOR_GHZ: f64 = 2.4;
    const F_RANGE_GHZ: f64 = 1.1;
    let stride = (samples.len() / width.max(1)).max(1);
    samples
        .iter()
        .step_by(stride)
        .map(|s| {
            let t = ((s.f_ghz - F_FLOOR_GHZ) / F_RANGE_GHZ * 9.0).round() as u32;
            char::from_digit(t.min(9), 10).unwrap_or('?')
        })
        .collect()
}

/// Periodic checkpointing of a DTM run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// File the state is written to (atomically replaced each time).
    pub path: PathBuf,
    /// Save every this many control steps (0 disables saving).
    pub every_steps: usize,
    /// If the file already exists and matches this run's configuration,
    /// continue from it instead of starting cold.
    pub resume: bool,
}

/// Full configuration of a fault-tolerant DTM run. The seed behavior —
/// perfect telemetry, no checkpointing, the model's own solver options —
/// is [`DtmRunConfig::new`] with everything else left default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DtmRunConfig {
    /// Controller policy.
    pub policy: DtmPolicy,
    /// Sensor array the controller reads through; `None` reads the true
    /// hotspot directly.
    pub sensors: Option<SensorModel>,
    /// Faults injected into the sensors (ignored without `sensors`).
    pub faults: Vec<SensorFault>,
    /// Solver options override for the transient model (e.g. to force
    /// ladder escalations in fault drills).
    pub solver: Option<SolverOptions>,
    /// Periodic checkpoint/resume.
    pub checkpoint: Option<CheckpointConfig>,
    /// Wall-clock budget for the whole run, enforced by a
    /// [`xylem_thermal::DeadlineGuard`] around the control loop: an
    /// expired deadline aborts the in-flight CG solve with a clean
    /// [`xylem_thermal::ThermalError::DeadlineExceeded`] — never a hang.
    /// `None` (the default) runs unbounded. Excluded from the resume
    /// fingerprint: a re-run with a different budget may resume the
    /// same checkpoint.
    pub deadline_ms: Option<u64>,
}

impl Default for DtmPolicy {
    fn default() -> Self {
        DtmPolicy::paper_default()
    }
}

impl DtmRunConfig {
    /// A plain run under `policy`: perfect telemetry, no faults, no
    /// checkpointing.
    #[must_use]
    pub fn new(policy: DtmPolicy) -> Self {
        DtmRunConfig {
            policy,
            sensors: None,
            faults: Vec::new(),
            solver: None,
            checkpoint: None,
            deadline_ms: None,
        }
    }
}

/// The run parameters a checkpoint must agree on before a resume is
/// accepted; serialized canonically and hashed into
/// [`DtmCheckpoint::config_hash`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RunFingerprint {
    benchmark: String,
    requested_f_ghz: f64,
    duration_s: f64,
    policy: DtmPolicy,
    sensors: Option<SensorModel>,
    faults: Vec<SensorFault>,
    solver_tolerance: f64,
    solver_max_iterations: usize,
    grid_nx: usize,
    grid_ny: usize,
}

/// Runs `benchmark` (8 threads) for `duration_s` starting from a cold
/// die, requesting `requested_f_ghz`; the DTM controller throttles as
/// needed. The transient runs on `grid` (coarser than the steady-state
/// experiments). Equivalent to [`dtm_transient_configured`] with a plain
/// [`DtmRunConfig`].
///
/// # Errors
///
/// [`crate::XylemError::Config`] for a degenerate duration or policy;
/// otherwise propagates model errors.
pub fn dtm_transient(
    system: &XylemSystem,
    benchmark: Benchmark,
    requested_f_ghz: f64,
    duration_s: f64,
    policy: &DtmPolicy,
    grid: GridSpec,
) -> Result<DtmResult> {
    dtm_transient_configured(
        system,
        benchmark,
        requested_f_ghz,
        duration_s,
        &DtmRunConfig::new(*policy),
        grid,
    )
}

/// The fault-tolerant DTM engine: [`dtm_transient`] plus sensor-driven
/// control, fail-safe throttling, solver-recovery aggregation, and
/// checkpoint/resume, all selected through `run`.
///
/// Controller input: with `run.sensors` set, each period samples the
/// array (noise, quantization, latency, injected faults) and fuses the
/// delivered frame; if no reading is credible the controller assumes
/// the worst and drops to the DVFS floor, counting a
/// [`DtmResult::failsafe_events`]. The recorded
/// [`DtmSample::hotspot`] is always the **true** hotspot, so
/// [`DtmResult::time_above_trip`] measures physical reality, not sensor
/// belief.
///
/// Checkpointing: with `run.checkpoint` set, the loop atomically writes
/// its full state every `every_steps` periods, and with `resume` starts
/// from a matching existing file. Counter-based sensor noise and the
/// deterministic CG core make a resumed run bit-identical to an
/// uninterrupted one — the fault-injection suite asserts exactly that.
///
/// # Errors
///
/// [`crate::XylemError::Config`] for invalid policy/sensor/duration
/// configuration; [`crate::XylemError::Checkpoint`] for an unreadable,
/// corrupt, or mismatched checkpoint; thermal errors only if the solver
/// fallback ladder itself is exhausted.
pub fn dtm_transient_configured(
    system: &XylemSystem,
    benchmark: Benchmark,
    requested_f_ghz: f64,
    duration_s: f64,
    run: &DtmRunConfig,
    grid: GridSpec,
) -> Result<DtmResult> {
    run_controller(
        system,
        DtmWorkload::Steady(benchmark),
        requested_f_ghz,
        duration_s,
        run,
        grid,
    )
}

/// Runs a **phased** workload (warm-up / main / tail, see
/// [`xylem_workloads::PhasedWorkload`]) under the DTM controller: each
/// phase contributes its instruction-weighted share of `duration_s` with
/// its own power map, so the controller sees a thermal step when the hot
/// main phase begins — the scenario where reactive throttling actually
/// engages on a real machine. The run is [`dtm_transient_configured`]'s
/// loop under a plain [`DtmRunConfig`], on a per-phase power schedule.
///
/// # Errors
///
/// [`crate::XylemError::Config`] for a degenerate duration or policy;
/// otherwise propagates model errors.
pub fn dtm_transient_phased(
    system: &XylemSystem,
    workload: &xylem_workloads::PhasedWorkload,
    requested_f_ghz: f64,
    duration_s: f64,
    policy: &DtmPolicy,
    grid: GridSpec,
) -> Result<DtmResult> {
    run_controller(
        system,
        DtmWorkload::Phased(workload),
        requested_f_ghz,
        duration_s,
        &DtmRunConfig::new(*policy),
        grid,
    )
}

/// What the controller runs: one benchmark profile for the whole run, or
/// a phase schedule.
enum DtmWorkload<'a> {
    Steady(Benchmark),
    Phased(&'a xylem_workloads::PhasedWorkload),
}

/// The power input of a controller run: one map per (phase, DVFS level).
struct PowerSchedule {
    /// Admitted DVFS points, GHz, ascending; `maps[phase][level]` runs
    /// at `points[level]`.
    points: Vec<f64>,
    maps: Vec<Vec<PowerMap>>,
    /// Phase `p` is in force up to `phase_ends_s[p]`; past the last
    /// listed end (or with none listed) the last phase holds.
    phase_ends_s: Vec<f64>,
}

impl PowerSchedule {
    /// The map in force at simulation time `t_s` at DVFS `level`.
    fn map(&self, t_s: f64, level: usize) -> &PowerMap {
        let phase = self
            .phase_ends_s
            .iter()
            .position(|&end| t_s <= end + 1e-12)
            .unwrap_or(self.maps.len() - 1);
        &self.maps[phase][level]
    }
}

/// The one DTM controller loop behind [`dtm_transient_configured`] and
/// [`dtm_transient_phased`]: validates the run, builds the power
/// schedule of `workload`, then steps, senses, decides and checkpoints
/// once per control period.
fn run_controller(
    system: &XylemSystem,
    workload: DtmWorkload<'_>,
    requested_f_ghz: f64,
    duration_s: f64,
    run: &DtmRunConfig,
    grid: GridSpec,
) -> Result<DtmResult> {
    run.policy.validate()?;
    if !(duration_s.is_finite() && duration_s > 0.0) {
        return Err(ConfigError::new(
            "duration_s",
            format!("duration {duration_s} s must be positive and finite"),
        )
        .into());
    }
    let dt = run.policy.control_period_s;
    let steps = (duration_s / dt).round() as usize;
    if steps == 0 {
        return Err(ConfigError::new(
            "duration_s",
            format!(
                "duration {duration_s} s is shorter than half a control period ({dt} s), \
                 so the run would take no step"
            ),
        )
        .into());
    }
    if let Some(sm) = &run.sensors {
        sm.validate(grid.nx(), grid.ny())?;
    }

    let built = system.built();
    let mut model = built.stack().discretize(grid)?;
    if let Some(opts) = run.solver {
        model.set_solver_options(opts);
    }
    let pm_layer = built.proc_metal_layer();
    let (label, schedule) = match workload {
        DtmWorkload::Steady(benchmark) => {
            let (points, maps) = dvfs_power_maps(system, benchmark, requested_f_ghz, &model)?;
            let schedule = PowerSchedule {
                points,
                maps: vec![maps],
                phase_ends_s: Vec::new(),
            };
            (format!("{benchmark:?}"), schedule)
        }
        DtmWorkload::Phased(w) => (
            format!("{w:?}"),
            phased_schedule(system, w, requested_f_ghz, duration_s, &model)?,
        ),
    };
    let points = &schedule.points;

    let opts = model.solver_options();
    let fingerprint = RunFingerprint {
        benchmark: label,
        requested_f_ghz,
        duration_s,
        policy: run.policy,
        sensors: run.sensors.clone(),
        faults: run.faults.clone(),
        solver_tolerance: opts.tolerance,
        solver_max_iterations: opts.max_iterations,
        grid_nx: grid.nx(),
        grid_ny: grid.ny(),
    };
    let cfg_hash = checkpoint::config_hash(
        &serde_json::to_string(&fingerprint)
            .map_err(|e| ConfigError::new("fingerprint", format!("serialization failed: {e}")))?,
    );

    let mut field = TemperatureField::uniform(&model, model.ambient());
    let mut level = points.len() - 1; // start at the requested point
    let mut start_step = 0usize;
    let mut samples: Vec<DtmSample> = Vec::with_capacity(steps);
    let mut throttle_events = 0usize;
    let mut above = 0usize;
    let mut failsafe_events = 0usize;
    let mut cg_iterations = 0usize;
    let mut recovery = RecoveryReport::default();
    let mut sensors = run
        .sensors
        .as_ref()
        .map(|sm| SensorArray::new(sm.clone(), model.ambient()));
    let mut adaptive = match run.policy.stepping {
        SteppingMode::Fixed => None,
        SteppingMode::Adaptive(o) => Some(AdaptiveController::new(o)?),
    };

    if let Some(ck) = &run.checkpoint {
        if ck.resume && ck.path.exists() {
            let c = checkpoint::load(&ck.path)?;
            // An adaptive run cannot resume a pre-adaptive (format v1)
            // checkpoint: the controller state it needs was never saved.
            // Catch this before the config-hash comparison so the error
            // names the real incompatibility instead of a hash mismatch.
            if adaptive.is_some() && c.adaptive.is_none() {
                return Err(CheckpointError::Mismatch {
                    what: "stepping mode",
                    expected: "adaptive controller state (a checkpoint written by an \
                               adaptive-stepping run)"
                        .to_string(),
                    found: "a fixed-step checkpoint without controller state; rerun without \
                            --adaptive to resume it, or restart the adaptive run cold"
                        .to_string(),
                }
                .into());
            }
            c.validate_against(grid.nx(), grid.ny(), dt, &cfg_hash)?;
            if c.level >= points.len() || c.step > steps {
                return Err(CheckpointError::Corrupt {
                    reason: format!(
                        "state out of range: level {} of {}, step {} of {steps}",
                        c.level,
                        points.len(),
                        c.step
                    ),
                }
                .into());
            }
            field = TemperatureField::from_raw(&model, c.temps)?;
            start_step = c.step;
            level = c.level;
            samples = c.samples;
            throttle_events = c.throttle_events;
            above = c.above;
            failsafe_events = c.failsafe_events;
            cg_iterations = c.cg_iterations;
            recovery = c.recovery;
            sensors = c.sensors;
            if let Some(ctrl) = c.adaptive {
                adaptive = Some(ctrl);
            }
        }
    }

    // Wall-clock budget for everything below, including resumed runs:
    // the guard is thread-local and checked inside the CG loop, so an
    // expired deadline surfaces as a clean `DeadlineExceeded` from the
    // in-flight solve instead of a hang. RAII drop uninstalls it on
    // every exit path.
    let _deadline = run.deadline_ms.map(|ms| {
        DeadlineGuard::install(std::time::Instant::now() + std::time::Duration::from_millis(ms))
    });

    let mut ws = SolverWorkspace::new();
    for k in start_step..steps {
        // Step latency (solve + sense + decide) lands in the DtmStepMs
        // histogram; checkpoint I/O below is deliberately excluded.
        let step_span = xylem_obs::span("dtm_step", Some(xylem_obs::Hist::DtmStepMs));
        let f_step = points[level];
        // Each step seeds CG with the previous field (warm start) and
        // reuses the workspace + cached backward-Euler operators.
        let map = schedule.map((k + 1) as f64 * dt, level);
        field = match adaptive.as_mut() {
            Some(ctrl) => model.transient_adaptive(map, &field, dt, ctrl, &mut ws)?,
            None => model.transient_with(map, &field, dt, 1, None, &mut ws)?,
        };
        let step_iters = field.stats().iterations;
        cg_iterations += step_iters;
        recovery.merge(field.recovery());
        let true_hot = field.max_of_layer(pm_layer);
        // The controller sees the die through the sensor path (if any);
        // the recorded trace keeps the physical truth.
        let estimate = match &mut sensors {
            Some(arr) => {
                let _fuse_span =
                    xylem_obs::span("sensor_fuse", Some(xylem_obs::Hist::SensorFuseMs));
                let frame = arr.sample(&field, pm_layer, k, &run.faults);
                let fused = arr.fuse(&frame, model.ambient());
                fused.valid.then(|| Celsius::new(fused.value_c))
            }
            None => Some(true_hot),
        };
        samples.push(DtmSample {
            time_s: (k + 1) as f64 * dt,
            f_ghz: f_step,
            hotspot: true_hot,
        });
        if true_hot > run.policy.trip {
            above += 1;
        }
        let level_before = level;
        let action = match estimate {
            None => {
                // Fail-safe: nothing credible to act on — assume the
                // worst and drop to the floor until telemetry returns.
                failsafe_events += 1;
                xylem_obs::incr(xylem_obs::Counter::FailsafeEvents);
                if level > 0 {
                    level = 0;
                    throttle_events += 1;
                    xylem_obs::incr(xylem_obs::Counter::ThrottleEvents);
                }
                "failsafe"
            }
            Some(hot) => {
                if hot > run.policy.trip {
                    if level > 0 {
                        level -= 1;
                        throttle_events += 1;
                        xylem_obs::incr(xylem_obs::Counter::ThrottleEvents);
                        "throttle"
                    } else {
                        "hold"
                    }
                } else if hot < run.policy.release && level + 1 < points.len() {
                    level += 1;
                    xylem_obs::incr(xylem_obs::Counter::BoostEvents);
                    "boost"
                } else {
                    "hold"
                }
            }
        };
        if level != level_before {
            // A DVFS transition is a power-input discontinuity: refine
            // the adaptive step back to its initial rung so the first
            // periods after the change are resolved accurately.
            if let Some(ctrl) = adaptive.as_mut() {
                ctrl.notify_discontinuity();
            }
        }
        xylem_obs::incr(xylem_obs::Counter::DtmSteps);
        xylem_obs::set_gauge(xylem_obs::Gauge::DtmFreqGhz, points[level]);
        xylem_obs::set_gauge(xylem_obs::Gauge::DtmMaxTempC, true_hot.get());
        if xylem_obs::enabled() {
            let mut ev = xylem_obs::event("dtm_step")
                .u64("step", k as u64)
                .f64("f_ghz", f_step)
                .f64("t_c", true_hot.get())
                .u64("iters", step_iters as u64)
                .f64("residual", field.stats().residual)
                .u64("recovery_attempts", recovery.attempts as u64)
                .str("action", action)
                .u64("level", level as u64);
            ev = match estimate {
                Some(hot) => ev.f64("est_c", hot.get()),
                None => ev.bool("est_lost", true),
            };
            ev.emit();
        }
        drop(step_span);

        if let Some(ck) = &run.checkpoint {
            if ck.every_steps > 0 && (k + 1) % ck.every_steps == 0 {
                let c = DtmCheckpoint {
                    step: k + 1,
                    grid_nx: grid.nx(),
                    grid_ny: grid.ny(),
                    dt,
                    config_hash: cfg_hash.clone(),
                    temps: field.raw().to_vec(),
                    level,
                    throttle_events,
                    above,
                    failsafe_events,
                    cg_iterations,
                    samples: samples.clone(),
                    sensors: sensors.clone(),
                    recovery: recovery.clone(),
                    adaptive: adaptive.clone(),
                };
                checkpoint::save(&ck.path, &c)?;
                xylem_obs::incr(xylem_obs::Counter::CheckpointsWritten);
                if xylem_obs::enabled() {
                    xylem_obs::event("checkpoint")
                        .u64("step", (k + 1) as u64)
                        .emit();
                }
            }
        }
    }

    Ok(DtmResult {
        final_f_ghz: points[level],
        throttle_events,
        time_above_trip: above as f64 / steps.max(1) as f64,
        samples,
        cg_iterations,
        failsafe_events,
        recovery,
        adaptive: adaptive.as_ref().map(|c| c.summary()),
    })
}

/// The DVFS points at or below `requested_f_ghz`, ascending.
fn dvfs_points(system: &XylemSystem, requested_f_ghz: f64) -> Result<Vec<f64>> {
    let points: Vec<f64> = system
        .power_model()
        .dvfs()
        .points()
        .map(|p| p.frequency_ghz)
        .filter(|&f| f <= requested_f_ghz + 1e-9)
        .collect();
    if points.is_empty() {
        return Err(ConfigError::new(
            "requested_f_ghz",
            format!("requested frequency {requested_f_ghz} GHz is below the whole DVFS range"),
        )
        .into());
    }
    Ok(points)
}

/// Precomputes one power map per DVFS point at or below
/// `requested_f_ghz` for `benchmark` running 8 threads on `model`.
/// Returns the admitted frequencies (ascending, matching the DVFS table
/// order) and their maps. Shared by the DTM controller, the direct
/// headroom search, and the solver benchmarks.
///
/// # Errors
///
/// [`crate::XylemError::Config`] if `requested_f_ghz` is below the whole
/// DVFS range; otherwise propagates model errors.
pub fn dvfs_power_maps(
    system: &XylemSystem,
    benchmark: Benchmark,
    requested_f_ghz: f64,
    model: &ThermalModel,
) -> Result<(Vec<f64>, Vec<PowerMap>)> {
    let points = dvfs_points(system, requested_f_ghz)?;
    let all_cores = ThreadPlacement::all_eight();
    let mut maps = Vec::with_capacity(points.len());
    for &f in &points {
        let metrics = system.machine().run(benchmark, f, 8);
        maps.push(system.metrics_power_map(
            model,
            &metrics,
            all_cores.cores(),
            1.0,
            LEAKAGE_TEMP_ESTIMATE,
        )?);
    }
    Ok((points, maps))
}

/// The power schedule of a phased run: per phase, one map per admitted
/// DVFS point built from the phase's profile through the interval CPI
/// model; phases end at their instruction-weighted share of
/// `duration_s`.
fn phased_schedule(
    system: &XylemSystem,
    workload: &xylem_workloads::PhasedWorkload,
    requested_f_ghz: f64,
    duration_s: f64,
    model: &ThermalModel,
) -> Result<PowerSchedule> {
    let points = dvfs_points(system, requested_f_ghz)?;
    let dvfs = system.power_model().dvfs();
    let mut maps = Vec::with_capacity(workload.phases().len());
    for pi in 0..workload.phases().len() {
        let profile = workload.phase_profile(pi);
        let mut phase_maps = Vec::with_capacity(points.len());
        for &f in &points {
            let lat = system.machine().dram_latency_under_load(&profile, f, 8);
            let cpi =
                xylem_archsim::interval::cpi_breakdown(system.machine().arch(), &profile, f, lat);
            let point = dvfs.point_at(f);
            let cores = [CoreActivity {
                activity: profile.activity_peak * (cpi.core() / cpi.total()),
                memory_intensity: profile.memory_intensity,
                point,
            }; 8];
            let uncore = UncoreActivity {
                llc: (profile.l1d_mpki / 25.0).min(1.0),
                mc: [(profile.dram_apki() / 8.0).min(1.0); 4],
                noc: (profile.l2_mpki / 10.0).min(1.0),
                point,
            };
            let instr_rate = f * 1e9 / cpi.total() * 8.0;
            let acc = instr_rate * profile.dram_apki() / 1000.0;
            let dram_rates = [
                acc * profile.read_fraction,
                acc * (1.0 - profile.read_fraction),
                acc * (1.0 - profile.row_hit_fraction),
            ];
            phase_maps.push(system.power_map(
                model,
                &cores,
                &uncore,
                dram_rates,
                LEAKAGE_TEMP_ESTIMATE,
            )?);
        }
        maps.push(phase_maps);
    }
    let mut phase_ends_s = Vec::with_capacity(maps.len());
    let mut acc = 0.0;
    for ph in workload.phases() {
        acc += ph.weight;
        phase_ends_s.push(acc * duration_s);
    }
    Ok(PowerSchedule {
        points,
        maps,
        phase_ends_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{FaultKind, SensorSite};
    use crate::system::SystemConfig;
    use xylem_stack::XylemScheme;

    fn system(scheme: XylemScheme) -> XylemSystem {
        let mut cfg = SystemConfig::fast(scheme);
        cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
        XylemSystem::new(cfg).unwrap()
    }

    fn quick_policy() -> DtmPolicy {
        DtmPolicy {
            trip: Celsius::new(100.0),
            release: Celsius::new(98.0),
            control_period_s: 20e-3,
            stepping: SteppingMode::Fixed,
        }
    }

    #[test]
    fn policy_validation_rejects_degenerate_configs() {
        assert!(DtmPolicy::paper_default().validate().is_ok());
        let inverted = DtmPolicy {
            trip: Celsius::new(90.0),
            release: Celsius::new(95.0),
            control_period_s: 1e-3,
            stepping: SteppingMode::Fixed,
        };
        assert!(inverted.validate().is_err());
        let bad_adaptive = DtmPolicy::paper_default().with_adaptive(AdaptiveOptions {
            rtol: -1.0,
            ..AdaptiveOptions::default()
        });
        assert!(bad_adaptive.validate().is_err());
        let frozen = DtmPolicy {
            control_period_s: 0.0,
            ..DtmPolicy::paper_default()
        };
        assert!(frozen.validate().is_err());
        let eternal = DtmPolicy {
            control_period_s: f64::INFINITY,
            ..DtmPolicy::paper_default()
        };
        assert!(eternal.validate().is_err());
        // And the run entry points surface it as an error, not a panic.
        let s = system(XylemScheme::Base);
        let r = dtm_transient(
            &s,
            Benchmark::Is,
            2.8,
            1.0,
            &inverted,
            GridSpec::new(12, 12),
        );
        assert!(r.is_err());
        // A duration that rounds to zero control periods has no samples
        // to report a peak from.
        let policy = DtmPolicy::paper_default();
        let blink = dtm_transient(
            &s,
            Benchmark::Is,
            2.8,
            0.4 * policy.control_period_s,
            &policy,
            GridSpec::new(12, 12),
        );
        match blink {
            Err(crate::XylemError::Config(e)) => {
                assert_eq!(e.what, "duration_s");
                assert!(
                    e.to_string().contains("shorter than half a control period"),
                    "{e}"
                );
            }
            other => panic!("expected a duration_s ConfigError, got {other:?}"),
        }
    }

    #[test]
    fn hot_workload_gets_throttled_on_base() {
        let s = system(XylemScheme::Base);
        let r = dtm_transient(
            &s,
            Benchmark::LuNas,
            3.5,
            3.0,
            &quick_policy(),
            GridSpec::new(12, 12),
        )
        .unwrap();
        assert!(r.throttle_events > 0, "{r:?}");
        assert!(r.final_f_ghz < 3.5);
        assert_eq!(r.failsafe_events, 0);
        assert!(r.recovery.is_empty(), "healthy run needs no ladder");
        // The trip level is only exceeded transiently.
        let tail = &r.samples[r.samples.len() / 2..];
        let tail_above = tail.iter().filter(|s| s.hotspot > 100.5).count();
        assert!(
            tail_above < tail.len() / 4,
            "still hot in steady state: {tail_above}/{}",
            tail.len()
        );
    }

    #[test]
    fn cool_workload_keeps_its_request() {
        let s = system(XylemScheme::BankEnhanced);
        let r = dtm_transient(
            &s,
            Benchmark::Is,
            2.8,
            2.0,
            &quick_policy(),
            GridSpec::new(12, 12),
        )
        .unwrap();
        assert_eq!(r.throttle_events, 0, "{:?}", r.final_f_ghz);
        assert!((r.final_f_ghz - 2.8).abs() < 1e-9);
        assert!(r.peak_hotspot() < 100.0);
    }

    #[test]
    fn sensored_run_matches_perfect_telemetry_when_ideal() {
        // An ideal sensor on every cell reads exactly the true hotspot,
        // so the controller trace must match the perfect-telemetry loop.
        let s = system(XylemScheme::BankEnhanced);
        let grid = GridSpec::new(12, 12);
        let policy = quick_policy();
        let perfect = dtm_transient(&s, Benchmark::Is, 2.8, 1.0, &policy, grid).unwrap();
        let sites: Vec<SensorSite> = (0..12)
            .flat_map(|ix| (0..12).map(move |iy| SensorSite { ix, iy }))
            .collect();
        let run = DtmRunConfig {
            sensors: Some(SensorModel::ideal(sites, 1)),
            ..DtmRunConfig::new(policy)
        };
        let sensed = dtm_transient_configured(&s, Benchmark::Is, 2.8, 1.0, &run, grid).unwrap();
        assert_eq!(perfect, sensed);
    }

    #[test]
    fn dropout_of_all_sensors_failsafes_to_the_floor() {
        let s = system(XylemScheme::BankEnhanced);
        let grid = GridSpec::new(12, 12);
        let policy = quick_policy();
        let model = SensorModel::ideal(vec![SensorSite { ix: 6, iy: 6 }], 9);
        let run = DtmRunConfig {
            sensors: Some(model),
            faults: vec![SensorFault {
                sensor: 0,
                kind: FaultKind::Dropout,
                from_step: 10,
                to_step: 20,
                value_c: 0.0,
            }],
            ..DtmRunConfig::new(policy)
        };
        let r = dtm_transient_configured(&s, Benchmark::Is, 2.8, 1.0, &run, grid).unwrap();
        assert_eq!(r.failsafe_events, 10);
        // During the blackout the controller sits at the DVFS floor.
        let floor = r
            .samples
            .iter()
            .map(|s| s.f_ghz)
            .fold(f64::INFINITY, f64::min);
        assert!(r.samples[11..20].iter().all(|s| s.f_ghz == floor));
        // Telemetry returns, the controller re-boosts.
        assert!((r.final_f_ghz - 2.8).abs() < 1e-9, "{}", r.final_f_ghz);
    }

    #[test]
    fn dtm_warm_stepping_beats_cold_restarts() {
        // A cool workload never throttles, so the DTM run is a fixed
        // power map stepped `samples` times — replicate it with the CG
        // iterate forced back to ambient each step and compare costs.
        let s = system(XylemScheme::BankEnhanced);
        let policy = quick_policy();
        let grid = GridSpec::new(12, 12);
        let r = dtm_transient(&s, Benchmark::Is, 2.8, 1.0, &policy, grid).unwrap();
        assert_eq!(r.throttle_events, 0);

        let built = s.built();
        let model = built.stack().discretize(grid).unwrap();
        let (_, maps) = dvfs_power_maps(&s, Benchmark::Is, 2.8, &model).unwrap();
        let map = maps.last().unwrap();
        let ambient = TemperatureField::uniform(&model, model.ambient());
        let mut field = ambient.clone();
        let mut ws = SolverWorkspace::new();
        let mut cold = 0usize;
        for _ in 0..r.samples.len() {
            field = model
                .transient_with(
                    map,
                    &field,
                    policy.control_period_s,
                    1,
                    Some(&ambient),
                    &mut ws,
                )
                .unwrap();
            cold += field.stats().iterations;
        }
        assert!(
            r.cg_iterations < cold,
            "warm {} vs cold {}",
            r.cg_iterations,
            cold
        );
    }

    #[test]
    fn phased_run_throttles_in_the_hot_phase() {
        use xylem_workloads::PhasedWorkload;
        let s = system(XylemScheme::Base);
        let w = PhasedWorkload::standard(Benchmark::Cholesky);
        let r =
            dtm_transient_phased(&s, &w, 3.5, 2.4, &quick_policy(), GridSpec::new(12, 12)).unwrap();
        assert_eq!(
            r.samples.len(),
            (2.4 / quick_policy().control_period_s).round() as usize
        );
        // The warm-up phase (first 15%) is cooler than the main phase.
        let n = r.samples.len();
        let warmup_max = r.samples[..n * 15 / 100]
            .iter()
            .map(|s| s.hotspot.get())
            .fold(f64::NEG_INFINITY, f64::max);
        let main_max = r.samples[n * 20 / 100..n * 80 / 100]
            .iter()
            .map(|s| s.hotspot.get())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(main_max > warmup_max, "{main_max} vs {warmup_max}");
    }

    #[test]
    fn pillars_raise_the_dtm_limited_frequency() {
        let policy = quick_policy();
        let grid = GridSpec::new(12, 12);
        let base = dtm_transient(
            &system(XylemScheme::Base),
            Benchmark::Cholesky,
            3.5,
            3.0,
            &policy,
            grid,
        )
        .unwrap();
        let banke = dtm_transient(
            &system(XylemScheme::BankEnhanced),
            Benchmark::Cholesky,
            3.5,
            3.0,
            &policy,
            grid,
        )
        .unwrap();
        assert!(
            banke.mean_f_ghz() > base.mean_f_ghz(),
            "banke {} vs base {}",
            banke.mean_f_ghz(),
            base.mean_f_ghz()
        );
    }
}

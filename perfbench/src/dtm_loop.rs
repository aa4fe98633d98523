//! `dtm_closed_loop`: Fig 16/17-style reactive DTM through
//! `dtm_transient_configured` at 32x32. Set-up builds the Base and
//! BankEnhanced systems at the fast grid into this run's cache; each op
//! is one short closed-loop run (the model is rebuilt inside the call)
//! with the default sensor array and periodic checkpoints, over a seeded
//! mix of app x scheme x sensor fault that makes the throttle and
//! fail-safe paths fire.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use xylem::checkpoint::{self, DtmCheckpoint};
use xylem::dtm::{
    dtm_transient_configured, dvfs_power_maps, CheckpointConfig, DtmPolicy, DtmResult, DtmRunConfig,
};
use xylem::sensor::{FaultKind, SensorArray, SensorFault, SensorModel};
use xylem::{SystemConfig, XylemSystem};
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::solve::SolverWorkspace;
use xylem_thermal::temperature::TemperatureField;
use xylem_workloads::Benchmark;

use crate::harness::{median, ms, secs, BenchError, Deck, EndToEnd, Outcome, Rng, RunDir, MIN_OPS};
use crate::trace::{bytes_per_cg_iter, paired_overhead_pct, Ledger};

const GRID: usize = 32;
const SCHEMES: [XylemScheme; 2] = [XylemScheme::Base, XylemScheme::BankEnhanced];
const APPS: [Benchmark; 3] = [Benchmark::Cholesky, Benchmark::Fft, Benchmark::Radix];
/// Requested frequency: the design point, hot enough to throttle.
const REQUESTED_GHZ: f64 = 3.5;
/// Control periods (1 ms each) per op.
const PERIODS: usize = 12;
/// Periods between checkpoints.
const CHECKPOINT_EVERY: usize = 6;
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 2;
/// Traced runs report counts over this many leading configs.
const COUNT_CONFIGS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fault {
    None,
    /// Sensor 0 reads far above the trip for a window: the controller
    /// throttles to the floor, then boosts back.
    StuckHot,
    /// Every sensor drops out for a window: the controller fail-safes.
    Dropout,
}

const FAULTS: [Fault; 3] = [Fault::None, Fault::StuckHot, Fault::Dropout];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpConfig {
    scheme: usize,
    app: usize,
    fault: Fault,
}

fn sensor_model() -> SensorModel {
    SensorModel::default_array(GRID, GRID, 0x5E45)
}

fn faults(fault: Fault, sensors: usize) -> Vec<SensorFault> {
    match fault {
        Fault::None => Vec::new(),
        Fault::StuckHot => vec![SensorFault {
            sensor: 0,
            kind: FaultKind::StuckAt,
            from_step: 2,
            to_step: 7,
            value_c: 130.0,
        }],
        Fault::Dropout => (0..sensors)
            .map(|sensor| SensorFault {
                sensor,
                kind: FaultKind::Dropout,
                from_step: 3,
                to_step: 7,
                value_c: 0.0,
            })
            .collect(),
    }
}

fn run_config(c: OpConfig, checkpoint: Option<&Path>) -> DtmRunConfig {
    let sensors = sensor_model();
    let n = sensors.sites.len();
    let mut run = DtmRunConfig::new(DtmPolicy::paper_default());
    run.sensors = Some(sensors);
    run.faults = faults(c.fault, n);
    run.checkpoint = checkpoint.map(|path| CheckpointConfig {
        path: path.to_path_buf(),
        every_steps: CHECKPOINT_EVERY,
        resume: false,
    });
    run
}

fn op(system: &XylemSystem, c: OpConfig, run: &DtmRunConfig) -> Result<DtmResult, BenchError> {
    Ok(dtm_transient_configured(
        system,
        APPS[c.app],
        REQUESTED_GHZ,
        PERIODS as f64 * run.policy.control_period_s,
        run,
        GridSpec::new(GRID, GRID),
    )?)
}

/// Replays the constituents of one op and records per-layer times and
/// the part of the op they do not cover.
fn replay_op(
    ledger: &mut Ledger,
    system: &XylemSystem,
    c: OpConfig,
    result: &DtmResult,
    ckpt_path: &Path,
    op_ms: f64,
    counting: bool,
) -> Result<(), BenchError> {
    let built = system.built();
    let grid = GridSpec::new(GRID, GRID);
    let t = Instant::now();
    let model = built.stack().discretize(grid)?;
    let assemble_ms = ms(t);
    ledger.sample("thermal.assemble_ms", assemble_ms);
    let t = Instant::now();
    let (points, maps) = dvfs_power_maps(system, APPS[c.app], REQUESTED_GHZ, &model)?;
    let dvfs_ms = ms(t);
    ledger.sample("core.dvfs_maps_ms", dvfs_ms);
    ledger.set(
        "thermal.bytes_per_cg_iter_computed",
        bytes_per_cg_iter(model.node_count(), model.csr().nnz()),
        1,
    );

    let run = run_config(c, None);
    let dt = run.policy.control_period_s;
    let pm_layer = built.proc_metal_layer();
    let mut sensors = SensorArray::new(sensor_model(), model.ambient());
    let mut field = TemperatureField::uniform(&model, model.ambient());
    let mut ws = SolverWorkspace::new();
    let (mut step_ms, mut sense_ms, mut save_ms) = (0.0, 0.0, 0.0);
    for (k, s) in result.samples.iter().enumerate() {
        let level = points
            .iter()
            .position(|&f| f.to_bits() == s.f_ghz.to_bits())
            .ok_or("sample frequency not in the DVFS table")?;
        let t = Instant::now();
        field = model.transient_with(&maps[level], &field, dt, 1, None, &mut ws)?;
        let m = ms(t);
        step_ms += m;
        ledger.sample("thermal.transient_step_ms", m);
        let t = Instant::now();
        let frame = sensors.sample(&field, pm_layer, k, &run.faults);
        std::hint::black_box(sensors.fuse(&frame, model.ambient()));
        let m = ms(t);
        sense_ms += m;
        ledger.sample("core.sensor_sample_us", m * 1e3);
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            let c = DtmCheckpoint {
                step: k + 1,
                grid_nx: GRID,
                grid_ny: GRID,
                dt,
                config_hash: checkpoint::config_hash("perfbench-replay"),
                temps: field.raw().to_vec(),
                level,
                throttle_events: 0,
                above: 0,
                failsafe_events: 0,
                cg_iterations: 0,
                samples: result.samples[..=k].to_vec(),
                sensors: Some(sensors.clone()),
                recovery: Default::default(),
                adaptive: None,
            };
            let t = Instant::now();
            checkpoint::save(ckpt_path, &c)?;
            let m = ms(t);
            save_ms += m;
            ledger.sample("core.checkpoint_save_ms", m);
            if counting && k + 1 == PERIODS {
                ledger.count(
                    "core.checkpoint_bytes",
                    std::fs::metadata(ckpt_path)?.len() as f64,
                );
            }
        }
    }
    let steps = result.samples.len().max(1) as f64;
    ledger.sample("core.dtm_period_ms", op_ms / steps);
    ledger.sample(
        "core.dtm_residual_ms",
        op_ms - assemble_ms - dvfs_ms - step_ms - sense_ms - save_ms,
    );
    Ok(())
}

/// Every op config: scheme x app x sensor fault.
fn all_configs() -> Vec<OpConfig> {
    let mut all = Vec::new();
    for scheme in 0..SCHEMES.len() {
        for app in 0..APPS.len() {
            for &fault in &FAULTS {
                all.push(OpConfig { scheme, app, fault });
            }
        }
    }
    all
}

/// What one timed phase produced.
#[derive(Default)]
struct Ops {
    /// Every op's latency.
    op_ms: Vec<f64>,
    /// Ops run without the JSONL sink.
    plain_ms: Vec<f64>,
    /// Ops run with the sink installed (traced phase only), paired in
    /// order with `plain_ms`.
    sink_ms: Vec<f64>,
    periods: usize,
    failed: u64,
    repeat_mismatches: u64,
    timed_s: f64,
}

/// The set-up state every op runs against.
struct Bench<'a> {
    systems: &'a [XylemSystem],
    ckpt_path: &'a Path,
    /// Each config's first result; repeats must match it.
    firsts: BTreeMap<OpConfig, DtmResult>,
}

impl Bench<'_> {
    /// Runs the seeded deck for `seconds` and at least [`MIN_OPS`] ops,
    /// ending on a whole pass so every run times the same mix of configs.
    /// With a ledger, each config runs twice, without and with the JSONL
    /// sink installed into memory (alternating which goes first), and the
    /// sink-free op is replayed for the per-layer metrics.
    fn phase(
        &mut self,
        seed: u64,
        seconds: f64,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Ops, BenchError> {
        let all = all_configs();
        let pass = all.len();
        let mut deck = Deck::new(all, Rng::new(seed));
        let mut ops = Ops::default();
        let mut configs = 0usize;
        let started = Instant::now();
        while secs(started) < seconds || ops.op_ms.len() < MIN_OPS || !configs.is_multiple_of(pass)
        {
            let c = deck.draw();
            let sinks: &[bool] = match (ledger.is_some(), configs % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &sink in sinks {
                let run = run_config(c, Some(self.ckpt_path));
                let installed = sink.then(xylem_obs::install_memory);
                let t = Instant::now();
                let outcome = op(&self.systems[c.scheme], c, &run);
                let latency = ms(t);
                if installed.is_some() {
                    xylem_obs::shutdown();
                }
                ops.op_ms.push(latency);
                let result = match outcome {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("dtm_closed_loop: op failed: {e}");
                        ops.failed += 1;
                        continue;
                    }
                };
                ops.periods += result.samples.len();
                if sink {
                    ops.sink_ms.push(latency);
                } else {
                    ops.plain_ms.push(latency);
                }
                if let (Some(l), false) = (ledger.as_deref_mut(), sink) {
                    let counting = configs < COUNT_CONFIGS;
                    replay_op(
                        l,
                        &self.systems[c.scheme],
                        c,
                        &result,
                        self.ckpt_path,
                        latency,
                        counting,
                    )?;
                    if counting {
                        l.count("thermal.transient_cg_iters", result.cg_iterations as f64);
                        l.count("core.dtm_throttle_events", result.throttle_events as f64);
                        l.count("core.dtm_failsafe_events", result.failsafe_events as f64);
                    }
                }
                match self.firsts.get(&c) {
                    Some(first) if *first != result => {
                        ops.repeat_mismatches += 1;
                        ops.failed += 1;
                    }
                    Some(_) => {}
                    None => {
                        self.firsts.insert(c, result);
                    }
                }
            }
            configs += 1;
        }
        ops.timed_s = secs(started);
        Ok(ops)
    }
}

pub fn run(seed: u64, seconds: f64, mut ledger: Option<Ledger>) -> Result<Outcome, BenchError> {
    let run_dir = RunDir::create("dtm_closed_loop")?;
    let fallbacks0 = xylem_obs::metrics::counter(xylem_obs::metrics::Counter::SolveFallbacks);

    // Set-up, repeated into fresh cache directories; the last round's
    // systems serve the timed phase.
    let mut setup_s = Vec::new();
    let mut systems = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let cache = run_dir.sub(&format!("cache-{round}"))?;
        let t = Instant::now();
        let mut built = Vec::new();
        for &scheme in &SCHEMES {
            let mut config = SystemConfig::fast(scheme);
            config.cache_dir = Some(cache.clone());
            if let Some(l) = ledger.as_mut() {
                let tb = Instant::now();
                std::hint::black_box(config.stack.build()?);
                l.sample("stack.build_ms", ms(tb));
            }
            built.push(XylemSystem::new(config)?);
        }
        setup_s.push(secs(t));
        systems = built;
    }
    let ckpt_path = run_dir.sub("checkpoints")?.join("op.ckpt");

    let mut bench = Bench {
        systems: &systems,
        ckpt_path: &ckpt_path,
        firsts: BTreeMap::new(),
    };
    // A traced run times the deck untraced first, then again traced.
    let untraced = match ledger {
        Some(_) => Some(bench.phase(seed, seconds, None)?),
        None => None,
    };
    let ops = bench.phase(seed, seconds, ledger.as_mut())?;
    let firsts = bench.firsts;
    run_dir.remove();

    // Verification: each distinct config against one uncheckpointed
    // reference run (repeats were compared with their first occurrence).
    let mut reference_mismatches = 0u64;
    for (c, first) in &firsts {
        let reference = op(&systems[c.scheme], *c, &run_config(*c, None))?;
        if reference != *first {
            eprintln!("dtm_closed_loop: {c:?} differs from its uncheckpointed reference");
            reference_mismatches += 1;
        }
    }
    let repeat_mismatches =
        untraced.as_ref().map_or(0, |u| u.repeat_mismatches) + ops.repeat_mismatches;
    // A config whose first run diverged from its reference counts as one
    // more failed op.
    let failed = untraced.as_ref().map_or(0, |u| u.failed) + ops.failed + reference_mismatches;
    let attempted = (untraced.as_ref().map_or(0, |u| u.op_ms.len()) + ops.op_ms.len()) as u64;

    let mut out = Outcome {
        correct: repeat_mismatches == 0 && reference_mismatches == 0,
        ..Outcome::default()
    };
    let throttled = firsts.values().filter(|r| r.throttle_events > 0).count();
    let failsafed = firsts.values().filter(|r| r.failsafe_events > 0).count();
    out.notes.push(format!(
        "dtm_closed_loop: {} ops, {} distinct configs verified ({throttled} throttled, \
         {failsafed} fail-safed), setup rounds {:?} s",
        ops.op_ms.len(),
        firsts.len(),
        setup_s
    ));
    match ledger {
        None => EndToEnd {
            setup_s,
            units: ops.periods as f64,
            timed_s: ops.timed_s,
            attempted,
            failed,
            op_ms: ops.op_ms,
        }
        .into_metrics(&mut out)?,
        Some(mut l) => {
            let fallbacks =
                xylem_obs::metrics::counter(xylem_obs::metrics::Counter::SolveFallbacks)
                    - fallbacks0;
            l.set("thermal.fallback_events", fallbacks as f64, 1);
            let untraced_ms = untraced.map(|u| u.op_ms).unwrap_or_default();
            l.set_trace_overhead(&untraced_ms, &ops.plain_ms);
            let (sink_pct, sink_iqr) = paired_overhead_pct(&ops.plain_ms, &ops.sink_ms);
            l.set("obs.sink_overhead_pct", sink_pct, ops.sink_ms.len());
            l.set("obs.sink_overhead_iqr_pct", sink_iqr, ops.sink_ms.len());
            l.set(
                "fail_ratio",
                failed as f64 / attempted.max(1) as f64,
                attempted as usize,
            );
            out.notes.push(format!(
                "dtm_closed_loop: median op ms untraced {:.2}, traced {:.2}, sink {:.2}",
                median(&untraced_ms),
                median(&ops.plain_ms),
                median(&ops.sink_ms)
            ));
            out.attempted = attempted.max(1);
            out.failed = failed;
            l.into_metrics(&mut out);
        }
    }
    Ok(out)
}

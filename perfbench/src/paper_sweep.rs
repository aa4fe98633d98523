//! `paper_sweep`: the paper's evaluation flow as `xylem sweep` users run
//! it. Set-up builds all five TTSV schemes at 32x32 (stack, assembly,
//! preconditioner, the warm-chained unit steady solves) with the
//! response cache in this run's directory; each op is one `run_sweep`
//! over one scheme x 17 apps x 3 DVFS points, journalled, on the warm
//! cache, with an iso-temperature headroom axis on one op in three.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xylem::headroom::{max_frequency_at_iso_temperature, max_frequency_for_run, ThermalLimits};
use xylem::system::RunSpec;
use xylem::{ThermalResponse, XylemSystem};
use xylem_obs::metrics::{counter, Counter};
use xylem_power::{CoreActivity, UncoreActivity};
use xylem_stack::XylemScheme;
use xylem_sweep::{run_sweep, Journal, SweepOptions, SweepSpec, TaskResult, TaskStatus};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::units::Celsius;
use xylem_workloads::Benchmark;

use crate::harness::{ms, secs, BenchError, EndToEnd, Outcome, Rng, RunDir, Threads, MIN_OPS};
use crate::trace::{bytes_per_cg_iter, Ledger};

const GRID: usize = 32;
const FREQS_GHZ: [f64; 3] = [2.4, 3.0, 3.5];
/// Iso-temperature reference of the headroom axis, deg C.
const TRIP_C: f64 = 80.0;
/// One op in this many carries the headroom axis; the seed sets the
/// phase. With the five-scheme cycle every scheme gets one headroom op
/// per 15 ops, whatever the seed. The headroom ops are the slowest third,
/// so p50 lies among the plain ops and p90 in the middle of the fourth
/// of the five schemes' headroom groups, never on a class boundary.
const TRIP_EVERY: usize = 3;
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 2;
/// Journal appends per fsync (the engine default).
const FSYNC_EVERY: usize = 8;
/// Traced runs report counts over this many leading traced ops.
const COUNT_OPS: usize = 10;
/// Client think time between ops, kept out of the timed seconds.
/// `run_sweep` joins its worker thread when the closure returns, before
/// the thread has finished exiting; an op started at once can find the
/// worker's malloc arena still attached and create a new one, which
/// makes peak memory depend on a race. The pause makes that unlikely,
/// not impossible.
const THINK_TIME: std::time::Duration = std::time::Duration::from_millis(2);

/// One op's inputs.
#[derive(Debug, Clone, Copy)]
struct OpConfig {
    scheme: usize,
    trip: bool,
}

/// What one op produced: its timing, journal size and task results.
struct OpRecord {
    config: OpConfig,
    latency_ms: f64,
    journal_bytes: u64,
    results: Vec<(Benchmark, f64, TaskResult)>,
}

fn spec_for(c: OpConfig, seed: u64) -> SweepSpec {
    SweepSpec {
        schemes: vec![XylemScheme::ALL[c.scheme]],
        benchmarks: Benchmark::ALL.to_vec(),
        f_ghz: FREQS_GHZ.to_vec(),
        trips_c: if c.trip { vec![TRIP_C] } else { Vec::new() },
        grid: GRID,
        seed,
        ..SweepSpec::default()
    }
}

/// Builds every scheme's system into fresh cache directories under
/// `root`, exactly as the sweep engine configures them (so its ops hit
/// the cache).
fn build_systems(
    root: &Path,
    mut ledger: Option<&mut Ledger>,
) -> Result<(Vec<XylemSystem>, Vec<PathBuf>), BenchError> {
    let mut systems = Vec::new();
    let mut caches = Vec::new();
    for &scheme in &XylemScheme::ALL {
        let cache = root.join(scheme.name());
        std::fs::create_dir_all(&cache)?;
        let mut probe = spec_for(
            OpConfig {
                scheme: 0,
                trip: false,
            },
            0,
        );
        probe.schemes = vec![scheme];
        let task = probe.tasks().into_iter().next().ok_or("empty sweep spec")?;
        let config = task.system_config(GRID, Some(&cache));
        let replay = match ledger.as_deref_mut() {
            Some(l) => {
                // Replays of the constituents of XylemSystem::new.
                let t = Instant::now();
                let built = config.stack.build()?;
                let build_ms = ms(t);
                l.sample("stack.build_ms", build_ms);
                let t = Instant::now();
                let model = built.stack().discretize(config.grid)?;
                let assemble_ms = ms(t);
                l.sample("thermal.assemble_ms", assemble_ms);
                l.set(
                    "thermal.bytes_per_cg_iter_computed",
                    bytes_per_cg_iter(model.node_count(), model.csr().nnz()),
                    1,
                );
                Some((build_ms, assemble_ms))
            }
            None => None,
        };
        let (solves0, iters0) = (counter(Counter::SolveCalls), counter(Counter::CgIterations));
        let t = Instant::now();
        systems.push(XylemSystem::new(config)?);
        let new_ms = ms(t);
        if let (Some(l), Some((build_ms, assemble_ms))) = (ledger.as_deref_mut(), replay) {
            let solves = (counter(Counter::SolveCalls) - solves0).max(1) as f64;
            let iters = (counter(Counter::CgIterations) - iters0) as f64;
            let compute_ms = new_ms - build_ms;
            l.sample("core.response_compute_ms", compute_ms);
            l.sample(
                "thermal.steady_solve_ms",
                (compute_ms - assemble_ms) / solves,
            );
            l.sample("thermal.steady_cg_iters", iters / solves);
        }
        caches.push(cache);
    }
    Ok((systems, caches))
}

/// The task result a direct evaluation gives (what the sweep engine
/// computes per task).
fn direct_result(
    system: &mut XylemSystem,
    benchmark: Benchmark,
    f_ghz: f64,
    trip_c: Option<f64>,
) -> Result<TaskResult, BenchError> {
    let e = system.evaluate_uniform(benchmark, f_ghz)?;
    let dtm_f_ghz = match trip_c {
        None => None,
        Some(t) => {
            max_frequency_at_iso_temperature(system, benchmark, Celsius::new(t))?.map(|b| b.f_ghz)
        }
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

fn result_bits(r: &TaskResult) -> Vec<u64> {
    let mut v = vec![
        r.proc_hotspot_c.to_bits(),
        r.dram_hotspot_c.to_bits(),
        r.total_power_w.to_bits(),
        r.exec_time_s.to_bits(),
        r.dtm_f_ghz.map_or(u64::MAX, f64::to_bits),
    ];
    v.extend(r.core_hotspot_c.iter().map(|x| x.to_bits()));
    v
}

/// Replays the constituents of one op's `run_sweep` and records the
/// per-layer times, counts and the engine residual.
fn replay_op(
    ledger: &mut Ledger,
    system: &mut XylemSystem,
    cache: &Path,
    journal_dir: &Path,
    record: &OpRecord,
    report: &xylem_sweep::SweepReport,
    counting: bool,
) -> Result<(), BenchError> {
    let grid = GridSpec::new(GRID, GRID);
    let t = Instant::now();
    let response = ThermalResponse::load_or_compute(cache, system.built(), grid)?;
    let load_ms = ms(t);
    std::hint::black_box(&response);
    ledger.sample("core.response_load_ms", load_ms);
    if counting {
        if let Some(entry) = std::fs::read_dir(cache)?.flatten().next() {
            ledger.count("core.response_cache_bytes", entry.metadata()?.len() as f64);
        }
        ledger.count(
            "sweep.journal_bytes_per_task",
            record.journal_bytes as f64 / report.total.max(1) as f64,
        );
    }

    let mut eval_ms = 0.0;
    let mut headroom_ms = 0.0;
    let dvfs = system.power_model().dvfs().clone();
    for &(benchmark, f_ghz, _) in &record.results {
        let t = Instant::now();
        std::hint::black_box(system.evaluate_uniform(benchmark, f_ghz)?);
        let e_ms = ms(t);
        eval_ms += e_ms;
        ledger.sample("core.evaluate_us", e_ms * 1e3);

        let t = Instant::now();
        let metrics = system.machine().run(benchmark, f_ghz, 8);
        ledger.sample("archsim.machine_run_us", ms(t) * 1e3);
        let point = dvfs.point_at(f_ghz);
        let cores = vec![
            CoreActivity {
                activity: metrics.activity,
                memory_intensity: metrics.memory_intensity,
                point,
            };
            8
        ];
        let uncore = UncoreActivity {
            llc: metrics.llc_activity,
            mc: metrics.mc_utilization,
            noc: metrics.noc_activity,
            point,
        };
        let t = Instant::now();
        std::hint::black_box(system.power_model().block_powers(
            &cores,
            &uncore,
            Celsius::new(85.0),
        ));
        ledger.sample("power.block_powers_us", ms(t) * 1e3);

        if record.config.trip {
            let mut evals = 0usize;
            let t = Instant::now();
            std::hint::black_box(max_frequency_for_run(
                system,
                ThermalLimits::iso_temperature(Celsius::new(TRIP_C)),
                |f| {
                    evals += 1;
                    RunSpec::uniform(benchmark, f)
                },
            )?);
            let h_ms = ms(t);
            headroom_ms += h_ms;
            ledger.sample("core.headroom_ms", h_ms);
            if counting {
                ledger.count("core.headroom_evals_per_search", evals as f64);
            }
        }
    }

    let path = journal_dir.join("replay.jsonl");
    let t = Instant::now();
    let journal = Journal::create(&path, &report.spec_hash, report.total, FSYNC_EVERY)?;
    for r in &report.records {
        let ta = Instant::now();
        journal.append(r)?;
        ledger.sample("sweep.journal_append_us", ms(ta) * 1e3);
    }
    journal.sync()?;
    let journal_ms = ms(t);
    drop(journal);
    std::fs::remove_file(&path)?;
    ledger.sample(
        "sweep.engine_residual_ms",
        record.latency_ms - load_ms - eval_ms - headroom_ms - journal_ms,
    );
    Ok(())
}

/// What one timed phase produced.
#[derive(Default)]
struct Ops {
    op_ms: Vec<f64>,
    records: Vec<(bool, OpRecord)>,
    failed: u64,
    tasks_done: usize,
    retried: u64,
    quarantined: usize,
    /// Host seconds of the phase, less the think time between ops.
    timed_s: f64,
}

/// The set-up state every op runs against.
struct Bench<'a> {
    seed: u64,
    threads: Threads,
    systems: &'a mut [XylemSystem],
    caches: &'a [PathBuf],
    journal_dir: &'a Path,
}

impl Bench<'_> {
    /// Runs one op: a journalled `run_sweep` on the warm cache. With a
    /// ledger, its constituents are then replayed for the per-layer
    /// metrics.
    fn op(
        &mut self,
        ops: &mut Ops,
        ledger: Option<&mut Ledger>,
        config: OpConfig,
    ) -> Result<(), BenchError> {
        let n = ops.op_ms.len();
        let spec = spec_for(config, self.seed ^ n as u64);
        let journal = self.journal_dir.join(format!("op-{n}.jsonl"));
        let opts = SweepOptions {
            shards: self.threads.sweep_shards,
            journal_path: Some(journal.clone()),
            cache_dir: Some(self.caches[config.scheme].clone()),
            fsync_every: FSYNC_EVERY,
            seed: self.seed,
            ..SweepOptions::default()
        };
        let t = Instant::now();
        let outcome = run_sweep(&spec, &opts);
        let latency = ms(t);
        ops.op_ms.push(latency);
        let report = match outcome {
            Ok(r) => r,
            Err(e) => {
                eprintln!("paper_sweep: op {n} failed: {e}");
                ops.failed += 1;
                return Ok(());
            }
        };
        ops.tasks_done += report.ok;
        ops.retried += report.retried_attempts;
        ops.quarantined += report.quarantined;
        let tasks = spec.tasks();
        let mut record = OpRecord {
            config,
            latency_ms: latency,
            journal_bytes: 0,
            results: Vec::new(),
        };
        let mut op_ok = report.quarantined == 0 && report.ok == tasks.len();
        for r in &report.records {
            match (&r.result, r.status, tasks.get(r.id as usize)) {
                (Some(res), TaskStatus::Ok, Some(task)) => {
                    record
                        .results
                        .push((task.benchmark, task.f_ghz, res.clone()));
                }
                _ => op_ok = false,
            }
        }
        record.journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
        std::fs::remove_file(&journal)?;
        if let Some(l) = ledger {
            replay_op(
                l,
                &mut self.systems[config.scheme],
                &self.caches[config.scheme],
                self.journal_dir,
                &record,
                &report,
                n < COUNT_OPS,
            )?;
        }
        if !op_ok {
            ops.failed += 1;
        }
        ops.records.push((op_ok, record));
        Ok(())
    }

    /// Runs ops in the seeded schedule for `seconds` and at least
    /// [`MIN_OPS`] ops, ending on a whole cycle of the schedule so every
    /// run times the same mix of ops.
    fn phase(
        &mut self,
        seconds: f64,
        order: &[usize],
        trip_phase: usize,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Ops, BenchError> {
        let mut ops = Ops::default();
        let cycle = order.len() * TRIP_EVERY;
        let mut think_s = 0.0;
        let started = Instant::now();
        while secs(started) < seconds
            || ops.op_ms.len() < MIN_OPS
            || !ops.op_ms.len().is_multiple_of(cycle)
        {
            let k = ops.op_ms.len();
            let config = OpConfig {
                scheme: order[k % order.len()],
                trip: (k + trip_phase).is_multiple_of(TRIP_EVERY),
            };
            self.op(&mut ops, ledger.as_deref_mut(), config)?;
            let t = Instant::now();
            std::thread::sleep(THINK_TIME);
            think_s += secs(t);
        }
        ops.timed_s = secs(started) - think_s;
        Ok(ops)
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    threads: Threads,
    mut ledger: Option<Ledger>,
) -> Result<Outcome, BenchError> {
    let mut rng = Rng::new(seed);
    let run_dir = RunDir::create("paper_sweep")?;
    let fallbacks0 = counter(Counter::SolveFallbacks);

    // Set-up, a serial deterministic compute phase, repeated into fresh
    // cache directories; the last round's systems serve the ops.
    let mut setup_s = Vec::new();
    let (mut systems, mut caches) = (Vec::new(), Vec::new());
    for round in 0..SETUP_ROUNDS {
        let t = Instant::now();
        (systems, caches) =
            build_systems(&run_dir.sub(&format!("cache-{round}"))?, ledger.as_mut())?;
        setup_s.push(secs(t));
    }
    let journal_dir = run_dir.sub("journals")?;

    let order = rng.permutation(XylemScheme::ALL.len());
    let trip_phase = rng.below(TRIP_EVERY);
    let mut bench = Bench {
        seed,
        threads,
        systems: &mut systems,
        caches: &caches,
        journal_dir: &journal_dir,
    };
    // A traced run times the schedule untraced first, then again with
    // the replays feeding the ledger.
    let untraced = match ledger {
        Some(_) => Some(bench.phase(seconds, &order, trip_phase, None)?),
        None => None,
    };
    let ops = bench.phase(seconds, &order, trip_phase, ledger.as_mut())?;
    run_dir.remove();

    // Verification: every task of both phases bit-identical to a direct
    // evaluation on the same system; references are computed once per
    // distinct task.
    let mut refs: std::collections::BTreeMap<(usize, usize, u64, bool), Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut mismatched_ops = 0u64;
    for (op_ok, record) in untraced.iter().chain([&ops]).flat_map(|o| &o.records) {
        let mut ok = true;
        for (benchmark, f_ghz, result) in &record.results {
            let b = Benchmark::ALL
                .iter()
                .position(|x| x == benchmark)
                .ok_or("unknown benchmark")?;
            let key = (record.config.scheme, b, f_ghz.to_bits(), record.config.trip);
            let expected = match refs.get(&key) {
                Some(bits) => bits.clone(),
                None => {
                    let r = direct_result(
                        &mut systems[record.config.scheme],
                        *benchmark,
                        *f_ghz,
                        record.config.trip.then_some(TRIP_C),
                    )?;
                    let bits = result_bits(&r);
                    refs.insert(key, bits.clone());
                    bits
                }
            };
            if expected != result_bits(result) {
                ok = false;
            }
        }
        if *op_ok && !ok {
            mismatched_ops += 1;
        }
    }

    let mut out = Outcome {
        correct: mismatched_ops == 0,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "paper_sweep: {} ops, {} tasks, {} distinct tasks verified, set-up rounds {setup_s:?} s",
        ops.op_ms.len(),
        ops.tasks_done,
        refs.len()
    ));
    let attempted = untraced.as_ref().map_or(0, |o| o.op_ms.len()) + ops.op_ms.len();
    let failed = untraced.as_ref().map_or(0, |o| o.failed) + ops.failed + mismatched_ops;
    match ledger {
        None => EndToEnd {
            setup_s,
            units: ops.tasks_done as f64,
            timed_s: ops.timed_s,
            attempted: attempted as u64,
            failed,
            op_ms: ops.op_ms,
        }
        .into_metrics(&mut out)?,
        Some(mut l) => {
            let n = ops.records.len();
            l.set("sweep.retried_tasks", ops.retried as f64, n);
            l.set("sweep.quarantined_tasks", ops.quarantined as f64, n);
            l.set(
                "thermal.fallback_events",
                (counter(Counter::SolveFallbacks) - fallbacks0) as f64,
                1,
            );
            if let Some(u) = &untraced {
                l.set_trace_overhead(&u.op_ms, &ops.op_ms);
            }
            l.set(
                "fail_ratio",
                failed as f64 / attempted.max(1) as f64,
                attempted,
            );
            out.attempted = attempted.max(1) as u64;
            out.failed = failed;
            l.into_metrics(&mut out);
        }
    }
    Ok(out)
}

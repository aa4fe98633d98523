//! Solver smoke benchmark: regenerates `BENCH_thermal.json` at the
//! workspace root (run via `./ci.sh bench`).
//!
//! Measures, per grid size, the steady-state solve (matrix-free stencil
//! and GMG), the GMG hierarchy's setup and one apply; a stencil-vs-CSR
//! matvec microbench; the warm- vs cold-started CG cost of one DTM
//! control-period step; and adaptive-vs-fixed stepping at matched
//! accuracy. The checked-in JSON
//! is the reference record of the solver-core speedups; regenerate it
//! on solver changes and eyeball the diff.

use std::time::Instant;

use serde::Serialize;
use xylem::system::{SystemConfig, XylemSystem};
use xylem_stack::{StackConfig, XylemScheme};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::Preconditioner;
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Watts;
use xylem_thermal::{AdaptiveController, AdaptiveOptions, SolverWorkspace, ThermalModel};
use xylem_workloads::Benchmark;

#[derive(Serialize)]
struct SteadyRow {
    grid: usize,
    nodes: usize,
    nnz: usize,
    /// The preconditioner the model solved with.
    solver: &'static str,
    solver_ms: f64,
    solver_iters: usize,
}

/// GMG hierarchy setup and one preconditioner apply on the steady
/// operator.
#[derive(Serialize)]
struct PrecRow {
    grid: usize,
    setup_ms: f64,
    apply_ms: f64,
}

/// Serial `y = A x` through the flat CSR rows vs the coefficient-plane
/// stencil sweep (same arithmetic, bit-identical output).
#[derive(Serialize)]
struct MatvecRow {
    grid: usize,
    nodes: usize,
    csr_ms: f64,
    stencil_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct DtmStep {
    grid: usize,
    dt_s: f64,
    warm_iters: usize,
    cold_iters: usize,
    warm_ms: f64,
    cold_ms: f64,
}

#[derive(Serialize)]
struct ObsOverhead {
    grid: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_pct: f64,
}

/// Adaptive vs fixed stepping, compared *at matched accuracy*: the
/// 1 ms fixed baseline and the adaptive run each carry their own
/// deviation from the 10x-finer reference, and the headline saving is
/// quoted against the first fixed-dt rung whose deviation is at or
/// below the adaptive run's — not against a baseline that is less
/// accurate than the thing it is compared to.
#[derive(Serialize)]
struct AdaptiveCompare {
    grid: usize,
    horizon_s: f64,
    chunk_s: f64,
    rtol: f64,
    reference_dt_s: f64,
    reference_solves: usize,
    fixed_dt_s: f64,
    fixed_solves: usize,
    fixed_dev_k: f64,
    matched_fixed_dt_s: f64,
    matched_fixed_solves: usize,
    matched_fixed_dev_k: f64,
    adaptive_solves: usize,
    adaptive_dev_k: f64,
    adaptive_rejected: usize,
    solve_saving_vs_reference: f64,
    solve_saving_at_matched_accuracy: f64,
}

/// Sweep-engine throughput (DESIGN.md §18): a warm-cache scheme x
/// workload x frequency grid through `run_sweep`, plus a seeded chaos
/// drill (injected panics, forced non-convergence, deadline blowouts)
/// exercising the retry and quarantine paths.
#[derive(Serialize)]
struct SweepGrid {
    grid: usize,
    tasks: usize,
    shards: usize,
    elapsed_s: f64,
    tasks_per_sec: f64,
    task_p50_ms: f64,
    task_p99_ms: f64,
    chaos_retried_attempts: u64,
    chaos_quarantined: usize,
    chaos_ok: usize,
}

#[derive(Serialize)]
struct Report {
    description: &'static str,
    scheme: &'static str,
    steady_state: Vec<SteadyRow>,
    preconditioner: Vec<PrecRow>,
    matvec: Vec<MatvecRow>,
    dtm_step: DtmStep,
    adaptive: AdaptiveCompare,
    sweep_grid: SweepGrid,
    obs_overhead: ObsOverhead,
}

fn time_ms<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// The paper-default power pattern used by every steady row.
fn paper_power(built: &xylem_stack::BuiltStack, model: &ThermalModel) -> PowerMap {
    let mut p = PowerMap::zeros(model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(20.0));
    for &l in built.dram_metal_layers() {
        p.add_uniform_layer_power(l, Watts::new(0.4));
    }
    p
}

fn main() {
    let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .expect("paper-default stack builds");

    let mut steady = Vec::new();
    let mut preconditioner = Vec::new();
    let mut matvec = Vec::new();
    for grid in [16usize, 32, 64, 128] {
        let model = built
            .stack()
            .discretize(GridSpec::new(grid, grid))
            .expect("grid discretizes");
        let p = paper_power(&built, &model);
        let reps = match grid {
            128 => 1,
            64 => 3,
            _ => 10,
        };
        let mut ws = SolverWorkspace::new();
        let default_field = model
            .steady_state_from(&p, None, &mut ws)
            .expect("default-pick solve");
        let solver_ms = time_ms(reps, || {
            model.steady_state_from(&p, None, &mut ws).expect("solve")
        });
        steady.push(SteadyRow {
            grid,
            nodes: model.node_count(),
            nnz: model.csr().nnz(),
            solver: model.solver_options().preconditioner.label(),
            solver_ms,
            solver_iters: default_field.stats().iterations,
        });

        // GMG setup and one apply on every grid.
        let n_layers = 3 + model.n_user_layers();
        let x = default_field.raw().to_vec();
        let mut r = vec![0.0; x.len()];
        model.csr().matvec_serial(&x, &mut r);
        let mut z = vec![0.0; x.len()];
        let build_one = || {
            Preconditioner::build_gmg(model.csr(), model.grid().nx(), model.grid().ny(), n_layers)
                .expect("structured grids build a geometric hierarchy")
        };
        let prec = build_one();
        let setup_ms = time_ms(if grid == 128 { 2 } else { 5 }, build_one);
        let apply_ms = time_ms(if grid == 128 { 5 } else { 10 }, || {
            prec.apply_timed(model.stencil(), &r, &mut z, &mut ws)
        });
        preconditioner.push(PrecRow {
            grid,
            setup_ms,
            apply_ms,
        });

        // The matvec microbench from the benchmark's 32x32 grid up.
        if grid < 32 {
            continue;
        }
        let stencil = model.stencil();
        let mut y = vec![0.0; x.len()];
        let mv_reps = match grid {
            128 => 20,
            64 => 50,
            _ => 200,
        };
        let csr_ms = time_ms(mv_reps, || model.csr().matvec_serial(&x, &mut y));
        let stencil_ms = time_ms(mv_reps, || stencil.matvec_serial(&x, &mut y));
        matvec.push(MatvecRow {
            grid,
            nodes: model.node_count(),
            csr_ms,
            stencil_ms,
            speedup: csr_ms / stencil_ms,
        });
    }

    // One DTM control-period step at the operating point: warm seeds CG
    // with the current field (the dtm_transient stepping pattern), cold
    // forces the iterate back to ambient.
    let model = built
        .stack()
        .discretize(GridSpec::new(32, 32))
        .expect("grid discretizes");
    let p = paper_power(&built, &model);
    let mut ws = SolverWorkspace::new();
    let near_ss = model
        .steady_state_from(&p, None, &mut ws)
        .expect("steady state");
    let ambient = TemperatureField::uniform(&model, model.ambient());
    let dt = 1e-3;
    let warm = model
        .transient_with(&p, &near_ss, dt, 1, None, &mut ws)
        .expect("warm step");
    let warm_ms = time_ms(20, || {
        model
            .transient_with(&p, &near_ss, dt, 1, None, &mut ws)
            .expect("warm step")
    });
    let cold = model
        .transient_with(&p, &near_ss, dt, 1, Some(&ambient), &mut ws)
        .expect("cold step");
    let cold_ms = time_ms(20, || {
        model
            .transient_with(&p, &near_ss, dt, 1, Some(&ambient), &mut ws)
            .expect("cold step")
    });
    let dtm_step = DtmStep {
        grid: 32,
        dt_s: dt,
        warm_iters: warm.stats().iterations,
        cold_iters: cold.stats().iterations,
        warm_ms,
        cold_ms,
    };

    // Fixed vs adaptive stepping on the dtm_longrun workload (LU(NAS)
    // at 3.5 GHz on the base scheme, 24x24 grid): heat the die for one
    // second in 10 ms control chunks with a persistent controller — the
    // DTM usage pattern — against a fixed-step reference 10x finer than
    // the 1 ms baseline. The saving is quoted at matched accuracy: the
    // fixed-dt ladder descends until its deviation from the reference
    // is at or below the adaptive run's, and that rung's solve count is
    // the denominator-free basis of the headline ratio. EXPERIMENTS.md
    // records this row.
    let adaptive = {
        let sys = XylemSystem::new(SystemConfig::paper_default(XylemScheme::Base))
            .expect("base system builds");
        let grid = 24usize;
        let model = sys
            .built()
            .stack()
            .discretize(GridSpec::new(grid, grid))
            .expect("grid discretizes");
        let (_, maps) = xylem::dtm::dvfs_power_maps(&sys, Benchmark::LuNas, 3.5, &model)
            .expect("power maps build");
        let power = maps.last().expect("at least one DVFS point");
        let initial = TemperatureField::uniform(&model, model.ambient());
        let horizon_s: f64 = 1.0;
        let chunk_s: f64 = 10e-3;
        let fixed_dt_s: f64 = 1e-3;
        let reference_dt_s = fixed_dt_s / 10.0;
        let mut ws = SolverWorkspace::new();

        let ref_steps = (horizon_s / reference_dt_s).round() as usize;
        let reference = model
            .transient_with(power, &initial, reference_dt_s, ref_steps, None, &mut ws)
            .expect("reference run");
        let max_of =
            |f: &TemperatureField| f.raw().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ref_max = max_of(&reference);

        let run_fixed = |dt: f64, ws: &mut SolverWorkspace| {
            let steps = (horizon_s / dt).round() as usize;
            let end = model
                .transient_with(power, &initial, dt, steps, None, ws)
                .expect("fixed run");
            (steps, (max_of(&end) - ref_max).abs())
        };
        let (fixed_steps, fixed_dev_k) = run_fixed(fixed_dt_s, &mut ws);

        let mut ctrl = AdaptiveController::new(AdaptiveOptions {
            rtol: 1e-3,
            atol: 1e-3,
            dt_min: 1e-5,
            dt_max: chunk_s,
            dt_init: 1e-3,
            ..AdaptiveOptions::default()
        })
        .expect("adaptive options validate");
        let chunks = (horizon_s / chunk_s).round() as usize;
        let mut state = initial.clone();
        for _ in 0..chunks {
            state = model
                .transient_adaptive(power, &state, chunk_s, &mut ctrl, &mut ws)
                .expect("adaptive chunk");
        }
        let summary = ctrl.summary();
        let adaptive_dev_k = (max_of(&state) - ref_max).abs();

        // Descend the fixed-dt ladder until the fixed run is at least
        // as accurate as the adaptive one (the last rung counts even if
        // it falls short — the JSON carries its actual deviation).
        let mut matched = (fixed_dt_s, fixed_steps, fixed_dev_k);
        for rung in [1e-3f64, 5e-4, 2.5e-4, 1.25e-4] {
            let (steps, dev) = if rung.to_bits() == fixed_dt_s.to_bits() {
                (fixed_steps, fixed_dev_k)
            } else {
                run_fixed(rung, &mut ws)
            };
            matched = (rung, steps, dev);
            if dev <= adaptive_dev_k {
                break;
            }
        }

        AdaptiveCompare {
            grid,
            horizon_s,
            chunk_s,
            rtol: 1e-3,
            reference_dt_s,
            reference_solves: ref_steps,
            fixed_dt_s,
            fixed_solves: fixed_steps,
            fixed_dev_k,
            matched_fixed_dt_s: matched.0,
            matched_fixed_solves: matched.1,
            matched_fixed_dev_k: matched.2,
            adaptive_solves: summary.be_solves as usize,
            adaptive_dev_k,
            adaptive_rejected: summary.rejected as usize,
            solve_saving_vs_reference: ref_steps as f64 / summary.be_solves as f64,
            solve_saving_at_matched_accuracy: matched.1 as f64 / summary.be_solves as f64,
        }
    };

    // Sweep-engine throughput: an 18-task scheme x workload x frequency
    // grid at 16x16. The warm-up run populates the response cache so
    // the timed run measures engine overhead plus evaluation math, not
    // first-build cost; the chaos drill re-runs the same grid under a
    // seeded 50% per-attempt fault rate to record the retry/quarantine
    // behavior the resilience lane depends on.
    let sweep_grid = {
        use xylem_sweep::{run_sweep, BackoffPolicy, ChaosConfig, SweepOptions, SweepSpec};
        let spec = SweepSpec {
            schemes: vec![XylemScheme::Base, XylemScheme::BankEnhanced],
            benchmarks: vec![Benchmark::Cholesky, Benchmark::Barnes, Benchmark::Fft],
            f_ghz: vec![2.0, 2.4, 3.0],
            grid: 16,
            ..SweepSpec::default()
        };
        let shards = 4usize;
        let opts = SweepOptions {
            shards,
            cache_dir: Some(std::env::temp_dir().join("xylem-bench-sweep-cache")),
            backoff: BackoffPolicy {
                base_ms: 0,
                max_ms: 0,
            },
            ..SweepOptions::default()
        };
        run_sweep(&spec, &opts).expect("warm-up sweep");
        xylem_obs::reset_metrics();
        let timed = run_sweep(&spec, &opts).expect("timed sweep");

        // Chaos drill: keep the injected panics from spraying
        // backtraces into the bench output.
        xylem::supervise::silence_expected_panics();
        let mut chaos_opts = opts;
        chaos_opts.max_attempts = 2;
        chaos_opts.chaos = Some(ChaosConfig {
            seed: 7,
            panic_per_mille: 200,
            error_per_mille: 200,
            deadline_per_mille: 100,
        });
        let drill = run_sweep(&spec, &chaos_opts).expect("chaos drill sweep");

        SweepGrid {
            grid: 16,
            tasks: timed.total,
            shards,
            elapsed_s: timed.elapsed_s,
            tasks_per_sec: timed.tasks_per_sec,
            task_p50_ms: timed.task_latency.p50_ms,
            task_p99_ms: timed.task_latency.p99_ms,
            chaos_retried_attempts: drill.retried_attempts,
            chaos_quarantined: drill.quarantined,
            chaos_ok: drill.ok,
        }
    };

    // Observability overhead on the same 32x32 steady solve: the
    // xylem-obs budget is < 5% with a live JSONL sink (DESIGN.md §14).
    // Interleaved rounds with min aggregation: on a shared single-core
    // box, clock drift between two mean-of-N blocks easily exceeds the
    // effect being measured, while the per-mode minimum is stable.
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..6 {
        let d = time_ms(5, || {
            model.steady_state_from(&p, None, &mut ws).expect("solve")
        });
        disabled_ms = disabled_ms.min(d);
        let sink = xylem_obs::install_memory();
        let e = time_ms(5, || {
            model.steady_state_from(&p, None, &mut ws).expect("solve")
        });
        xylem_obs::shutdown();
        drop(sink);
        enabled_ms = enabled_ms.min(e);
    }
    let obs_overhead = ObsOverhead {
        grid: 32,
        disabled_ms,
        enabled_ms,
        overhead_pct: (enabled_ms / disabled_ms - 1.0) * 100.0,
    };

    let report = Report {
        description: "Solver smoke numbers: steady state on the matrix-free stencil + \
                      geometric multigrid, the GMG setup and one apply at every grid, \
                      the stencil-vs-CSR matvec microbench, warm- vs cold-started DTM \
                      steps, adaptive- vs fixed-stepping at matched accuracy on the \
                      dtm_longrun workload, sweep-engine throughput with a chaos \
                      retry/quarantine drill, and the enabled-sink observability \
                      overhead. Regenerate with ./ci.sh bench.",
        scheme: "BankEnhanced",
        steady_state: steady,
        preconditioner,
        matvec,
        dtm_step,
        adaptive,
        sweep_grid,
        obs_overhead,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_thermal.json");
    let json = merged_with_foreign_rows(&report, path);
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_thermal.json");
    println!("{json}");
    println!("[wrote {path}]");
}

/// Serializes the report, carrying over any top-level rows in the
/// existing file that other lanes own (e.g. the `serve` row written by
/// `./ci.sh serve`) — regenerating the solver numbers must not erase
/// another lane's benchmark.
fn merged_with_foreign_rows(report: &Report, path: &str) -> String {
    let serde::Value::Object(mut merged) = report.to_value() else {
        unreachable!("report is a struct")
    };
    if let Ok(old) = std::fs::read_to_string(path) {
        if let Ok(serde::Value::Object(existing)) = serde_json::from_str::<serde::Value>(&old) {
            for (key, row) in existing {
                merged.entry(key).or_insert(row);
            }
        }
    }
    serde_json::to_string_pretty(&serde::Value::Object(merged)).expect("report serializes")
}

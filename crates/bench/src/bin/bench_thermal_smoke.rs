//! Solver smoke benchmark: regenerates `BENCH_thermal.json` at the
//! workspace root (run via `./ci.sh bench`).
//!
//! Measures, per grid size, the steady-state solve (matrix-free stencil
//! and GMG) and the GMG hierarchy's setup and one apply, each as the
//! median, min and IQR of interleaved samples; and adaptive- vs
//! fixed-stepping at matched accuracy. The checked-in JSON is the
//! reference record of the solver core's cost; regenerate it on solver
//! changes and eyeball the diff.

use std::hint::black_box;

use serde::Serialize;
use xylem::system::{SystemConfig, XylemSystem};
use xylem_bench::harness::{sample_rows, Timing};
use xylem_stack::{StackConfig, XylemScheme};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::Preconditioner;
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Watts;
use xylem_thermal::{AdaptiveController, AdaptiveOptions, SolverWorkspace, ThermalModel};
use xylem_workloads::Benchmark;

/// The grids every timed row runs on.
const GRIDS: [usize; 4] = [16, 32, 64, 128];

/// Samples per timed row: each round times every row once.
const ROUNDS: usize = 11;

#[derive(Serialize)]
struct SteadyRow {
    grid: usize,
    nodes: usize,
    nnz: usize,
    /// The preconditioner the model solved with.
    solver: &'static str,
    solver_ms: Timing,
    solver_iters: usize,
}

/// GMG hierarchy setup and one preconditioner apply on the steady
/// operator.
#[derive(Serialize)]
struct PrecRow {
    grid: usize,
    setup_ms: Timing,
    apply_ms: Timing,
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

#[derive(Serialize)]
struct Report {
    description: &'static str,
    scheme: &'static str,
    steady_state: Vec<SteadyRow>,
    preconditioner: Vec<PrecRow>,
    adaptive: AdaptiveCompare,
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

/// The geometric multigrid hierarchy on `model`'s steady operator.
fn build_gmg(model: &ThermalModel) -> Preconditioner {
    let n_layers = 3 + model.n_user_layers();
    Preconditioner::build_gmg(model.csr(), model.grid().nx(), model.grid().ny(), n_layers)
        .expect("structured grids build a geometric hierarchy")
}

fn main() {
    let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .expect("paper-default stack builds");

    // Per grid: the model and power map, the CG iterations of its first
    // (untimed) steady solve, which also warms the solve workspace, the
    // GMG hierarchy, and the residual the apply row preconditions.
    let mut cases = Vec::new();
    let mut steady_ws = Vec::new();
    for grid in GRIDS {
        let model = built
            .stack()
            .discretize(GridSpec::new(grid, grid))
            .expect("grid discretizes");
        let power = paper_power(&built, &model);
        let mut ws = SolverWorkspace::new();
        let field = model
            .steady_state_from(&power, None, &mut ws)
            .expect("default-pick solve");
        let x = field.raw();
        let mut residual = vec![0.0; x.len()];
        model.csr().matvec_serial(x, &mut residual);
        let iters = field.stats().iterations;
        let prec = build_gmg(&model);
        cases.push((model, power, iters, prec, residual));
        steady_ws.push(ws);
    }

    // Every timed row, sampled in interleaved rounds: the default-pick
    // steady solve, the GMG hierarchy setup and one GMG apply per grid.
    let mut rows: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    for ((model, power, ..), mut ws) in cases.iter().zip(steady_ws) {
        rows.push(Box::new(move || {
            black_box(
                model
                    .steady_state_from(power, None, &mut ws)
                    .expect("solve"),
            );
        }));
    }
    for (model, ..) in &cases {
        rows.push(Box::new(move || {
            black_box(build_gmg(model));
        }));
    }
    for (model, _, _, prec, residual) in &cases {
        let mut ws = SolverWorkspace::new();
        let mut z = vec![0.0; residual.len()];
        prec.apply_timed(model.stencil(), residual, &mut z, &mut ws);
        rows.push(Box::new(move || {
            prec.apply_timed(model.stencil(), residual, &mut z, &mut ws);
            black_box(&z);
        }));
    }
    let timings = sample_rows(ROUNDS, &mut rows);
    let (steady_t, rest) = timings.split_at(GRIDS.len());
    let (setup_t, apply_t) = rest.split_at(GRIDS.len());

    let steady_state = GRIDS
        .iter()
        .zip(&cases)
        .zip(steady_t)
        .map(|((&grid, (model, _, iters, ..)), &solver_ms)| SteadyRow {
            grid,
            nodes: model.node_count(),
            nnz: model.csr().nnz(),
            solver: model.solver_options().preconditioner.label(),
            solver_ms,
            solver_iters: *iters,
        })
        .collect();
    let preconditioner = GRIDS
        .iter()
        .zip(setup_t.iter().zip(apply_t))
        .map(|(&grid, (&setup_ms, &apply_ms))| PrecRow {
            grid,
            setup_ms,
            apply_ms,
        })
        .collect();
    // Free the grids' models, hierarchies and workspaces before the
    // adaptive comparison.
    drop(rows);
    drop(cases);

    // Fixed vs adaptive stepping on the `xylem dtm --scheme base --app
    // "LU(NAS)" --freq 3.5` workload (24x24 grid): heat the die for one
    // second in 10 ms control chunks with a persistent controller — the
    // DTM usage pattern — against a fixed-step reference 10x finer than
    // the 1 ms baseline. The saving is quoted at matched accuracy: the
    // fixed-dt ladder descends until its deviation from the reference
    // is at or below the adaptive run's, and that rung's solve count is
    // the denominator-free basis of the headline ratio. EXPERIMENTS.md
    // records this row.
    let adaptive = {
        let grid = 24usize;
        let sys = XylemSystem::new(SystemConfig {
            grid: GridSpec::new(grid, grid),
            ..SystemConfig::paper_default(XylemScheme::Base)
        })
        .expect("base system builds");
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

    let report = Report {
        description: "Solver smoke numbers: steady state on the matrix-free stencil + \
                      geometric multigrid, and the GMG setup and one apply, at every \
                      grid, each timed as the median, min and IQR of interleaved \
                      samples; adaptive- vs fixed-stepping at matched accuracy on the \
                      LU(NAS) @ 3.5 GHz DTM workload. Regenerate with ./ci.sh bench.",
        scheme: "BankEnhanced",
        steady_state,
        preconditioner,
        adaptive,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_thermal.json");
    let json = merged_with_serve_row(&report, path);
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_thermal.json");
    println!("{json}");
    println!("[wrote {path}]");
}

/// Serializes the report, carrying over the `serve` row of the existing
/// file, which `./ci.sh serve` owns: regenerating the solver numbers
/// must not erase another lane's benchmark. Every other old row is
/// dropped, so a row this binary no longer writes does not linger.
fn merged_with_serve_row(report: &Report, path: &str) -> String {
    let serde::Value::Object(mut merged) = report.to_value() else {
        unreachable!("report is a struct")
    };
    if let Ok(old) = std::fs::read_to_string(path) {
        if let Ok(serde::Value::Object(mut existing)) = serde_json::from_str::<serde::Value>(&old) {
            if let Some(serve) = existing.remove("serve") {
                merged.insert("serve".to_string(), serve);
            }
        }
    }
    serde_json::to_string_pretty(&serde::Value::Object(merged)).expect("report serializes")
}

//! Seeded divergence-injection sweep for the adaptive transient engine.
//!
//! `./ci.sh adaptive` runs this suite in release mode. Fifty scenarios —
//! overflow power spikes, starved-CG blowups, and spike-then-recover
//! phases — drive the engine into its rejection/rollback/hold/budget
//! paths. (NaN power is unconstructible by design — the units layer
//! asserts finiteness at the [`Watts`] boundary — so the non-finite
//! divergence path is exercised with overflow-scale spikes whose CG
//! inner products blow past `f64::MAX` to infinity.) The invariants:
//!
//! * every scenario returns `Ok` — divergence degrades, never panics
//!   and never surfaces an error from the stepping loop itself;
//! * the returned temperature field is finite in every scenario (a held
//!   state is the last good state, not the diverged one);
//! * every rejection, hold, and budget exhaustion is visible in the
//!   JSONL metrics stream and the global counters.

use xylem_obs::hash::splitmix64;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::{
    AdaptiveController, AdaptiveOptions, PreconditionerKind, SolverOptions, SolverWorkspace,
    TemperatureField, ThermalModel,
};

const DIE: f64 = 8e-3;
const N_SCENARIOS: u64 = 50;
const HORIZON_S: f64 = 0.02;

fn small_model() -> ThermalModel {
    let stack = Stack::builder(DIE, DIE)
        .package(Package::default_for_die(DIE, DIE))
        .layer(Layer::uniform("dram", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
        .build()
        .unwrap();
    stack.discretize(GridSpec::new(6, 6)).unwrap()
}

/// Per-seed options derived by splitmix64, so a failing scenario
/// reproduces from its seed alone.
fn opts_for(seed: u64) -> AdaptiveOptions {
    AdaptiveOptions {
        rtol: 1e-3,
        atol: 1e-3,
        dt_min: 1e-4,
        dt_max: 1e-2,
        dt_init: 1e-3,
        max_reject_streak: 2 + (splitmix64(seed) % 3) as u32,
        // A third of the scenarios run under a CG budget tight enough
        // to trip economy mode mid-run.
        max_cg_iterations: (seed % 3 == 2).then_some(40 + splitmix64(seed.wrapping_add(1)) % 40),
        ..AdaptiveOptions::default()
    }
}

fn assert_finite(field: &TemperatureField, seed: u64, what: &str) {
    if let Some(node) = field.raw().iter().position(|t| !t.is_finite()) {
        panic!("scenario {seed} ({what}): non-finite temperature at node {node}");
    }
}

#[test]
fn fifty_divergence_scenarios_degrade_without_panicking() {
    let sink = xylem_obs::install_memory();
    xylem_obs::reset_metrics();

    for seed in 0..N_SCENARIOS {
        let mut model = small_model();
        let initial = TemperatureField::uniform(&model, model.ambient());
        let mut ctrl = AdaptiveController::new(opts_for(seed)).unwrap();
        let mut ws = SolverWorkspace::new();

        let ix = (splitmix64(seed) % 6) as usize;
        let iy = (splitmix64(seed.wrapping_add(2)) % 6) as usize;
        match seed % 3 {
            0 => {
                // Overflow power spike: 1e200 W drives the CG inner
                // products past f64::MAX, so every attempted step
                // diverges non-finitely; the engine must halve to the
                // floor, then hold across the whole horizon.
                let mut power = PowerMap::zeros(&model);
                power.add_cell_power(2, ix, iy, Watts::new(1e200));
                let field = model
                    .transient_adaptive(&power, &initial, HORIZON_S, &mut ctrl, &mut ws)
                    .unwrap();
                assert_finite(&field, seed, "overflow spike");
                let s = ctrl.summary();
                assert!(s.rejected > 0, "scenario {seed}: no rejections: {s:?}");
                assert!(s.holds > 0, "scenario {seed}: no holds: {s:?}");
                assert_eq!(s.accepted, 0, "scenario {seed}: accepted diverged state");
            }
            1 => {
                // Starved CG: 1-iteration cap at an unreachable
                // tolerance with the fallback ladder disabled, so every
                // solve fails. Divergence guards must hold-and-continue.
                model.set_solver_options(SolverOptions {
                    tolerance: 1e-14,
                    max_iterations: 1,
                    preconditioner: PreconditionerKind::Jacobi,
                    fallback: false,
                });
                let mut power = PowerMap::zeros(&model);
                power.add_cell_power(2, ix, iy, Watts::new(5.0));
                let field = model
                    .transient_adaptive(&power, &initial, HORIZON_S, &mut ctrl, &mut ws)
                    .unwrap();
                assert_finite(&field, seed, "cg blowup");
                let s = ctrl.summary();
                assert!(s.rejected > 0, "scenario {seed}: no rejections: {s:?}");
                assert!(s.holds > 0, "scenario {seed}: no holds: {s:?}");
            }
            _ => {
                // Spike then recover: a poisoned phase followed by a
                // clean phase with the same controller — rollback must
                // leave the engine able to accept again.
                let mut spike = PowerMap::zeros(&model);
                spike.add_cell_power(2, ix, iy, Watts::new(1e200));
                let mid = model
                    .transient_adaptive(&spike, &initial, HORIZON_S / 2.0, &mut ctrl, &mut ws)
                    .unwrap();
                assert_finite(&mid, seed, "spike phase");
                let mut clean = PowerMap::zeros(&model);
                clean.add_cell_power(2, ix, iy, Watts::new(5.0));
                let field = model
                    .transient_adaptive(&clean, &mid, HORIZON_S / 2.0, &mut ctrl, &mut ws)
                    .unwrap();
                assert_finite(&field, seed, "recovery phase");
                let s = ctrl.summary();
                assert!(s.rejected > 0, "scenario {seed}: no rejections: {s:?}");
                assert!(
                    s.accepted + s.forced > 0,
                    "scenario {seed}: never recovered: {s:?}"
                );
            }
        }
    }

    // Aggregate visibility: the whole sweep's rollback and budget
    // activity must appear in the counters and in the JSONL stream.
    assert!(xylem_obs::counter(xylem_obs::Counter::AdaptiveRejects) > 0);
    assert!(xylem_obs::counter(xylem_obs::Counter::AdaptiveHolds) > 0);
    assert!(xylem_obs::counter(xylem_obs::Counter::AdaptiveAccepts) > 0);
    assert!(xylem_obs::counter(xylem_obs::Counter::BudgetExhaustions) > 0);

    let jsonl = sink.contents();
    xylem_obs::shutdown();
    assert!(
        jsonl.contains("\"ev\":\"adaptive_step\""),
        "no adaptive_step events in the stream"
    );
    for action in ["\"action\":\"reject\"", "\"action\":\"hold\""] {
        assert!(jsonl.contains(action), "no {action} events in the stream");
    }
    assert!(
        jsonl.contains("\"ev\":\"adaptive_budget\""),
        "no adaptive_budget events in the stream"
    );
    assert!(
        jsonl.contains("\"which\":\"reject_streak\""),
        "reject-streak exhaustion not reported"
    );
}

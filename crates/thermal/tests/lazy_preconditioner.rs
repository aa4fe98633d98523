//! Which solver setups a model pays for, counted by
//! `Counter::PreconditionerBuilds`.
//!
//! `discretize` builds no preconditioner: the steady one is built by the
//! first steady solve, the backward-Euler one by the first transient
//! step at a new `dt`. This binary holds a single test, so the
//! process-global counter sees only its own builds.

use xylem_obs::{counter, Counter};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::PreconditionerKind;
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::{SolverOptions, SolverWorkspace, TemperatureField};

const DIE: f64 = 8e-3;

/// Builds counted since the previous call.
fn builds_since(last: &mut u64) -> u64 {
    let now = counter(Counter::PreconditionerBuilds);
    let delta = now - *last;
    *last = now;
    delta
}

#[test]
fn preconditioners_are_built_only_by_the_solves_that_use_them() {
    let stack = Stack::builder(DIE, DIE)
        .package(Package::default_for_die(DIE, DIE))
        .layer(Layer::uniform("dram", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
        .build()
        .unwrap();
    let mut last = counter(Counter::PreconditionerBuilds);

    let mut model = stack.discretize(GridSpec::new(32, 32)).unwrap();
    assert_eq!(builds_since(&mut last), 0, "discretize builds nothing");
    let kind = model.solver_options().preconditioner;
    assert_eq!(kind, PreconditionerKind::Gmg, "models default to GMG");

    let mut power = PowerMap::zeros(&model);
    power.add_uniform_layer_power(2, Watts::new(20.0));
    let mut state = TemperatureField::uniform(&model, model.ambient());
    let mut ws = SolverWorkspace::new();
    for _ in 0..12 {
        state = model
            .transient_with(&power, &state, 1e-3, 1, None, &mut ws)
            .unwrap();
    }
    assert_eq!(builds_since(&mut last), 1, "one G + C/dt operator");

    let first = model.steady_state(&power).unwrap();
    assert_eq!(builds_since(&mut last), 1, "first steady solve builds");
    let second = model.steady_state(&power).unwrap();
    assert_eq!(builds_since(&mut last), 0, "second steady solve reuses");
    assert_eq!(first.raw(), second.raw());

    model.set_solver_options(SolverOptions {
        preconditioner: PreconditionerKind::Jacobi,
        ..*model.solver_options()
    });
    assert_eq!(builds_since(&mut last), 0, "switching kinds builds lazily");
    model.steady_state(&power).unwrap();
    assert_eq!(builds_since(&mut last), 1, "the new kind is built once");

    let clone = model.clone();
    clone.steady_state(&power).unwrap();
    assert_eq!(builds_since(&mut last), 0, "a clone keeps the built one");
}

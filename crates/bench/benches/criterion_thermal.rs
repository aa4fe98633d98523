//! Criterion micro-benchmarks of the thermal substrate: model assembly,
//! the serial reference CSR matvec, steady-state solves through the
//! model's default preconditioner, transient steps (warm- vs
//! cold-started CG), and the superposition fast path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xylem::response::ThermalResponse;
use xylem_stack::{builder::BuiltStack, StackConfig, XylemScheme};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Watts;
use xylem_thermal::{SolverWorkspace, ThermalModel};

fn paper_built() -> BuiltStack {
    StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .unwrap()
}

fn paper_load(built: &BuiltStack, model: &ThermalModel) -> PowerMap {
    let mut p = PowerMap::zeros(model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(20.0));
    for &l in built.dram_metal_layers() {
        p.add_uniform_layer_power(l, Watts::new(0.4));
    }
    p
}

fn bench_matvec(c: &mut Criterion) {
    let built = paper_built();
    let mut group = c.benchmark_group("matvec");
    for n in [16usize, 32, 64] {
        let model = built.stack().discretize(GridSpec::new(n, n)).unwrap();
        let nn = model.node_count();
        let x = vec![1.0f64; nn];
        let mut y = vec![0.0f64; nn];
        group.bench_with_input(BenchmarkId::new("csr_serial", n), &n, |b, _| {
            b.iter(|| model.csr().matvec_serial(&x, &mut y))
        });
    }
    group.finish();
}

fn bench_steady_state(c: &mut Criterion) {
    let built = paper_built();
    let mut group = c.benchmark_group("steady_state");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let model = built.stack().discretize(GridSpec::new(n, n)).unwrap();
        let p = paper_load(&built, &model);
        let mut ws = SolverWorkspace::new();
        group.bench_with_input(BenchmarkId::new("stencil_gmg", n), &n, |b, _| {
            b.iter(|| model.steady_state_from(&p, None, &mut ws).unwrap())
        });
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .unwrap();
    c.bench_function("discretize_64x64", |b| {
        b.iter(|| built.stack().discretize(GridSpec::new(64, 64)).unwrap())
    });
}

fn bench_transient_step(c: &mut Criterion) {
    let built = StackConfig::paper_default(XylemScheme::BankSurround)
        .build()
        .unwrap();
    let model = built.stack().discretize(GridSpec::new(32, 32)).unwrap();
    let mut p = PowerMap::zeros(&model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(18.0));
    let init = TemperatureField::uniform(&model, model.ambient());
    c.bench_function("transient_step_32x32_5ms", |b| {
        b.iter(|| model.transient(&p, &init, 5e-3, 1).unwrap())
    });
}

fn bench_dtm_step_warm_vs_cold(c: &mut Criterion) {
    // One DTM control-period step at the thermal operating point: the
    // warm path seeds CG with the current field (what dtm_transient
    // does every step); the cold path forces the iterate back to
    // ambient. The physics is identical, only the CG starting point
    // differs.
    let built = paper_built();
    let model = built.stack().discretize(GridSpec::new(32, 32)).unwrap();
    let p = paper_load(&built, &model);
    let near_ss = model.steady_state(&p).unwrap();
    let ambient = TemperatureField::uniform(&model, model.ambient());
    let mut ws = SolverWorkspace::new();
    c.bench_function("dtm_step_32x32_1ms_warm", |b| {
        b.iter(|| {
            model
                .transient_with(&p, &near_ss, 1e-3, 1, None, &mut ws)
                .unwrap()
        })
    });
    c.bench_function("dtm_step_32x32_1ms_cold", |b| {
        b.iter(|| {
            model
                .transient_with(&p, &near_ss, 1e-3, 1, Some(&ambient), &mut ws)
                .unwrap()
        })
    });
}

fn bench_superposition(c: &mut Criterion) {
    let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
        .build()
        .unwrap();
    let response = ThermalResponse::compute(&built, GridSpec::new(16, 16)).unwrap();
    let proc_powers = vec![0.25; response.proc_blocks().len()];
    let dram_powers = vec![0.4; response.n_dram_dies()];
    c.bench_function("superposition_evaluate_16x16", |b| {
        b.iter(|| response.temperatures(&proc_powers, &dram_powers).unwrap())
    });
}

criterion_group!(
    benches,
    bench_matvec,
    bench_steady_state,
    bench_model_build,
    bench_transient_step,
    bench_dtm_step_warm_vs_cold,
    bench_superposition
);
criterion_main!(benches);

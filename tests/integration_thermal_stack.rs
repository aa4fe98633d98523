//! Integration of the stack builder with the thermal solver: direct
//! (non-superposed) solves of full paper stacks.

use xylem_stack::builder::StackConfig;
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::units::Watts;

const GRID: usize = 24;

fn solve_hotspot(scheme: XylemScheme, watts_proc: f64) -> (f64, f64) {
    let built = StackConfig::paper_default(scheme).build().unwrap();
    let model = built.stack().discretize(GridSpec::new(GRID, GRID)).unwrap();
    let mut p = PowerMap::zeros(&model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(watts_proc));
    for &l in built.dram_metal_layers() {
        p.add_uniform_layer_power(l, Watts::new(0.35));
    }
    let t = model.steady_state(&p).unwrap();
    (
        t.max_of_layer(built.proc_metal_layer()).get(),
        t.max_of_layer(built.bottom_dram_metal_layer()).get(),
    )
}

#[test]
fn pillars_cool_both_processor_and_dram() {
    let (p_base, d_base) = solve_hotspot(XylemScheme::Base, 20.0);
    let (p_banke, d_banke) = solve_hotspot(XylemScheme::BankEnhanced, 20.0);
    assert!(p_banke < p_base - 2.0, "{p_banke} vs {p_base}");
    assert!(d_banke < d_base - 2.0, "{d_banke} vs {d_base}");
}

#[test]
fn prior_without_shorting_is_ineffective() {
    let (p_base, _) = solve_hotspot(XylemScheme::Base, 20.0);
    let (p_prior, _) = solve_hotspot(XylemScheme::Prior, 20.0);
    // TTSVs alone (no D2D pillars) barely move the needle — the paper's
    // central negative result.
    assert!((p_base - p_prior).abs() < 0.5, "{p_base} vs {p_prior}");
}

#[test]
fn temperature_gradient_down_the_stack() {
    // Processor (farthest from sink) is hottest; every DRAM die going up
    // is cooler.
    let built = StackConfig::paper_default(XylemScheme::Base)
        .build()
        .unwrap();
    let model = built.stack().discretize(GridSpec::new(GRID, GRID)).unwrap();
    let mut p = PowerMap::zeros(&model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(18.0));
    for &l in built.dram_metal_layers() {
        p.add_uniform_layer_power(l, Watts::new(0.35));
    }
    let t = model.steady_state(&p).unwrap();
    let proc = t.mean_of_layer(built.proc_metal_layer()).get();
    let mut prev = proc;
    for &l in built.dram_metal_layers().iter().rev() {
        let cur = t.mean_of_layer(l).get();
        assert!(cur < prev + 1e-6, "die layer {l}: {cur} vs below {prev}");
        prev = cur;
    }
}

#[test]
fn d2d_layers_carry_the_largest_drops() {
    // The mean temperature drop across any D2D layer exceeds the drop
    // across the adjacent silicon layers — the Sec. 2.5 claim, measured
    // on the solved field.
    let built = StackConfig::paper_default(XylemScheme::Base)
        .build()
        .unwrap();
    let model = built.stack().discretize(GridSpec::new(GRID, GRID)).unwrap();
    let mut p = PowerMap::zeros(&model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(18.0));
    let t = model.steady_state(&p).unwrap();
    // Drop across the bottom D2D (between proc si and the die above).
    let below = t.mean_of_layer(built.proc_si_layer());
    let above = t.mean_of_layer(built.dram_metal_layers()[7]);
    let drop_d2d = below - above;
    // Drop across the processor's own silicon layer.
    let drop_si = t.mean_of_layer(built.proc_metal_layer()) - below;
    assert!(
        drop_d2d > 4.0 * drop_si,
        "d2d drop {drop_d2d} vs si drop {drop_si}"
    );
}

#[test]
fn grid_refinement_changes_hotspot_mildly() {
    // 16 -> 32 grid: hotspot moves by a bounded amount for a uniform load
    // (discretization is converging; the 450 um pillar patches rasterize
    // coarsely at 16x16, so a ~2.5 C shift remains).
    let built = StackConfig::paper_default(XylemScheme::BankSurround)
        .build()
        .unwrap();
    let mut hot = Vec::new();
    for n in [16usize, 32] {
        let model = built.stack().discretize(GridSpec::new(n, n)).unwrap();
        let mut p = PowerMap::zeros(&model);
        p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(20.0));
        hot.push(
            model
                .steady_state(&p)
                .unwrap()
                .max_of_layer(built.proc_metal_layer()),
        );
    }
    assert!((hot[0] - hot[1]).abs() < 3.5, "{hot:?}");
}

#[test]
fn die_count_monotonically_heats_processor() {
    let mut prev = 0.0;
    for n in [4usize, 8, 12] {
        let mut cfg = StackConfig::paper_default(XylemScheme::Base);
        cfg.n_dram_dies = n;
        let built = cfg.build().unwrap();
        let model = built.stack().discretize(GridSpec::new(16, 16)).unwrap();
        let mut p = PowerMap::zeros(&model);
        p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(18.0));
        for &l in built.dram_metal_layers() {
            p.add_uniform_layer_power(l, Watts::new(0.35));
        }
        let hot = model
            .steady_state(&p)
            .unwrap()
            .max_of_layer(built.proc_metal_layer());
        assert!(hot > prev, "{n} dies: {hot} vs {prev}");
        prev = hot.get();
    }
}

//! Closed-form one-dimensional solutions used to validate the solver.
//!
//! When the package has no lateral extent beyond the die (spreader and sink
//! the same size as the die) and power is applied uniformly over one layer,
//! heat flow is purely vertical and the steady state has a closed form:
//! every node sits at `T_amb + P * R(path from node to ambient)`.
//! The validation tests compare the RC solver against these values; the
//! module is compiled only for them.

use crate::stack::Stack;
use crate::units::Watts;

/// Temperature drop across a slab: `q * t / lambda` where `q` is the heat
/// flux (W/m^2), `t` the thickness (m), `lambda` the conductivity (W/m-K).
fn slab_delta_t(heat_flux: f64, thickness: f64, lambda: f64) -> f64 {
    heat_flux * thickness / lambda
}

/// Per-layer one-dimensional thermal resistances (K/W) of a stack + package
/// for a die of area `A` — the quantities behind the paper's Sec. 2.5
/// analysis.
#[derive(Debug, Clone, PartialEq)]
struct OneDimensionalReport {
    /// Convection resistance (K/W).
    convection: f64,
    /// Sink conduction resistance (K/W), full thickness.
    sink: f64,
    /// Spreader conduction resistance (K/W), full thickness.
    spreader: f64,
    /// TIM conduction resistance (K/W), full thickness.
    tim: f64,
    /// Per user layer, top to bottom: `(name, resistance K/W)` using the
    /// base material.
    layers: Vec<(String, f64)>,
}

impl OneDimensionalReport {
    /// Computes the report for `stack`, treating every layer as its base
    /// material and using the die area for all conduction terms.
    fn for_stack(stack: &Stack) -> Self {
        let area = stack.width() * stack.height();
        let p = stack.package();
        OneDimensionalReport {
            convection: p.convection_resistance(),
            sink: p.sink_thickness() / (p.sink_material().conductivity().get() * area),
            spreader: p.spreader_thickness() / (p.spreader_material().conductivity().get() * area),
            tim: p.tim_thickness() / (p.tim_material().conductivity().get() * area),
            layers: stack
                .layers()
                .iter()
                .map(|l| {
                    (
                        l.name().to_string(),
                        l.thickness() / (l.base_material().conductivity().get() * area),
                    )
                })
                .collect(),
        }
    }

    /// Total resistance from the center of user layer `layer` up to ambient
    /// (K/W): convection + **half** the sink (the RC discretization is
    /// node-centered, and convection attaches at the sink node center) +
    /// spreader + TIM + all layers above + half of `layer` itself.
    fn resistance_to_ambient(&self, layer: usize) -> f64 {
        let mut r = self.convection + self.sink / 2.0 + self.spreader + self.tim;
        for (i, (_, rl)) in self.layers.iter().enumerate() {
            if i < layer {
                r += rl;
            } else if i == layer {
                r += rl / 2.0;
                break;
            }
        }
        r
    }
}

/// Predicted steady-state node temperature (deg C) at the center of each
/// user layer when `watts` are injected uniformly into `power_layer`, for
/// a **1-D package** (spreader and sink no larger than the die, no board
/// path). Returns one temperature per user layer, top to bottom.
///
/// Heat flows only upward from the power layer; layers below it float at
/// the power layer's upper-path temperature (no flux below means no
/// gradient below).
fn one_dimensional_temperatures(stack: &Stack, watts: Watts, power_layer: usize) -> Vec<f64> {
    let report = OneDimensionalReport::for_stack(stack);
    let ambient = stack.package().ambient();
    let w = watts.get();
    let r_source = report.resistance_to_ambient(power_layer);
    (0..stack.len())
        .map(|l| {
            if l <= power_layer {
                ambient
                    + w * report
                        .resistance_to_ambient(l.min(power_layer))
                        .min(r_source)
            } else {
                // No heat flows below the source: isothermal with the source
                // node.
                ambient + w * r_source
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::layer::Layer;
    use crate::material::{D2D_AVERAGE, SILICON};
    use crate::power::PowerMap;
    use crate::stack::Stack;

    fn one_d_stack() -> Stack {
        let die = 8e-3;
        Stack::builder(die, die)
            .package(crate::package::Package::one_dimensional(die, die))
            .layer(Layer::uniform("si-top", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
            .layer(Layer::uniform("si-bot", 100e-6, SILICON.clone()))
            .build()
            .unwrap()
    }

    #[test]
    fn slab_formula() {
        // 10 W over 64 mm^2 through 20 um of 1.5 W/m-K.
        let q = 10.0 / 64e-6;
        let dt = slab_delta_t(q, 20e-6, 1.5);
        assert!((dt - 2.0833).abs() < 1e-3, "{dt}");
    }

    #[test]
    fn solver_matches_one_dimensional_prediction() {
        let stack = one_d_stack();
        let model = stack.discretize(GridSpec::new(8, 8)).unwrap();
        let mut p = PowerMap::zeros(&model);
        let watts = 20.0;
        p.add_uniform_layer_power(2, crate::units::Watts::new(watts));
        let temps = model.steady_state(&p).unwrap();
        let predicted = one_dimensional_temperatures(&stack, Watts::new(watts), 2);
        for l in 0..3 {
            let got = temps.mean_of_layer(l).get();
            let want = predicted[l];
            assert!(
                (got - want).abs() < 0.05,
                "layer {l}: solver {got:.3} vs analytic {want:.3}"
            );
        }
    }

    #[test]
    fn resistance_accumulates_downward() {
        let stack = one_d_stack();
        let r = OneDimensionalReport::for_stack(&stack);
        assert!(r.resistance_to_ambient(0) < r.resistance_to_ambient(1));
        assert!(r.resistance_to_ambient(1) < r.resistance_to_ambient(2));
    }

    #[test]
    fn d2d_dominates_conduction_resistance() {
        let stack = one_d_stack();
        let r = OneDimensionalReport::for_stack(&stack);
        let d2d = r.layers[1].1;
        let si = r.layers[0].1;
        let ratio = d2d / si;
        assert!((15.0..17.0).contains(&ratio), "{ratio}");
    }
}

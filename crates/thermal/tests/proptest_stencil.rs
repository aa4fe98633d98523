//! Property-based tests pinning the matrix-free stencil backend to the
//! CSR reference — bit-identically for the matvec — and GMG-
//! preconditioned CG to Jacobi-preconditioned CG within solver
//! tolerance.

use proptest::prelude::*;

use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::{PreconditionerKind, SolverOptions};
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::{SolverWorkspace, ThermalModel};

const DIE: f64 = 8e-3;

/// A stack with `n_layers` user layers alternating silicon and bonding
/// material, on an `nx x ny` grid — exercising non-square grids and
/// heterogeneous z-stacks of varying depth.
fn random_model(nx: usize, ny: usize, n_layers: usize, thick_scale: f64) -> ThermalModel {
    let mut b = Stack::builder(DIE, DIE).package(Package::default_for_die(DIE, DIE));
    for l in 0..n_layers {
        let (name, thick, mat) = if l % 2 == 0 {
            (format!("die{l}"), 100e-6 * thick_scale, SILICON.clone())
        } else {
            (format!("bond{l}"), 20e-6 * thick_scale, D2D_AVERAGE.clone())
        };
        b = b.layer(Layer::uniform(&name, thick, mat));
    }
    let stack = b.build().unwrap();
    stack.discretize(GridSpec::new(nx, ny)).unwrap()
}

/// A deterministic, sign-varying test vector (no RNG in the loop so a
/// failure reproduces from the proptest seed alone).
fn test_vector(n: usize, seed: f64) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    let mut s = seed;
    for i in 0..n {
        s = (s * 1.6180339887 + 0.7071067811) % 97.0;
        v.push(s - 48.5 + (i % 7) as f64);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stencil sweep is the *same arithmetic* as the CSR matvec:
    /// every output must match bit for bit, on the raw conductance
    /// matrix and on a diagonal-patched (backward-Euler) clone alike.
    #[test]
    fn stencil_matvec_is_bitwise_the_csr_matvec(
        nx in 1usize..10,
        ny in 1usize..10,
        n_layers in 1usize..5,
        thick_scale in 0.5f64..2.0,
        seed in 0.0f64..97.0,
        dt_exp in -4i32..0,
    ) {
        let m = random_model(nx, ny, n_layers, thick_scale);
        let a = m.csr();
        let s = m.stencil();
        prop_assert_eq!(s.n(), a.n());
        let x = test_vector(a.n(), seed);
        let mut y_csr = vec![0.0; a.n()];
        let mut y_st = vec![0.0; a.n()];
        a.matvec_serial(&x, &mut y_csr);
        s.matvec_serial(&x, &mut y_st);
        for (i, (c, st)) in y_csr.iter().zip(&y_st).enumerate() {
            prop_assert_eq!(c.to_bits(), st.to_bits(), "node {}: {} vs {}", i, c, st);
        }

        // Diagonal patch (the `+ C/dt` of backward Euler) must keep the
        // two backends bitwise aligned as well.
        let dt = 10f64.powi(dt_exp);
        let patch: Vec<f64> = (0..a.n()).map(|i| (i % 11 + 1) as f64 / dt).collect();
        let ap = a.with_diagonal_added(&patch);
        let sp = s.with_diagonal_added(&patch);
        ap.matvec_serial(&x, &mut y_csr);
        sp.matvec_serial(&x, &mut y_st);
        for (i, (c, st)) in y_csr.iter().zip(&y_st).enumerate() {
            prop_assert_eq!(c.to_bits(), st.to_bits(), "patched node {}: {} vs {}", i, c, st);
        }
    }

    /// GMG-preconditioned CG and the Jacobi path converge to the same
    /// temperatures within solver tolerance, cold-started from ambient
    /// and warm-started from the other path's solution.
    #[test]
    fn gmg_and_jacobi_solves_agree(
        nx in 6usize..12,
        ny in 6usize..12,
        n_layers in 2usize..4,
        lx in 0usize..12,
        ly in 0usize..12,
        watts in 2.0f64..20.0,
    ) {
        let mut m = random_model(nx, ny, n_layers, 1.0);
        let mut p = PowerMap::zeros(&m);
        p.add_cell_power(n_layers - 1, lx % nx, ly % ny, Watts::new(watts));
        p.add_uniform_layer_power(0, Watts::new(watts * 0.5));

        m.set_solver_options(SolverOptions {
            preconditioner: PreconditionerKind::Jacobi,
            ..*m.solver_options()
        });
        let jacobi = m.steady_state(&p).unwrap();

        m.set_solver_options(SolverOptions {
            preconditioner: PreconditionerKind::Gmg,
            ..*m.solver_options()
        });
        let gmg_cold = m.steady_state(&p).unwrap();
        let mut ws = SolverWorkspace::new();
        let gmg_warm = m.steady_state_from(&p, Some(&jacobi), &mut ws).unwrap();

        for (i, ((a, c), w)) in jacobi
            .raw()
            .iter()
            .zip(gmg_cold.raw())
            .zip(gmg_warm.raw())
            .enumerate()
        {
            prop_assert!((a - c).abs() < 1e-6, "cold node {}: {} vs {}", i, a, c);
            prop_assert!((a - w).abs() < 1e-6, "warm node {}: {} vs {}", i, a, w);
        }
    }
}

//! Property-based tests for the thermal solver's physical invariants.

use proptest::prelude::*;

use xylem_thermal::floorplan::{Floorplan, Rect};
use xylem_thermal::grid::GridSpec;
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::power::PowerMap;
use xylem_thermal::stack::Stack;
use xylem_thermal::units::Watts;
use xylem_thermal::{CsrMatrix, SolverWorkspace, ThermalModel};

const DIE: f64 = 8e-3;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Steady state conserves energy: convected+board outflow equals the
    /// injected power, for arbitrary point injections.
    #[test]
    fn conservation_holds_for_random_injections(
        cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..5.0), 1..6)
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &cells {
            p.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let t = m.steady_state(&p).unwrap();
        let outflow = m.ambient_outflow(&t);
        let total = p.total();
        prop_assert!((outflow - total).abs() < 1e-3 * total.get().max(1.0),
            "outflow {outflow} vs injected {total}");
    }

    /// Every node is at or above ambient when all power is non-negative
    /// (discrete maximum principle).
    #[test]
    fn no_node_below_ambient(
        layer in 0usize..3,
        ix in 0usize..6,
        iy in 0usize..6,
        watts in 0.0f64..20.0,
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        p.add_cell_power(layer, ix, iy, Watts::new(watts));
        let t = m.steady_state(&p).unwrap();
        let min = t.raw().iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min >= m.ambient().get() - 1e-6, "min {min} < ambient");
    }

    /// Scaling the power map scales the temperature rise (linearity).
    #[test]
    fn temperature_rise_is_linear_in_power(
        layer in 0usize..3,
        ix in 0usize..6,
        iy in 0usize..6,
        watts in 0.5f64..5.0,
        k in 1.5f64..4.0,
    ) {
        let m = small_model();
        let mut p1 = PowerMap::zeros(&m);
        p1.add_cell_power(layer, ix, iy, Watts::new(watts));
        let mut p2 = p1.clone();
        p2.scale(k);
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        let amb = m.ambient();
        let rise1 = t1.hotspot_of_layer(layer).1 - amb;
        let rise2 = t2.hotspot_of_layer(layer).1 - amb;
        prop_assert!((rise2 - k * rise1).abs() < 1e-6 * rise2.abs().max(1.0),
            "rise {rise2} vs {k} * {rise1}");
    }

    /// Adding power anywhere never cools any node (monotonicity).
    #[test]
    fn extra_power_never_cools(
        l1 in 0usize..3, x1 in 0usize..6, y1 in 0usize..6,
        l2 in 0usize..3, x2 in 0usize..6, y2 in 0usize..6,
    ) {
        let m = small_model();
        let mut pa = PowerMap::zeros(&m);
        pa.add_cell_power(l1, x1, y1, Watts::new(3.0));
        let mut pb = pa.clone();
        pb.add_cell_power(l2, x2, y2, Watts::new(2.0));
        let ta = m.steady_state(&pa).unwrap();
        let tb = m.steady_state(&pb).unwrap();
        for (a, b) in ta.raw().iter().zip(tb.raw()) {
            prop_assert!(b + 1e-7 >= *a, "{b} < {a}");
        }
    }

    /// Block rasterization weights always sum to 1 for blocks inside the
    /// outline, regardless of alignment with the grid.
    #[test]
    fn rasterization_weights_sum_to_one(
        x in 0.0f64..0.7,
        y in 0.0f64..0.7,
        w in 0.05f64..0.3,
        h in 0.05f64..0.3,
        n in 3usize..12,
    ) {
        let mut fp = Floorplan::new(DIE, DIE);
        fp.add_block("b", Rect::new(x * DIE, y * DIE, w * DIE, h * DIE)).unwrap();
        let stack = Stack::builder(DIE, DIE)
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp))
            .build()
            .unwrap();
        let m = stack.discretize(GridSpec::new(n, n)).unwrap();
        let sum: f64 = m.block_weights(0, "b").unwrap().iter().map(|&(_, w)| w).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    /// `CsrMatrix::from_adjacency` lowers an arbitrary symmetric
    /// conductance graph faithfully: its matvec agrees with a naive walk
    /// of the adjacency list, rows come out sorted with the diagonal at
    /// `diag_pos`, and the auto-dispatching matvec is bit-identical to
    /// the serial one.
    #[test]
    fn csr_from_adjacency_matches_naive_matvec(
        n in 1usize..80,
        edges_per_node in 0.0f64..4.0,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Random symmetric graph: each edge listed at both endpoints, no
        // self or duplicate edges, positive conductances.
        let mut neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for _ in 0..(edges_per_node * n as f64) as usize {
            let i = (next() * n as f64) as usize;
            let j = (next() * n as f64) as usize;
            if i == j || neighbors[i].iter().any(|&(k, _)| k as usize == j) {
                continue;
            }
            let g = 0.01 + next() * 10.0;
            neighbors[i].push((j as u32, g));
            neighbors[j].push((i as u32, g));
        }
        let diagonal: Vec<f64> = neighbors
            .iter()
            .map(|nb| nb.iter().map(|&(_, g)| g).sum::<f64>() + 0.1 + next())
            .collect();
        let a = CsrMatrix::from_adjacency(&neighbors, &diagonal);
        prop_assert_eq!(a.n(), n);
        let x: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();

        // Naive reference: y_i = d_i x_i - sum_j g_ij x_j.
        let mut y_naive = vec![0.0; n];
        for i in 0..n {
            let mut acc = diagonal[i] * x[i];
            for &(j, g) in &neighbors[i] {
                acc -= g * x[j as usize];
            }
            y_naive[i] = acc;
        }
        let mut y_csr = vec![0.0; n];
        a.matvec_serial(&x, &mut y_csr);
        for (i, (p, c)) in y_naive.iter().zip(&y_csr).enumerate() {
            let scale = diagonal[i] * (1.0 + x.iter().map(|v| v.abs()).fold(0.0, f64::max));
            prop_assert!((p - c).abs() <= 1e-12 * scale, "row {i}: {p} vs {c}");
        }
        for i in 0..n {
            let (cols, vals) = a.row(i);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            prop_assert_eq!(cols[a.diag_pos(i)] as usize, i);
            prop_assert!(vals[a.diag_pos(i)].to_bits() == diagonal[i].to_bits());
            prop_assert_eq!(cols.len(), neighbors[i].len() + 1);
        }
        let mut y_auto = vec![0.0; n];
        a.matvec(&x, &mut y_auto);
        for (c, au) in y_csr.iter().zip(&y_auto) {
            prop_assert!(c.to_bits() == au.to_bits());
        }
    }

    /// A warm-started CG solve lands on the same solution as a cold
    /// start, for arbitrary injections and an arbitrary (wrong) guess
    /// scale.
    #[test]
    fn warm_start_matches_cold_start_solution(
        cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..5.0), 1..6),
        guess_cells in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6, 0.1f64..8.0), 1..4),
    ) {
        let m = small_model();
        let mut p = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &cells {
            p.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let mut ws = SolverWorkspace::new();
        let cold = m.steady_state_from(&p, None, &mut ws).unwrap();
        // Guess: the solution of an unrelated power map.
        let mut pg = PowerMap::zeros(&m);
        for &(l, ix, iy, w) in &guess_cells {
            pg.add_cell_power(l, ix, iy, Watts::new(w));
        }
        let guess = m.steady_state_from(&pg, None, &mut ws).unwrap();
        let warm = m.steady_state_from(&p, Some(&guess), &mut ws).unwrap();
        for (c, w) in cold.raw().iter().zip(warm.raw()) {
            prop_assert!((c - w).abs() < 1e-5, "{c} vs {w}");
        }
    }

    /// A power map built from block power conserves the block total.
    #[test]
    fn block_power_total_preserved(
        x in 0.0f64..0.6,
        y in 0.0f64..0.6,
        w in 0.1f64..0.4,
        h in 0.1f64..0.4,
        watts in 0.1f64..30.0,
    ) {
        let mut fp = Floorplan::new(DIE, DIE);
        fp.add_block("b", Rect::new(x * DIE, y * DIE, w * DIE, h * DIE)).unwrap();
        let stack = Stack::builder(DIE, DIE)
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp))
            .build()
            .unwrap();
        let m = stack.discretize(GridSpec::new(9, 9)).unwrap();
        let mut p = PowerMap::zeros(&m);
        p.add_block_power(&m, 0, "b", Watts::new(watts)).unwrap();
        prop_assert!((p.total().get() - watts).abs() < 1e-9 * watts);
    }
}

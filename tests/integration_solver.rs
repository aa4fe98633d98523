//! Contracts of the thermal crate's one operator and one solve path,
//! checked through its public API: CSR lowering, the two
//! preconditioners CG runs on (GMG and Jacobi), the plain and resilient
//! CG entry points, and the conductance matrix a discretized stack
//! hands them.

use xylem_stack::{StackConfig, XylemScheme};
use xylem_thermal::gmg::{GmgHierarchy, GmgScratch};
use xylem_thermal::layer::Layer;
use xylem_thermal::material::{D2D_AVERAGE, SILICON};
use xylem_thermal::package::Package;
use xylem_thermal::reduce::pairwise_dot;
use xylem_thermal::solve::{
    solve_cg, solve_cg_resilient, DeadlineGuard, Preconditioner, PreconditionerKind,
    RecoveryReport, SolveStats, SolverOptions, SolverWorkspace,
};
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Watts;
use xylem_thermal::{
    CsrMatrix, GridSpec, PowerMap, Stack, StencilOperator, ThermalError, ThermalModel,
};

/// The 1D Laplacian `[-1 d -1]`: SPD for `d >= 2`, needs real CG
/// iterations, and doubles as a 1x1xn stack column or an nx1x1 row.
fn chain(n: usize, diag: f64) -> CsrMatrix {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, diag));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
    }
    CsrMatrix::from_triplets(n, &t)
}

/// The same chain as an adjacency list plus diagonal.
fn chain_adjacency(n: usize) -> (Vec<Vec<(u32, f64)>>, Vec<f64>) {
    let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for i in 0..n - 1 {
        nbrs[i].push(((i + 1) as u32, 1.0));
        nbrs[i + 1].push((i as u32, 1.0));
    }
    (nbrs, vec![2.0; n])
}

/// Structured stack matrix: `nl` layers of `nx x ny` cells, vertical
/// conductance far above lateral, ambient leak on the top layer.
fn stack_matrix(nx: usize, ny: usize, nl: usize) -> CsrMatrix {
    let cells = nx * ny;
    let n = nl * cells;
    let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut link = |i: usize, j: usize, g: f64| {
        nbrs[i].push((j as u32, g));
        nbrs[j].push((i as u32, g));
    };
    for l in 0..nl {
        let gv = if l % 2 == 0 { 120.0 } else { 900.0 };
        for iy in 0..ny {
            for ix in 0..nx {
                let i = l * cells + iy * nx + ix;
                if ix + 1 < nx {
                    link(i, i + 1, 1.0 + 0.1 * l as f64);
                }
                if iy + 1 < ny {
                    link(i, i + nx, 1.3);
                }
                if l + 1 < nl {
                    link(i, i + cells, gv);
                }
            }
        }
    }
    let diagonal: Vec<f64> = nbrs
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let leak = if i < cells { 2.0 } else { 0.0 };
            leak + row.iter().map(|&(_, g)| g).sum::<f64>()
        })
        .collect();
    CsrMatrix::from_adjacency(&nbrs, &diagonal)
}

const ALL_KINDS: [PreconditionerKind; 2] = [PreconditionerKind::Jacobi, PreconditionerKind::Gmg];

/// `a` as a stencil of the `(1, 1, 1)` geometry, which every matrix with
/// a diagonal fits: row 0 plus rim, then tail rows folded like the CSR.
fn op(a: &CsrMatrix) -> StencilOperator {
    StencilOperator::from_csr(a, 1, 1, 1).expect("every matrix fits (1, 1, 1)")
}

/// `kind` built for `a`; GMG sees the matrix as one cell column of `n`
/// layers, which every matrix with a diagonal is.
fn build(a: &CsrMatrix, kind: PreconditionerKind) -> Preconditioner {
    match kind {
        PreconditionerKind::Jacobi => Preconditioner::jacobi(&op(a)),
        PreconditionerKind::Gmg => {
            Preconditioner::build_gmg(a, 1, 1, a.n()).expect("column geometry")
        }
    }
}

fn solve(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    kind: PreconditionerKind,
) -> Result<SolveStats, ThermalError> {
    let prec = build(a, kind);
    let options = SolverOptions {
        preconditioner: kind,
        ..SolverOptions::default()
    };
    solve_cg(&op(a), &prec, b, x, &mut SolverWorkspace::new(), &options)
}

/// A resilient solve of `chain(n, 2.02)` with `b = 1` whose configured
/// GMG attempt is starved by `cap`. The chain is a row of `n` cells, so
/// the hierarchy coarsens for real and needs more than two iterations.
fn starved_ladder(
    tolerance: f64,
    cap: usize,
) -> (Result<SolveStats, ThermalError>, RecoveryReport) {
    let n = 300;
    let a = chain(n, 2.02);
    let opts = SolverOptions {
        tolerance,
        max_iterations: cap,
        preconditioner: PreconditionerKind::Gmg,
        fallback: true,
    };
    let prec = Preconditioner::build_gmg(&a, n, 1, 1).expect("row geometry");
    let mut report = RecoveryReport::default();
    let mut x = vec![0.0; n];
    let result = solve_cg_resilient(
        &op(&a),
        &prec,
        &vec![1.0; n],
        &mut x,
        &mut SolverWorkspace::new(),
        &opts,
        &mut report,
    );
    (result, report)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

// ---- CSR lowering ---------------------------------------------------

#[test]
fn lowering_is_independent_of_neighbor_order() {
    let (mut nbrs, diag) = chain_adjacency(6);
    let sorted = CsrMatrix::from_adjacency(&nbrs, &diag);
    for row in &mut nbrs {
        row.reverse();
    }
    assert_eq!(CsrMatrix::from_adjacency(&nbrs, &diag), sorted);
}

#[test]
fn lowering_negates_each_edge_conductance() {
    // A triangle with three distinct conductances.
    let nbrs = vec![
        vec![(1, 0.5), (2, 0.25)],
        vec![(0, 0.5), (2, 4.0)],
        vec![(0, 0.25), (1, 4.0)],
    ];
    let a = CsrMatrix::from_adjacency(&nbrs, &[1.0, 5.0, 7.0]);
    assert_eq!(a.row(0), (&[0, 1, 2][..], &[1.0, -0.5, -0.25][..]));
    assert_eq!(a.row(1), (&[0, 1, 2][..], &[-0.5, 5.0, -4.0][..]));
    assert_eq!(a.row(2), (&[0, 1, 2][..], &[-0.25, -4.0, 7.0][..]));
}

#[test]
fn isolated_node_keeps_only_its_diagonal() {
    let nbrs = vec![vec![(2, 1.0)], Vec::new(), vec![(0, 1.0)]];
    let a = CsrMatrix::from_adjacency(&nbrs, &[3.0, 9.0, 3.0]);
    assert_eq!(a.nnz(), 5);
    assert_eq!(a.row(1), (&[1][..], &[9.0][..]));
    assert_eq!(a.diag_pos(1), 0);
    let mut y = vec![0.0; 3];
    a.matvec_serial(&[0.0, 2.0, 0.0], &mut y);
    assert_eq!(y, vec![0.0, 18.0, 0.0]);
}

#[test]
fn empty_matrix_lowers_and_multiplies() {
    let a = CsrMatrix::from_adjacency(&[], &[]);
    assert_eq!((a.n(), a.nnz()), (0, 0));
    assert!(a.diagonal().is_empty());
    let mut y: Vec<f64> = Vec::new();
    a.matvec_serial(&[], &mut y);
    assert!(y.is_empty());
}

#[test]
#[should_panic(expected = "diagonal length mismatch")]
fn lowering_rejects_a_short_diagonal() {
    let (nbrs, _) = chain_adjacency(4);
    let _ = CsrMatrix::from_adjacency(&nbrs, &[2.0; 3]);
}

#[test]
#[should_panic(expected = "diagonal patch length mismatch")]
fn diagonal_patch_rejects_the_wrong_length() {
    let (nbrs, diag) = chain_adjacency(4);
    let _ = CsrMatrix::from_adjacency(&nbrs, &diag).with_diagonal_added(&[1.0; 5]);
}

#[test]
#[should_panic(expected = "row 1 has no diagonal entry")]
fn triplets_require_every_diagonal() {
    let _ = CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 0, 1.0)]);
}

#[test]
fn summed_triplets_fold_duplicate_positions() {
    let a = CsrMatrix::from_triplets_summed(
        2,
        &[
            (0, 0, 1.0),
            (1, 1, 2.0),
            (0, 1, -0.5),
            (0, 0, 2.0),
            (0, 1, -0.25),
        ],
    );
    assert_eq!(a.nnz(), 3);
    assert_eq!(a.row(0), (&[0, 1][..], &[3.0, -0.75][..]));
    assert_eq!(a.diagonal(), vec![3.0, 2.0]);
}

#[test]
fn summed_triplets_without_duplicates_match_plain_triplets() {
    let plain: [(usize, usize, f64); 5] = [
        (1, 1, 3.0),
        (0, 1, -1.0),
        (0, 0, 2.0),
        (1, 0, -1.0),
        (2, 2, 1.5),
    ];
    let summed: Vec<(u32, u32, f64)> = plain
        .iter()
        .map(|&(i, j, v)| (i as u32, j as u32, v))
        .collect();
    assert_eq!(
        CsrMatrix::from_triplets_summed(3, &summed),
        CsrMatrix::from_triplets(3, &plain)
    );
}

#[test]
fn dispatching_matvec_is_bitwise_serial_on_both_sides_of_the_threshold() {
    // The stencil matvec every solve runs switches to the parallel sweep
    // at PAR_MIN_ROWS; on both sides it matches the serial CSR kernel.
    use xylem_thermal::csr::PAR_MIN_ROWS;
    for n in [2, 3, PAR_MIN_ROWS + 5] {
        let (nbrs, diag) = chain_adjacency(n);
        let a = CsrMatrix::from_adjacency(&nbrs, &diag);
        let s = StencilOperator::from_csr(&a, n, 1, 1).expect("a chain is a row of cells");
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let (mut ys, mut yd) = (vec![0.0; n], vec![f64::NAN; n]);
        a.matvec_serial(&x, &mut ys);
        s.matvec(&x, &mut yd);
        assert_eq!(bits(&ys), bits(&yd), "n = {n}");
    }
}

// ---- Preconditioners ------------------------------------------------

#[test]
fn default_options_select_gmg_with_fallback() {
    let o = SolverOptions::default();
    assert_eq!(o.preconditioner, PreconditionerKind::Gmg);
    assert!(o.fallback);
    assert_eq!(o.tolerance, 1e-9);
    assert_eq!(o.max_iterations, 20_000);
}

#[test]
fn fallback_ladder_holds_each_kind_once_and_ends_at_jacobi() {
    // A NaN right-hand side fails every solve, so the ladder runs to its
    // end: a failed GMG solve retries once on Jacobi, and a failed
    // Jacobi solve has no further step.
    let n = 60;
    let a = chain(n, 2.0);
    let mut b = vec![1.0; n];
    b[17] = f64::NAN;
    for (kind, rungs) in [
        (PreconditionerKind::Gmg, vec![PreconditionerKind::Jacobi]),
        (PreconditionerKind::Jacobi, vec![]),
    ] {
        let opts = SolverOptions {
            preconditioner: kind,
            ..SolverOptions::default()
        };
        let mut report = RecoveryReport::default();
        let err = solve_cg_resilient(
            &op(&a),
            &build(&a, kind),
            &b,
            &mut vec![0.0; n],
            &mut SolverWorkspace::new(),
            &opts,
            &mut report,
        )
        .unwrap_err();
        assert!(
            matches!(err, ThermalError::NoConvergence { .. }),
            "{kind:?}"
        );
        let tried: Vec<PreconditionerKind> = report.events.iter().map(|e| e.rung).collect();
        assert_eq!(tried, rungs, "{kind:?}");
    }
}

#[test]
fn labels_are_distinct_lowercase_words() {
    let labels: Vec<&str> = [PreconditionerKind::Gmg, PreconditionerKind::Jacobi]
        .iter()
        .map(|k| k.label())
        .collect();
    assert_eq!(labels, ["gmg", "jacobi"]);
    for l in &labels {
        assert!(l.chars().all(|c| c.is_ascii_lowercase()), "{l}");
    }
}

#[test]
fn built_preconditioner_reports_its_kind() {
    let a = chain(40, 2.1);
    for kind in ALL_KINDS {
        assert_eq!(build(&a, kind).kind(), kind);
    }
}

#[test]
fn gmg_build_needs_a_geometry_that_fits_the_matrix() {
    let a = chain(40, 2.1);
    // More grid nodes than matrix rows, or an empty grid, cannot
    // describe the matrix; fewer leaves tail rows, which is allowed.
    assert!(Preconditioner::build_gmg(&a, 2, 2, 40).is_none());
    assert!(Preconditioner::build_gmg(&a, 1, 1, 41).is_none());
    assert!(Preconditioner::build_gmg(&a, 0, 1, 40).is_none());
    assert!(Preconditioner::build_gmg(&a, 1, 1, 39).is_some());
    let p = Preconditioner::build_gmg(&a, 1, 1, 40).expect("geometry matches");
    assert_eq!(p.kind(), PreconditionerKind::Gmg);
}

#[test]
fn jacobi_apply_scales_by_the_reciprocal_diagonal() {
    let a = op(&chain(9, 2.5));
    let prec = Preconditioner::jacobi(&a);
    let r: Vec<f64> = (0..9).map(|i| i as f64 - 3.5).collect();
    let mut z = vec![0.0; 9];
    prec.apply_timed(&a, &r, &mut z, &mut SolverWorkspace::new());
    for (zi, ri) in z.iter().zip(&r) {
        assert_eq!(zi.to_bits(), (ri * (1.0 / 2.5)).to_bits());
    }
}

/// Every preconditioner CG can run on, built for `chain(n, _)`. GMG is
/// built twice: as a 1x1xn column (one dense level) and as an nx1x1
/// row (real in-plane coarsening).
fn every_preconditioner(a: &CsrMatrix, n: usize) -> Vec<Preconditioner> {
    vec![
        Preconditioner::jacobi(&op(a)),
        Preconditioner::build_gmg(a, 1, 1, n).expect("column geometry"),
        Preconditioner::build_gmg(a, n, 1, 1).expect("row geometry"),
    ]
}

#[test]
fn preconditioner_apply_is_symmetric() {
    // PCG needs a symmetric M^-1: <M^-1 r, s> == <r, M^-1 s>.
    let n = 150;
    let a = chain(n, 2.05);
    let r: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
    let s: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 + 0.5).collect();
    let (a_op, mut ws) = (op(&a), SolverWorkspace::new());
    for prec in every_preconditioner(&a, n) {
        let (mut zr, mut zs) = (vec![0.0; n], vec![0.0; n]);
        prec.apply_timed(&a_op, &r, &mut zr, &mut ws);
        prec.apply_timed(&a_op, &s, &mut zs, &mut ws);
        let (lhs, rhs) = (pairwise_dot(&zr, &s), pairwise_dot(&r, &zs));
        let kind = prec.kind();
        assert!(
            (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()),
            "{kind:?}: {lhs} vs {rhs}"
        );
    }
}

#[test]
fn preconditioner_apply_is_positive_definite() {
    // PCG also needs <r, M^-1 r> > 0 for every nonzero r.
    let n = 150;
    let a = chain(n, 2.05);
    let (a_op, mut ws) = (op(&a), SolverWorkspace::new());
    for prec in every_preconditioner(&a, n) {
        for seed in 0..4 {
            let r: Vec<f64> = (0..n)
                .map(|i| ((i * (seed + 3) + seed) % 11) as f64 - 5.0)
                .collect();
            let mut z = vec![0.0; n];
            prec.apply_timed(&a_op, &r, &mut z, &mut ws);
            let rz = pairwise_dot(&r, &z);
            assert!(rz > 0.0, "{:?} seed {seed}: {rz}", prec.kind());
        }
    }
}

#[test]
fn gmg_fine_dims_report_the_first_coarsened_level() {
    let a = stack_matrix(32, 32, 5);
    let h = GmgHierarchy::build(&a, 32, 32, 5).expect("build");
    assert_eq!(h.fine_dims(), Some((32, 32)));
    let a = stack_matrix(4, 4, 3);
    let h = GmgHierarchy::build(&a, 4, 4, 3).expect("build");
    assert_eq!(h.fine_dims(), None, "straight to the direct solve");
}

#[test]
fn gmg_v_cycle_is_linear_in_the_residual() {
    // Scaling by a power of two is exact in floating point, so a linear
    // cycle must map 2r to exactly 2z.
    let (nx, ny, nl) = (20, 12, 4);
    let a = stack_matrix(nx, ny, nl);
    let h = GmgHierarchy::build(&a, nx, ny, nl).expect("build");
    assert!(h.fine_dims().is_some(), "expected real coarsening");
    let n = a.n();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let r2: Vec<f64> = r.iter().map(|v| 2.0 * v).collect();
    let (mut z, mut z2) = (vec![0.0; n], vec![0.0; n]);
    let (s, mut scratch) = (
        StencilOperator::from_csr(&a, nx, ny, nl).expect("stencil"),
        GmgScratch::default(),
    );
    h.apply(&s, &r, &mut z, &mut scratch);
    h.apply(&s, &r2, &mut z2, &mut scratch);
    let doubled: Vec<f64> = z.iter().map(|v| 2.0 * v).collect();
    assert_eq!(bits(&doubled), bits(&z2));
}

#[test]
fn gmg_clone_applies_bitwise_like_the_original() {
    let (nx, ny, nl) = (24, 24, 3);
    let a = stack_matrix(nx, ny, nl);
    let h = GmgHierarchy::build(&a, nx, ny, nl).expect("build");
    let c = h.clone();
    let n = a.n();
    let r: Vec<f64> = (0..n).map(|i| ((i * 11) % 13) as f64 - 6.0).collect();
    let (mut z, mut zc) = (vec![0.0; n], vec![1.0; n]);
    let s = StencilOperator::from_csr(&a, nx, ny, nl).expect("stencil");
    h.apply(&s, &r, &mut z, &mut GmgScratch::default());
    c.apply(&s, &r, &mut zc, &mut GmgScratch::default());
    assert_eq!(bits(&z), bits(&zc));
}

// ---- CG entry points ------------------------------------------------

#[test]
fn exact_initial_guess_needs_no_iterations() {
    let a = CsrMatrix::from_triplets(3, &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)]);
    for kind in ALL_KINDS {
        let mut x = vec![1.0, 0.5, 0.25];
        let stats = solve(&a, &[2.0, 2.0, 2.0], &mut x, kind).unwrap();
        assert_eq!(stats.iterations, 0, "{kind:?}");
        assert_eq!(stats.residual, 0.0, "{kind:?}");
        assert_eq!(x, vec![1.0, 0.5, 0.25], "{kind:?}: guess kept");
    }
}

#[test]
fn non_finite_rhs_fails_the_plain_solve_at_once() {
    let a = chain(20, 2.0);
    let mut b = vec![1.0; 20];
    b[3] = f64::INFINITY;
    for kind in ALL_KINDS {
        let mut x = vec![0.0; 20];
        match solve(&a, &b, &mut x, kind).unwrap_err() {
            ThermalError::NoConvergence { iterations, .. } => {
                assert_eq!(iterations, 0, "{kind:?}");
            }
            other => panic!("{kind:?}: unexpected error {other}"),
        }
    }
}

#[test]
fn resilient_without_fallback_surfaces_the_failure() {
    let a = chain(100, 2.0);
    let b = vec![1.0; 100];
    let opts = SolverOptions {
        tolerance: 1e-12,
        max_iterations: 2,
        preconditioner: PreconditionerKind::Jacobi,
        fallback: false,
    };
    let a = op(&a);
    let prec = Preconditioner::jacobi(&a);
    let mut report = RecoveryReport::default();
    let mut x = vec![0.0; 100];
    let err = solve_cg_resilient(
        &a,
        &prec,
        &b,
        &mut x,
        &mut SolverWorkspace::new(),
        &opts,
        &mut report,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ThermalError::NoConvergence { iterations: 2, .. }
    ));
    assert!(report.is_empty(), "no rung may run with fallback off");
}

#[test]
fn starved_gmg_solve_recovers_through_one_jacobi_event() {
    let (result, report) = starved_ladder(1e-9, 0);
    let stats = result.unwrap();
    assert_eq!((report.attempts, report.recoveries), (1, 1));
    assert_eq!(report.events.len(), 1);
    let ev = report.events[0];
    assert_eq!(ev.rung, PreconditionerKind::Jacobi);
    assert!(ev.recovered);
    assert_eq!(stats.iterations, ev.iterations, "a zero cap spends nothing");
    assert!(stats.residual <= 1e-9);
}

#[test]
fn resilient_stats_count_the_failed_attempt_and_the_rung() {
    let (result, report) = starved_ladder(1e-9, 2);
    let stats = result.unwrap();
    let ev = report.events[0];
    assert_eq!(stats.iterations, 2 + ev.iterations);
    assert_eq!(stats.residual, ev.residual);
    assert!(ev.residual <= 1e-9);
}

#[test]
fn ladder_relaxes_the_tolerance_three_decades_capped_at_1e_4() {
    // A zero cap fails every configured attempt, so the rescuing rung
    // always runs and records the relaxed tolerance it started from.
    for (tol, want) in [(1e-9, 1e-6), (1e-6, 1e-4), (1e-2, 1e-2)] {
        let (result, report) = starved_ladder(tol, 0);
        result.unwrap();
        let got = report.events[0].relaxed_tolerance;
        assert!((got - want).abs() <= 1e-12 * want, "{tol}: {got} vs {want}");
    }
}

#[test]
fn recovery_report_round_trips_through_json() {
    let (_, report) = starved_ladder(1e-9, 2);
    assert_eq!((report.attempts, report.recoveries), (1, 1));
    let text = serde_json::to_string(&report).unwrap();
    let back: RecoveryReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back, report);
}

#[test]
fn workspace_reuse_across_sizes_is_bitwise_stable() {
    // A workspace grown by a larger solve and reused by a smaller one
    // must give the same bits as a fresh workspace.
    let opts = SolverOptions::default();
    let run = |n: usize, ws: &mut SolverWorkspace| {
        let a = chain(n, 2.2);
        let prec = build(&a, opts.preconditioner);
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 9) as f64 * 0.3).collect();
        let mut x = vec![0.0; n];
        solve_cg(&op(&a), &prec, &b, &mut x, ws, &opts).unwrap();
        x
    };
    let fresh_small = run(60, &mut SolverWorkspace::new());
    let fresh_large = run(250, &mut SolverWorkspace::new());
    let mut ws = SolverWorkspace::new();
    assert_eq!(bits(&run(250, &mut ws)), bits(&fresh_large));
    assert_eq!(bits(&run(60, &mut ws)), bits(&fresh_small));
    assert_eq!(bits(&run(250, &mut ws)), bits(&fresh_large));
}

#[test]
fn deadline_guard_is_per_thread() {
    let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let _guard = DeadlineGuard::install(far);
    assert!(DeadlineGuard::active());
    let other = std::thread::spawn(DeadlineGuard::active).join().unwrap();
    assert!(!other, "a guard on one thread must not leak to another");
}

// ---- The model's conductance matrix -----------------------------------

fn model(nx: usize) -> ThermalModel {
    let die = 8e-3;
    let stack = Stack::builder(die, die)
        .package(Package::default_for_die(die, die))
        .layer(Layer::uniform("si", 100e-6, SILICON.clone()))
        .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
        .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
        .build()
        .unwrap();
    stack.discretize(GridSpec::new(nx, nx)).unwrap()
}

#[test]
fn conductance_matrix_is_a_diagonally_dominant_m_matrix() {
    // Positive diagonal, negative couplings, and every row sum (the
    // node's own leak to ambient) non-negative, with at least one node
    // leaking: the matrix is SPD, as CG requires.
    let m = model(6);
    let a = m.csr();
    let mut leaking = 0;
    for i in 0..a.n() {
        let (cols, vals) = a.row(i);
        let mut off = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            if j as usize == i {
                assert!(v > 0.0, "row {i}: diagonal {v}");
            } else {
                assert!(v < 0.0, "({i},{j}): coupling {v}");
                off -= v;
            }
        }
        let d = vals[a.diag_pos(i)];
        assert!(d - off >= -1e-12 * d, "row {i}: {d} < {off}");
        if d - off > 1e-12 * d {
            leaking += 1;
        }
    }
    assert!(leaking > 0, "no path to ambient");
}

#[test]
fn zero_power_steady_state_is_ambient() {
    let m = model(6);
    let t = m.steady_state(&PowerMap::zeros(&m)).unwrap();
    let amb = m.ambient().get();
    for &v in t.raw() {
        assert!((v - amb).abs() < 1e-9, "{v} vs {amb}");
    }
}

#[test]
fn stencil_view_multiplies_bitwise_like_the_csr() {
    let m = model(8);
    let s = m.stencil();
    let n = m.node_count();
    assert_eq!(s.n(), n);
    let x: Vec<f64> = (0..n).map(|i| 40.0 + ((i * 17) % 23) as f64).collect();
    let (mut yc, mut ys) = (vec![0.0; n], vec![0.0; n]);
    m.csr().matvec_serial(&x, &mut yc);
    s.matvec_serial(&x, &mut ys);
    assert_eq!(bits(&yc), bits(&ys));
}

// ---- Pinned solver bits -----------------------------------------------

/// FNV-1a over the IEEE bit patterns of `v`, as 16 hex digits.
fn bits_digest(v: &[f64]) -> String {
    let bytes: Vec<u8> = v.iter().flat_map(|f| f.to_bits().to_le_bytes()).collect();
    format!("{:016x}", xylem_obs::hash::fnv1a(&bytes))
}

/// The paper stack under `scheme` at `grid x grid`, with `watts` on the
/// processor metal and 0.35 W on each DRAM metal layer.
fn paper_model(scheme: XylemScheme, grid: usize, watts: f64) -> (ThermalModel, PowerMap) {
    let built = StackConfig::paper_default(scheme).build().unwrap();
    let model = built.stack().discretize(GridSpec::new(grid, grid)).unwrap();
    let mut p = PowerMap::zeros(&model);
    p.add_uniform_layer_power(built.proc_metal_layer(), Watts::new(watts));
    for &l in built.dram_metal_layers() {
        p.add_uniform_layer_power(l, Watts::new(0.35));
    }
    (model, p)
}

/// Every solver kernel change must leave these bits where they are: a
/// kernel that reorders one floating-point fold moves a digest. The
/// 32x32 values were captured before the matrix-free V-cycle and the
/// split interior stencil sweep landed. The 16x16 values were captured
/// on the code that still picked AMG below 32x32, with GMG forced
/// through `set_solver_options`: making GMG the only multigrid moved
/// no bit of a GMG solve.
#[test]
fn solver_output_bits_are_pinned() {
    // One GMG apply on a fixed vector, 32x32 BankEnhanced stack.
    let (model, power) = paper_model(XylemScheme::BankEnhanced, 32, 18.0);
    let (_, burst) = paper_model(XylemScheme::BankEnhanced, 32, 30.0);
    let nl = model.stencil().layers();
    let prec = Preconditioner::build_gmg(model.csr(), 32, 32, nl).expect("geometry matches");
    let n = model.node_count();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
    let mut z = vec![0.0; n];
    prec.apply_timed(model.stencil(), &r, &mut z, &mut SolverWorkspace::new());
    assert_eq!(bits_digest(&z), "217c1a9c06856811");

    // Its steady solve, then 12 one-step backward-Euler calls under a
    // power burst.
    assert_eq!(
        model.solver_options().preconditioner,
        PreconditionerKind::Gmg
    );
    let mut t = model.steady_state(&power).unwrap();
    let mut chain = t.raw().to_vec();
    let mut iters = vec![t.stats().iterations];
    let mut ws = SolverWorkspace::new();
    for _ in 0..12 {
        t = model
            .transient_with(&burst, &t, 1e-3, 1, None, &mut ws)
            .unwrap();
        chain.extend_from_slice(t.raw());
        iters.push(t.stats().iterations);
    }
    assert_eq!(bits_digest(&chain), "b4ecb9dfc089c6e8");
    assert_eq!(iters, [19, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2]);

    // A 16x16 steady solve, on GMG like every grid.
    let (model, power) = paper_model(XylemScheme::Base, 16, 18.0);
    assert_eq!(
        model.solver_options().preconditioner,
        PreconditionerKind::Gmg
    );
    let t = model.steady_state(&power).unwrap();
    assert_eq!(bits_digest(t.raw()), "b5742221ea90a797");
    assert_eq!(t.stats().iterations, 16);
}

// ---- Caller-owned V-cycle scratch ---------------------------------------

/// `steps` one-step backward-Euler calls of `dt` from ambient through
/// `ws`, as the bits of every state.
fn stepped_bits(
    model: &ThermalModel,
    power: &PowerMap,
    steps: usize,
    ws: &mut SolverWorkspace,
) -> Vec<u64> {
    let mut t = TemperatureField::uniform(model, model.ambient());
    let mut out = Vec::new();
    for _ in 0..steps {
        t = model.transient_with(power, &t, 1e-3, 1, None, ws).unwrap();
        out.extend(bits(t.raw()));
    }
    out
}

#[test]
fn threads_sharing_one_model_step_bitwise_like_a_serial_run() {
    // The serve pattern: two sessions step one shared model, so both
    // apply the one cached GMG hierarchy at once, each V-cycle in its
    // own workspace.
    let (model, power) = paper_model(XylemScheme::BankEnhanced, 32, 18.0);
    let serial = stepped_bits(&model.clone(), &power, 6, &mut SolverWorkspace::new());
    let start = std::sync::Barrier::new(2);
    let runs: Vec<Vec<u64>> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                sc.spawn(|| {
                    start.wait();
                    stepped_bits(&model, &power, 6, &mut SolverWorkspace::new())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (k, run) in runs.iter().enumerate() {
        assert!(*run == serial, "thread {k} differs from the serial run");
    }
}

#[test]
fn one_workspace_across_grid_sizes_is_bitwise_fresh() {
    // 16x16 and 32x32 hierarchies differ in depth and level sizes, so
    // the reused scratch shrinks and grows between the solves.
    let models = [16, 32, 16].map(|g| paper_model(XylemScheme::Base, g, 18.0));
    let mut ws = SolverWorkspace::new();
    for (model, power) in &models {
        let reused = model.steady_state_from(power, None, &mut ws).unwrap();
        let fresh = model
            .steady_state_from(power, None, &mut SolverWorkspace::new())
            .unwrap();
        let grid = model.grid().nx();
        assert_eq!(bits(reused.raw()), bits(fresh.raw()), "{grid}x{grid}");
        let steps = stepped_bits(model, power, 3, &mut ws);
        assert!(
            steps == stepped_bits(model, power, 3, &mut SolverWorkspace::new()),
            "{grid}x{grid} transient"
        );
    }
}

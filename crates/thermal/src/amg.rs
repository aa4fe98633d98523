//! Aggregation-based algebraic multigrid preconditioner.
//!
//! A single preconditioner application is one symmetric V(1,1) cycle:
//!
//! 1. pre-smooth with damped Jacobi (from a zero initial guess, so the
//!    smoother reduces to `z = omega * D^-1 r`),
//! 2. restrict the residual onto pairwise aggregates and recurse,
//! 3. solve the coarsest level exactly with an envelope Cholesky factor,
//! 4. prolong the coarse correction back (with a fixed over-correction
//!    factor, which for piecewise-constant aggregation amounts to the
//!    usual "smoothed aggregation lite" scaling and preserves symmetric
//!    positive definiteness of the implied operator `M^-1`),
//! 5. post-smooth with the same damped Jacobi sweep.
//!
//! Coarsening is double-pairwise: two rounds of greedy matching along
//! the strongest negative off-diagonal couplings per level, giving
//! roughly 4x node reduction per level. The coarse operators are
//! Galerkin products `A_c = P^T A P`; with piecewise-constant 0/1
//! prolongation these are computed in a single pass over the fine
//! matrix by summing entries per aggregate pair.
//!
//! The coarsest level's Cholesky factor (`EnvelopeChol`, shared with
//! [`crate::gmg`]) is stored and applied over each row's envelope only,
//! from its first stored entry to the diagonal, which skips the zero
//! fill a dense factor carries without changing a bit of the result.
//!
//! The cycle is symmetric (identical pre/post smoothing, symmetric
//! coarse solves), so it is a valid preconditioner for conjugate
//! gradients. On the thermal grids produced by
//! [`crate::model::ThermalModel`] it cuts CG iteration counts by
//! roughly an order of magnitude relative to Jacobi at an apply cost
//! of a few fine-grid matvecs.

use std::sync::{Mutex, MutexGuard, TryLockError};

use xylem_obs::Counter;

use crate::csr::CsrMatrix;

/// Damping factor for the Jacobi smoother. 2/3 is the classic choice
/// for M-matrices; slightly lower is more robust on the strongly
/// anisotropic vertical/lateral coupling ratios seen in 3D stacks.
const SMOOTH_OMEGA: f64 = 0.9;

/// Scaling applied to the prolonged coarse-grid correction.
/// Plain (unsmoothed) aggregation systematically under-corrects; a
/// fixed scalar > 1 recovers most of the lost convergence speed while
/// keeping `M^-1` symmetric positive definite.
const OVER_CORRECTION: f64 = 1.2;

/// Stop coarsening once a level has at most this many nodes and solve
/// it with an envelope Cholesky factorization instead.
const COARSE_MAX: usize = 200;

/// Hard cap on hierarchy depth (also the bail-out when pairwise
/// matching stalls on a pathological matrix).
const MAX_LEVELS: usize = 25;

/// Minimum per-level shrink factor; if a coarsening round does worse
/// than this the hierarchy stops growing and the current level becomes
/// the (directly solved) coarsest one.
const MIN_SHRINK: f64 = 0.9;

/// Envelope (profile) Cholesky factorization of the coarsest-level
/// operator. Shared with the geometric hierarchy in [`crate::gmg`].
///
/// Row `i` of `L` is stored only over columns `first[i]..=i`, where
/// `first[i]` is the row's first stored entry in the lower triangle:
/// Cholesky fill never reaches left of it, so every entry outside the
/// envelope is an exact zero of the full factor. The factorization and
/// both triangular solves are the dense left-looking loops with those
/// `0 * x` terms skipped and every other term kept in the same order,
/// so for finite inputs the factor and each solve are bit-identical to
/// the dense algorithm (the test oracle below) at a fraction of its
/// cost: the coarse operators are banded, plus an arrow of package
/// tail rows on the geometric hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct EnvelopeChol {
    /// First column of each row's envelope.
    first: Vec<usize>,
    /// Row `i` of `L` is `l[start[i]..start[i + 1]]`, diagonal last.
    start: Vec<usize>,
    l: Vec<f64>,
    /// `below[j]`: the envelope rows under column `j`'s diagonal (rows
    /// `k > j` with `first[k] <= j`), ascending, the order the back
    /// solve walks them in.
    below: Vec<Vec<u32>>,
}

impl EnvelopeChol {
    pub(crate) fn factor(a: &CsrMatrix) -> Self {
        let n = a.n();
        let first: Vec<usize> = (0..n)
            .map(|i| a.row(i).0.iter().map(|&j| j as usize).fold(i, usize::min))
            .collect();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for (i, &f) in first.iter().enumerate() {
            start.push(start[i] + i + 1 - f);
        }
        let mut l = vec![0.0f64; start[n]];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let j = j as usize;
                if j <= i {
                    l[start[i] + j - first[i]] = v;
                }
            }
        }
        // In-place left-looking Cholesky, row by row; `k` runs only
        // where both rows are inside their envelopes.
        for i in 0..n {
            let fi = first[i];
            let (done, rest) = l.split_at_mut(start[i]);
            let row = &mut rest[..i + 1 - fi];
            for j in fi..=i {
                let k0 = fi.max(first[j]);
                let mut sum = row[j - fi];
                let li = &row[k0 - fi..j - fi];
                let lj = if j == i {
                    li
                } else {
                    &done[start[j] + k0 - first[j]..start[j] + j - first[j]]
                };
                for (lik, ljk) in li.iter().zip(lj) {
                    sum -= lik * ljk;
                }
                row[j - fi] = if j == i {
                    sum.max(f64::MIN_POSITIVE).sqrt()
                } else {
                    sum / done[start[j + 1] - 1]
                };
            }
        }
        let mut below = vec![Vec::new(); n];
        for (k, &f) in first.iter().enumerate() {
            for col in &mut below[f..k] {
                col.push(k as u32);
            }
        }
        EnvelopeChol {
            first,
            start,
            l,
            below,
        }
    }

    /// Solves `L L^T x = b` in place.
    pub(crate) fn solve(&self, x: &mut [f64]) {
        let n = self.first.len();
        for i in 0..n {
            let (off, diag) = self.l[self.start[i]..self.start[i + 1]].split_at(i - self.first[i]);
            let mut sum = x[i];
            for (lik, xk) in off.iter().zip(&x[self.first[i]..i]) {
                sum -= lik * xk;
            }
            x[i] = sum / diag[0];
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for &k in &self.below[i] {
                let k = k as usize;
                sum -= self.l[self.start[k] + i - self.first[k]] * x[k];
            }
            x[i] = sum / self.l[self.start[i + 1] - 1];
        }
    }
}

/// One level of the hierarchy: the fine operator's inverse diagonal
/// (for smoothing), the aggregate map onto the next-coarser level, and
/// the coarse operator itself.
#[derive(Debug, Clone)]
struct AmgLevel {
    /// `agg[i]` is the coarse index of fine node `i`.
    agg: Vec<u32>,
    /// `1 / A[i][i]` on this (fine) level.
    inv_diag: Vec<f64>,
    /// Galerkin coarse operator `P^T A P`.
    coarse_a: CsrMatrix,
}

/// Per-apply scratch vectors, one set per level plus the coarsest.
#[derive(Debug, Default)]
struct Scratch {
    /// Residual / correction workspace per level (fine-level sized).
    tmp: Vec<Vec<f64>>,
    /// Right-hand side per level below the finest.
    rhs: Vec<Vec<f64>>,
    /// Solution per level below the finest.
    sol: Vec<Vec<f64>>,
}

/// Aggregation AMG hierarchy built from a fine-level [`CsrMatrix`].
#[derive(Debug)]
pub struct AmgHierarchy {
    levels: Vec<AmgLevel>,
    coarse: EnvelopeChol,
    /// Scratch is interior-mutable so `apply` can take `&self` like
    /// the other preconditioners. One solve applies the hierarchy
    /// serially, but a model shared across threads is applied
    /// concurrently: serve shares one `ThermalModel`, and its cached
    /// transient operators, across the sessions of one source, so two
    /// workers stepping such sessions serialize on this lock for every
    /// V-cycle.
    scratch: Mutex<Scratch>,
}

impl Clone for AmgHierarchy {
    fn clone(&self) -> Self {
        AmgHierarchy {
            levels: self.levels.clone(),
            coarse: self.coarse.clone(),
            scratch: Mutex::new(Scratch::default()),
        }
    }
}

/// Locks a multigrid hierarchy's V-cycle scratch. An apply that finds
/// the scratch held by another thread (two sessions stepping one shared
/// model) counts one [`Counter::PrecScratchWaits`] before it blocks.
///
/// # Panics
///
/// Panics if the mutex is poisoned (a prior apply panicked mid-cycle).
pub(crate) fn lock_scratch<T>(scratch: &Mutex<T>) -> MutexGuard<'_, T> {
    match scratch.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            xylem_obs::incr(Counter::PrecScratchWaits);
            scratch.lock().expect("multigrid scratch poisoned")
        }
        Err(TryLockError::Poisoned(_)) => panic!("multigrid scratch poisoned"),
    }
}

/// Greedy pairwise matching along the strongest negative off-diagonal
/// coupling. Returns `(agg, n_coarse)` where `agg[i]` is the aggregate
/// index of node `i`. Unmatched nodes become singleton aggregates.
fn pairwise_aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.n();
    const UNSET: u32 = u32::MAX;
    let mut agg = vec![UNSET; n];
    let mut next = 0u32;
    for i in 0..n {
        if agg[i] != UNSET {
            continue;
        }
        // Strongest (most negative) unaggregated neighbour.
        let (cols, vals) = a.row(i);
        let mut best: Option<(usize, f64)> = None;
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            if j == i || agg[j] != UNSET || v >= 0.0 {
                continue;
            }
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((j, v));
            }
        }
        agg[i] = next;
        if let Some((j, _)) = best {
            agg[j] = next;
        }
        next += 1;
    }
    (agg, next as usize)
}

/// Galerkin product `P^T A P` for piecewise-constant `P` given by the
/// aggregate map: sums fine entries per (coarse row, coarse col) pair.
/// For a 0/1 restriction this is identical to rediscretizing the
/// conductance network on the aggregated cells, which is how
/// [`crate::gmg`] reuses it for its geometric coarse operators.
pub(crate) fn galerkin(a: &CsrMatrix, agg: &[u32], n_coarse: usize) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(a.nnz());
    for i in 0..a.n() {
        let ci = agg[i];
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            triplets.push((ci, agg[j as usize], v));
        }
    }
    CsrMatrix::from_triplets_summed(n_coarse, &triplets)
}

/// Composes two aggregate maps (fine -> mid, mid -> coarse).
fn compose(first: &[u32], second: &[u32]) -> Vec<u32> {
    first.iter().map(|&m| second[m as usize]).collect()
}

impl AmgHierarchy {
    /// Builds the full hierarchy from the fine operator.
    #[must_use]
    pub fn build(a: &CsrMatrix) -> Self {
        let mut levels: Vec<AmgLevel> = Vec::new();
        loop {
            // The fine matrix is borrowed; each pushed level owns its
            // coarse operator, which becomes the next round's input.
            let (agg, inv_diag, coarse_a) = {
                let cur = levels.last().map_or(a, |l| &l.coarse_a);
                if cur.n() <= COARSE_MAX || levels.len() >= MAX_LEVELS {
                    break;
                }
                // Double-pairwise coarsening: match once, form the
                // intermediate operator, match again, then compose.
                let (agg1, n1) = pairwise_aggregate(cur);
                let mid = galerkin(cur, &agg1, n1);
                let (agg2, n2) = pairwise_aggregate(&mid);
                if (n2 as f64) > MIN_SHRINK * (cur.n() as f64) {
                    break; // coarsening stalled
                }
                let agg = compose(&agg1, &agg2);
                let coarse_a = galerkin(&mid, &agg2, n2);
                let inv_diag: Vec<f64> = cur.diagonal().iter().map(|&d| 1.0 / d).collect();
                (agg, inv_diag, coarse_a)
            };
            levels.push(AmgLevel {
                agg,
                inv_diag,
                coarse_a,
            });
        }
        let coarse = EnvelopeChol::factor(levels.last().map_or(a, |l| &l.coarse_a));
        AmgHierarchy {
            levels,
            coarse,
            scratch: Mutex::new(Scratch::default()),
        }
    }

    /// Applies one symmetric V(1,1) cycle: `z ≈ A^-1 r`.
    ///
    /// # Panics
    ///
    /// Panics if the internal scratch mutex is poisoned (a prior apply
    /// panicked mid-cycle).
    pub fn apply(&self, a: &CsrMatrix, r: &[f64], z: &mut [f64]) {
        let mut scratch = lock_scratch(&self.scratch);
        let s = &mut *scratch;
        // (Re)size scratch lazily.
        if s.tmp.len() != self.levels.len() + 1 {
            s.tmp.clear();
            s.rhs.clear();
            s.sol.clear();
            let mut n = a.n();
            for lvl in &self.levels {
                s.tmp.push(vec![0.0; n]);
                n = lvl.coarse_a.n();
                s.rhs.push(vec![0.0; n]);
                s.sol.push(vec![0.0; n]);
            }
            s.tmp.push(vec![0.0; n]);
        }
        self.cycle(0, a, r, z, s);
    }

    /// Recursive V-cycle on level `lvl`; `a` is that level's operator.
    fn cycle(&self, lvl: usize, a: &CsrMatrix, r: &[f64], z: &mut [f64], s: &mut Scratch) {
        if lvl == self.levels.len() {
            z.copy_from_slice(r);
            self.coarse.solve(z);
            return;
        }
        let level = &self.levels[lvl];
        let n = a.n();

        // Pre-smooth from zero: z = omega * D^-1 r.
        for i in 0..n {
            z[i] = SMOOTH_OMEGA * level.inv_diag[i] * r[i];
        }

        // Residual tmp = r - A z, restricted onto aggregates.
        let (mut tmp, mut rhs, mut sol) = (
            std::mem::take(&mut s.tmp[lvl]),
            std::mem::take(&mut s.rhs[lvl]),
            std::mem::take(&mut s.sol[lvl]),
        );
        a.matvec_serial(z, &mut tmp);
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            rhs[level.agg[i] as usize] += r[i] - tmp[i];
        }

        self.cycle(lvl + 1, &level.coarse_a, &rhs, &mut sol, s);

        // Prolong with over-correction.
        for i in 0..n {
            z[i] += OVER_CORRECTION * sol[level.agg[i] as usize];
        }

        // Post-smooth: z += omega * D^-1 (r - A z).
        a.matvec_serial(z, &mut tmp);
        for i in 0..n {
            z[i] += SMOOTH_OMEGA * level.inv_diag[i] * (r[i] - tmp[i]);
        }

        s.tmp[lvl] = tmp;
        s.rhs[lvl] = rhs;
        s.sol[lvl] = sol;
    }

    /// Number of levels including the directly solved coarsest one.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1D Poisson-like SPD matrix with an ambient leak on the diagonal.
    fn tridiag(n: usize) -> CsrMatrix {
        let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut diagonal = vec![0.1; n];
        for i in 0..n {
            if i + 1 < n {
                adjacency[i].push((i as u32 + 1, 1.0));
                adjacency[i + 1].push((i as u32, 1.0));
            }
        }
        for (i, row) in adjacency.iter().enumerate() {
            diagonal[i] += row.iter().map(|&(_, g)| g).sum::<f64>();
        }
        CsrMatrix::from_adjacency(&adjacency, &diagonal)
    }

    /// The dense left-looking Cholesky the envelope factor replaced,
    /// kept as its bitwise oracle: full `n x n` storage, every `k`.
    struct DenseChol {
        n: usize,
        l: Vec<f64>,
    }

    impl DenseChol {
        fn factor(a: &CsrMatrix) -> Self {
            let n = a.n();
            let mut m = vec![0.0f64; n * n];
            for i in 0..n {
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    m[i * n + j as usize] = v;
                }
            }
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = m[i * n + j];
                    for k in 0..j {
                        sum -= m[i * n + k] * m[j * n + k];
                    }
                    if i == j {
                        m[i * n + j] = sum.max(f64::MIN_POSITIVE).sqrt();
                    } else {
                        m[i * n + j] = sum / m[j * n + j];
                    }
                }
            }
            DenseChol { n, l: m }
        }

        fn solve(&self, x: &mut [f64]) {
            let n = self.n;
            for i in 0..n {
                let row = &self.l[i * n..i * n + i];
                let mut sum = x[i];
                for (lik, xk) in row.iter().zip(&*x) {
                    sum -= lik * xk;
                }
                x[i] = sum / self.l[i * n + i];
            }
            for i in (0..n).rev() {
                let mut sum = x[i];
                for (k, xk) in x.iter().enumerate().take(n).skip(i + 1) {
                    sum -= self.l[k * n + i] * xk;
                }
                x[i] = sum / self.l[i * n + i];
            }
        }
    }

    /// Coarsest GMG operator of a small paper-like stack: banded
    /// z-stacked planes plus the package tail rows (an arrow).
    fn gmg_coarsest_with_tail_rows() -> CsrMatrix {
        use crate::grid::GridSpec;
        use crate::layer::Layer;
        use crate::material::{D2D_AVERAGE, SILICON};
        use crate::package::Package;
        use crate::stack::Stack;
        let die = 8e-3;
        let stack = Stack::builder(die, die)
            .package(Package::default_for_die(die, die))
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
            .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
            .build()
            .unwrap();
        let model = stack.discretize(GridSpec::new(16, 16)).unwrap();
        let h = crate::gmg::GmgHierarchy::build(model.csr(), 16, 16, 6).unwrap();
        let coarsest = h.coarsest_operator(model.csr());
        assert!(coarsest.n() > 6 * 16, "coarsest level keeps the tail rows");
        coarsest
    }

    /// Coarsest AMG operator of a 2-D grid: aggregate numbering
    /// scatters each row's first entry (an irregular envelope).
    fn amg_coarsest_of_a_2d_grid() -> CsrMatrix {
        let side = 32;
        let n = side * side;
        let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for y in 0..side {
            for x in 0..side {
                let i = y * side + x;
                if x + 1 < side {
                    adjacency[i].push((i as u32 + 1, 1.0 + 0.01 * y as f64));
                    adjacency[i + 1].push((i as u32, 1.0 + 0.01 * y as f64));
                }
                if y + 1 < side {
                    adjacency[i].push(((i + side) as u32, 2.5));
                    adjacency[i + side].push((i as u32, 2.5));
                }
            }
        }
        let diagonal: Vec<f64> = adjacency
            .iter()
            .map(|row| 0.05 + row.iter().map(|&(_, g)| g).sum::<f64>())
            .collect();
        let a = CsrMatrix::from_adjacency(&adjacency, &diagonal);
        let h = AmgHierarchy::build(&a);
        assert!(h.num_levels() > 1);
        h.levels.last().unwrap().coarse_a.clone()
    }

    #[test]
    fn dense_cholesky_solves_exactly() {
        for a in [
            tridiag(12),
            gmg_coarsest_with_tail_rows(),
            amg_coarsest_of_a_2d_grid(),
        ] {
            let n = a.n();
            let chol = EnvelopeChol::factor(&a);
            let dense = DenseChol::factor(&a);
            // The factor matches the dense one bit for bit, and
            // everything left of the envelope is an exact +0.
            for i in 0..n {
                for j in 0..=i {
                    let want = dense.l[i * n + j].to_bits();
                    let got = if j < chol.first[i] {
                        0.0f64.to_bits()
                    } else {
                        chol.l[chol.start[i] + j - chol.first[i]].to_bits()
                    };
                    assert_eq!(got, want, "n={n}: L[{i}][{j}]");
                }
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
            let mut b = vec![0.0; n];
            a.matvec_serial(&x_true, &mut b);
            let mut x = b.clone();
            chol.solve(&mut x);
            let mut x_dense = b.clone();
            dense.solve(&mut x_dense);
            for (got, want) in x.iter().zip(&x_dense) {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}: solve differs");
            }
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn pairwise_matching_covers_all_nodes() {
        let a = tridiag(101);
        let (agg, nc) = pairwise_aggregate(&a);
        assert!(nc < 101);
        assert!(nc >= 51); // pairs at best
        let mut seen = vec![false; nc];
        for &g in &agg {
            seen[g as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn galerkin_preserves_symmetry_and_spd_diagonal() {
        let a = tridiag(64);
        let (agg, nc) = pairwise_aggregate(&a);
        let c = galerkin(&a, &agg, nc);
        assert_eq!(c.n(), nc);
        for i in 0..nc {
            let (cols, vals) = c.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                // Symmetric: find (j, i).
                let (jc, jv) = c.row(j as usize);
                let pos = jc.iter().position(|&k| k == i as u32).expect("symmetric");
                assert!((jv[pos] - v).abs() < 1e-12);
            }
            assert!(c.row(i).1[c.diag_pos(i)] > 0.0);
        }
    }

    #[test]
    fn small_matrix_builds_single_dense_level() {
        let a = tridiag(10);
        let h = AmgHierarchy::build(&a);
        assert_eq!(h.num_levels(), 1);
        let b: Vec<f64> = (0..10).map(|i| (i as f64) * 0.3 + 1.0).collect();
        let mut z = vec![0.0; 10];
        h.apply(&a, &b, &mut z);
        // Single-level hierarchy = exact solve.
        let mut az = vec![0.0; 10];
        a.matvec_serial(&z, &mut az);
        for (got, want) in az.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn v_cycle_contracts_the_error() {
        // Richardson iteration with the V-cycle as the preconditioner
        // must contract on a large 1D problem.
        let n = 5000;
        let a = tridiag(n);
        let h = AmgHierarchy::build(&a);
        assert!(h.num_levels() > 1);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).cos()).collect();
        let mut b = vec![0.0; n];
        a.matvec_serial(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let norm0: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut z = vec![0.0; n];
        let mut ax = vec![0.0; n];
        for _ in 0..30 {
            h.apply(&a, &r, &mut z);
            for i in 0..n {
                x[i] += z[i];
            }
            a.matvec_serial(&x, &mut ax);
            for i in 0..n {
                r[i] = b[i] - ax[i];
            }
        }
        let norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            norm < 1e-6 * norm0,
            "V-cycle Richardson failed to contract: {norm:.3e} vs {norm0:.3e}"
        );
    }
}

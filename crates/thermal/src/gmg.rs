//! Geometric multigrid preconditioner for the structured stack grid.
//!
//! The hierarchy exploits the geometry a
//! [`crate::model::ThermalModel`] matrix is known to have: `nl` layers
//! of `nx x ny` cells plus a handful of irregular package tail nodes.
//!
//! * **Coarsening is in-plane only** (`nx`, `ny` halve per level, each
//!   cell aggregating a 2x2 in-plane patch); the heterogeneous z-stack —
//!   thin D2D interfaces next to thick silicon dies, orders of magnitude
//!   apart in vertical conductance — stays fully resolved on every
//!   level, so no level ever mixes materials across layer boundaries.
//!   Tail nodes are carried through unaggregated. Coarse operators come
//!   from `galerkin` with this geometric 0/1 aggregate map, which for
//!   piecewise-constant restriction *is* the rediscretized conductance
//!   network on the coarsened cells (parallel conductances sum) — one
//!   pass over the fine matrix, no matrix-matrix product and no
//!   matching heuristics.
//! * **Only setup reads CSR.** Each level stores its coarse operator as
//!   a [`StencilOperator`] extracted from the Galerkin CSR, which is
//!   then dropped (the coarsest one after feeding the envelope factor).
//!   The V-cycle multiplies on the finest level through the caller's
//!   stencil — the model's, never a copy — and on every coarser level
//!   through the stored stencil; both are bit-identical to the CSR
//!   product.
//! * **The hierarchy is read-only during an apply.** The V-cycle's
//!   per-level vectors live in a caller-owned [`GmgScratch`] (a
//!   [`crate::solve::SolverWorkspace`] carries one), so threads that
//!   share one hierarchy — serve sessions stepping one shared model —
//!   each cycle in their own memory and never wait on each other.
//! * **Smoothing is damped z-line block Jacobi**: each in-plane cell
//!   column owns a tridiagonal block (the vertical couplings through
//!   the stack), factored once as `L D L^T` at build time and solved
//!   per sweep. Point smoothers degrade badly under pure in-plane
//!   coarsening because the vertical coupling dominates; solving whole
//!   z-lines exactly is the standard semicoarsening companion and keeps
//!   each sweep a fixed, deterministic sequence of plane-local
//!   operations (no cross-node reductions, so thread count can never
//!   reorder a sum).
//! * **The cycle is a symmetric V(1,1)** — identical pre/post smoothing
//!   around an over-corrected coarse-grid correction, an exact Cholesky
//!   solve on the coarsest level — so `M^-1` is symmetric positive
//!   definite and valid for conjugate gradients (see [`crate::solve`]).
//! * **The coarsest level is factored over its envelope only**
//!   (`EnvelopeChol`). In plane-major order that level is a band as
//!   wide as one plane, plus an arrow of package tail rows, so factor
//!   and solves skip the zero fill a dense `n x n` factor would carry,
//!   with bit-identical results.
//!
//! The setup is one summed Galerkin pass per level plus an O(n) z-line
//! factorization; one apply costs a few fine-grid matvecs.
//! `BENCH_thermal.json` records setup and apply at every grid from
//! 16x16 to 128x128.

use crate::csr::CsrMatrix;
use crate::stencil::StencilOperator;

/// Damping for the z-line block-Jacobi smoother. Block smoothers
/// tolerate less damping than point Jacobi; 0.9 is safe for the
/// M-matrices the model produces.
const SMOOTH_OMEGA: f64 = 0.9;

/// Scaling applied to the prolonged coarse-grid correction.
/// Piecewise-constant aggregation systematically under-corrects; a
/// fixed scalar > 1 recovers most of the lost convergence speed while
/// keeping `M^-1` symmetric positive definite.
const OVER_CORRECTION: f64 = 1.2;

/// Stop coarsening once a level has at most this many in-plane cells;
/// the remaining `nl * cells + tails` system goes to the envelope
/// Cholesky.
const COARSE_CELLS_MAX: usize = 16;

/// Hard cap on hierarchy depth.
const MAX_LEVELS: usize = 16;

/// Envelope (profile) Cholesky factorization of the coarsest-level
/// operator.
///
/// Row `i` of `L` is stored only over columns `first[i]..=i`, where
/// `first[i]` is the row's first stored entry in the lower triangle:
/// Cholesky fill never reaches left of it, so every entry outside the
/// envelope is an exact zero of the full factor. The factorization and
/// both triangular solves are the dense left-looking loops with those
/// `0 * x` terms skipped and every other term kept in the same order,
/// so for finite inputs the factor and each solve are bit-identical to
/// the dense algorithm (the test oracle below) at a fraction of its
/// cost: the coarsest operator is banded, plus an arrow of package
/// tail rows.
#[derive(Debug, Clone)]
struct EnvelopeChol {
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
    fn factor(a: &CsrMatrix) -> Self {
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
    fn solve(&self, x: &mut [f64]) {
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

/// Galerkin product `P^T A P` for piecewise-constant `P` given by the
/// aggregate map: sums fine entries per (coarse row, coarse col) pair.
/// For a 0/1 restriction this is identical to rediscretizing the
/// conductance network on the aggregated cells.
fn galerkin(a: &CsrMatrix, agg: &[u32], n_coarse: usize) -> CsrMatrix {
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

/// One level: the fine-side smoother factors, the geometric aggregate
/// map, and the rediscretized coarse operator in stencil form.
#[derive(Debug, Clone)]
struct GmgLevel {
    /// In-plane dimensions of *this* (fine) level.
    nx: usize,
    ny: usize,
    /// `nx * ny`.
    cells: usize,
    /// Structured nodes on this level (`nl * cells`).
    grid_nodes: usize,
    /// Total nodes on this level (structured + tails).
    n: usize,
    /// `1 / D_l` of each cell column's `L D L^T` factor, indexed by
    /// node (`l * cells + c`) — same plane layout as the operator.
    inv_d: Vec<f64>,
    /// Sub-diagonal multipliers `L`: `sub[l * cells + c]` couples layer
    /// `l` to `l + 1` in column `c`; length `(nl - 1) * cells`.
    sub: Vec<f64>,
    /// `1 / diag` of the tail rows (smoothed pointwise).
    tail_inv_diag: Vec<f64>,
    /// `agg[i]` is the coarse node of fine node `i`.
    agg: Vec<u32>,
    /// Rediscretized coarse operator (the next level's matrix),
    /// extracted from its Galerkin CSR at build time.
    coarse: StencilOperator,
}

/// One level's V-cycle vectors.
#[derive(Debug, Clone, Default)]
struct LevelScratch {
    /// Residual workspace (this level's size).
    tmp: Vec<f64>,
    /// Smoother output (this level's size).
    cor: Vec<f64>,
    /// Restricted right-hand side (the next level's size).
    rhs: Vec<f64>,
    /// Coarse-grid solution (the next level's size).
    sol: Vec<f64>,
}

/// Caller-owned V-cycle scratch for [`GmgHierarchy::apply`]: one set of
/// vectors per coarsened level. Sized on first use and re-sized when a
/// hierarchy with other level sizes uses it; buffers that already fit
/// are reused verbatim. The cycle overwrites every vector before it
/// reads it, so which scratch an apply runs in never changes its bits.
#[derive(Debug, Clone, Default)]
pub struct GmgScratch {
    levels: Vec<LevelScratch>,
}

impl GmgScratch {
    /// Sizes one [`LevelScratch`] per level of `h`.
    fn fit(&mut self, h: &GmgHierarchy) -> &mut [LevelScratch] {
        self.levels
            .resize_with(h.levels.len(), LevelScratch::default);
        for (s, lvl) in self.levels.iter_mut().zip(&h.levels) {
            s.tmp.resize(lvl.n, 0.0);
            s.cor.resize(lvl.n, 0.0);
            s.rhs.resize(lvl.coarse.n(), 0.0);
            s.sol.resize(lvl.coarse.n(), 0.0);
        }
        &mut self.levels
    }
}

/// Geometric multigrid hierarchy over the structured stack grid.
#[derive(Debug, Clone)]
pub struct GmgHierarchy {
    /// Number of z-layers, constant across levels.
    nl: usize,
    levels: Vec<GmgLevel>,
    coarse: EnvelopeChol,
}

/// Factors every z-line tridiagonal block of `a` (dims `nx x ny`, `nl`
/// layers) as `L D L^T`, plus inverse diagonals for the tail rows.
fn zline_factors(a: &CsrMatrix, nx: usize, ny: usize, nl: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let cells = nx * ny;
    let grid_nodes = nl * cells;
    let mut inv_d = vec![0.0; grid_nodes];
    let mut sub = vec![0.0; cells * nl.saturating_sub(1)];
    for c in 0..cells {
        let mut prev_d = 1.0;
        let mut prev_b = 0.0;
        for l in 0..nl {
            let i = l * cells + c;
            let (cols, vals) = a.row(i);
            let d = vals[a.diag_pos(i)];
            let dl = if l == 0 {
                d
            } else {
                let m = prev_b / prev_d;
                sub[(l - 1) * cells + c] = m;
                d - m * prev_b
            };
            // SPD tridiagonal blocks of an M-matrix keep D > 0; the
            // clamp only guards degenerate hand-built matrices.
            let dl = dl.max(f64::MIN_POSITIVE);
            inv_d[i] = 1.0 / dl;
            prev_d = dl;
            if l + 1 < nl {
                let below = (i + cells) as u32;
                prev_b = cols
                    .iter()
                    .position(|&cc| cc == below)
                    .map_or(0.0, |p| vals[p]);
            }
        }
    }
    let tail_inv_diag = (grid_nodes..a.n())
        .map(|i| 1.0 / a.row(i).1[a.diag_pos(i)].max(f64::MIN_POSITIVE))
        .collect();
    (inv_d, sub, tail_inv_diag)
}

impl GmgLevel {
    /// `z = M^-1 r` for the block-Jacobi matrix `M` (z-line tridiagonal
    /// blocks + tail diagonals). Plane-by-plane sweeps: forward
    /// substitution down the stack, diagonal scale, back substitution
    /// up — every operation is node-local within its plane, so the
    /// order is fixed and thread-count independent.
    fn block_solve(&self, nl: usize, r: &[f64], z: &mut [f64]) {
        let cells = self.cells;
        z[..cells].copy_from_slice(&r[..cells]);
        for l in 1..nl {
            let base = l * cells;
            for c in 0..cells {
                z[base + c] = r[base + c] - self.sub[base - cells + c] * z[base - cells + c];
            }
        }
        for (zi, di) in z[..self.grid_nodes].iter_mut().zip(&self.inv_d) {
            *zi *= di;
        }
        for l in (0..nl.saturating_sub(1)).rev() {
            let base = l * cells;
            for c in 0..cells {
                z[base + c] -= self.sub[base + c] * z[base + cells + c];
            }
        }
        for (t, di) in self.tail_inv_diag.iter().enumerate() {
            z[self.grid_nodes + t] = r[self.grid_nodes + t] * di;
        }
    }
}

impl GmgHierarchy {
    /// Builds the hierarchy for a structured matrix with `nl` layers of
    /// `nx x ny` cells (plus tail rows, if any).
    ///
    /// Returns `None` on a dimension mismatch (`a` smaller than the
    /// structured block implies the geometry description is wrong), or
    /// when a coarse level is not stencil-shaped.
    #[must_use]
    pub fn build(a: &CsrMatrix, nx: usize, ny: usize, nl: usize) -> Option<Self> {
        if nx == 0 || ny == 0 || nl == 0 {
            return None;
        }
        let grid_nodes = nl.checked_mul(nx.checked_mul(ny)?)?;
        if a.n() < grid_nodes {
            return None;
        }
        let n_tail = a.n() - grid_nodes;

        // Coarsen first: every level's in-plane dimensions, aggregate
        // map and Galerkin CSR. Only setup reads these CSRs. Extracting
        // each stencil inside this loop instead interleaves long-lived
        // planes with the loop's temporaries, which raised peak RSS by
        // ~2 MB over five 32x32 paper systems.
        let mut dims = vec![(nx, ny)];
        let mut aggs: Vec<Vec<u32>> = Vec::new();
        let mut galerkin_a: Vec<CsrMatrix> = Vec::new();
        loop {
            let cur = galerkin_a.last().unwrap_or(a);
            let (lnx, lny) = dims[dims.len() - 1];
            if lnx * lny <= COARSE_CELLS_MAX || aggs.len() >= MAX_LEVELS {
                break;
            }
            let cnx = lnx.div_ceil(2);
            let cny = lny.div_ceil(2);
            if cnx == lnx && cny == lny {
                break;
            }
            let ccells = cnx * cny;
            let cgrid = nl * ccells;
            let mut agg = Vec::with_capacity(cur.n());
            for l in 0..nl {
                for iy in 0..lny {
                    for ix in 0..lnx {
                        agg.push((l * ccells + (iy / 2) * cnx + ix / 2) as u32);
                    }
                }
            }
            for t in 0..n_tail {
                agg.push((cgrid + t) as u32);
            }
            galerkin_a.push(galerkin(cur, &agg, cgrid + n_tail));
            aggs.push(agg);
            dims.push((cnx, cny));
        }
        let coarse = EnvelopeChol::factor(galerkin_a.last().unwrap_or(a));
        // Then the levels: z-line factors of each level's own matrix,
        // and the stencil of the matrix below it.
        let mut levels = Vec::with_capacity(aggs.len());
        for (k, agg) in aggs.into_iter().enumerate() {
            let fine = k.checked_sub(1).map_or(a, |above| &galerkin_a[above]);
            let ((lnx, lny), (cnx, cny)) = (dims[k], dims[k + 1]);
            let (inv_d, sub, tail_inv_diag) = zline_factors(fine, lnx, lny, nl);
            levels.push(GmgLevel {
                nx: lnx,
                ny: lny,
                cells: lnx * lny,
                grid_nodes: nl * lnx * lny,
                n: fine.n(),
                inv_d,
                sub,
                tail_inv_diag,
                agg,
                coarse: StencilOperator::from_csr(&galerkin_a[k], cnx, cny, nl)?,
            });
        }
        Some(GmgHierarchy { nl, levels, coarse })
    }

    /// Applies one symmetric V(1,1) cycle: `z ≈ A^-1 r`. `a` must be
    /// the stencil of the matrix the hierarchy was built from (the
    /// finest level); it runs the finest level's matvecs, and the stored
    /// stencils run the coarse ones. Every per-level vector comes from
    /// the caller's `scratch`, so the hierarchy itself is only read.
    pub fn apply(&self, a: &StencilOperator, r: &[f64], z: &mut [f64], scratch: &mut GmgScratch) {
        let s = scratch.fit(self);
        self.cycle(0, a, r, z, s);
    }

    /// Recursive V-cycle on level `lvl`, whose operator is `a`; `s`
    /// holds the scratch of this level and every coarser one.
    fn cycle(
        &self,
        lvl: usize,
        a: &StencilOperator,
        r: &[f64],
        z: &mut [f64],
        s: &mut [LevelScratch],
    ) {
        let Some((cur, below)) = s.split_first_mut() else {
            z.copy_from_slice(r);
            self.coarse.solve(z);
            return;
        };
        let level = &self.levels[lvl];

        // Pre-smooth from zero: z = omega * M^-1 r.
        level.block_solve(self.nl, r, z);
        for zi in z.iter_mut() {
            *zi *= SMOOTH_OMEGA;
        }

        // Residual, restricted onto the geometric aggregates in fixed
        // fine-node order. `matvec` parallelizes when the level is large
        // enough, bitwise identical to its serial sweep.
        a.matvec(z, &mut cur.tmp);
        cur.rhs.iter_mut().for_each(|v| *v = 0.0);
        for ((&c, ri), ti) in level.agg.iter().zip(r).zip(&cur.tmp) {
            cur.rhs[c as usize] += ri - ti;
        }

        self.cycle(lvl + 1, &level.coarse, &cur.rhs, &mut cur.sol, below);

        // Prolong with over-correction.
        for (zi, &c) in z.iter_mut().zip(&level.agg) {
            *zi += OVER_CORRECTION * cur.sol[c as usize];
        }

        // Post-smooth: z += omega * M^-1 (r - A z).
        a.matvec(z, &mut cur.tmp);
        for (ti, ri) in cur.tmp.iter_mut().zip(r) {
            *ti = ri - *ti;
        }
        level.block_solve(self.nl, &cur.tmp, &mut cur.cor);
        for (zi, ci) in z.iter_mut().zip(&cur.cor) {
            *zi += SMOOTH_OMEGA * ci;
        }
    }

    /// Number of levels including the directly solved coarsest one.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The Galerkin CSR the coarsest level factors, recomputed from
    /// `a` (the matrix the hierarchy was built from) through every
    /// level's aggregate map.
    #[cfg(test)]
    pub(crate) fn coarsest_operator(&self, a: &CsrMatrix) -> CsrMatrix {
        let mut cur = a.clone();
        for lvl in &self.levels {
            cur = galerkin(&cur, &lvl.agg, lvl.coarse.n());
        }
        cur
    }

    /// In-plane dimensions `(nx, ny)` of the finest coarsened level, or
    /// `None` when the whole system went straight to the direct solve.
    #[must_use]
    pub fn fine_dims(&self) -> Option<(usize, usize)> {
        self.levels.first().map(|l| (l.nx, l.ny))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structured stack matrix with strongly anisotropic coupling
    /// (vertical conductance ~100x lateral, like a thin-layer stack)
    /// and an ambient leak on the top layer.
    fn stack_matrix(nx: usize, ny: usize, nl: usize) -> CsrMatrix {
        let cells = nx * ny;
        let n = nl * cells;
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let link = |nbrs: &mut Vec<Vec<(u32, f64)>>, i: usize, j: usize, g: f64| {
            nbrs[i].push((j as u32, g));
            nbrs[j].push((i as u32, g));
        };
        for l in 0..nl {
            // Alternate "thick" and "thin" layers for heterogeneity.
            let gv = if l % 2 == 0 { 120.0 } else { 900.0 };
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * cells + iy * nx + ix;
                    if ix + 1 < nx {
                        link(&mut nbrs, i, i + 1, 1.0 + 0.1 * (l as f64));
                    }
                    if iy + 1 < ny {
                        link(&mut nbrs, i, i + nx, 1.3);
                    }
                    if l + 1 < nl {
                        link(&mut nbrs, i, i + cells, gv);
                    }
                }
            }
        }
        let mut diagonal = vec![0.0; n];
        for (i, row) in nbrs.iter().enumerate() {
            let leak = if i < cells { 2.0 } else { 0.0 };
            let mut s = leak;
            for &(_, g) in row {
                s += g;
            }
            diagonal[i] = s;
        }
        CsrMatrix::from_adjacency(&nbrs, &diagonal)
    }

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
        let h = GmgHierarchy::build(model.csr(), 16, 16, 6).unwrap();
        let coarsest = h.coarsest_operator(model.csr());
        assert!(coarsest.n() > 6 * 16, "coarsest level keeps the tail rows");
        coarsest
    }

    #[test]
    fn dense_cholesky_solves_exactly() {
        for a in [tridiag(12), gmg_coarsest_with_tail_rows()] {
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
    fn galerkin_preserves_symmetry_and_spd_diagonal() {
        // Pairs of neighbouring nodes, plus a trailing singleton.
        let a = tridiag(63);
        let agg: Vec<u32> = (0..63).map(|i| i / 2).collect();
        let c = galerkin(&a, &agg, 32);
        assert_eq!(c.n(), 32);
        for i in 0..32 {
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
    fn small_grid_is_a_single_dense_level() {
        let a = stack_matrix(4, 4, 3);
        let h = GmgHierarchy::build(&a, 4, 4, 3).expect("build");
        assert_eq!(h.num_levels(), 1);
        let b: Vec<f64> = (0..a.n()).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let mut z = vec![0.0; a.n()];
        let s = StencilOperator::from_csr(&a, 4, 4, 3).expect("stencil");
        h.apply(&s, &b, &mut z, &mut GmgScratch::default());
        let mut az = vec![0.0; a.n()];
        a.matvec_serial(&z, &mut az);
        for (got, want) in az.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8 * want.abs().max(1.0));
        }
    }

    #[test]
    fn coarsening_keeps_every_z_layer() {
        let a = stack_matrix(32, 32, 5);
        let h = GmgHierarchy::build(&a, 32, 32, 5).expect("build");
        assert!(h.num_levels() >= 3, "expected real coarsening");
        for lvl in &h.levels {
            assert_eq!(lvl.grid_nodes, 5 * lvl.cells);
            assert_eq!(lvl.coarse.n() % 5, 0, "coarse level lost a layer");
        }
    }

    #[test]
    fn stored_stencils_multiply_bitwise_like_the_galerkin_csr() {
        // 33x20 coarsens through `div_ceil`, so every level past the
        // first has a one-cell-wide edge aggregate column or row.
        for (nx, ny, nl) in [(32, 32, 5), (33, 20, 4)] {
            let a = stack_matrix(nx, ny, nl);
            let h = GmgHierarchy::build(&a, nx, ny, nl).expect("build");
            assert!(h.num_levels() >= 3, "{nx}x{ny}: expected real coarsening");
            let mut cur = a;
            for (k, lvl) in h.levels.iter().enumerate() {
                cur = galerkin(&cur, &lvl.agg, lvl.coarse.n());
                let n = cur.n();
                let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() - 0.2).collect();
                let (mut yc, mut ys) = (vec![0.0; n], vec![1.0; n]);
                cur.matvec_serial(&x, &mut yc);
                lvl.coarse.matvec_serial(&x, &mut ys);
                assert!(
                    yc.iter().zip(&ys).all(|(c, s)| c.to_bits() == s.to_bits()),
                    "{nx}x{ny} level {}: stencil and Galerkin CSR differ",
                    k + 1
                );
            }
        }
    }

    #[test]
    fn zline_solve_inverts_the_block_matrix() {
        let (nx, ny, nl) = (3, 2, 6);
        let a = stack_matrix(nx, ny, nl);
        let (inv_d, sub, tail_inv_diag) = zline_factors(&a, nx, ny, nl);
        let lvl = GmgLevel {
            nx,
            ny,
            cells: nx * ny,
            grid_nodes: nl * nx * ny,
            n: a.n(),
            inv_d,
            sub,
            tail_inv_diag,
            agg: Vec::new(),
            coarse: StencilOperator::from_csr(
                &CsrMatrix::from_triplets(1, &[(0, 0, 1.0)]),
                1,
                1,
                1,
            )
            .expect("1x1x1 is a stencil"),
        };
        // M z = r where M keeps only diagonal + vertical couplings.
        let r: Vec<f64> = (0..a.n()).map(|i| ((i as f64) * 0.4).cos() + 2.0).collect();
        let mut z = vec![0.0; a.n()];
        lvl.block_solve(nl, &r, &mut z);
        let cells = nx * ny;
        for i in 0..a.n() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                let j = j as usize;
                let vertical = j == i || j + cells == i || i + cells == j;
                if vertical {
                    acc += v * z[j];
                }
            }
            assert!(
                (acc - r[i]).abs() < 1e-10 * r[i].abs().max(1.0),
                "row {i}: {acc} vs {}",
                r[i]
            );
        }
    }

    #[test]
    fn v_cycle_contracts_on_an_anisotropic_stack() {
        let (nx, ny, nl) = (24, 24, 7);
        let a = stack_matrix(nx, ny, nl);
        let h = GmgHierarchy::build(&a, nx, ny, nl).expect("build");
        assert!(h.num_levels() > 2);
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.013).sin()).collect();
        let mut b = vec![0.0; n];
        a.matvec_serial(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let norm0: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut z = vec![0.0; n];
        let mut ax = vec![0.0; n];
        let s = StencilOperator::from_csr(&a, nx, ny, nl).expect("stencil");
        let mut scratch = GmgScratch::default();
        for _ in 0..40 {
            h.apply(&s, &r, &mut z, &mut scratch);
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
            norm < 1e-8 * norm0,
            "V-cycle Richardson failed to contract: {norm:.3e} vs {norm0:.3e}"
        );
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let a = stack_matrix(4, 4, 2);
        assert!(GmgHierarchy::build(&a, 8, 8, 2).is_none());
        assert!(GmgHierarchy::build(&a, 4, 0, 2).is_none());
    }
}

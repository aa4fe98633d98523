//! Geometric multigrid preconditioner for the structured stack grid.
//!
//! Where [`crate::amg`] discovers its coarse spaces by pairwise matching
//! on matrix entries, this hierarchy exploits the geometry a
//! [`crate::model::ThermalModel`] matrix is known to have: `nl` layers
//! of `nx x ny` cells plus a handful of irregular package tail nodes.
//!
//! * **Coarsening is in-plane only** (`nx`, `ny` halve per level, each
//!   cell aggregating a 2x2 in-plane patch); the heterogeneous z-stack —
//!   thin D2D interfaces next to thick silicon dies, orders of magnitude
//!   apart in vertical conductance — stays fully resolved on every
//!   level, so no level ever mixes materials across layer boundaries.
//!   Tail nodes are carried through unaggregated. Coarse operators come
//!   from [`crate::amg::galerkin`] with this geometric 0/1 aggregate
//!   map, which for piecewise-constant restriction *is* the
//!   rediscretized conductance network on the coarsened cells (parallel
//!   conductances sum) — one pass over the fine matrix, no
//!   matrix-matrix product and no matching heuristics.
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
//!   around an over-corrected coarse-grid correction, dense Cholesky on
//!   the coarsest level — so `M^-1` is symmetric positive definite and
//!   valid for conjugate gradients, exactly like the AMG cycle it
//!   plugs in beside (see [`crate::solve`]).
//!
//! Compared to AMG on the same matrix the setup does no matching, no
//! triple products beyond one summed pass per level, and the z-line
//! factorization is O(n); apply trades the point-Jacobi sweeps for
//! tridiagonal solves at the same memory traffic. The win criterion
//! (BENCH_thermal.json) is setup+apply beating AMG at 64x64 and up.

use std::sync::Mutex;

use crate::amg::{galerkin, DenseChol};
use crate::csr::CsrMatrix;

/// Damping for the z-line block-Jacobi smoother. Block smoothers
/// tolerate less damping than point Jacobi; 0.9 matches the AMG choice
/// and is safe for the M-matrices the model produces.
const SMOOTH_OMEGA: f64 = 0.9;

/// Scaling applied to the prolonged coarse-grid correction; see
/// [`crate::amg`] — piecewise-constant aggregation under-corrects and a
/// fixed scalar > 1 recovers most of it while preserving SPD.
const OVER_CORRECTION: f64 = 1.2;

/// Stop coarsening once a level has at most this many in-plane cells;
/// the remaining `nl * cells + tails` system goes to dense Cholesky.
const COARSE_CELLS_MAX: usize = 16;

/// Hard cap on hierarchy depth.
const MAX_LEVELS: usize = 16;

/// One level: the fine-side smoother factors, the geometric aggregate
/// map, and the rediscretized coarse operator.
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
    /// Rediscretized coarse operator.
    coarse_a: CsrMatrix,
}

/// Per-apply scratch vectors, one set per level.
#[derive(Debug, Default)]
struct Scratch {
    /// Residual workspace per level (fine-level sized).
    tmp: Vec<Vec<f64>>,
    /// Smoother output per level (fine-level sized).
    cor: Vec<Vec<f64>>,
    /// Restricted right-hand side per level below the finest.
    rhs: Vec<Vec<f64>>,
    /// Coarse solution per level below the finest.
    sol: Vec<Vec<f64>>,
}

/// Geometric multigrid hierarchy over the structured stack grid.
#[derive(Debug)]
pub struct GmgHierarchy {
    /// Number of z-layers, constant across levels.
    nl: usize,
    levels: Vec<GmgLevel>,
    coarse: DenseChol,
    /// Interior-mutable so `apply` can take `&self` like the other
    /// preconditioners; the solver never applies one concurrently with
    /// itself.
    scratch: Mutex<Scratch>,
}

impl Clone for GmgHierarchy {
    fn clone(&self) -> Self {
        GmgHierarchy {
            nl: self.nl,
            levels: self.levels.clone(),
            coarse: self.coarse.clone(),
            scratch: Mutex::new(Scratch::default()),
        }
    }
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
    /// structured block implies the geometry description is wrong).
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

        let mut levels: Vec<GmgLevel> = Vec::new();
        let (mut lnx, mut lny) = (nx, ny);
        loop {
            let cur = levels.last().map_or(a, |l| &l.coarse_a);
            let cells = lnx * lny;
            if cells <= COARSE_CELLS_MAX || levels.len() >= MAX_LEVELS {
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
            let coarse_a = galerkin(cur, &agg, cgrid + n_tail);
            let (inv_d, sub, tail_inv_diag) = zline_factors(cur, lnx, lny, nl);
            levels.push(GmgLevel {
                nx: lnx,
                ny: lny,
                cells,
                grid_nodes: nl * cells,
                n: cur.n(),
                inv_d,
                sub,
                tail_inv_diag,
                agg,
                coarse_a,
            });
            lnx = cnx;
            lny = cny;
        }
        let coarse = DenseChol::factor(levels.last().map_or(a, |l| &l.coarse_a));
        Some(GmgHierarchy {
            nl,
            levels,
            coarse,
            scratch: Mutex::new(Scratch::default()),
        })
    }

    /// Applies one symmetric V(1,1) cycle: `z ≈ A^-1 r`. `a` must be
    /// the matrix the hierarchy was built from (the finest operator).
    ///
    /// # Panics
    ///
    /// Panics if the internal scratch mutex is poisoned (a prior apply
    /// panicked mid-cycle).
    pub fn apply(&self, a: &CsrMatrix, r: &[f64], z: &mut [f64]) {
        let mut scratch = self.scratch.lock().expect("gmg scratch poisoned");
        let s = &mut *scratch;
        if s.tmp.len() != self.levels.len() + 1 {
            s.tmp.clear();
            s.cor.clear();
            s.rhs.clear();
            s.sol.clear();
            let mut n = a.n();
            for lvl in &self.levels {
                s.tmp.push(vec![0.0; n]);
                s.cor.push(vec![0.0; n]);
                n = lvl.coarse_a.n();
                s.rhs.push(vec![0.0; n]);
                s.sol.push(vec![0.0; n]);
            }
            s.tmp.push(vec![0.0; n]);
            s.cor.push(vec![0.0; n]);
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
        let n = level.n;

        let (mut tmp, mut cor, mut rhs, mut sol) = (
            std::mem::take(&mut s.tmp[lvl]),
            std::mem::take(&mut s.cor[lvl]),
            std::mem::take(&mut s.rhs[lvl]),
            std::mem::take(&mut s.sol[lvl]),
        );

        // Pre-smooth from zero: z = omega * M^-1 r.
        level.block_solve(self.nl, r, z);
        for zi in z.iter_mut() {
            *zi *= SMOOTH_OMEGA;
        }

        // Residual, restricted onto the geometric aggregates. `matvec`
        // parallelizes on the finest level when large enough; it is
        // bitwise identical to the serial sweep, and the restriction
        // itself runs in fixed fine-node order.
        a.matvec(z, &mut tmp);
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            rhs[level.agg[i] as usize] += r[i] - tmp[i];
        }

        self.cycle(lvl + 1, &level.coarse_a, &rhs, &mut sol, s);

        // Prolong with over-correction.
        for i in 0..n {
            z[i] += OVER_CORRECTION * sol[level.agg[i] as usize];
        }

        // Post-smooth: z += omega * M^-1 (r - A z).
        a.matvec(z, &mut tmp);
        for i in 0..n {
            tmp[i] = r[i] - tmp[i];
        }
        level.block_solve(self.nl, &tmp, &mut cor);
        for i in 0..n {
            z[i] += SMOOTH_OMEGA * cor[i];
        }

        s.tmp[lvl] = tmp;
        s.cor[lvl] = cor;
        s.rhs[lvl] = rhs;
        s.sol[lvl] = sol;
    }

    /// Number of levels including the dense-solved coarsest one.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// In-plane dimensions `(nx, ny)` of the finest coarsened level, or
    /// `None` when the whole system went straight to the dense solve.
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

    #[test]
    fn small_grid_is_a_single_dense_level() {
        let a = stack_matrix(4, 4, 3);
        let h = GmgHierarchy::build(&a, 4, 4, 3).expect("build");
        assert_eq!(h.num_levels(), 1);
        let b: Vec<f64> = (0..a.n()).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let mut z = vec![0.0; a.n()];
        h.apply(&a, &b, &mut z);
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
            assert_eq!(lvl.coarse_a.n() % 5, 0, "coarse level lost a layer");
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
            coarse_a: CsrMatrix::from_triplets(1, &[(0, 0, 1.0)]),
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
        for _ in 0..40 {
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

//! Matrix-free structured-grid form of the conductance matrix.
//!
//! The grid portion of a [`crate::model::ThermalModel`] matrix is a pure
//! 7-point stencil: node `i = l*nx*ny + iy*nx + ix` couples only to its
//! x/y neighbors in the same layer and to the cells directly above and
//! below. [`StencilOperator`] stores those couplings as seven per-node
//! *coefficient planes* (`up`, `south`, `west`, `diag`, `east`, `north`,
//! `down`), so the matvec inner loop is an x-line sweep over contiguous
//! arrays with fixed strides — no CSR column-index loads.
//!
//! # The sweep
//!
//! Each x-line decides its `up/south/north/down` neighbor flags once.
//! Its west and east edge cells, and any span missing a neighbor or
//! carrying rim entries, go through the generic span, which tests the
//! flags per cell. Every other span — the bulk of the grid — runs the
//! interior kernel: seven coefficient planes and seven shifted views of
//! `x`, all plain sub-slices of the span's length, folded by one
//! expression per cell with no branch, no bounds check and no rim walk,
//! so LLVM vectorizes it across cells. Rust never contracts a multiply
//! and an add into an FMA, so both paths round every product and every
//! sum the same way.
//!
//! The handful of rows that are *not* structured — the package rim
//! couplings from edge cells of the spreader/sink layers to the 12
//! peripheral tail nodes, and the tail rows themselves — are kept in a
//! small CSR-like side structure walked after the stencil terms.
//!
//! # Bit-identity with the CSR matvec
//!
//! Within a row, CSR stores columns ascending and folds
//! `acc += a_ij * x_j` left to right from `acc = 0.0`
//! ([`CsrMatrix::matvec_serial`]). For a structured node the ascending
//! column order is exactly `up (i-nx*ny)`, `south (i-nx)`, `west (i-1)`,
//! `diag (i)`, `east (i+1)`, `north (i+nx)`, `down (i+nx*ny)`, followed
//! by any rim columns (all `>=` the grid-node count). The stencil sweep
//! folds its terms in that same order, *skipping* absent neighbors
//! entirely (never multiplying by a stored zero, which could flip the
//! sign of a zero or round differently), so `y` is bitwise identical to
//! the CSR result — the solver can switch backends without perturbing a
//! single ULP. [`StencilOperator::from_csr`] verifies the structure
//! entry-by-entry during extraction and refuses (returns `None`) on any
//! matrix that is not exactly this shape.
//!
//! Parallel sweeps chunk rows on the partition the solver's reductions
//! use ([`crate::csr`]'s `ROW_CHUNK` / [`PAR_MIN_ROWS`]). A chunk may
//! start or end mid-line; each row's fold is the same either way, so
//! serial and parallel runs remain bitwise identical across thread
//! counts.
//!
//! Every solve multiplies through a [`StencilOperator`]; the CSR is
//! only the build-time input it is extracted from. A general matrix
//! fits the `(1, 1, 1)` geometry — row 0 is its diagonal plus rim, and
//! every other row is a tail row folded exactly like the CSR row — so
//! tests solve hand-built matrices through the same operator.

use rayon::{current_num_threads, scope};

use crate::csr::{CsrMatrix, PAR_MIN_ROWS, ROW_CHUNK};

/// Neighbor-presence flags that are constant along one x-line.
#[derive(Clone, Copy)]
struct LineFlags {
    up: bool,
    south: bool,
    north: bool,
    down: bool,
}

/// 7-point coefficient-plane operator plus rim/tail side structure.
///
/// Built from (and bit-identical to) a structured [`CsrMatrix`] via
/// [`StencilOperator::from_csr`]; see the module docs for the layout.
#[derive(Debug, Clone)]
pub struct StencilOperator {
    nx: usize,
    ny: usize,
    nl: usize,
    /// `nx * ny`.
    cells: usize,
    /// Total matrix dimension (grid nodes + tail nodes).
    n: usize,
    /// Coefficient planes, each `nl * cells` long, indexed by node.
    /// Off-diagonals hold the actual matrix coefficients (`-G`);
    /// entries for absent neighbors are never read.
    up: Vec<f64>,
    south: Vec<f64>,
    west: Vec<f64>,
    diag: Vec<f64>,
    east: Vec<f64>,
    north: Vec<f64>,
    down: Vec<f64>,
    /// Rim couplings grid-node -> tail-node, CSR-style: node `i`'s rim
    /// entries are `rim_cols/rim_vals[rim_ptr[i]..rim_ptr[i+1]]`,
    /// columns ascending. Empty for all but package-layer edge cells.
    rim_ptr: Vec<u32>,
    rim_cols: Vec<u32>,
    rim_vals: Vec<f64>,
    /// Tail rows (the 12 package periphery nodes), verbatim CSR copies.
    tail_ptr: Vec<u32>,
    tail_cols: Vec<u32>,
    tail_vals: Vec<f64>,
    /// Position (into `tail_vals`) of each tail row's diagonal entry.
    tail_diag: Vec<u32>,
}

impl StencilOperator {
    /// Extracts the coefficient planes from a structured CSR matrix with
    /// `nl` grid layers of `nx x ny` cells (plus optional tail rows).
    ///
    /// Returns `None` if the matrix does not have exactly the expected
    /// 7-point structure: any missing geometric neighbor, any
    /// off-stencil coupling between grid nodes, or a dimension mismatch.
    #[must_use]
    pub fn from_csr(a: &CsrMatrix, nx: usize, ny: usize, nl: usize) -> Option<Self> {
        if nx == 0 || ny == 0 || nl == 0 {
            return None;
        }
        let cells = nx.checked_mul(ny)?;
        let grid_nodes = nl.checked_mul(cells)?;
        if a.n() < grid_nodes {
            return None;
        }
        let n = a.n();

        let mut up = vec![0.0; grid_nodes];
        let mut south = vec![0.0; grid_nodes];
        let mut west = vec![0.0; grid_nodes];
        let mut diag = vec![0.0; grid_nodes];
        let mut east = vec![0.0; grid_nodes];
        let mut north = vec![0.0; grid_nodes];
        let mut down = vec![0.0; grid_nodes];
        let mut rim_ptr = Vec::with_capacity(grid_nodes + 1);
        rim_ptr.push(0u32);
        let mut rim_cols: Vec<u32> = Vec::new();
        let mut rim_vals: Vec<f64> = Vec::new();

        for i in 0..grid_nodes {
            let l = i / cells;
            let cell = i % cells;
            let iy = cell / nx;
            let ix = cell % nx;
            let (cols, vals) = a.row(i);
            let mut k = 0usize;
            // Consume the next CSR entry, which must sit at column
            // `col`; anything else means the row is not stencil-shaped.
            macro_rules! take {
                ($col:expr) => {{
                    if k >= cols.len() || cols[k] as usize != $col {
                        return None;
                    }
                    let v = vals[k];
                    k += 1;
                    v
                }};
            }
            if l > 0 {
                up[i] = take!(i - cells);
            }
            if iy > 0 {
                south[i] = take!(i - nx);
            }
            if ix > 0 {
                west[i] = take!(i - 1);
            }
            diag[i] = take!(i);
            if ix + 1 < nx {
                east[i] = take!(i + 1);
            }
            if iy + 1 < ny {
                north[i] = take!(i + nx);
            }
            if l + 1 < nl {
                down[i] = take!(i + cells);
            }
            // Whatever remains must couple to tail nodes (columns past
            // the structured block, already ascending).
            for e in k..cols.len() {
                if (cols[e] as usize) < grid_nodes {
                    return None;
                }
                rim_cols.push(cols[e]);
                rim_vals.push(vals[e]);
            }
            rim_ptr.push(u32::try_from(rim_cols.len()).ok()?);
        }

        let n_tail = n - grid_nodes;
        let mut tail_ptr = Vec::with_capacity(n_tail + 1);
        tail_ptr.push(0u32);
        let mut tail_cols: Vec<u32> = Vec::new();
        let mut tail_vals: Vec<f64> = Vec::new();
        let mut tail_diag = Vec::with_capacity(n_tail);
        for t in 0..n_tail {
            let i = grid_nodes + t;
            let (cols, vals) = a.row(i);
            tail_diag.push(u32::try_from(tail_vals.len() + a.diag_pos(i)).ok()?);
            tail_cols.extend_from_slice(cols);
            tail_vals.extend_from_slice(vals);
            tail_ptr.push(u32::try_from(tail_vals.len()).ok()?);
        }

        Some(StencilOperator {
            nx,
            ny,
            nl,
            cells,
            n,
            up,
            south,
            west,
            diag,
            east,
            north,
            down,
            rim_ptr,
            rim_cols,
            rim_vals,
            tail_ptr,
            tail_cols,
            tail_vals,
            tail_diag,
        })
    }

    /// Matrix dimension (grid nodes + tail nodes).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cells along x.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along y.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of structured grid layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.nl
    }

    /// Number of structured nodes (`nl * nx * ny`).
    #[must_use]
    pub fn grid_nodes(&self) -> usize {
        self.nl * self.cells
    }

    /// The diagonal coefficients in row order: the `diag` plane, then
    /// each tail row's diagonal entry. Bitwise [`CsrMatrix::diagonal`]
    /// of the matrix the stencil was extracted from.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let tail = self.tail_diag.iter().map(|&k| self.tail_vals[k as usize]);
        self.diag.iter().copied().chain(tail).collect()
    }

    /// A clone with `patch[i]` added to each diagonal coefficient — the
    /// backward-Euler operator `A + C/dt`, mirroring
    /// [`CsrMatrix::with_diagonal_added`].
    ///
    /// # Panics
    ///
    /// Panics if `patch` has the wrong length.
    #[must_use]
    pub fn with_diagonal_added(&self, patch: &[f64]) -> Self {
        assert_eq!(patch.len(), self.n, "diagonal patch length mismatch");
        let mut out = self.clone();
        let grid_nodes = self.grid_nodes();
        for (d, p) in out.diag.iter_mut().zip(&patch[..grid_nodes]) {
            *d += p;
        }
        for (t, &pos) in self.tail_diag.iter().enumerate() {
            out.tail_vals[pos as usize] += patch[grid_nodes + t];
        }
        out
    }

    /// Folds one span of cells on a single x-line, all sharing the same
    /// neighbor-presence flags. Terms fold in ascending-column order —
    /// exactly the CSR row order — so the result is bit-identical to
    /// [`CsrMatrix::matvec_serial`]. The rim walk runs only when some
    /// cell of the span has rim entries.
    #[inline]
    fn sweep_span(
        &self,
        i0: usize,
        west: bool,
        east: bool,
        fl: LineFlags,
        x: &[f64],
        y: &mut [f64],
    ) {
        let cells = self.cells;
        let nx = self.nx;
        let rim = self.rim_ptr[i0] != self.rim_ptr[i0 + y.len()];
        for (k, yi) in y.iter_mut().enumerate() {
            let i = i0 + k;
            let mut acc = 0.0;
            if fl.up {
                acc += self.up[i] * x[i - cells];
            }
            if fl.south {
                acc += self.south[i] * x[i - nx];
            }
            if west {
                acc += self.west[i] * x[i - 1];
            }
            acc += self.diag[i] * x[i];
            if east {
                acc += self.east[i] * x[i + 1];
            }
            if fl.north {
                acc += self.north[i] * x[i + nx];
            }
            if fl.down {
                acc += self.down[i] * x[i + cells];
            }
            if rim {
                let lo = self.rim_ptr[i] as usize;
                let hi = self.rim_ptr[i + 1] as usize;
                for e in lo..hi {
                    acc += self.rim_vals[e] * x[self.rim_cols[e] as usize];
                }
            }
            *yi = acc;
        }
    }

    /// The interior kernel: a span with all six neighbors present and no
    /// rim entries. Every operand is a plain sub-slice of the span's
    /// length, so the loop carries no branch and no bounds check and
    /// LLVM vectorizes it across cells. Each cell folds the same seven
    /// terms in the same order as [`StencilOperator::sweep_span`],
    /// starting from `0.0` (`0.0 + t` is not `t` when `t` is `-0.0`).
    #[inline]
    fn sweep_interior(&self, i0: usize, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let (cells, nx) = (self.cells, self.nx);
        fn at(p: &[f64], start: usize, n: usize) -> &[f64] {
            &p[start..start + n]
        }
        let (up, south, west) = (
            at(&self.up, i0, n),
            at(&self.south, i0, n),
            at(&self.west, i0, n),
        );
        let (diag, east) = (at(&self.diag, i0, n), at(&self.east, i0, n));
        let (north, down) = (at(&self.north, i0, n), at(&self.down, i0, n));
        let (xu, xs, xw) = (at(x, i0 - cells, n), at(x, i0 - nx, n), at(x, i0 - 1, n));
        let (xc, xe) = (at(x, i0, n), at(x, i0 + 1, n));
        let (xn, xd) = (at(x, i0 + nx, n), at(x, i0 + cells, n));
        for (k, yk) in y.iter_mut().enumerate() {
            *yk = 0.0
                + up[k] * xu[k]
                + south[k] * xs[k]
                + west[k] * xw[k]
                + diag[k] * xc[k]
                + east[k] * xe[k]
                + north[k] * xn[k]
                + down[k] * xd[k];
        }
    }

    /// `y = (A x)[i..i + y.len()]` for cells `ix..ix + y.len()` of one
    /// x-line: the west and east boundary cells go through the generic
    /// span, the interior through [`StencilOperator::sweep_interior`]
    /// when the line has all four off-line neighbors and the interior
    /// span has no rim entries.
    fn sweep_line(&self, i: usize, ix: usize, fl: LineFlags, x: &[f64], y: &mut [f64]) {
        let nx = self.nx;
        let len = y.len();
        if nx == 1 {
            self.sweep_span(i, false, false, fl, x, y);
            return;
        }
        if ix == 0 {
            self.sweep_span(i, false, true, fl, x, &mut y[..1]);
        }
        let int_lo = ix.max(1) - ix;
        let int_hi = (ix + len).min(nx - 1) - ix;
        if int_hi > int_lo {
            let (i0, span) = (i + int_lo, &mut y[int_lo..int_hi]);
            let full = fl.up && fl.south && fl.north && fl.down;
            if full && self.rim_ptr[i0] == self.rim_ptr[i0 + span.len()] {
                self.sweep_interior(i0, x, span);
            } else {
                self.sweep_span(i0, true, true, fl, x, span);
            }
        }
        if ix + len == nx {
            self.sweep_span(i + len - 1, true, false, fl, x, &mut y[len - 1..]);
        }
    }

    /// `y[rows] = (A x)[rows]` for a contiguous range of *structured*
    /// rows starting at `lo`, swept x-line by x-line. Only the first
    /// line's position is divided out; the loop then steps `(l, iy)`
    /// line by line. A range may start or end mid-line (a parallel
    /// chunk edge): its first and last lines are partial segments.
    fn stencil_rows(&self, lo: usize, x: &[f64], y: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        let hi = lo + y.len();
        let line = lo / nx;
        let (mut l, mut iy, mut ix) = (line / ny, line % ny, lo % nx);
        let mut i = lo;
        while i < hi {
            let len = (nx - ix).min(hi - i);
            let fl = LineFlags {
                up: l > 0,
                south: iy > 0,
                north: iy + 1 < ny,
                down: l + 1 < self.nl,
            };
            self.sweep_line(i, ix, fl, x, &mut y[i - lo..i - lo + len]);
            i += len;
            ix = 0;
            iy += 1;
            if iy == ny {
                iy = 0;
                l += 1;
            }
        }
    }

    /// `y[rows] = (A x)[rows]` for tail rows `t0..t0 + y.len()`
    /// (indices relative to the first tail row).
    fn tail_rows(&self, t0: usize, x: &[f64], y: &mut [f64]) {
        for (dt, yi) in y.iter_mut().enumerate() {
            let t = t0 + dt;
            let lo = self.tail_ptr[t] as usize;
            let hi = self.tail_ptr[t + 1] as usize;
            let mut acc = 0.0;
            for e in lo..hi {
                acc += self.tail_vals[e] * x[self.tail_cols[e] as usize];
            }
            *yi = acc;
        }
    }

    /// `y[rows] = (A x)[rows]` for any contiguous row range, splitting
    /// at the structured/tail boundary.
    fn matvec_range(&self, lo: usize, x: &[f64], y: &mut [f64]) {
        let grid_nodes = self.grid_nodes();
        let hi = lo + y.len();
        if lo < grid_nodes {
            let split = hi.min(grid_nodes) - lo;
            let (grid_part, tail_part) = y.split_at_mut(split);
            self.stencil_rows(lo, x, grid_part);
            if hi > grid_nodes {
                self.tail_rows(0, x, tail_part);
            }
        } else {
            self.tail_rows(lo - grid_nodes, x, y);
        }
    }

    /// `y = A x`, single-threaded.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slice lengths.
    pub fn matvec_serial(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        self.matvec_range(0, x, y);
    }

    /// `y = A x`, row-chunked across the rayon pool on the same
    /// `ROW_CHUNK` partition the solver's reductions use; bitwise
    /// identical to [`StencilOperator::matvec_serial`].
    pub fn matvec_parallel(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        scope(|s| {
            for (k, chunk) in y.chunks_mut(ROW_CHUNK).enumerate() {
                s.spawn(move |_| {
                    self.matvec_range(k * ROW_CHUNK, x, chunk);
                });
            }
        });
    }

    /// `y = A x`, picking the parallel path when the operator has at
    /// least [`PAR_MIN_ROWS`] rows and the pool more than one thread.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        if self.n >= PAR_MIN_ROWS && current_num_threads() > 1 {
            self.matvec_parallel(x, y);
        } else {
            self.matvec_serial(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a structured 7-point CSR matrix over `nl` layers of
    /// `nx x ny` cells with `n_tail` extra rim nodes: lateral
    /// conductance varies per edge, verticals per cell, and edge cells
    /// of the top layer couple to the tail nodes.
    fn structured(nx: usize, ny: usize, nl: usize, n_tail: usize) -> CsrMatrix {
        let cells = nx * ny;
        let n = nl * cells + n_tail;
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut g = 0.37;
        let mut next_g = || {
            g = (g * 1.618 + 0.21) % 2.0 + 0.05;
            g
        };
        let link = |nbrs: &mut Vec<Vec<(u32, f64)>>, i: usize, j: usize, g: f64| {
            nbrs[i].push((j as u32, g));
            nbrs[j].push((i as u32, g));
        };
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * cells + iy * nx + ix;
                    if ix + 1 < nx {
                        let w = next_g();
                        link(&mut nbrs, i, i + 1, w);
                    }
                    if iy + 1 < ny {
                        let w = next_g();
                        link(&mut nbrs, i, i + nx, w);
                    }
                    if l + 1 < nl {
                        let w = next_g();
                        link(&mut nbrs, i, i + cells, w);
                    }
                }
            }
        }
        // Rim: edge cells of the top layer couple to tail node
        // `(ix + iy) % n_tail`; tail nodes form a ring.
        if n_tail > 0 {
            for iy in 0..ny {
                for ix in 0..nx {
                    if ix != 0 && iy != 0 && ix + 1 != nx && iy + 1 != ny {
                        continue;
                    }
                    let i = iy * nx + ix;
                    let t = nl * cells + (ix + iy) % n_tail;
                    let w = next_g();
                    link(&mut nbrs, i, t, w);
                }
            }
            for t in 0..n_tail.saturating_sub(1) {
                let w = next_g();
                link(&mut nbrs, nl * cells + t, nl * cells + t + 1, w);
            }
        }
        let mut diagonal = vec![0.01; n];
        for (i, row) in nbrs.iter().enumerate() {
            let mut s = 0.01;
            for &(_, g) in row {
                s += g;
            }
            diagonal[i] = s;
        }
        CsrMatrix::from_adjacency(&nbrs, &diagonal)
    }

    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.713).sin() + 1.5).collect()
    }

    #[test]
    fn extraction_round_trips_bitwise() {
        for &(nx, ny, nl, tail) in &[(5, 4, 3, 12), (1, 6, 2, 4), (7, 1, 2, 0), (1, 1, 4, 3)] {
            let a = structured(nx, ny, nl, tail);
            let s = StencilOperator::from_csr(&a, nx, ny, nl).expect("structured");
            assert_eq!(s.n(), a.n());
            let x = probe(a.n());
            let mut yc = vec![0.0; a.n()];
            let mut ys = vec![1.0; a.n()];
            a.matvec_serial(&x, &mut yc);
            s.matvec_serial(&x, &mut ys);
            for (i, (c, st)) in yc.iter().zip(&ys).enumerate() {
                assert_eq!(
                    c.to_bits(),
                    st.to_bits(),
                    "({nx}x{ny}x{nl}+{tail}) row {i}: {c} vs {st}"
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bitwise_serial() {
        // Enough rows to span several ROW_CHUNK boundaries. With nx = 64
        // every chunk starts on a line; with nx = 45 chunks start and
        // end mid-line, and at 45x92 the first chunk edge falls inside
        // the last line of the rim-carrying top layer.
        for (nx, ny, nl, tail) in [(64, 33, 5, 12), (45, 37, 5, 12), (45, 92, 2, 12)] {
            let a = structured(nx, ny, nl, tail);
            let s = StencilOperator::from_csr(&a, nx, ny, nl).expect("structured");
            assert!(s.n() > 2 * ROW_CHUNK);
            let x = probe(s.n());
            let mut ys = vec![0.0; s.n()];
            let mut yp = vec![1.0; s.n()];
            let mut yc = vec![2.0; s.n()];
            s.matvec_serial(&x, &mut ys);
            s.matvec_parallel(&x, &mut yp);
            a.matvec_serial(&x, &mut yc);
            assert!(ys.iter().zip(&yp).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(ys.iter().zip(&yc).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // The 45x92 chunk edge really is mid-line in a rim line.
        let s =
            StencilOperator::from_csr(&structured(45, 92, 2, 12), 45, 92, 2).expect("structured");
        assert_ne!(ROW_CHUNK % 45, 0);
        assert!(s.rim_ptr[ROW_CHUNK] != s.rim_ptr[ROW_CHUNK + 1]);
    }

    #[test]
    fn diagonal_patch_matches_csr_patch_bitwise() {
        let (nx, ny, nl, tail) = (6, 5, 3, 12);
        let a = structured(nx, ny, nl, tail);
        let s = StencilOperator::from_csr(&a, nx, ny, nl).expect("structured");
        let patch: Vec<f64> = (0..a.n()).map(|i| 0.3 + (i as f64) * 0.017).collect();
        let ap = a.with_diagonal_added(&patch);
        let sp = s.with_diagonal_added(&patch);
        // The Jacobi retry reads this diagonal, tail rows included.
        for (csr, st) in [(&a, &s), (&ap, &sp)] {
            let (dc, ds) = (csr.diagonal(), st.diagonal());
            assert_eq!(ds.len(), a.n());
            assert!(dc.iter().zip(&ds).all(|(c, d)| c.to_bits() == d.to_bits()));
        }
        let x = probe(a.n());
        let mut yc = vec![0.0; a.n()];
        let mut ys = vec![0.0; a.n()];
        ap.matvec_serial(&x, &mut yc);
        sp.matvec_serial(&x, &mut ys);
        assert!(yc.iter().zip(&ys).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn non_structured_matrix_is_rejected() {
        // A 1D chain is not a 2x2xN stencil.
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 8];
        for i in 0..7usize {
            nbrs[i].push((i as u32 + 1, 1.0));
            nbrs[i + 1].push((i as u32, 1.0));
        }
        let a = CsrMatrix::from_adjacency(&nbrs, &[2.1; 8]);
        assert!(StencilOperator::from_csr(&a, 2, 2, 2).is_none());
        // Dimension mismatch.
        let b = structured(3, 3, 2, 0);
        assert!(StencilOperator::from_csr(&b, 3, 3, 3).is_none());
        // Off-stencil diagonal coupling between grid nodes.
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 9];
        for (i, j) in [(0usize, 1usize), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)] {
            nbrs[i].push((j as u32, 1.0));
            nbrs[j].push((i as u32, 1.0));
        }
        for (i, j) in [(0usize, 3usize), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)] {
            nbrs[i].push((j as u32, 1.0));
            nbrs[j].push((i as u32, 1.0));
        }
        nbrs[0].push((4, 0.5)); // diagonal edge breaks the stencil
        nbrs[4].push((0, 0.5));
        let c = CsrMatrix::from_adjacency(&nbrs, &[5.0; 9]);
        assert!(StencilOperator::from_csr(&c, 3, 3, 1).is_none());
    }
}

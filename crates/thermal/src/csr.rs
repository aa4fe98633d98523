//! Flat compressed-sparse-row (CSR) storage for the RC conductance
//! matrix: the build-time form that stencil extraction and
//! preconditioner setup read.
//!
//! [`ThermalModel::build`](crate::model::ThermalModel::build) assembles
//! its node graph as a local adjacency list (natural for edge insertion),
//! then lowers it once into a [`CsrMatrix`]: three flat arrays
//! (`row_ptr`, `col_idx`, `values`). Columns within a row are sorted
//! ascending and the diagonal entry's position is cached per row
//! (`diag_idx`), which gives the stencil extraction its split point for
//! free and makes the backward-Euler diagonal patch (`A + C/dt`) an O(n)
//! update of an existing clone rather than a re-assembly. No solve
//! multiplies by it: every CG matvec runs on the
//! [`StencilOperator`](crate::stencil::StencilOperator) extracted from
//! it, and [`CsrMatrix::matvec_serial`] stays as the bitwise reference
//! the stencil sweeps are tested against.
//!
//! Sign convention: entries are the actual matrix coefficients, i.e. the
//! off-diagonals hold `-G_ij` and the diagonal holds
//! `sum_j G_ij + G_ambient,i` (plus `C_i/dt` after a transient patch), so
//! `matvec_serial` is a plain `y = A x`.

/// Minimum matrix dimension before the parallel stencil sweep engages;
/// below this, thread handoff costs more than the row sweep saves.
pub const PAR_MIN_ROWS: usize = 16_384;

/// Rows per parallel work chunk of the stencil sweep. Also the boundary
/// the deterministic reductions in [`crate::solve`] use, so serial and
/// parallel runs partition work identically.
pub(crate) const ROW_CHUNK: usize = 4096;

/// Symmetric sparse matrix in CSR layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries; length `n+1`.
    row_ptr: Vec<u32>,
    /// Column of each entry, ascending within a row.
    col_idx: Vec<u32>,
    /// Coefficient of each entry.
    values: Vec<f64>,
    /// Position (into `values`) of each row's diagonal entry.
    diag_idx: Vec<u32>,
}

impl CsrMatrix {
    /// Lowers an adjacency list plus explicit diagonal into CSR form.
    ///
    /// `neighbors[i]` holds `(j, g)` pairs with the *conductance* `g > 0`
    /// of edge `i <-> j` (both endpoints listed, as the model stores
    /// them); the stored off-diagonal coefficient is `-g`. `diagonal[i]`
    /// is stored as-is.
    ///
    /// # Panics
    ///
    /// Panics if an adjacency row references a node out of range or
    /// contains a duplicate/self edge (debug builds).
    #[must_use]
    pub fn from_adjacency(neighbors: &[Vec<(u32, f64)>], diagonal: &[f64]) -> Self {
        let n = neighbors.len();
        assert_eq!(diagonal.len(), n, "diagonal length mismatch");
        let nnz: usize = neighbors.iter().map(|r| r.len() + 1).sum();
        assert!(nnz <= u32::MAX as usize, "matrix too large for u32 indices");

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut diag_idx = Vec::with_capacity(n);

        let mut row: Vec<(u32, f64)> = Vec::new();
        row_ptr.push(0u32);
        for (i, nbrs) in neighbors.iter().enumerate() {
            row.clear();
            row.extend(nbrs.iter().map(|&(j, g)| (j, -g)));
            row.push((i as u32, diagonal[i]));
            row.sort_unstable_by_key(|&(j, _)| j);
            debug_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "duplicate or self edge in row {i}"
            );
            for &(j, v) in &row {
                debug_assert!((j as usize) < n, "column {j} out of range in row {i}");
                if j as usize == i {
                    diag_idx.push(col_idx.len() as u32);
                }
                col_idx.push(j);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        debug_assert_eq!(diag_idx.len(), n);

        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
            diag_idx,
        }
    }

    /// Builds an `n x n` matrix from `(row, col, value)` triplets (each
    /// coefficient given once, exactly as stored). Rows are sorted
    /// internally. Intended for small hand-written systems in tests.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a row lacks a diagonal
    /// entry.
    #[must_use]
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(i, j, v) in triplets {
            assert!(i < n && j < n, "triplet ({i},{j}) out of range");
            rows[i].push((j as u32, v));
        }
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut diag_idx = Vec::new();
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_unstable_by_key(|&(j, _)| j);
            let mut has_diag = false;
            for &(j, v) in row.iter() {
                if j as usize == i {
                    diag_idx.push(col_idx.len() as u32);
                    has_diag = true;
                }
                col_idx.push(j);
                values.push(v);
            }
            assert!(has_diag, "row {i} has no diagonal entry");
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
            diag_idx,
        }
    }

    /// Builds an `n x n` matrix from `(row, col, value)` triplets,
    /// **summing** duplicate positions — the accumulation step of a
    /// Galerkin triple product `P^T A P` with piecewise-constant `P`
    /// (see [`crate::gmg`]). Every row must end up with a diagonal
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a row lacks a diagonal
    /// entry.
    #[must_use]
    pub fn from_triplets_summed(n: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(i, j, v) in triplets {
            assert!((i as usize) < n && (j as usize) < n, "triplet out of range");
            rows[i as usize].push((j, v));
        }
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut diag_idx = Vec::new();
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_unstable_by_key(|&(j, _)| j);
            let mut has_diag = false;
            let mut k = 0;
            while k < row.len() {
                let (j, mut v) = row[k];
                k += 1;
                while k < row.len() && row[k].0 == j {
                    v += row[k].1;
                    k += 1;
                }
                if j as usize == i {
                    diag_idx.push(col_idx.len() as u32);
                    has_diag = true;
                }
                col_idx.push(j);
                values.push(v);
            }
            assert!(has_diag, "row {i} has no diagonal entry");
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
            diag_idx,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The diagonal coefficients, in row order.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        self.diag_idx
            .iter()
            .map(|&k| self.values[k as usize])
            .collect()
    }

    /// Entries of row `i` as `(columns, values)` slices.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Index (within row `i`'s slices) of the diagonal entry.
    #[inline]
    #[must_use]
    pub fn diag_pos(&self, i: usize) -> usize {
        self.diag_idx[i] as usize - self.row_ptr[i] as usize
    }

    /// A clone with `patch[i]` added to each diagonal entry — the
    /// backward-Euler operator `A + C/dt` when `patch = C/dt`. The
    /// sparsity arrays are shared clones; only `values` differs.
    ///
    /// # Panics
    ///
    /// Panics if `patch` has the wrong length.
    #[must_use]
    pub fn with_diagonal_added(&self, patch: &[f64]) -> Self {
        assert_eq!(patch.len(), self.n, "diagonal patch length mismatch");
        let mut out = self.clone();
        for (i, &k) in self.diag_idx.iter().enumerate() {
            out.values[k as usize] += patch[i];
        }
        out
    }

    /// `y = A x`, single-threaded: each row folds `acc += a_ij * x_j`
    /// over its ascending columns from `acc = 0.0`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slice lengths.
    pub fn matvec_serial(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, v) in cols.iter().zip(vals) {
                acc += v * x[j as usize];
            }
            *yi = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1D Laplacian `[-1 2 -1]` as an adjacency list + diagonal.
    fn chain(n: usize) -> (Vec<Vec<(u32, f64)>>, Vec<f64>) {
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n - 1 {
            nbrs[i].push(((i + 1) as u32, 1.0));
            nbrs[i + 1].push((i as u32, 1.0));
        }
        (nbrs, vec![2.0; n])
    }

    #[test]
    fn lowering_produces_sorted_rows_with_diagonal() {
        let (nbrs, diag) = chain(5);
        let a = CsrMatrix::from_adjacency(&nbrs, &diag);
        assert_eq!(a.n(), 5);
        assert_eq!(a.nnz(), 5 + 2 * 4);
        assert_eq!(a.diagonal(), vec![2.0; 5]);
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[-1.0, 2.0, -1.0]);
        assert_eq!(a.diag_pos(2), 1);
        assert_eq!(a.diag_pos(0), 0);
    }

    #[test]
    fn matvec_matches_dense() {
        let (nbrs, diag) = chain(7);
        let a = CsrMatrix::from_adjacency(&nbrs, &diag);
        let x: Vec<f64> = (0..7).map(|i| (i as f64).sin() + 1.5).collect();
        let mut y = vec![0.0; 7];
        a.matvec_serial(&x, &mut y);
        for i in 0..7 {
            let mut want = 2.0 * x[i];
            if i > 0 {
                want -= x[i - 1];
            }
            if i + 1 < 7 {
                want -= x[i + 1];
            }
            assert!((y[i] - want).abs() < 1e-15, "row {i}: {} vs {want}", y[i]);
        }
    }

    #[test]
    fn diagonal_patch_only_touches_diagonal() {
        let (nbrs, diag) = chain(4);
        let a = CsrMatrix::from_adjacency(&nbrs, &diag);
        let patch = vec![0.5, 1.0, 1.5, 2.0];
        let b = a.with_diagonal_added(&patch);
        assert_eq!(b.diagonal(), vec![2.5, 3.0, 3.5, 4.0]);
        // Off-diagonals unchanged.
        let (_, va) = a.row(1);
        let (_, vb) = b.row(1);
        assert_eq!(va[0], vb[0]);
        assert_eq!(va[2], vb[2]);
    }

    #[test]
    fn from_triplets_round_trips() {
        let a = CsrMatrix::from_triplets(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 2.0),
            ],
        );
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.matvec_serial(&x, &mut y);
        assert_eq!(y, vec![6.0, 10.0, 8.0]);
    }
}

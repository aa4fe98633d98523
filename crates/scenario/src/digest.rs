//! Bit-exact digests over lowered thermal models.
//!
//! The golden equivalence lock ("`xylem-paper.stk` lowers to the same
//! physics as the hard-wired builder") cannot use struct equality —
//! layer and material *names* legitimately differ between the two
//! paths. What must agree bit-for-bit is the discretized physics: the
//! conductance matrix and the solved temperature field. These FNV-1a
//! digests are the comparison currency, and also what the subprocess
//! thread-determinism test prints.

use xylem_obs::hash::{fnv1a_extend, FNV_OFFSET};
use xylem_thermal::model::ThermalModel;

/// FNV-1a over the exact bit patterns of a float slice.
///
/// Two fields digest equal iff they are bit-identical (including the
/// sign of zero; NaNs digest by payload).
#[must_use]
pub fn field_digest(values: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        h = fnv1a_extend(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// FNV-1a over the model's assembled conductance matrix in CSR order:
/// for every row, the column indices and the coefficient bit patterns.
///
/// Captures node count, sparsity structure, and every conductance
/// value, so any geometric or material difference between two lowered
/// stacks shows up here.
#[must_use]
pub fn conductance_digest(model: &ThermalModel) -> u64 {
    let csr = model.csr();
    let mut h = FNV_OFFSET;
    h = fnv1a_extend(h, &(csr.n() as u64).to_le_bytes());
    for i in 0..csr.n() {
        let (cols, vals) = csr.row(i);
        for (c, v) in cols.iter().zip(vals) {
            h = fnv1a_extend(h, &c.to_le_bytes());
            h = fnv1a_extend(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_digest_is_bit_sensitive() {
        let a = field_digest(&[1.0, 2.0, 3.0]);
        assert_eq!(a, field_digest(&[1.0, 2.0, 3.0]));
        assert_ne!(a, field_digest(&[1.0, 2.0, 3.0 + 1e-15]));
        assert_ne!(a, field_digest(&[1.0, 2.0]));
        assert_ne!(field_digest(&[0.0]), field_digest(&[-0.0]));
    }

    #[test]
    fn empty_field_digests_to_offset() {
        assert_eq!(field_digest(&[]), FNV_OFFSET);
    }
}

//! Thread-to-core placements.

use serde::{Deserialize, Serialize};

use xylem_stack::proc_die::ProcDieGeometry;

/// A placement of `n` threads onto distinct cores (core ids 1..=8).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadPlacement {
    cores: Vec<usize>,
}

impl ThreadPlacement {
    /// Places `threads` onto the given cores (thread `i` on `cores[i]`).
    ///
    /// # Panics
    ///
    /// Panics if a core id is out of `1..=8` or repeated.
    pub fn new(cores: Vec<usize>) -> Self {
        assert!(!cores.is_empty() && cores.len() <= 8, "1..=8 threads");
        let mut seen = [false; 9];
        for &c in &cores {
            assert!((1..=8).contains(&c), "core {c} out of range");
            assert!(!seen[c], "core {c} assigned twice");
            seen[c] = true;
        }
        ThreadPlacement { cores }
    }

    /// All 8 cores in id order (the default 8-thread run).
    pub fn all_eight() -> Self {
        ThreadPlacement::new((1..=8).collect())
    }

    /// The 4 inner cores (2, 3, 6, 7) — closest to the high-conductivity
    /// sites.
    pub fn inner() -> Self {
        ThreadPlacement::new(ProcDieGeometry::inner_cores().to_vec())
    }

    /// The 4 outer cores (1, 4, 5, 8).
    pub fn outer() -> Self {
        ThreadPlacement::new(ProcDieGeometry::outer_cores().to_vec())
    }

    /// The cores, in thread order.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the placement is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_placements() {
        assert_eq!(ThreadPlacement::all_eight().len(), 8);
        assert_eq!(ThreadPlacement::inner().cores(), &[2, 3, 6, 7]);
        assert_eq!(ThreadPlacement::outer().cores(), &[1, 4, 5, 8]);
    }

    #[test]
    fn inner_and_outer_are_disjoint() {
        let inner = ThreadPlacement::inner();
        for c in ThreadPlacement::outer().cores() {
            assert!(!inner.cores().contains(c));
        }
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_core_panics() {
        let _ = ThreadPlacement::new(vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let _ = ThreadPlacement::new(vec![0]);
    }
}

//! Benchmark profiles.
//!
//! The paper evaluates 17 parallel applications from SPLASH-2, PARSEC and
//! the NAS Parallel Benchmarks (Sec. 6.3). The original binaries and
//! inputs are not reproducible here, so this crate encodes each
//! application as a [`WorkloadProfile`] — instruction mix, cache behaviour
//! and memory-boundedness calibrated to the qualitative structure of the
//! paper's figures (compute-intensive codes like LU-NAS and Cholesky are
//! the hottest and most frequency-sensitive; memory-intensive codes like
//! FT and IS are the coolest and least frequency-sensitive).
//!
//! The profiles are hand-calibrated tuples (see [`Benchmark::profile`]);
//! `xylem-archsim`'s interval model reads their miss rates directly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmark;
pub mod phases;
pub mod profile;

pub use benchmark::Benchmark;
pub use phases::{Phase, PhasedWorkload};
pub use profile::WorkloadProfile;

//! Architecture performance model (the SESC stand-in).
//!
//! The Xylem evaluation needs, per application and frequency: execution
//! time (Fig. 10, 12), per-core activity factors for the power model, and
//! DRAM command rates for the memory power model. This crate provides:
//!
//! * [`config`] — the paper's Table 3 architecture parameters;
//! * [`interval`] — the first-order interval CPI model: core-limited
//!   cycles scale with frequency, exposed DRAM time does not. This is the
//!   mechanism behind every performance number in the paper's evaluation
//!   (a frequency boost helps compute-bound code, not memory-bound code);
//! * [`system`] — [`Machine`]: ties the calibrated profiles' miss rates,
//!   the interval model and the Wide I/O DRAM model together, including a
//!   fixed-point DRAM-latency-under-load estimate driven through the
//!   actual `xylem-dram` channel model.
//!
//! This is the crate's one performance model: cache behaviour enters as
//! the profiles' per-kilo-instruction miss rates, not through a simulated
//! cache hierarchy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod interval;
pub mod system;

pub use config::ArchConfig;
pub use interval::{exec_time_s, CpiBreakdown};
pub use system::{AppMetrics, Machine};

//! Wide I/O stacked-DRAM timing, refresh, and power model.
//!
//! The DRAMSim2 stand-in for the Xylem reproduction: a cycle-approximate
//! model of a JEDEC Wide I/O stack (4 channels, 4 ranks per channel — one
//! rank per slice — 4 banks per rank), used for
//!
//! * DRAM service latency under load, feeding the interval performance
//!   model of `xylem-archsim`;
//! * temperature-dependent refresh (64 ms at <= 85 deg C, halved for every
//!   10 deg C above — JEDEC extended range, paper Sec. 7.5);
//! * per-die DRAM power for the thermal model (the paper's 2-4.5 W stack
//!   envelope).
//!
//! Address mapping, bank state machines, and an open-page FCFS controller
//! live in [`channel`]; device timing in [`timing`]; energy in [`energy`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod energy;
pub mod timing;

pub use channel::{Channel, MemoryRequest, RequestKind, WideIoStack};
pub use energy::DramEnergyModel;
pub use timing::{refresh_interval_ms, WideIoTiming};

//! Xylem: vertical thermal-conduction pillars and conductivity-aware
//! architectural techniques for 3D processor-memory stacks.
//!
//! This crate is the top of the reproduction of *"Xylem: Enhancing
//! Vertical Thermal Conduction in 3D Processor-Memory Stacks"* (MICRO
//! 2017). It couples the substrates —
//!
//! * [`xylem_stack`]: stack geometry, Wide I/O floorplans, the TTSV
//!   placement schemes, and microbump-TTSV alignment & shorting;
//! * [`xylem_thermal`]: the HotSpot-style RC thermal solver;
//! * [`xylem_power`]: the per-block processor power model with DVFS;
//! * [`xylem_dram`]: Wide I/O timing, refresh, and energy;
//! * [`xylem_archsim`] / [`xylem_workloads`]: the performance model and
//!   the 17 evaluated applications —
//!
//! into [`XylemSystem`], and implements the paper's architectural
//! techniques on top:
//!
//! * **frequency boosting into the thermal headroom** (Sec. 5.1) —
//!   [`headroom`];
//! * **dynamic thermal management** (frequency throttling to `T_j,max`) —
//!   [`headroom::max_frequency_under_limits`];
//! * **conductivity-aware thread placement, frequency boosting, and
//!   thread migration** (Sec. 5.2) — [`lambda_aware`].
//!
//! # Quickstart
//!
//! ```no_run
//! use xylem::{XylemSystem, SystemConfig};
//! use xylem_stack::XylemScheme;
//! use xylem_workloads::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = XylemSystem::new(SystemConfig::paper_default(XylemScheme::BankEnhanced))?;
//! let eval = system.evaluate_uniform(Benchmark::Cholesky, 2.4)?;
//! println!("hotspot: {:.1} C at {:.1} W", eval.proc_hotspot_c, eval.total_power_w);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod dtm;
pub mod durable;
pub mod error;
pub mod evaluation;
pub mod headroom;
pub mod lambda_aware;
pub mod migration;
pub mod placement;
pub mod response;
pub mod sensor;
pub mod system;

pub use error::{CheckpointError, ConfigError, SweepError, XylemError};
pub use evaluation::Evaluation;
pub use placement::ThreadPlacement;
pub use response::ThermalResponse;
pub use system::{SystemConfig, XylemSystem};

/// Result alias over the workspace-level error type.
pub type Result<T> = std::result::Result<T, XylemError>;

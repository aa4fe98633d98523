//! HotSpot-style 3D RC thermal simulator.
//!
//! This crate rebuilds, from scratch, the thermal-modeling substrate used by
//! the Xylem paper (MICRO 2017): a finite-volume resistor/capacitor network
//! over a stack of heterogeneous rectangular layers, equivalent to HotSpot's
//! *grid mode* with the heterogeneity extension of Meng et al. (DAC 2012).
//!
//! # Model overview
//!
//! A [`Stack`] is an ordered list of [`Layer`](layer::Layer)s,
//! top (heat-sink side) to bottom. Every layer is discretized on the same
//! `nx x ny` grid ([`GridSpec`]). Each grid cell carries a
//! thermal conductivity and a volumetric heat capacity rasterized from the
//! layer's [`Floorplan`](floorplan::Floorplan). Cells are connected:
//!
//! * vertically to the cells directly above/below (series half-cell
//!   resistances),
//! * laterally to the 4 in-layer neighbors,
//! * and, at the top of the stack, through a package model
//!   ([`Package`](package::Package)): TIM -> integrated heat spreader (with
//!   peripheral spreading nodes) -> heat sink (with peripheral nodes) ->
//!   convection to ambient.
//!
//! Steady-state temperatures solve `G T = P` (conductance matrix, power
//! vector) by conjugate gradients over the matrix-free stencil operator,
//! preconditioned by a geometric multigrid V-cycle, with one Jacobi
//! retry when a solve fails; transients use backward Euler. See
//! [`solve`] and [`gmg`].
//!
//! # Example
//!
//! ```
//! use xylem_thermal::floorplan::{Floorplan, Rect};
//! use xylem_thermal::grid::GridSpec;
//! use xylem_thermal::layer::Layer;
//! use xylem_thermal::material;
//! use xylem_thermal::package::Package;
//! use xylem_thermal::power::PowerMap;
//! use xylem_thermal::stack::Stack;
//! use xylem_thermal::units::Watts;
//!
//! # fn main() -> Result<(), xylem_thermal::ThermalError> {
//! // A 10 mm x 10 mm silicon die with a single block, under a default package.
//! let die = 0.01;
//! let mut fp = Floorplan::new(die, die);
//! fp.add_block("core", Rect::new(0.0, 0.0, die, die))?;
//! let si = Layer::uniform("si", 100e-6, material::SILICON.clone()).with_floorplan(fp);
//!
//! let stack = Stack::builder(die, die)
//!     .package(Package::default_for_die(die, die))
//!     .layer(si)
//!     .build()?;
//!
//! let grid = GridSpec::new(16, 16);
//! let model = stack.discretize(grid)?;
//! let mut power = PowerMap::zeros(&model);
//! power.add_uniform_layer_power(0, Watts::new(10.0)); // 10 W over the die
//! let temps = model.steady_state(&power)?;
//! assert!(temps.hotspot_of_layer(0).1 > temps.ambient());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
#[cfg(test)]
mod analytic;
pub mod csr;
pub mod error;
pub mod floorplan;
pub mod gmg;
pub mod grid;
pub mod layer;
pub mod material;
pub mod model;
pub mod package;
pub mod power;
pub mod reduce;
pub mod report;
pub mod solve;
pub mod stack;
pub mod stencil;
pub mod temperature;
pub mod units;

pub use adaptive::{AdaptiveController, AdaptiveOptions, AdaptiveSummary, BudgetKind};
pub use csr::CsrMatrix;
pub use error::ThermalError;
pub use grid::GridSpec;
pub use model::ThermalModel;
pub use power::PowerMap;
pub use solve::{
    DeadlineGuard, PreconditionerKind, RecoveryEvent, RecoveryReport, SolverOptions,
    SolverWorkspace,
};
pub use stack::Stack;
pub use stencil::StencilOperator;
pub use temperature::TemperatureField;

/// Result alias for thermal operations.
pub type Result<T> = std::result::Result<T, ThermalError>;

//! Stacks: ordered layers under a package.
//!
//! A [`Stack`] owns the die outline, the [`Package`]
//! on top, and the layers in top-to-bottom order (the first layer touches
//! the TIM; the last is the farthest from the heat sink — the processor die
//! in the paper's memory-on-top organization).

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;
use crate::grid::GridSpec;
use crate::layer::Layer;
use crate::model::ThermalModel;
use crate::package::Package;

/// An ordered stack of layers under a package.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stack {
    width: f64,
    height: f64,
    package: Package,
    /// Top (TIM side) first.
    layers: Vec<Layer>,
}

impl Stack {
    /// Starts building a stack with the given die outline (meters).
    ///
    /// # Panics
    ///
    /// Panics if the outline is not strictly positive and finite.
    pub fn builder(width: f64, height: f64) -> StackBuilder {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "stack outline must be positive and finite"
        );
        StackBuilder {
            width,
            height,
            package: None,
            layers: Vec::new(),
        }
    }

    /// Die outline width, m.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Die outline height, m.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The package.
    pub fn package(&self) -> &Package {
        &self.package
    }

    /// Layers, top (TIM side) to bottom.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers (never true for a built stack).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// A layer by index (0 = closest to the sink).
    ///
    /// # Errors
    ///
    /// [`ThermalError::IndexOutOfRange`] if out of range.
    pub fn layer(&self, index: usize) -> Result<&Layer, ThermalError> {
        self.layers.get(index).ok_or(ThermalError::IndexOutOfRange {
            what: "layer",
            index,
            len: self.layers.len(),
        })
    }

    /// Discretizes the stack onto `grid`, producing a solvable
    /// [`ThermalModel`].
    ///
    /// # Errors
    ///
    /// Propagates rasterization and geometry errors.
    pub fn discretize(&self, grid: GridSpec) -> Result<ThermalModel, ThermalError> {
        ThermalModel::build(self, grid)
    }
}

/// Builder for [`Stack`].
#[derive(Debug)]
pub struct StackBuilder {
    width: f64,
    height: f64,
    package: Option<Package>,
    layers: Vec<Layer>,
}

impl StackBuilder {
    /// Sets the package.
    pub fn package(mut self, package: Package) -> StackBuilder {
        self.package = Some(package);
        self
    }

    /// Appends a layer below the previously added ones.
    pub fn layer(mut self, layer: Layer) -> StackBuilder {
        self.layers.push(layer);
        self
    }

    /// Appends many layers.
    pub fn layers(mut self, layers: impl IntoIterator<Item = Layer>) -> StackBuilder {
        self.layers.extend(layers);
        self
    }

    /// Finalizes the stack.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadStack`] if no layers were added or the die does
    /// not fit the package (a default package for the die outline is used
    /// when none was set).
    pub fn build(self) -> Result<Stack, ThermalError> {
        if self.layers.is_empty() {
            return Err(ThermalError::BadStack {
                reason: "stack has no layers".into(),
            });
        }
        let package = self
            .package
            .unwrap_or_else(|| Package::default_for_die(self.width, self.height));
        package.validate_die(self.width, self.height)?;
        Ok(Stack {
            width: self.width,
            height: self.height,
            package,
            layers: self.layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{D2D_AVERAGE, DRAM_METAL, PROC_METAL, SILICON};

    fn simple_stack() -> Stack {
        Stack::builder(8e-3, 8e-3)
            .layer(Layer::uniform("dram-si", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("dram-metal", 2e-6, DRAM_METAL.clone()))
            .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
            .layer(Layer::uniform("proc-si", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("proc-metal", 12e-6, PROC_METAL.clone()))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_ordered_layers() {
        let s = simple_stack();
        assert_eq!(s.len(), 5);
        assert_eq!(s.layer(0).unwrap().name(), "dram-si");
        assert_eq!(s.layer(4).unwrap().name(), "proc-metal");
        assert_eq!(s.layer(2).unwrap().name(), "d2d");
        assert!(s.layer(5).is_err());
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(Stack::builder(8e-3, 8e-3).build().is_err());
    }

    #[test]
    fn thickness_and_rth_sums() {
        let s = simple_stack();
        let t: f64 = s.layers().iter().map(|l| l.thickness()).sum();
        assert!((t - 234e-6).abs() < 1e-12);
        // D2D dominates the base-material 1-D resistance per unit area
        // (mm^2-K/W).
        let rth: f64 = s
            .layers()
            .iter()
            .map(|l| l.base_material().rth_per_area(l.thickness()) * 1e6)
            .sum();
        let d2d = 20e-6 / 1.5 * 1e6;
        assert!(rth > d2d, "{rth} vs {d2d}");
        assert!(d2d / rth > 0.8, "D2D should dominate: {} of {}", d2d, rth);
    }

    #[test]
    fn default_package_applied() {
        let s = simple_stack();
        assert_eq!(s.package().spreader_side(), 3e-2);
    }
}

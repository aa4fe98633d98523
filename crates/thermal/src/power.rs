//! Power maps: heat injected into the user layers of a model.
//!
//! A [`PowerMap`] stores watts per grid cell for every user layer of a
//! specific [`ThermalModel`]. Power is usually
//! specified per floorplan block and spread over cells using the block's
//! rasterization weights.

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;
use crate::grid::GridSpec;
use crate::model::ThermalModel;
use crate::units::Watts;

/// Watts per cell, for every user layer of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMap {
    grid: GridSpec,
    n_layers: usize,
    /// `data[layer * cells + cell]`, watts.
    data: Vec<f64>,
}

impl PowerMap {
    /// Creates an all-zero power map shaped for `model`.
    pub fn zeros(model: &ThermalModel) -> Self {
        PowerMap {
            grid: model.grid(),
            n_layers: model.n_user_layers(),
            data: vec![0.0; model.n_user_layers() * model.grid().cells()],
        }
    }

    /// Number of user layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Cells per layer.
    pub fn cells(&self) -> usize {
        self.grid.cells()
    }

    /// The watts assigned to the cells of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_slice(&self, layer: usize) -> &[f64] {
        assert!(layer < self.n_layers, "layer {layer} out of range");
        let c = self.cells();
        &self.data[layer * c..(layer + 1) * c]
    }

    /// Adds `power` uniformly over all cells of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn add_uniform_layer_power(&mut self, layer: usize, power: Watts) {
        assert!(layer < self.n_layers, "layer {layer} out of range");
        let c = self.cells();
        let per_cell = power.get() / c as f64;
        for v in &mut self.data[layer * c..(layer + 1) * c] {
            *v += per_cell;
        }
    }

    /// Adds `power` to a single cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn add_cell_power(&mut self, layer: usize, ix: usize, iy: usize, power: Watts) {
        assert!(layer < self.n_layers, "layer {layer} out of range");
        let c = self.cells();
        let i = self.grid.index(ix, iy);
        self.data[layer * c + i] += power.get();
    }

    /// Adds `power` to a named floorplan block of `layer`, spread over the
    /// block's cells in proportion to area.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalModel::block_weights`] errors.
    pub fn add_block_power(
        &mut self,
        model: &ThermalModel,
        layer: usize,
        block: &str,
        power: Watts,
    ) -> Result<(), ThermalError> {
        let weights = model.block_weights(layer, block)?;
        let c = self.cells();
        for &(cell, w) in weights {
            self.data[layer * c + cell] += power.get() * w;
        }
        Ok(())
    }

    /// Multiplies every cell by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Total power over all layers.
    pub fn total(&self) -> Watts {
        Watts::new(self.data.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Floorplan, Rect};
    use crate::layer::Layer;
    use crate::material::SILICON;
    use crate::stack::Stack;

    fn model_with_blocks() -> ThermalModel {
        let die = 8e-3;
        let mut fp = Floorplan::new(die, die);
        fp.add_block("left", Rect::new(0.0, 0.0, die / 2.0, die))
            .unwrap();
        fp.add_block("right", Rect::new(die / 2.0, 0.0, die / 2.0, die))
            .unwrap();
        let stack = Stack::builder(die, die)
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp))
            .build()
            .unwrap();
        stack.discretize(GridSpec::new(8, 8)).unwrap()
    }

    #[test]
    fn uniform_power_totals() {
        let m = model_with_blocks();
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(0, Watts::new(12.0));
        assert!((p.total().get() - 12.0).abs() < 1e-12);
        assert!((p.layer_slice(0).iter().sum::<f64>() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn block_power_spreads_over_block_cells_only() {
        let m = model_with_blocks();
        let mut p = PowerMap::zeros(&m);
        p.add_block_power(&m, 0, "left", Watts::new(8.0)).unwrap();
        assert!((p.total().get() - 8.0).abs() < 1e-12);
        let g = m.grid();
        let s = p.layer_slice(0);
        for iy in 0..8 {
            for ix in 0..8 {
                let v = s[g.index(ix, iy)];
                if ix < 4 {
                    assert!(v > 0.0);
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn unknown_block_rejected() {
        let m = model_with_blocks();
        let mut p = PowerMap::zeros(&m);
        assert!(p.add_block_power(&m, 0, "nope", Watts::new(1.0)).is_err());
    }

    #[test]
    fn scale_and_accumulate() {
        let m = model_with_blocks();
        let mut a = PowerMap::zeros(&m);
        a.add_uniform_layer_power(0, Watts::new(10.0));
        a.scale(0.5);
        assert!((a.total().get() - 5.0).abs() < 1e-12);
    }
}

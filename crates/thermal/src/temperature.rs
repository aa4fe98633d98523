//! Temperature fields: solver output with layer/block/hotspot queries.

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;
use crate::grid::GridSpec;
use crate::model::ThermalModel;
use crate::solve::{RecoveryReport, SolveStats};
use crate::units::Celsius;

/// Temperatures (deg C) for every node of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureField {
    grid: GridSpec,
    n_user_layers: usize,
    /// Node offset of user layer 0.
    user_offset: usize,
    ambient: f64,
    temps: Vec<f64>,
    stats: SolveStats,
    recovery: RecoveryReport,
}

impl TemperatureField {
    pub(crate) fn new(
        model: &ThermalModel,
        temps: Vec<f64>,
        stats: SolveStats,
        recovery: RecoveryReport,
    ) -> Self {
        TemperatureField {
            grid: model.grid(),
            n_user_layers: model.n_user_layers(),
            user_offset: 3 * model.grid_cells(),
            ambient: model.ambient().get(),
            temps,
            stats,
            recovery,
        }
    }

    /// A field at a uniform temperature — the usual transient initial
    /// condition.
    pub fn uniform(model: &ThermalModel, temperature: Celsius) -> Self {
        TemperatureField {
            grid: model.grid(),
            n_user_layers: model.n_user_layers(),
            user_offset: 3 * model.grid_cells(),
            ambient: model.ambient().get(),
            temps: vec![temperature.get(); model.node_count()],
            stats: SolveStats::default(),
            recovery: RecoveryReport::default(),
        }
    }

    /// Rebuilds a field from raw node temperatures — the checkpoint/resume
    /// restore path. Rejects a vector whose length does not match the
    /// model's node count, and any non-finite entry.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerMapMismatch`] on a length mismatch;
    /// [`ThermalError::NonFiniteTemperature`] if any entry is NaN or ∞.
    pub fn from_raw(model: &ThermalModel, temps: Vec<f64>) -> Result<Self, ThermalError> {
        if temps.len() != model.node_count() {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: temps.len(),
                model_nodes: model.node_count(),
            });
        }
        if let Some(node) = temps.iter().position(|t| !t.is_finite()) {
            return Err(ThermalError::NonFiniteTemperature { node });
        }
        Ok(TemperatureField::new(
            model,
            temps,
            SolveStats::default(),
            RecoveryReport::default(),
        ))
    }

    /// Solver degraded-mode recovery report for the solve(s) that produced
    /// this field. Empty when every solve converged on the configured
    /// preconditioner.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// All node temperatures (solver ordering).
    pub fn raw(&self) -> &[f64] {
        &self.temps
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.temps.len()
    }

    /// Ambient temperature used by the solve.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient)
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Number of user layers.
    pub fn n_user_layers(&self) -> usize {
        self.n_user_layers
    }

    /// Temperatures of user layer `layer`, cell-ordered.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_slice(&self, layer: usize) -> &[f64] {
        assert!(layer < self.n_user_layers, "layer {layer} out of range");
        let c = self.grid.cells();
        let base = self.user_offset + layer * c;
        &self.temps[base..base + c]
    }

    /// Temperature of a single cell of a user layer.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, layer: usize, ix: usize, iy: usize) -> Celsius {
        Celsius::new(self.layer_slice(layer)[self.grid.index(ix, iy)])
    }

    /// Hottest cell of a user layer: `((ix, iy), temperature)`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn hotspot_of_layer(&self, layer: usize) -> ((usize, usize), Celsius) {
        let s = self.layer_slice(layer);
        let (mut best_i, mut best_t) = (0, f64::NEG_INFINITY);
        for (i, &t) in s.iter().enumerate() {
            if t > best_t {
                best_t = t;
                best_i = i;
            }
        }
        (self.grid.coords(best_i), Celsius::new(best_t))
    }

    /// Maximum temperature of a user layer.
    pub fn max_of_layer(&self, layer: usize) -> Celsius {
        self.hotspot_of_layer(layer).1
    }

    /// Area-weighted mean temperature of a user layer (cells have
    /// equal area, so this is the plain mean).
    pub fn mean_of_layer(&self, layer: usize) -> Celsius {
        let s = self.layer_slice(layer);
        Celsius::new(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// Hottest cell across all user layers: `(layer, (ix, iy), temperature)`.
    pub fn global_hotspot(&self) -> (usize, (usize, usize), Celsius) {
        let mut best = (0, (0, 0), Celsius::new(self.ambient));
        let mut found = false;
        for l in 0..self.n_user_layers {
            let ((ix, iy), t) = self.hotspot_of_layer(l);
            if !found || t > best.2 {
                best = (l, (ix, iy), t);
                found = true;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::material::SILICON;
    use crate::power::PowerMap;
    use crate::stack::Stack;
    use crate::units::Watts;

    fn model() -> ThermalModel {
        let die = 8e-3;
        let stack = Stack::builder(die, die)
            .layer(Layer::uniform("a", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("b", 100e-6, SILICON.clone()))
            .build()
            .unwrap();
        stack.discretize(GridSpec::new(8, 8)).unwrap()
    }

    #[test]
    fn uniform_field_queries() {
        let m = model();
        let t = TemperatureField::uniform(&m, Celsius::new(50.0));
        assert_eq!(t.max_of_layer(0), 50.0);
        assert_eq!(t.mean_of_layer(1), 50.0);
        assert_eq!(t.cell(0, 3, 3), 50.0);
        assert_eq!(t.global_hotspot().2, 50.0);
    }

    #[test]
    fn hotspot_tracks_power_location() {
        let m = model();
        let mut p = PowerMap::zeros(&m);
        p.add_cell_power(1, 6, 2, Watts::new(5.0));
        let t = m.steady_state(&p).unwrap();
        let ((ix, iy), _) = t.hotspot_of_layer(1);
        assert_eq!((ix, iy), (6, 2));
        // The layer above is cooler at its hotspot than the source layer.
        assert!(t.max_of_layer(0) < t.max_of_layer(1));
    }

    #[test]
    fn mean_below_max() {
        let m = model();
        let mut p = PowerMap::zeros(&m);
        p.add_cell_power(1, 4, 4, Watts::new(3.0));
        let t = m.steady_state(&p).unwrap();
        assert!(t.mean_of_layer(1) < t.max_of_layer(1));
        assert!(t.mean_of_layer(1) > t.ambient());
    }
}

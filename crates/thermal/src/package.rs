//! The thermal package: TIM, integrated heat spreader, heat sink, ambient.
//!
//! Mirrors HotSpot's package model. The die-sized portion of the spreader
//! (IHS) and sink are discretized on the same grid as the stack; the parts
//! that extend beyond the die are modeled as four trapezoidal peripheral
//! nodes per ring (one ring for the IHS, two for the sink), exactly like
//! HotSpot's `spreader`/`sink` extra nodes. Every sink node convects to the
//! ambient through a resistance proportional to its share of the sink area.

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;
use crate::material::{Material, COPPER, TIM};
use crate::units::Celsius;

/// Default ambient (local air) temperature inside the case, deg C.
pub const DEFAULT_AMBIENT_C: f64 = 43.0;

/// Package description (TIM + IHS + sink + convection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Package {
    /// TIM thickness, m (paper Table 1: 50 um).
    tim_thickness: f64,
    /// TIM material (5 W/m-K).
    tim_material: Material,
    /// IHS side length, m (paper Table 1: 3 cm square).
    spreader_side: f64,
    /// IHS thickness, m (0.1 cm).
    spreader_thickness: f64,
    /// IHS material (Cu).
    spreader_material: Material,
    /// Heat-sink base side length, m (6 cm square).
    sink_side: f64,
    /// Heat-sink base thickness, m (0.7 cm).
    sink_thickness: f64,
    /// Sink material (Cu).
    sink_material: Material,
    /// Total sink-to-ambient convection resistance, K/W. An active
    /// (fan-cooled) sink is ~0.1-0.3 K/W; passive sinks are several K/W.
    convection_resistance: f64,
    /// Ambient temperature, deg C.
    ambient: f64,
    /// Optional secondary heat path from the bottom of the stack through
    /// C4 pads / package substrate / board, as a single lumped resistance
    /// (K/W) to ambient. `None` = adiabatic bottom.
    board_resistance: Option<f64>,
}

impl Package {
    /// The package used throughout the paper's evaluation (Table 1): 50 um
    /// TIM at 5 W/m-K, 3x3x0.1 cm Cu IHS, 6x6x0.7 cm Cu active heat sink.
    ///
    /// The convection resistance (0.45 K/W) and ambient (45 deg C) are the
    /// calibration knobs described in DESIGN.md: they place the `base`
    /// configuration at the paper's operating point. A weak secondary board
    /// path (20 K/W) is included.
    ///
    /// `die_width`/`die_height` are used only for validation (the IHS must
    /// be at least as large as the die).
    ///
    /// # Panics
    ///
    /// Panics if the die is larger than the default 3 cm IHS.
    pub fn default_for_die(die_width: f64, die_height: f64) -> Self {
        let p = Package {
            tim_thickness: 50e-6,
            tim_material: TIM.clone(),
            spreader_side: 3e-2,
            spreader_thickness: 1e-3,
            spreader_material: COPPER.clone(),
            sink_side: 6e-2,
            sink_thickness: 7e-3,
            sink_material: COPPER.clone(),
            convection_resistance: 0.26,
            ambient: DEFAULT_AMBIENT_C,
            board_resistance: Some(20.0),
        };
        p.validate_die(die_width, die_height)
            .expect("die larger than default package spreader");
        p
    }

    /// A package with **no lateral spreading**: spreader and sink exactly
    /// the die size, no board path. Heat flow is then purely vertical,
    /// which is what the closed-form one-dimensional formulas the solver
    /// is validated against assume.
    pub fn one_dimensional(die_width: f64, die_height: f64) -> Self {
        let side = die_width.max(die_height);
        Package {
            tim_thickness: 50e-6,
            tim_material: TIM.clone(),
            spreader_side: side,
            spreader_thickness: 1e-3,
            spreader_material: COPPER.clone(),
            sink_side: side,
            sink_thickness: 7e-3,
            sink_material: COPPER.clone(),
            convection_resistance: 0.45,
            ambient: DEFAULT_AMBIENT_C,
            board_resistance: None,
        }
    }

    /// Checks the die fits under the spreader and the spreader under the
    /// sink.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadStack`] on geometric impossibility.
    pub fn validate_die(&self, die_width: f64, die_height: f64) -> Result<(), ThermalError> {
        if die_width > self.spreader_side || die_height > self.spreader_side {
            return Err(ThermalError::BadStack {
                reason: format!(
                    "die {:.1}x{:.1} mm larger than spreader {:.1} mm",
                    die_width * 1e3,
                    die_height * 1e3,
                    self.spreader_side * 1e3
                ),
            });
        }
        if self.spreader_side > self.sink_side {
            return Err(ThermalError::BadStack {
                reason: format!(
                    "spreader {:.1} mm larger than sink {:.1} mm",
                    self.spreader_side * 1e3,
                    self.sink_side * 1e3
                ),
            });
        }
        Ok(())
    }

    /// Sets the total convection (sink-to-air) resistance, K/W.
    pub fn with_convection_resistance(mut self, r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "convection resistance must be > 0"
        );
        self.convection_resistance = r;
        self
    }

    /// Sets the ambient temperature.
    pub fn with_ambient(mut self, ambient: Celsius) -> Self {
        self.ambient = ambient.get();
        self
    }

    /// Sets (or disables, with `None`) the secondary board path resistance.
    pub fn with_board_resistance(mut self, r: Option<f64>) -> Self {
        if let Some(r) = r {
            assert!(r.is_finite() && r > 0.0, "board resistance must be > 0");
        }
        self.board_resistance = r;
        self
    }

    /// Sets the TIM thickness (m) and material.
    pub fn with_tim(mut self, thickness: f64, material: Material) -> Self {
        assert!(thickness.is_finite() && thickness > 0.0);
        self.tim_thickness = thickness;
        self.tim_material = material;
        self
    }

    /// Sets the IHS side length (m), thickness (m), and material.
    ///
    /// Geometric ordering against the die and sink is checked by
    /// [`Package::validate_die`] when the stack is built.
    pub fn with_spreader(mut self, side: f64, thickness: f64, material: Material) -> Self {
        assert!(side.is_finite() && side > 0.0, "spreader side must be > 0");
        assert!(
            thickness.is_finite() && thickness > 0.0,
            "spreader thickness must be > 0"
        );
        self.spreader_side = side;
        self.spreader_thickness = thickness;
        self.spreader_material = material;
        self
    }

    /// Sets the heat-sink base side length (m), thickness (m), and material.
    pub fn with_sink(mut self, side: f64, thickness: f64, material: Material) -> Self {
        assert!(side.is_finite() && side > 0.0, "sink side must be > 0");
        assert!(
            thickness.is_finite() && thickness > 0.0,
            "sink thickness must be > 0"
        );
        self.sink_side = side;
        self.sink_thickness = thickness;
        self.sink_material = material;
        self
    }

    /// TIM thickness, m.
    pub fn tim_thickness(&self) -> f64 {
        self.tim_thickness
    }

    /// TIM material.
    pub fn tim_material(&self) -> &Material {
        &self.tim_material
    }

    /// IHS side, m.
    pub fn spreader_side(&self) -> f64 {
        self.spreader_side
    }

    /// IHS thickness, m.
    pub fn spreader_thickness(&self) -> f64 {
        self.spreader_thickness
    }

    /// IHS material.
    pub fn spreader_material(&self) -> &Material {
        &self.spreader_material
    }

    /// Sink side, m.
    pub fn sink_side(&self) -> f64 {
        self.sink_side
    }

    /// Sink thickness, m.
    pub fn sink_thickness(&self) -> f64 {
        self.sink_thickness
    }

    /// Sink material.
    pub fn sink_material(&self) -> &Material {
        &self.sink_material
    }

    /// Total sink-to-ambient convection resistance, K/W.
    pub fn convection_resistance(&self) -> f64 {
        self.convection_resistance
    }

    /// Ambient temperature, deg C.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Secondary board-path resistance, K/W, if enabled.
    pub fn board_resistance(&self) -> Option<f64> {
        self.board_resistance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_package_paper_dimensions() {
        let p = Package::default_for_die(8e-3, 8e-3);
        assert_eq!(p.tim_thickness(), 50e-6);
        assert_eq!(p.spreader_side(), 3e-2);
        assert_eq!(p.spreader_thickness(), 1e-3);
        assert_eq!(p.sink_side(), 6e-2);
        assert_eq!(p.sink_thickness(), 7e-3);
        assert_eq!(p.tim_material().conductivity(), 5.0);
        assert_eq!(p.sink_material().conductivity(), 400.0);
    }

    #[test]
    fn validate_rejects_oversized_die() {
        let p = Package::default_for_die(8e-3, 8e-3);
        assert!(p.validate_die(4e-2, 4e-2).is_err());
        assert!(p.validate_die(2.9e-2, 2.9e-2).is_ok());
    }

    #[test]
    fn builders_update_fields() {
        let p = Package::default_for_die(8e-3, 8e-3)
            .with_convection_resistance(0.2)
            .with_ambient(Celsius::new(40.0))
            .with_board_resistance(None);
        assert_eq!(p.convection_resistance(), 0.2);
        assert_eq!(p.ambient(), 40.0);
        assert!(p.board_resistance().is_none());
    }

    #[test]
    fn spreader_and_sink_setters_update_geometry() {
        let p = Package::default_for_die(8e-3, 8e-3)
            .with_spreader(4e-2, 2e-3, COPPER.clone())
            .with_sink(8e-2, 9e-3, COPPER.clone());
        assert_eq!(p.spreader_side(), 4e-2);
        assert_eq!(p.spreader_thickness(), 2e-3);
        assert_eq!(p.sink_side(), 8e-2);
        assert_eq!(p.sink_thickness(), 9e-3);
        assert!(p.validate_die(8e-3, 8e-3).is_ok());
    }

    #[test]
    #[should_panic(expected = "spreader side")]
    fn zero_spreader_side_panics() {
        let _ = Package::default_for_die(8e-3, 8e-3).with_spreader(0.0, 1e-3, COPPER.clone());
    }

    #[test]
    #[should_panic]
    fn negative_convection_panics() {
        let _ = Package::default_for_die(8e-3, 8e-3).with_convection_resistance(-1.0);
    }
}

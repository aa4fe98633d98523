//! TSV / TTSV technology parameters (paper Sec. 2.1, 6.1).
//!
//! Electrical TSVs follow ITRS: 10 um diameter, 10 um keep-out zone (KOZ),
//! giving a 20 um pitch and a 25% Cu area fraction inside the TSV bus.
//! TTSVs and dummy microbumps are thicker (100 um) "to facilitate maximum
//! heat transfer" (Sec. 6.1); each TTSV carries a 10 um KOZ on every side.

use serde::{Deserialize, Serialize};

/// Copper aspect-ratio limit (height : diameter), paper Sec. 2.1.
pub const CU_ASPECT_RATIO: f64 = 10.0;

/// Geometry of one TSV class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TsvTech {
    /// Via diameter (side of the modeled square block), m.
    pub diameter: f64,
    /// Keep-out zone on each side, m.
    pub koz: f64,
    /// Aspect-ratio limit of the fill metal (height : diameter).
    pub aspect_ratio_limit: f64,
}

impl TsvTech {
    /// The paper's thermal TSV: 100 um Cu block, 10 um KOZ.
    pub fn thermal() -> Self {
        TsvTech {
            diameter: 100e-6,
            koz: 10e-6,
            aspect_ratio_limit: CU_ASPECT_RATIO,
        }
    }

    /// Footprint of one via including its KOZ ring:
    /// `(diameter + 2*koz)^2`, m^2. For the paper's TTSV this is
    /// `(100 um + 20 um)^2 = 0.0144 mm^2` (Sec. 7.1).
    pub fn site_area(&self) -> f64 {
        let side = self.diameter + 2.0 * self.koz;
        side * side
    }
}

/// The Sec. 2.1 aspect-ratio argument, which only tests reproduce: the
/// ITRS electrical TSV and the die thickness and via density its fill
/// metal allows.
#[cfg(test)]
impl TsvTech {
    /// The paper's electrical TSV: 10 um Cu via, 10 um KOZ (20 um pitch).
    pub(crate) fn electrical() -> Self {
        TsvTech {
            diameter: 10e-6,
            koz: 10e-6,
            aspect_ratio_limit: CU_ASPECT_RATIO,
        }
    }

    /// Pitch implied by the KOZ: diameter + KOZ (KOZs of neighboring vias
    /// overlap), m.
    pub(crate) fn pitch(&self) -> f64 {
        self.diameter + self.koz
    }

    /// Tallest die (m) this via can traverse under its aspect-ratio limit.
    pub(crate) fn max_die_thickness(&self) -> f64 {
        self.aspect_ratio_limit * self.diameter
    }

    /// Whether the via can traverse a die of the given thickness.
    pub(crate) fn supports_die_thickness(&self, thickness: f64) -> bool {
        thickness <= self.max_die_thickness() + 1e-12
    }

    /// Achievable via density (vias per m^2) for a die of `thickness`
    /// at this aspect-ratio limit: the via diameter must be at least
    /// `thickness / AR`, so density is at most `1 / pitch^2` with
    /// `pitch = d_min + koz`. Density is proportional to `(AR/t)^2`
    /// (Sec. 2.1).
    pub(crate) fn max_density_for_thickness(&self, thickness: f64) -> f64 {
        let d_min = thickness / self.aspect_ratio_limit;
        let pitch = d_min + self.koz;
        1.0 / (pitch * pitch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tungsten aspect-ratio limit, paper Sec. 2.1.
    const W_ASPECT_RATIO: f64 = 30.0;

    #[test]
    fn electrical_tsv_paper_numbers() {
        let t = TsvTech::electrical();
        assert_eq!(t.pitch(), 20e-6);
        // 10:1 Cu aspect ratio supports exactly the 100 um die.
        assert!(t.supports_die_thickness(100e-6));
        assert!(!t.supports_die_thickness(101e-6));
    }

    #[test]
    fn ttsv_site_area_is_0_0144_mm2() {
        let t = TsvTech::thermal();
        let mm2 = t.site_area() * 1e6;
        assert!((mm2 - 0.0144).abs() < 1e-9, "{mm2}");
    }

    #[test]
    fn density_scales_with_inverse_square_of_thickness() {
        let t = TsvTech::electrical();
        let d100 = t.max_density_for_thickness(100e-6);
        let d200 = t.max_density_for_thickness(200e-6);
        // Thicker dies force larger vias: density drops superlinearly, and
        // in the KOZ-free limit exactly quadratically.
        let ratio = d100 / d200;
        assert!(ratio > 2.0, "ratio {ratio}");
        let no_koz = TsvTech {
            koz: 0.0,
            ..TsvTech::electrical()
        };
        let r = no_koz.max_density_for_thickness(100e-6) / no_koz.max_density_for_thickness(200e-6);
        assert!((r - 4.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn tungsten_allows_higher_aspect_ratio() {
        let w = TsvTech {
            aspect_ratio_limit: W_ASPECT_RATIO,
            ..TsvTech::electrical()
        };
        assert!(w.max_die_thickness() > TsvTech::electrical().max_die_thickness());
    }
}

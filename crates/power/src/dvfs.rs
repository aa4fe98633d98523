//! DVFS operating points (paper Sec. 5.1, 6.2).
//!
//! The evaluated processor runs between 2.4 GHz (default, thermally forced)
//! and 3.5 GHz (design frequency) in 100 MHz steps. Voltage follows a
//! linear schedule from 0.90 V to 1.25 V across that range — the shape of
//! commercial DVFS tables.

use serde::{Deserialize, Serialize};

/// One frequency/voltage pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core frequency, GHz.
    pub frequency_ghz: f64,
    /// Supply voltage, V.
    pub voltage: f64,
}

impl OperatingPoint {
    /// Dynamic-power scale factor relative to a reference point:
    /// `(f/f_ref) * (V/V_ref)^2`.
    pub fn dynamic_scale(&self, reference: &OperatingPoint) -> f64 {
        (self.frequency_ghz / reference.frequency_ghz) * (self.voltage / reference.voltage).powi(2)
    }

    /// Leakage scale factor relative to a reference point: `V/V_ref`
    /// (temperature dependence is applied separately).
    pub fn leakage_scale(&self, reference: &OperatingPoint) -> f64 {
        self.voltage / reference.voltage
    }
}

/// The DVFS table: an inclusive frequency range in fixed steps with a
/// linear voltage schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsTable {
    f_min_ghz: f64,
    f_max_ghz: f64,
    step_ghz: f64,
    v_min: f64,
    v_max: f64,
}

impl DvfsTable {
    /// The paper's table: 2.4-3.5 GHz in 100 MHz steps. The voltage
    /// schedule (0.90-1.10 V) is the flat upper region of a
    /// Sandy-Bridge-class V/f curve: the cores are *designed* for
    /// 3.5 GHz (Sec. 7.3.1) and are thermally — not voltage — limited at
    /// 2.4 GHz, so boosting spends little extra voltage.
    pub fn paper_default() -> Self {
        DvfsTable {
            f_min_ghz: 2.4,
            f_max_ghz: 3.5,
            step_ghz: 0.1,
            v_min: 0.90,
            v_max: 1.10,
        }
    }

    /// Creates a custom table.
    ///
    /// # Panics
    ///
    /// Panics if the range or step is degenerate.
    pub fn new(f_min_ghz: f64, f_max_ghz: f64, step_ghz: f64, v_min: f64, v_max: f64) -> Self {
        assert!(f_min_ghz > 0.0 && f_max_ghz >= f_min_ghz && step_ghz > 0.0);
        assert!(v_min > 0.0 && v_max >= v_min);
        DvfsTable {
            f_min_ghz,
            f_max_ghz,
            step_ghz,
            v_min,
            v_max,
        }
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        ((self.f_max_ghz - self.f_min_ghz) / self.step_ghz).round() as usize + 1
    }

    /// Whether the table is a single point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Voltage at `frequency_ghz` (linear interpolation, clamped).
    pub fn voltage_at(&self, frequency_ghz: f64) -> f64 {
        if self.f_max_ghz <= self.f_min_ghz {
            return self.v_max;
        }
        let t =
            ((frequency_ghz - self.f_min_ghz) / (self.f_max_ghz - self.f_min_ghz)).clamp(0.0, 1.0);
        self.v_min + t * (self.v_max - self.v_min)
    }

    /// The operating point at index `i` (0 = slowest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> OperatingPoint {
        assert!(i < self.len(), "DVFS index {i} out of range");
        let f = self.f_min_ghz + i as f64 * self.step_ghz;
        OperatingPoint {
            frequency_ghz: f,
            voltage: self.voltage_at(f),
        }
    }

    /// The operating point closest to `frequency_ghz`, clamped to the
    /// table.
    pub fn point_at(&self, frequency_ghz: f64) -> OperatingPoint {
        let i = ((frequency_ghz - self.f_min_ghz) / self.step_ghz).round();
        let i = (i.max(0.0) as usize).min(self.len() - 1);
        self.point(i)
    }

    /// The reference (lowest) operating point — 2.4 GHz in the paper.
    pub fn reference(&self) -> OperatingPoint {
        self.point(0)
    }

    /// Iterates all points, slowest first.
    pub fn points(&self) -> impl Iterator<Item = OperatingPoint> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_12_points() {
        let t = DvfsTable::paper_default();
        assert_eq!(t.len(), 12);
        assert_eq!(t.point(0).frequency_ghz, 2.4);
        let top = t.point(11);
        assert!((top.frequency_ghz - 3.5).abs() < 1e-9);
        assert!((top.voltage - 1.10).abs() < 1e-9);
    }

    #[test]
    fn voltage_is_monotone() {
        let t = DvfsTable::paper_default();
        let mut prev = 0.0;
        for p in t.points() {
            assert!(p.voltage > prev);
            prev = p.voltage;
        }
    }

    #[test]
    fn point_at_rounds_and_clamps() {
        let t = DvfsTable::paper_default();
        assert!((t.point_at(2.44).frequency_ghz - 2.4).abs() < 1e-9);
        assert!((t.point_at(2.46).frequency_ghz - 2.5).abs() < 1e-9);
        assert!((t.point_at(1.0).frequency_ghz - 2.4).abs() < 1e-9);
        assert!((t.point_at(9.0).frequency_ghz - 3.5).abs() < 1e-9);
    }

    #[test]
    fn dynamic_scale_grows_superlinearly() {
        let t = DvfsTable::paper_default();
        let r = t.reference();
        let top = t.point_at(3.5);
        let s = top.dynamic_scale(&r);
        // (3.5/2.4) * (1.10/0.9)^2 = 2.18
        assert!((s - 2.18).abs() < 0.01, "{s}");
        assert!(s > 3.5 / 2.4);
    }

    #[test]
    fn leakage_scale_is_voltage_ratio() {
        let t = DvfsTable::paper_default();
        let s = t.point_at(3.5).leakage_scale(&t.reference());
        assert!((s - 1.10 / 0.9).abs() < 1e-9);
    }
}

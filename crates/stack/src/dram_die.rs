//! Wide I/O DRAM die geometry (paper Fig. 1, Sec. 6.1).
//!
//! Each memory die ("slice") holds 16 banks in a 4x4 arrangement — 4 ranks
//! (one per channel, one per quadrant) of 4 banks. Peripheral logic (row and
//! column decoders, charge pumps, I/O logic, temperature sensors) runs in
//! strips between and around the banks; the horizontal strip across the die
//! center is wider because it carries the 1,200-TSV Wide I/O bus.

use serde::{Deserialize, Serialize};

use xylem_thermal::error::ThermalError;
use xylem_thermal::floorplan::{Floorplan, Rect};

/// Parametric geometry of a Wide I/O DRAM die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramDieGeometry {
    /// Die width, m.
    pub width: f64,
    /// Die height, m.
    pub height: f64,
    /// Edge peripheral-logic margin on all four sides, m.
    pub margin: f64,
    /// Width of the 3 internal vertical peripheral strips, m.
    pub strip_v: f64,
    /// Height of the 2 internal horizontal peripheral strips, m.
    pub strip_h: f64,
    /// Height of the central horizontal stripe (holds the TSV bus), m.
    pub center_stripe: f64,
    /// Length of the TSV bus region inside the central stripe, m.
    pub bus_length: f64,
    /// Height of the TSV bus region, m.
    pub bus_height: f64,
}

impl DramDieGeometry {
    /// The paper's 8x8 mm (~64 mm^2) Wide I/O die.
    pub fn paper_default() -> Self {
        DramDieGeometry {
            width: 8e-3,
            height: 8e-3,
            margin: 0.25e-3,
            strip_v: 0.2e-3,
            strip_h: 0.2e-3,
            center_stripe: 0.8e-3,
            // 1,200 TSVs as 48 blocks of 5x5 (100 um blocks) in a 24x2
            // grid: 2.4 x 0.2 mm, centered.
            bus_length: 2.4e-3,
            bus_height: 0.2e-3,
        }
    }

    /// Bank width: 4 columns plus 3 vertical strips inside the margins.
    pub fn bank_width(&self) -> f64 {
        (self.width - 2.0 * self.margin - 3.0 * self.strip_v) / 4.0
    }

    /// Bank height: 4 rows, 2 horizontal strips and the central stripe
    /// inside the margins.
    pub fn bank_height(&self) -> f64 {
        (self.height - 2.0 * self.margin - 2.0 * self.strip_h - self.center_stripe) / 4.0
    }

    /// Geometry of bank `(row, col)`; rows 0..4 bottom to top, rows 0-1
    /// below the central stripe, 2-3 above; cols 0..4 left to right.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn bank_rect(&self, row: usize, col: usize) -> Rect {
        assert!(row < 4 && col < 4, "bank ({row},{col}) out of range");
        let bw = self.bank_width();
        let bh = self.bank_height();
        let x = self.margin + col as f64 * (bw + self.strip_v);
        let y = match row {
            0 => self.margin,
            1 => self.margin + bh + self.strip_h,
            2 => self.margin + 2.0 * bh + self.strip_h + self.center_stripe,
            _ => self.margin + 3.0 * bh + 2.0 * self.strip_h + self.center_stripe,
        };
        Rect::new(x, y, bw, bh)
    }

    /// Canonical name of bank `(row, col)`: `"bank{row}{col}"`.
    pub fn bank_name(row: usize, col: usize) -> String {
        format!("bank{row}{col}")
    }

    /// Lower y of the central stripe.
    pub fn center_stripe_y0(&self) -> f64 {
        self.margin + 2.0 * self.bank_height() + self.strip_h
    }

    /// Geometry of the central stripe (full die width).
    pub fn center_stripe_rect(&self) -> Rect {
        Rect::new(0.0, self.center_stripe_y0(), self.width, self.center_stripe)
    }

    /// Geometry of the TSV bus block, centered in the central stripe.
    pub fn tsv_bus_rect(&self) -> Rect {
        Rect::new(
            (self.width - self.bus_length) / 2.0,
            self.center_stripe_y0() + (self.center_stripe - self.bus_height) / 2.0,
            self.bus_length,
            self.bus_height,
        )
    }

    /// X coordinates of the 5 bank-vertex columns: the centerlines of the
    /// edge margins and of the 3 internal vertical strips.
    pub fn vertex_xs(&self) -> [f64; 5] {
        let bw = self.bank_width();
        let first = self.margin + bw + self.strip_v / 2.0;
        let step = bw + self.strip_v;
        [
            self.margin / 2.0,
            first,
            first + step,
            first + 2.0 * step,
            self.width - self.margin / 2.0,
        ]
    }

    /// Y coordinates of the 5 bank-vertex rows: edge margins, the 2
    /// internal horizontal strips, and the central stripe centerline.
    pub fn vertex_ys(&self) -> [f64; 5] {
        let bh = self.bank_height();
        let low_strip = self.margin + bh + self.strip_h / 2.0;
        [
            self.margin / 2.0,
            low_strip,
            self.center_stripe_y0() + self.center_stripe / 2.0,
            self.height - low_strip,
            self.height - self.margin / 2.0,
        ]
    }

    /// X coordinates of the 4 bank-column centerlines (used by the
    /// `banke` scheme's core-adjacent sites).
    pub fn bank_center_xs(&self) -> [f64; 4] {
        let bw = self.bank_width();
        let step = bw + self.strip_v;
        let first = self.margin + bw / 2.0;
        [first, first + step, first + 2.0 * step, first + 3.0 * step]
    }

    /// Builds the full floorplan: 16 banks, the TSV bus, and peripheral
    /// blocks tiling the rest of the die.
    ///
    /// # Errors
    ///
    /// Propagates floorplan-construction errors (cannot occur for valid
    /// geometry).
    pub fn floorplan(&self) -> Result<Floorplan, ThermalError> {
        let mut fp = Floorplan::new(self.width, self.height);
        for row in 0..4 {
            for col in 0..4 {
                fp.add_block(Self::bank_name(row, col), self.bank_rect(row, col))?;
            }
        }
        fp.add_block("tsv_bus", self.tsv_bus_rect())?;

        // Peripheral logic: everything else, tiled as horizontal bands and
        // per-band filler rectangles.
        let bw = self.bank_width();
        let bh = self.bank_height();
        let m = self.margin;
        let w = self.width;
        // Horizontal full-width bands (bottom/top margins, internal strips).
        let y_rows = [
            m,
            m + bh + self.strip_h,
            self.center_stripe_y0() + self.center_stripe,
            self.height - m - 2.0 * bh - self.strip_h + bh + self.strip_h,
        ];
        let _ = y_rows; // band math below is explicit instead
        fp.add_block("periph_s", Rect::new(0.0, 0.0, w, m))?;
        fp.add_block("periph_h0", Rect::new(0.0, m + bh, w, self.strip_h))?;
        fp.add_block(
            "periph_h1",
            Rect::new(0.0, self.height - m - bh - self.strip_h, w, self.strip_h),
        )?;
        fp.add_block("periph_n", Rect::new(0.0, self.height - m, w, m))?;

        // Central stripe minus the bus: below, above, left, right of it.
        let stripe = self.center_stripe_rect();
        let bus = self.tsv_bus_rect();
        fp.add_block(
            "periph_c_below",
            Rect::new(0.0, stripe.y(), w, bus.y() - stripe.y()),
        )?;
        fp.add_block(
            "periph_c_above",
            Rect::new(0.0, bus.y_max(), w, stripe.y_max() - bus.y_max()),
        )?;
        fp.add_block(
            "periph_c_left",
            Rect::new(0.0, bus.y(), bus.x(), bus.height()),
        )?;
        fp.add_block(
            "periph_c_right",
            Rect::new(bus.x_max(), bus.y(), w - bus.x_max(), bus.height()),
        )?;

        // Vertical fillers in the 4 bank bands: edge margins + 3 strips.
        for (band, y) in [
            (0usize, m),
            (1, m + bh + self.strip_h),
            (2, stripe.y_max()),
            (3, stripe.y_max() + bh + self.strip_h),
        ] {
            let xs = [
                (0.0, m),
                (m + bw, self.strip_v),
                (m + 2.0 * bw + self.strip_v, self.strip_v),
                (m + 3.0 * bw + 2.0 * self.strip_v, self.strip_v),
                (w - m, m),
            ];
            for (vi, (x, width)) in xs.iter().enumerate() {
                fp.add_block(format!("periph_v{band}_{vi}"), Rect::new(*x, y, *width, bh))?;
            }
        }

        fp.require_full_coverage(1e-6)?;
        Ok(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_die_is_64_mm2() {
        let g = DramDieGeometry::paper_default();
        let area = g.width * g.height * 1e6;
        assert!((area - 64.0).abs() < 1e-9, "{area}");
    }

    #[test]
    fn floorplan_tiles_the_die() {
        let g = DramDieGeometry::paper_default();
        let fp = g.floorplan().unwrap();
        assert!(fp.require_full_coverage(1e-9).is_ok());
        assert_eq!(
            fp.blocks()
                .iter()
                .filter(|b| b.name().starts_with("bank"))
                .count(),
            16
        );
        assert!(fp.block("tsv_bus").is_some());
    }

    #[test]
    fn banks_dont_touch_center_stripe() {
        let g = DramDieGeometry::paper_default();
        let stripe = g.center_stripe_rect();
        for row in 0..4 {
            for col in 0..4 {
                assert!(!g.bank_rect(row, col).overlaps(&stripe));
            }
        }
    }

    #[test]
    fn vertex_grid_is_symmetric() {
        let g = DramDieGeometry::paper_default();
        let xs = g.vertex_xs();
        let ys = g.vertex_ys();
        for i in 0..5 {
            assert!((xs[i] - (g.width - xs[4 - i])).abs() < 1e-12, "x{i}");
            assert!((ys[i] - (g.height - ys[4 - i])).abs() < 1e-12, "y{i}");
        }
        // Center vertex row passes through the die center.
        assert!((ys[2] - g.height / 2.0).abs() < 1e-12);
    }

    #[test]
    fn bus_sits_inside_center_stripe() {
        let g = DramDieGeometry::paper_default();
        assert!(g.center_stripe_rect().contains_rect(&g.tsv_bus_rect()));
    }
}

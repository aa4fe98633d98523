//! Processor die floorplan (paper Fig. 6, Sec. 4.2).
//!
//! A typical commercial layout: 8 cores on the periphery — two columns of
//! four along the left and right die edges — with the last-level cache,
//! the Wide I/O memory controllers, and the TSV bus in the center. The
//! central horizontal band (y = die middle) carries the TSV bus and
//! aligns with the DRAM dies' wide central peripheral stripe, where the
//! Xylem schemes concentrate TTSVs. The **inner cores** (2, 3, 6, 7 —
//! the middle of each column) are adjacent to that band, giving them a
//! smaller average distance to the high-vertical-conductivity sites than
//! the **outer cores** (1, 4, 5, 8 — the corners). This is the spatial
//! heterogeneity the conductivity-aware techniques exploit (Sec. 5.2).
//!
//! Each core's execution cluster (ALU/FPU — the hotspots) occupies the
//! core row facing the die midline, next to the stripe's TTSV sites; the
//! FPUs of vertically adjacent cores meet at the stripe, where the
//! `banke` scheme co-designs a doubled TTSV site between them.

use serde::{Deserialize, Serialize};

use xylem_thermal::error::ThermalError;
use xylem_thermal::floorplan::{Floorplan, Rect};

/// Number of cores on the processor die.
pub const NUM_CORES: usize = 8;

/// Core identifiers are 1-based to match the paper's Fig. 6.
pub type CoreId = usize;

/// The per-core architectural sub-blocks, each one cell of a 3x3 grid
/// inside the core. Listed exec row first (ALU/FPU/L1D), then the
/// scheduling row, then the front end; the exec row is placed facing the
/// die midline.
pub const CORE_BLOCKS: [&str; 9] = [
    "alu", "fpu", "l1d", "rf", "issue", "lsu", "fetch", "decode", "l1i",
];

/// Parametric geometry of the processor die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcDieGeometry {
    /// Die width, m.
    pub width: f64,
    /// Die height, m.
    pub height: f64,
    /// Width of each core column (cores span `core_width` x `height/4`),
    /// m.
    pub core_width: f64,
    /// Half-height of the central uncore band (MCs, NoC, TSV bus), m.
    pub center_band_half: f64,
}

impl ProcDieGeometry {
    /// The paper's 8x8 mm processor die: two 2 mm core columns around a
    /// 4 mm center region, with a 0.8 mm uncore band (MCs, NoC, TSV bus)
    /// running across the **full die width** at the midline — the band
    /// both carries the Wide I/O bus and separates the inner cores of
    /// each column, placing the central TTSV stripe directly between
    /// their execution clusters.
    pub fn paper_default() -> Self {
        ProcDieGeometry {
            width: 8e-3,
            height: 8e-3,
            core_width: 2.4e-3,
            center_band_half: 0.4e-3,
        }
    }

    /// Height of one core (4 per column around the central band).
    pub fn core_height(&self) -> f64 {
        (self.height - 2.0 * self.center_band_half) / 4.0
    }

    /// Geometry of core `id` (1..=8). Cores 1-4 run top-to-bottom along
    /// the left edge; cores 5-8 along the right edge; rows 2 and 3 of
    /// each column sit below the central band.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=8`.
    pub fn core_rect(&self, id: CoreId) -> Rect {
        assert!((1..=NUM_CORES).contains(&id), "core {id} out of range");
        let row = (id - 1) % 4; // 0 = top
        let x = if id <= 4 {
            0.0
        } else {
            self.width - self.core_width
        };
        let ch = self.core_height();
        let mid = self.height / 2.0;
        let b = self.center_band_half;
        let y = match row {
            0 => self.height - ch,
            1 => mid + b,
            2 => mid - b - ch,
            _ => 0.0,
        };
        Rect::new(x, y, self.core_width, ch)
    }

    /// Whether `id` is an inner core (2, 3, 6, 7): the middle of its
    /// column, adjacent to the central high-conductivity band.
    pub fn is_inner_core(id: CoreId) -> bool {
        matches!(id, 2 | 3 | 6 | 7)
    }

    /// The inner cores, in id order.
    pub fn inner_cores() -> [CoreId; 4] {
        [2, 3, 6, 7]
    }

    /// The outer cores, in id order.
    pub fn outer_cores() -> [CoreId; 4] {
        [1, 4, 5, 8]
    }

    /// Name of a core sub-block: `"core{id}_{block}"`.
    pub fn core_block_name(id: CoreId, block: &str) -> String {
        format!("core{id}_{block}")
    }

    /// Geometry of the center region between the core columns.
    pub fn center_region(&self) -> Rect {
        Rect::new(
            self.core_width,
            0.0,
            self.width - 2.0 * self.core_width,
            self.height,
        )
    }

    /// Geometry of the TSV bus: 48 blocks of 5x5 TSVs as a 24x2 grid of
    /// 100 um blocks (2.4 x 0.2 mm), centered on the die — matching the
    /// DRAM dies' bus footprint.
    pub fn tsv_bus_rect(&self) -> Rect {
        let len = 2.4e-3;
        let h = 0.2e-3;
        Rect::new((self.width - len) / 2.0, (self.height - h) / 2.0, len, h)
    }

    /// Builds the full floorplan: 8 cores x 9 sub-blocks, 4 memory
    /// controllers, NoC blocks, TSV bus, and the LLC filling the rest of
    /// the center region.
    ///
    /// # Errors
    ///
    /// Propagates floorplan-construction errors (cannot occur for valid
    /// geometry).
    pub fn floorplan(&self) -> Result<Floorplan, ThermalError> {
        let mut fp = Floorplan::new(self.width, self.height);

        // Cores: 3x3 sub-block grid; the exec row (blocks 0-2) faces the
        // die midline.
        for id in 1..=NUM_CORES {
            let r = self.core_rect(id);
            let cw = r.width() / 3.0;
            let ch = r.height() / 3.0;
            let upper_half = r.center().1 > self.height / 2.0;
            for (bi, block) in CORE_BLOCKS.iter().enumerate() {
                let col = bi % 3;
                let row = bi / 3;
                // Upper-half cores: exec row at the core's bottom; lower
                // half: mirrored.
                let row = if upper_half { row } else { 2 - row };
                fp.add_block(
                    Self::core_block_name(id, block),
                    Rect::new(r.x() + col as f64 * cw, r.y() + row as f64 * ch, cw, ch),
                )?;
            }
        }

        // Center region: LLC columns above and below the central band.
        let c = self.center_region();
        let band = self.center_band_half;
        let mid = self.height / 2.0;
        fp.add_block(
            "llc_top",
            Rect::new(c.x(), mid + band, c.width(), c.y_max() - mid - band),
        )?;
        fp.add_block(
            "llc_bot",
            Rect::new(c.x(), c.y(), c.width(), mid - band - c.y()),
        )?;

        // Full-width central band: MCs at the ends (under the core
        // columns, next to the cores they serve), NoC wrapping the TSV
        // bus, peripheral pads between.
        let bus = self.tsv_bus_rect();
        let mc_w = 1.4e-3_f64.min(bus.x() / 2.0);
        fp.add_block("mc0", Rect::new(0.0, mid - band, mc_w, band))?;
        fp.add_block("mc1", Rect::new(0.0, mid, mc_w, band))?;
        fp.add_block("mc2", Rect::new(self.width - mc_w, mid - band, mc_w, band))?;
        fp.add_block("mc3", Rect::new(self.width - mc_w, mid, mc_w, band))?;
        let inner_w = self.width - 2.0 * mc_w;
        fp.add_block(
            "noc0",
            Rect::new(mc_w, mid - band, inner_w, band - bus.height() / 2.0),
        )?;
        fp.add_block(
            "noc1",
            Rect::new(mc_w, bus.y_max(), inner_w, band - bus.height() / 2.0),
        )?;
        fp.add_block(
            "bus_pad_l",
            Rect::new(mc_w, bus.y(), bus.x() - mc_w, bus.height()),
        )?;
        fp.add_block(
            "bus_pad_r",
            Rect::new(
                bus.x_max(),
                bus.y(),
                self.width - mc_w - bus.x_max(),
                bus.height(),
            ),
        )?;
        fp.add_block("tsv_bus", bus)?;

        fp.require_full_coverage(1e-6)?;
        Ok(fp)
    }

    /// Mean Euclidean distance (m) from the center of core `id` to a set of
    /// site coordinates — the metric behind "average distance to the high
    /// vertical conductivity sites" (Sec. 5.2).
    pub fn mean_distance_to_sites(&self, id: CoreId, sites: &[(f64, f64)]) -> f64 {
        if sites.is_empty() {
            return f64::INFINITY;
        }
        let (cx, cy) = self.core_rect(id).center();
        let sum: f64 = sites
            .iter()
            .map(|&(sx, sy)| ((cx - sx).powi(2) + (cy - sy).powi(2)).sqrt())
            .sum();
        sum / sites.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floorplan_tiles_the_die() {
        let g = ProcDieGeometry::paper_default();
        let fp = g.floorplan().unwrap();
        assert!(fp.require_full_coverage(1e-9).is_ok());
        // 8 cores x 9 blocks + 4 MCs + 2 NoC + 2 pads + bus + 2 LLC.
        assert_eq!(fp.len(), 8 * 9 + 4 + 2 + 2 + 1 + 2);
    }

    #[test]
    fn cores_form_two_columns() {
        let g = ProcDieGeometry::paper_default();
        for id in 1..=4 {
            assert_eq!(g.core_rect(id).x(), 0.0, "core {id}");
        }
        for id in 5..=8 {
            assert!(g.core_rect(id).x() > g.width / 2.0, "core {id}");
        }
        // Column order: 1 and 5 on top, 4 and 8 at the bottom.
        assert!(g.core_rect(1).y() > g.core_rect(4).y());
        assert!(g.core_rect(5).y() > g.core_rect(8).y());
        // No overlaps.
        for a in 1..=8 {
            for b in (a + 1)..=8 {
                assert!(!g.core_rect(a).overlaps(&g.core_rect(b)), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn inner_cores_touch_the_central_band() {
        let g = ProcDieGeometry::paper_default();
        let mid = g.height / 2.0;
        let b = g.center_band_half;
        for id in ProcDieGeometry::inner_cores() {
            let r = g.core_rect(id);
            let touches =
                (r.y() - (mid + b)).abs() < 1e-12 || (r.y_max() - (mid - b)).abs() < 1e-12;
            assert!(touches, "core {id}: {r:?}");
        }
        // Outer cores are a full core-height away from the band.
        for id in ProcDieGeometry::outer_cores() {
            let r = g.core_rect(id);
            assert!(
                r.y() > mid + b + g.core_height() / 2.0
                    || r.y_max() < mid - b - g.core_height() / 2.0,
                "core {id}"
            );
        }
    }

    #[test]
    fn inner_outer_partition() {
        let inner = ProcDieGeometry::inner_cores();
        let outer = ProcDieGeometry::outer_cores();
        let mut all: Vec<_> = inner.iter().chain(outer.iter()).collect();
        all.sort();
        assert_eq!(all, vec![&1, &2, &3, &4, &5, &6, &7, &8]);
        assert!(ProcDieGeometry::is_inner_core(2));
        assert!(!ProcDieGeometry::is_inner_core(1));
    }

    #[test]
    fn inner_cores_closer_to_center_sites() {
        let g = ProcDieGeometry::paper_default();
        // Sites along the die's central stripe.
        let sites: Vec<(f64, f64)> = (0..5)
            .map(|i| (1e-3 + i as f64 * 1.5e-3, g.height / 2.0))
            .collect();
        let d_inner = g.mean_distance_to_sites(2, &sites);
        let d_outer = g.mean_distance_to_sites(1, &sites);
        assert!(d_inner < d_outer, "{d_inner} vs {d_outer}");
    }

    #[test]
    fn execution_cluster_faces_die_midline() {
        let g = ProcDieGeometry::paper_default();
        let fp = g.floorplan().unwrap();
        // Inner cores' FPUs sit within a core-row plus the band of the
        // midline — right beside the central TTSV stripe.
        let mid = g.height / 2.0;
        let reach = g.core_height() / 3.0 + 2.0 * g.center_band_half;
        for id in [2usize, 3] {
            let fpu = fp
                .block(&ProcDieGeometry::core_block_name(id, "fpu"))
                .unwrap()
                .rect()
                .center()
                .1;
            assert!((fpu - mid).abs() < reach, "core {id}: fpu at {fpu}");
        }
        // Outer cores' FPUs face the midline too (inner edge of the core).
        let fpu1 = fp.block("core1_fpu").unwrap().rect().center().1;
        let core1 = g.core_rect(1);
        assert!(fpu1 < core1.center().1, "core1 fpu at {fpu1}");
    }

    #[test]
    fn bus_matches_dram_bus_footprint() {
        let pg = ProcDieGeometry::paper_default();
        let dg = crate::dram_die::DramDieGeometry::paper_default();
        let pb = pg.tsv_bus_rect();
        let db = dg.tsv_bus_rect();
        assert!((pb.x() - db.x()).abs() < 1e-9);
        assert!((pb.width() - db.width()).abs() < 1e-9);
        assert!((pb.center().1 - db.center().1).abs() < 1e-9);
    }

    #[test]
    fn bus_clears_the_core_columns() {
        let g = ProcDieGeometry::paper_default();
        let bus = g.tsv_bus_rect();
        for id in 1..=8 {
            assert!(!g.core_rect(id).overlaps(&bus), "core {id}");
        }
    }
}

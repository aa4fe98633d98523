//! The Xylem TTSV placement schemes (paper Table 2, Fig. 5).
//!
//! | Scheme | Name | TTSVs/die | aligned & shorted |
//! |---|---|---|---|
//! | Baseline (Wide I/O)     | `base`     | 0  | — |
//! | Bank Surround           | `bank`     | 28 | yes |
//! | Bank Surround Enhanced  | `banke`    | 36 | yes |
//! | Iso Count               | `isoCount` | 28 | yes |
//! | Prior proposals         | `prior`    | 36 | **no** |
//!
//! `bank` places TTSVs in the peripheral logic at the vertices of each
//! bank; the wider central stripe carries **two** TTSVs at each interior
//! vertex. `banke` adds 8 sites near the processor cores. `isoCount` is
//! `banke` minus the 8 TTSVs of the central stripe. `prior` uses `banke`'s
//! placement but leaves the dummy microbumps unaligned and unshorted, so
//! the D2D layers keep their average (poor) conductivity.

use serde::{Deserialize, Serialize};

use xylem_thermal::floorplan::Rect;

use crate::dram_die::DramDieGeometry;
use crate::tsv::TsvTech;

/// A TTSV site: a location in the peripheral logic holding 1 or 2 TTSVs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TtsvSite {
    /// Site center x, m.
    pub x: f64,
    /// Site center y, m.
    pub y: f64,
    /// TTSVs at this site (1, or 2 in the central stripe).
    pub ttsvs: u8,
}

impl TtsvSite {
    /// The individual TTSV footprints at this site (one or two squares of
    /// the TTSV size, doubled sites stacked vertically with a small gap).
    pub fn rects(&self, tech: &TsvTech) -> Vec<Rect> {
        let s = tech.diameter;
        match self.ttsvs {
            1 => vec![Rect::new(self.x - s / 2.0, self.y - s / 2.0, s, s)],
            2 => {
                let off = s / 2.0 + tech.koz;
                vec![
                    Rect::new(self.x - s / 2.0, self.y - off - s / 2.0, s, s),
                    Rect::new(self.x - s / 2.0, self.y + off - s / 2.0, s, s),
                ]
            }
            n => panic!("site with {n} TTSVs is not representable"),
        }
    }

    /// Center coordinates as a tuple.
    pub fn center(&self) -> (f64, f64) {
        (self.x, self.y)
    }
}

/// The five evaluated TTSV placement schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XylemScheme {
    /// Plain Wide I/O stack, no TTSVs.
    Base,
    /// Generic placement: TTSVs at bank vertices (28).
    BankSurround,
    /// `bank` plus 8 TTSVs near the processor cores (36, co-designed).
    BankEnhanced,
    /// `banke` minus the 8 central-stripe TTSVs (28).
    IsoCount,
    /// `banke` placement without microbump alignment/shorting (models
    /// prior TTSV-only proposals).
    Prior,
}

impl XylemScheme {
    /// All schemes, in the paper's Table 2 order.
    pub const ALL: [XylemScheme; 5] = [
        XylemScheme::Base,
        XylemScheme::BankSurround,
        XylemScheme::BankEnhanced,
        XylemScheme::IsoCount,
        XylemScheme::Prior,
    ];

    /// The short name used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            XylemScheme::Base => "base",
            XylemScheme::BankSurround => "bank",
            XylemScheme::BankEnhanced => "banke",
            XylemScheme::IsoCount => "isoCount",
            XylemScheme::Prior => "prior",
        }
    }

    /// Whether dummy microbumps are aligned with the TTSVs and shorted to
    /// them through backside-metal vias (Sec. 4.1.2). Only then do the D2D
    /// layers gain local high-conductivity pillars.
    pub fn aligned_and_shorted(&self) -> bool {
        match self {
            XylemScheme::Base | XylemScheme::Prior => false,
            XylemScheme::BankSurround | XylemScheme::BankEnhanced | XylemScheme::IsoCount => true,
        }
    }

    /// TTSV sites for this scheme on the given DRAM die geometry.
    pub fn sites(&self, geom: &DramDieGeometry) -> Vec<TtsvSite> {
        match self {
            XylemScheme::Base => Vec::new(),
            XylemScheme::BankSurround => bank_vertex_sites(geom),
            XylemScheme::BankEnhanced | XylemScheme::Prior => {
                let mut s = bank_vertex_sites(geom);
                s.extend(core_adjacent_sites(geom));
                s
            }
            XylemScheme::IsoCount => {
                // The generic placement minus its 8 central-row TTSVs
                // (3 doubled interior vertices + 2 edge singles), which
                // move "closer to the processor die hotspots" (Sec. 7.4):
                // the hottest spots are the inner cores' FPU junctions at
                // the stripe, so the relocated TTSVs take the same
                // co-designed positions the `banke` scheme adds.
                let center_y = geom.vertex_ys()[2];
                let mut s = bank_vertex_sites(geom);
                s.retain(|site| (site.y - center_y).abs() > 1e-12);
                s.extend(core_adjacent_sites(geom));
                s
            }
        }
    }

    /// Total TTSVs per die (Table 2).
    pub fn ttsv_count(&self, geom: &DramDieGeometry) -> usize {
        self.sites(geom).iter().map(|s| s.ttsvs as usize).sum()
    }
}

impl std::fmt::Display for XylemScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The 25 bank-vertex sites; the 3 interior central-stripe vertices carry
/// two TTSVs each (total 28 TTSVs).
fn bank_vertex_sites(geom: &DramDieGeometry) -> Vec<TtsvSite> {
    let xs = geom.vertex_xs();
    let ys = geom.vertex_ys();
    let mut sites = Vec::with_capacity(25);
    for (yi, &y) in ys.iter().enumerate() {
        for (xi, &x) in xs.iter().enumerate() {
            let interior_x = (1..=3).contains(&xi);
            let center_row = yi == 2;
            let ttsvs = if center_row && interior_x { 2 } else { 1 };
            sites.push(TtsvSite { x, y, ttsvs });
        }
    }
    sites
}

/// The 8 core-adjacent TTSVs added by `banke`, co-designed against the
/// processor floorplan (two columns of 4 cores, execution clusters facing
/// the central band): all 8 go into the wide central stripe, as two
/// **doubled** sites over each core column, straddling the junction where
/// the two inner cores' FPU/ALU clusters meet. 2 columns x 2 sites x 2
/// TTSVs = 8. This is the knowing-the-hotspots co-design of Sec. 4.2: the
/// stripe is the only peripheral region wide enough for doubles, and the
/// inner cores' execution clusters are the closest hotspots to it.
fn core_adjacent_sites(geom: &DramDieGeometry) -> Vec<TtsvSite> {
    let xs = geom.bank_center_xs();
    let ys = geom.vertex_ys();
    let offset = 0.25e-3;
    let mut sites = Vec::with_capacity(4);
    for &x in &[xs[0], xs[3]] {
        for dx in [-offset, offset] {
            sites.push(TtsvSite {
                x: x + dx,
                y: ys[2],
                ttsvs: 2,
            });
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> DramDieGeometry {
        DramDieGeometry::paper_default()
    }

    #[test]
    fn ttsv_counts_match_table2() {
        let g = geom();
        assert_eq!(XylemScheme::Base.ttsv_count(&g), 0);
        assert_eq!(XylemScheme::BankSurround.ttsv_count(&g), 28);
        assert_eq!(XylemScheme::BankEnhanced.ttsv_count(&g), 36);
        assert_eq!(XylemScheme::IsoCount.ttsv_count(&g), 28);
        assert_eq!(XylemScheme::Prior.ttsv_count(&g), 36);
    }

    #[test]
    fn shorting_flags_match_table2() {
        assert!(!XylemScheme::Base.aligned_and_shorted());
        assert!(XylemScheme::BankSurround.aligned_and_shorted());
        assert!(XylemScheme::BankEnhanced.aligned_and_shorted());
        assert!(XylemScheme::IsoCount.aligned_and_shorted());
        assert!(!XylemScheme::Prior.aligned_and_shorted());
    }

    #[test]
    fn iso_count_drops_the_generic_central_row() {
        let g = geom();
        let cy = g.vertex_ys()[2];
        let bank_center: Vec<_> = XylemScheme::BankSurround
            .sites(&g)
            .into_iter()
            .filter(|s| (s.y - cy).abs() < 1e-12)
            .collect();
        assert_eq!(
            bank_center.iter().map(|s| s.ttsvs as usize).sum::<usize>(),
            8
        );
        let iso = XylemScheme::IsoCount.sites(&g);
        for s in &bank_center {
            assert!(!iso.contains(s), "generic center site {s:?} kept");
        }
        // The relocated TTSVs take the co-designed positions over the
        // inner FPU junctions (still on the stripe, different sites).
        assert_eq!(
            iso.iter()
                .filter(|s| (s.y - cy).abs() < 1e-12)
                .map(|s| s.ttsvs as usize)
                .sum::<usize>(),
            8
        );
    }

    #[test]
    fn prior_and_banke_share_placement() {
        let g = geom();
        assert_eq!(
            XylemScheme::Prior.sites(&g),
            XylemScheme::BankEnhanced.sites(&g)
        );
    }

    #[test]
    fn sites_are_within_the_die() {
        let g = geom();
        let tech = TsvTech::thermal();
        for scheme in XylemScheme::ALL {
            for site in scheme.sites(&g) {
                for r in site.rects(&tech) {
                    assert!(r.x() >= 0.0 && r.x_max() <= g.width, "{scheme} {site:?}");
                    assert!(r.y() >= 0.0 && r.y_max() <= g.height, "{scheme} {site:?}");
                }
            }
        }
    }

    #[test]
    fn doubled_sites_have_disjoint_rects() {
        let g = geom();
        let tech = TsvTech::thermal();
        for site in XylemScheme::BankSurround.sites(&g) {
            let rects = site.rects(&tech);
            if rects.len() == 2 {
                assert!(!rects[0].overlaps(&rects[1]));
            }
        }
    }

    #[test]
    fn sites_avoid_banks() {
        // TTSVs live in the peripheral logic, never inside a bank array.
        let g = geom();
        for site in XylemScheme::BankEnhanced.sites(&g) {
            for row in 0..4 {
                for col in 0..4 {
                    let b = g.bank_rect(row, col);
                    let inside = (b.x()..=b.x_max()).contains(&site.x)
                        && (b.y()..=b.y_max()).contains(&site.y);
                    assert!(!inside, "site {site:?} inside bank {row}{col}");
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(XylemScheme::IsoCount.to_string(), "isoCount");
        assert_eq!(XylemScheme::BankEnhanced.to_string(), "banke");
    }
}

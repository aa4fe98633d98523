//! The 17 evaluated applications (paper Sec. 6.3).
//!
//! Profiles are calibrated to reproduce the qualitative structure of the
//! paper's figures: the compute-intensive codes (LU-NAS, Cholesky, Barnes,
//! Radiosity, Blackscholes) run hot and scale with frequency; the
//! memory-intensive codes (IS, FT, CG, Radix) run cool and scale poorly;
//! the rest sit in between.

use serde::{Deserialize, Serialize};

use crate::profile::WorkloadProfile;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPLASH-2.
    Splash2,
    /// PARSEC.
    Parsec,
    /// NAS Parallel Benchmarks.
    Nas,
}

/// The 17 applications of the paper's evaluation, in Fig. 7 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Benchmark {
    Fft,
    Cholesky,
    Lu,
    Radix,
    Barnes,
    Fmm,
    Radiosity,
    Raytrace,
    Fluidanimate,
    Blackscholes,
    Bt,
    Cg,
    Ft,
    Is,
    LuNas,
    Mg,
    Sp,
}

impl Benchmark {
    /// All benchmarks, in the paper's plot order.
    pub const ALL: [Benchmark; 17] = [
        Benchmark::Fft,
        Benchmark::Cholesky,
        Benchmark::Lu,
        Benchmark::Radix,
        Benchmark::Barnes,
        Benchmark::Fmm,
        Benchmark::Radiosity,
        Benchmark::Raytrace,
        Benchmark::Fluidanimate,
        Benchmark::Blackscholes,
        Benchmark::Bt,
        Benchmark::Cg,
        Benchmark::Ft,
        Benchmark::Is,
        Benchmark::LuNas,
        Benchmark::Mg,
        Benchmark::Sp,
    ];

    /// The plot label used by the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Fft => "FFT",
            Benchmark::Cholesky => "Cholesky",
            Benchmark::Lu => "LU",
            Benchmark::Radix => "Radix",
            Benchmark::Barnes => "Barnes",
            Benchmark::Fmm => "FMM",
            Benchmark::Radiosity => "Radiosity",
            Benchmark::Raytrace => "Raytrace",
            Benchmark::Fluidanimate => "Fluid.",
            Benchmark::Blackscholes => "Black.",
            Benchmark::Bt => "BT",
            Benchmark::Cg => "CG",
            Benchmark::Ft => "FT",
            Benchmark::Is => "IS",
            Benchmark::LuNas => "LU(NAS)",
            Benchmark::Mg => "MG",
            Benchmark::Sp => "SP",
        }
    }

    /// Suite of origin.
    pub fn suite(&self) -> Suite {
        match self {
            Benchmark::Fft
            | Benchmark::Cholesky
            | Benchmark::Lu
            | Benchmark::Radix
            | Benchmark::Barnes
            | Benchmark::Fmm
            | Benchmark::Radiosity
            | Benchmark::Raytrace => Suite::Splash2,
            Benchmark::Fluidanimate | Benchmark::Blackscholes => Suite::Parsec,
            Benchmark::Bt
            | Benchmark::Cg
            | Benchmark::Ft
            | Benchmark::Is
            | Benchmark::LuNas
            | Benchmark::Mg
            | Benchmark::Sp => Suite::Nas,
        }
    }

    /// The input size the paper runs (Sec. 6.3).
    pub fn input(&self) -> &'static str {
        match self {
            Benchmark::Fft => "2^22 points",
            Benchmark::Cholesky => "tk29.O",
            Benchmark::Lu => "512x512, 16x16 blocks",
            Benchmark::Radix => "4M integers",
            Benchmark::Barnes => "16K particles",
            Benchmark::Fmm => "16K particles",
            Benchmark::Radiosity => "batch",
            Benchmark::Raytrace => "teapot",
            Benchmark::Fluidanimate => "simsmall",
            Benchmark::Blackscholes => "simmedium",
            Benchmark::Bt => "small",
            Benchmark::Cg => "workstation",
            Benchmark::Ft => "workstation",
            Benchmark::Is => "workstation",
            Benchmark::LuNas => "small",
            Benchmark::Mg => "workstation",
            Benchmark::Sp => "small",
        }
    }

    /// The calibrated profile.
    pub fn profile(&self) -> WorkloadProfile {
        // (base_cpi, l1i, l1d, l2_mpki, sharing, read, row_hit, mlp,
        //  activity, mem_intensity, Minstr)
        #[rustfmt::skip]
        let t = match self {
            Benchmark::Fft =>          (0.70,  0.8, 14.0,  3.0, 0.10, 0.70, 0.62, 0.45, 0.80, 0.45, 120),
            Benchmark::Cholesky =>     (0.55,  1.2,  8.0,  0.8, 0.15, 0.72, 0.65, 0.60, 0.95, 0.15, 160),
            Benchmark::Lu =>           (0.60,  0.6, 10.0,  1.8, 0.12, 0.70, 0.68, 0.55, 0.85, 0.30, 140),
            Benchmark::Radix =>        (0.75,  0.4, 26.0,  7.0, 0.08, 0.60, 0.45, 0.40, 0.55, 0.75, 100),
            Benchmark::Barnes =>       (0.52,  1.0,  7.0,  0.6, 0.30, 0.75, 0.60, 0.60, 0.96, 0.12, 170),
            Benchmark::Fmm =>          (0.58,  1.1,  9.0,  1.2, 0.25, 0.74, 0.60, 0.55, 0.88, 0.25, 150),
            Benchmark::Radiosity =>    (0.54,  1.5,  7.5,  0.7, 0.30, 0.73, 0.58, 0.60, 0.95, 0.15, 160),
            Benchmark::Raytrace =>     (0.62,  2.0, 11.0,  2.2, 0.20, 0.78, 0.55, 0.50, 0.82, 0.35, 130),
            Benchmark::Fluidanimate => (0.60,  0.7,  9.5,  1.5, 0.18, 0.70, 0.62, 0.55, 0.87, 0.28, 140),
            Benchmark::Blackscholes => (0.55,  0.3,  6.0,  0.5, 0.02, 0.72, 0.70, 0.60, 0.90, 0.10, 150),
            Benchmark::Bt =>           (0.65,  0.5, 12.0,  2.5, 0.10, 0.68, 0.66, 0.50, 0.80, 0.40, 130),
            Benchmark::Cg =>           (0.80,  0.4, 30.0,  9.0, 0.06, 0.85, 0.40, 0.32, 0.45, 0.85,  90),
            Benchmark::Ft =>           (0.85,  0.4, 32.0, 10.0, 0.05, 0.65, 0.50, 0.30, 0.42, 0.85,  90),
            Benchmark::Is =>           (0.90,  0.3, 36.0, 12.0, 0.04, 0.60, 0.38, 0.28, 0.38, 0.90,  80),
            Benchmark::LuNas =>        (0.50,  0.4,  6.0,  0.4, 0.08, 0.72, 0.70, 0.65, 0.98, 0.08, 180),
            Benchmark::Mg =>           (0.70,  0.5, 20.0,  5.0, 0.08, 0.75, 0.55, 0.38, 0.65, 0.60, 110),
            Benchmark::Sp =>           (0.68,  0.5, 16.0,  3.5, 0.10, 0.72, 0.60, 0.45, 0.75, 0.50, 120),
        };
        let (base_cpi, l1i, l1d, l2, sharing, read, row_hit, mlp, act, mi, minstr) = t;
        WorkloadProfile {
            instructions: (minstr as u64) * 1_000_000,
            base_cpi,
            l1i_mpki: l1i,
            l1d_mpki: l1d,
            l2_mpki: l2,
            sharing_fraction: sharing,
            read_fraction: read,
            row_hit_fraction: row_hit,
            mlp_overlap: mlp,
            activity_peak: act,
            memory_intensity: mi,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_benchmarks() {
        assert_eq!(Benchmark::ALL.len(), 17);
        let names: std::collections::HashSet<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn all_profiles_validate() {
        for b in Benchmark::ALL {
            b.profile()
                .validate()
                .unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn cache_miss_hierarchy_is_sane() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.l2_mpki <= p.l1d_mpki, "{b}: L2 misses exceed L1D misses");
        }
    }

    #[test]
    fn compute_codes_are_hot_and_memory_codes_are_not() {
        let hot = [
            Benchmark::LuNas,
            Benchmark::Cholesky,
            Benchmark::Barnes,
            Benchmark::Radiosity,
        ];
        let cool = [
            Benchmark::Is,
            Benchmark::Ft,
            Benchmark::Cg,
            Benchmark::Radix,
        ];
        for h in hot {
            assert!(h.profile().activity_peak > 0.9, "{h}");
            assert!(h.profile().memory_intensity < 0.4, "{h}");
        }
        for c in cool {
            assert!(c.profile().activity_peak < 0.6, "{c}");
            assert!(c.profile().memory_intensity >= 0.4, "{c}");
        }
    }

    #[test]
    fn suites_match_paper() {
        assert_eq!(Benchmark::Fft.suite(), Suite::Splash2);
        assert_eq!(Benchmark::Blackscholes.suite(), Suite::Parsec);
        assert_eq!(Benchmark::LuNas.suite(), Suite::Nas);
        let nas = Benchmark::ALL
            .iter()
            .filter(|b| b.suite() == Suite::Nas)
            .count();
        assert_eq!(nas, 7);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Benchmark::LuNas.to_string(), "LU(NAS)");
        assert_eq!(Benchmark::Fluidanimate.to_string(), "Fluid.");
    }
}

//! Frequency boosting into the thermal headroom (paper Sec. 5.1, 7.3).
//!
//! Xylem's headline optimization: improved vertical conduction lowers the
//! processor temperature, and the freed headroom is spent by raising the
//! DVFS point until the temperature returns to the limit. Two search
//! modes exist:
//!
//! * **iso-temperature** (Fig. 9-12): the limit is the temperature the
//!   *base* stack reached for the same application at 2.4 GHz;
//! * **DTM limits** (Figs. 15-16): the limit is `T_j,max` = 100 deg C for
//!   the processor and 95 deg C for the DRAM — what a dynamic thermal
//!   management system enforces on a real machine.

use serde::{Deserialize, Serialize};

use xylem_thermal::units::Celsius;
use xylem_workloads::Benchmark;

use crate::evaluation::Evaluation;
use crate::system::{RunSpec, XylemSystem};
use crate::Result;

/// Thermal limits for a frequency search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalLimits {
    /// Processor hotspot limit.
    pub proc: Celsius,
    /// DRAM hotspot limit (`None` = unconstrained).
    pub dram: Option<Celsius>,
}

impl ThermalLimits {
    /// The paper's DTM limits: 100 deg C processor, 95 deg C DRAM.
    pub fn paper_dtm() -> Self {
        ThermalLimits {
            proc: Celsius::new(100.0),
            dram: Some(Celsius::new(95.0)),
        }
    }

    /// Iso-temperature limits: match a reference processor temperature
    /// (DRAM unconstrained, as in the paper's Sec. 7.3 methodology).
    pub fn iso_temperature(reference_proc: Celsius) -> Self {
        ThermalLimits {
            proc: reference_proc,
            dram: None,
        }
    }

    /// Whether an evaluation satisfies the limits.
    pub fn admits(&self, e: &Evaluation) -> bool {
        e.proc_hotspot_c <= self.proc.get() + 1e-9
            && self.dram.is_none_or(|d| e.dram_hotspot_c <= d.get() + 1e-9)
    }
}

/// Result of a frequency search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoostOutcome {
    /// Highest admissible frequency, GHz.
    pub f_ghz: f64,
    /// The evaluation at that frequency.
    pub evaluation: Evaluation,
}

/// Finds the highest DVFS point whose run (built by `make_run`) satisfies
/// `limits`. Scans the table bottom-up (12 points; evaluations are cheap
/// through the response cache). Returns `None` if even the lowest point
/// violates the limits.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn max_frequency_for_run(
    system: &mut XylemSystem,
    limits: ThermalLimits,
    mut make_run: impl FnMut(f64) -> RunSpec,
) -> Result<Option<BoostOutcome>> {
    let points: Vec<f64> = system
        .power_model()
        .dvfs()
        .points()
        .map(|p| p.frequency_ghz)
        .collect();
    let mut best: Option<BoostOutcome> = None;
    for f in points {
        let run = make_run(f);
        let e = system.evaluate(&run)?;
        if limits.admits(&e) {
            best = Some(BoostOutcome {
                f_ghz: f,
                evaluation: e,
            });
        } else {
            break; // temperature is monotone in frequency
        }
    }
    Ok(best)
}

/// Highest frequency for the standard 8-thread run of `benchmark` whose
/// processor hotspot stays at or below the base stack's temperature for
/// the same application at 2.4 GHz (`reference_c`).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn max_frequency_at_iso_temperature(
    system: &mut XylemSystem,
    benchmark: Benchmark,
    reference: Celsius,
) -> Result<Option<BoostOutcome>> {
    max_frequency_for_run(system, ThermalLimits::iso_temperature(reference), |f| {
        RunSpec::uniform(benchmark, f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::dvfs_power_maps;
    use crate::system::SystemConfig;
    use xylem_stack::XylemScheme;
    use xylem_thermal::grid::GridSpec;
    use xylem_thermal::SolverWorkspace;

    /// Highest frequency for the standard 8-thread run under the paper's
    /// DTM limits (T_j,max = 100 deg C, DRAM <= 95 deg C).
    fn max_frequency_under_limits(
        system: &mut XylemSystem,
        benchmark: Benchmark,
    ) -> Result<Option<BoostOutcome>> {
        max_frequency_for_run(system, ThermalLimits::paper_dtm(), |f| {
            RunSpec::uniform(benchmark, f)
        })
    }

    /// Result of a [`max_frequency_direct`] search.
    #[derive(Debug)]
    struct DirectBoostOutcome {
        /// Highest admissible frequency, GHz.
        f_ghz: f64,
        /// Processor hotspot at that frequency.
        proc_hotspot: Celsius,
        /// Total CG iterations across all frequencies scanned. Each solve
        /// warm-starts from the previous (slightly cooler) frequency's
        /// field, so the whole scan costs little more than one cold solve.
        cg_iterations: usize,
    }

    /// Frequency search by *direct* steady-state solves instead of the
    /// superposed response cache: scans the DVFS table bottom-up, solving
    /// the full thermal system at each point and warm-starting each solve
    /// from the previous frequency's temperature field. Cross-validates the
    /// response-cache search (same model, no superposition error) and is
    /// the natural consumer of the solver's warm-start contract — adjacent
    /// DVFS points differ by a few degrees, so each subsequent solve
    /// converges in a fraction of the cold iteration count.
    ///
    /// Returns `None` if even the lowest point violates `limits`.
    fn max_frequency_direct(
        system: &XylemSystem,
        benchmark: Benchmark,
        limits: ThermalLimits,
        grid: GridSpec,
    ) -> Result<Option<DirectBoostOutcome>> {
        let built = system.built();
        let model = built.stack().discretize(grid)?;
        let pm_layer = built.proc_metal_layer();
        let bd_layer = built.bottom_dram_metal_layer();
        let (points, maps) = dvfs_power_maps(system, benchmark, f64::INFINITY, &model)?;

        let mut ws = SolverWorkspace::new();
        let mut prev: Option<xylem_thermal::TemperatureField> = None;
        let mut best: Option<DirectBoostOutcome> = None;
        let mut cg_iterations = 0usize;
        for (f, map) in points.iter().zip(&maps) {
            let field = model.steady_state_from(map, prev.as_ref(), &mut ws)?;
            cg_iterations += field.stats().iterations;
            let proc_hot = field.max_of_layer(pm_layer);
            let dram_hot = field.max_of_layer(bd_layer);
            let admitted = proc_hot.get() <= limits.proc.get() + 1e-9
                && limits.dram.is_none_or(|d| dram_hot.get() <= d.get() + 1e-9);
            if admitted {
                best = Some(DirectBoostOutcome {
                    f_ghz: *f,
                    proc_hotspot: proc_hot,
                    cg_iterations,
                });
            } else {
                break; // temperature is monotone in frequency
            }
            prev = Some(field);
        }
        if let Some(b) = &mut best {
            b.cg_iterations = cg_iterations;
        }
        Ok(best)
    }

    fn system(scheme: XylemScheme) -> XylemSystem {
        let mut cfg = SystemConfig::fast(scheme);
        cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
        XylemSystem::new(cfg).unwrap()
    }

    #[test]
    fn iso_temperature_boost_is_higher_on_banke() {
        let mut base = system(XylemScheme::Base);
        let reference = base
            .evaluate_uniform(Benchmark::Radiosity, 2.4)
            .unwrap()
            .proc_hotspot_c;
        let mut banke = system(XylemScheme::BankEnhanced);
        let boost = max_frequency_at_iso_temperature(
            &mut banke,
            Benchmark::Radiosity,
            Celsius::new(reference),
        )
        .unwrap()
        .expect("banke admits at least 2.4 GHz");
        assert!(boost.f_ghz > 2.4, "{}", boost.f_ghz);
        assert!(boost.evaluation.proc_hotspot_c <= reference + 1e-9);
    }

    #[test]
    fn base_at_its_own_reference_stays_at_2_4() {
        let mut base = system(XylemScheme::Base);
        let reference = base
            .evaluate_uniform(Benchmark::Cholesky, 2.4)
            .unwrap()
            .proc_hotspot_c;
        let boost = max_frequency_at_iso_temperature(
            &mut base,
            Benchmark::Cholesky,
            Celsius::new(reference),
        )
        .unwrap()
        .expect("the reference point itself is admissible");
        assert!((boost.f_ghz - 2.4).abs() < 1e-9, "{}", boost.f_ghz);
    }

    #[test]
    fn direct_search_tracks_the_cached_search() {
        let mut s = system(XylemScheme::BankEnhanced);
        let cached = max_frequency_under_limits(&mut s, Benchmark::Is)
            .unwrap()
            .unwrap();
        let direct = max_frequency_direct(
            &s,
            Benchmark::Is,
            ThermalLimits::paper_dtm(),
            GridSpec::new(16, 16),
        )
        .unwrap()
        .unwrap();
        // Same model, different grid resolution than the cached path
        // (SystemConfig::fast) -> allow one DVFS step of disagreement.
        let points: Vec<f64> = s
            .power_model()
            .dvfs()
            .points()
            .map(|p| p.frequency_ghz)
            .collect();
        let ci = points.iter().position(|&f| f == cached.f_ghz).unwrap();
        let di = points.iter().position(|&f| f == direct.f_ghz).unwrap();
        assert!(ci.abs_diff(di) <= 1, "{} vs {}", cached.f_ghz, direct.f_ghz);
        assert!(direct.proc_hotspot.get() <= 100.0 + 1e-9);
        assert!(direct.cg_iterations > 0);
    }

    #[test]
    fn warm_started_scan_beats_cold_solves() {
        // The direct search's warm-start chain must use fewer CG
        // iterations than solving every scanned point from ambient.
        let s = system(XylemScheme::BankEnhanced);
        let grid = GridSpec::new(16, 16);
        let direct = max_frequency_direct(&s, Benchmark::Is, ThermalLimits::paper_dtm(), grid)
            .unwrap()
            .unwrap();
        let built = s.built();
        let model = built.stack().discretize(grid).unwrap();
        let (points, maps) = dvfs_power_maps(&s, Benchmark::Is, f64::INFINITY, &model).unwrap();
        let mut ws = xylem_thermal::SolverWorkspace::new();
        let mut cold = 0usize;
        for (f, map) in points.iter().zip(&maps) {
            // The search visits the admissible prefix plus the first
            // violator; replicate exactly that set of solves.
            let field = model.steady_state_from(map, None, &mut ws).unwrap();
            cold += field.stats().iterations;
            if *f > direct.f_ghz {
                break;
            }
        }
        assert!(
            direct.cg_iterations < cold,
            "warm {} vs cold {}",
            direct.cg_iterations,
            cold
        );
    }

    #[test]
    fn impossible_limits_return_none() {
        let mut s = system(XylemScheme::Base);
        let out = max_frequency_for_run(
            &mut s,
            ThermalLimits {
                proc: Celsius::new(10.0),
                dram: Some(Celsius::new(10.0)),
            },
            |f| RunSpec::uniform(Benchmark::Fft, f),
        )
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn memory_bound_gets_a_larger_dtm_boost_than_compute_bound() {
        // Cooler applications leave more headroom below T_j,max.
        let mut s = system(XylemScheme::BankEnhanced);
        let cool = max_frequency_under_limits(&mut s, Benchmark::Is)
            .unwrap()
            .unwrap();
        let hot = max_frequency_under_limits(&mut s, Benchmark::LuNas)
            .unwrap()
            .unwrap();
        assert!(cool.f_ghz >= hot.f_ghz, "{} vs {}", cool.f_ghz, hot.f_ghz);
    }
}

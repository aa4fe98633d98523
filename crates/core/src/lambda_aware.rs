//! Conductivity (lambda)-aware techniques (paper Sec. 5.2, 7.6).
//!
//! The aligned-and-shorted microbump/TTSV sites make vertical conduction
//! spatially heterogeneous: the inner cores (2, 3, 6, 7) sit closer, on
//! average, to the high-conductivity sites than the outer cores
//! (1, 4, 5, 8). Three techniques exploit that:
//!
//! * **thread placement** — put the thermally demanding threads on the
//!   inner cores ([`placement_experiment`], Fig. 15);
//! * **frequency boosting** — boost the inner cores beyond the chip-wide
//!   limit ([`boosting_experiment`], Fig. 16);
//! * **thread migration** — rotate threads among the inner ring rather
//!   than the outer ring ([`crate::migration`], Fig. 17).

use serde::{Deserialize, Serialize};

use xylem_workloads::Benchmark;

use crate::headroom::{max_frequency_for_run, ThermalLimits};
use crate::placement::ThreadPlacement;
use crate::system::{Instance, RunSpec, XylemSystem};
use crate::Result;

/// Outcome of the lambda-aware thread-placement experiment (Fig. 15):
/// maximum die-wide frequency with the compute-intensive threads outside
/// vs. inside.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// Max frequency with the hot threads on the outer cores, GHz.
    pub outside_f_ghz: f64,
    /// Max frequency with the hot threads on the inner cores, GHz.
    pub inside_f_ghz: f64,
}

/// Runs the Fig. 15 experiment: 4 threads of a compute-intensive code and
/// 4 threads of a memory-intensive code share the die; the placement of
/// the hot threads (outer vs. inner cores) decides the admissible
/// die-wide frequency under DTM limits.
///
/// # Errors
///
/// Propagates evaluation errors. Returns frequencies of 0.0 if even the
/// lowest DVFS point violates the limits (does not happen for the paper
/// configuration).
pub fn placement_experiment(
    system: &mut XylemSystem,
    compute: Benchmark,
    memory: Benchmark,
) -> Result<PlacementOutcome> {
    let limits = ThermalLimits::paper_dtm();
    let mixed = |hot_inner: bool| {
        move |f: f64| {
            let (hot_cores, cool_cores) = if hot_inner {
                (ThreadPlacement::inner(), ThreadPlacement::outer())
            } else {
                (ThreadPlacement::outer(), ThreadPlacement::inner())
            };
            RunSpec {
                instances: vec![
                    Instance {
                        benchmark: compute,
                        placement: hot_cores,
                        f_ghz: f,
                    },
                    Instance {
                        benchmark: memory,
                        placement: cool_cores,
                        f_ghz: f,
                    },
                ],
                uncore_f_ghz: f,
            }
        }
    };
    let outside = max_frequency_for_run(system, limits, mixed(false))?;
    let inside = max_frequency_for_run(system, limits, mixed(true))?;
    Ok(PlacementOutcome {
        outside_f_ghz: outside.map_or(0.0, |b| b.f_ghz),
        inside_f_ghz: inside.map_or(0.0, |b| b.f_ghz),
    })
}

/// Outcome of the lambda-aware frequency-boosting experiment (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostingOutcome {
    /// Chip-wide maximum frequency (all 8 cores), GHz.
    pub single_f_ghz: f64,
    /// Inner-core frequency after the additional lambda-aware boost (the
    /// outer cores stay at `single_f_ghz`), GHz.
    pub multiple_inner_f_ghz: f64,
}

/// Runs the Fig. 16 experiment: two 4-thread instances of `benchmark`
/// (one on the inner cores, one on the outer). First find the chip-wide
/// maximum frequency under DTM limits; then boost only the inner cores
/// until they too reach the limit.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn boosting_experiment(
    system: &mut XylemSystem,
    benchmark: Benchmark,
) -> Result<BoostingOutcome> {
    let limits = ThermalLimits::paper_dtm();
    let both = |f_inner: f64, f_outer: f64| RunSpec {
        instances: vec![
            Instance {
                benchmark,
                placement: ThreadPlacement::inner(),
                f_ghz: f_inner,
            },
            Instance {
                benchmark,
                placement: ThreadPlacement::outer(),
                f_ghz: f_outer,
            },
        ],
        uncore_f_ghz: f_outer.min(f_inner),
    };

    let single = max_frequency_for_run(system, limits, |f| both(f, f))?;
    let single_f = single.as_ref().map_or(0.0, |b| b.f_ghz);

    // Phase 2: outer pinned at the chip-wide limit; inner boosted further.
    let multiple = max_frequency_for_run(system, limits, |f| both(f.max(single_f), single_f))?;
    let multiple_f = multiple.map_or(single_f, |b| b.f_ghz.max(single_f));

    Ok(BoostingOutcome {
        single_f_ghz: single_f,
        multiple_inner_f_ghz: multiple_f,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use xylem_stack::XylemScheme;

    fn system(scheme: XylemScheme) -> XylemSystem {
        let mut cfg = SystemConfig::fast(scheme);
        cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
        XylemSystem::new(cfg).unwrap()
    }

    #[test]
    fn inside_placement_never_worse() {
        let mut s = system(XylemScheme::BankEnhanced);
        let out = placement_experiment(&mut s, Benchmark::LuNas, Benchmark::Is).unwrap();
        assert!(out.inside_f_ghz >= out.outside_f_ghz, "{out:?}");
        assert!(out.outside_f_ghz >= 2.4);
    }

    #[test]
    fn multiple_frequency_never_below_single() {
        let mut s = system(XylemScheme::BankEnhanced);
        let out = boosting_experiment(&mut s, Benchmark::Fft).unwrap();
        assert!(out.multiple_inner_f_ghz >= out.single_f_ghz, "{out:?}");
    }
}

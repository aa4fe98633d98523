//! Lambda-aware thread migration (paper Sec. 5.2.3, Fig. 17).
//!
//! Two threads of an application run at a fixed frequency and migrate
//! every 30 ms around a 4-core ring — either the inner cores or the outer
//! cores. The experiment integrates the transient RC network through the
//! migration schedule and reports the processor hotspot statistics; the
//! inner ring keeps the die cooler on aligned-and-shorted schemes because
//! every landing spot sits near high-conductivity pillars.
//!
//! Both experiments build their per-position power maps through
//! [`XylemSystem::metrics_power_map`], with leakage at a fixed 90 C
//! estimate, and reject a malformed ring or schedule with a
//! [`crate::XylemError::Config`] instead of panicking.

use serde::{Deserialize, Serialize};

use xylem_thermal::grid::GridSpec;
use xylem_thermal::units::Celsius;
use xylem_workloads::Benchmark;

use crate::error::ConfigError;
use crate::placement::ThreadPlacement;
use crate::system::XylemSystem;
use crate::Result;

/// Fixed leakage-temperature estimate for the iso-frequency migration
/// comparisons (the error cancels between rings).
const LEAKAGE_TEMP_ESTIMATE: Celsius = Celsius::new(90.0);

/// Parameters of a migration experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Core frequency, GHz (the same for both rings, per the paper).
    pub f_ghz: f64,
    /// Migration period, s (paper: 30 ms).
    pub period_s: f64,
    /// Backward-Euler step, s.
    pub dt_s: f64,
    /// Full ring rotations to simulate (4 periods each). The first
    /// rotation is warm-up; statistics cover the rest.
    pub rotations: usize,
    /// Thermal grid for the transient solves (coarser than the
    /// steady-state experiments to keep the transient affordable).
    pub grid: GridSpec,
}

impl MigrationConfig {
    /// The paper's setup: 30 ms period at 2.4 GHz, two rotations measured
    /// after one warm-up rotation, on a 32x32 grid.
    pub fn paper_default() -> Self {
        MigrationConfig {
            f_ghz: 2.4,
            period_s: 0.030,
            dt_s: 0.005,
            rotations: 3,
            grid: GridSpec::new(32, 32),
        }
    }
}

/// Hotspot statistics over the measured rotations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationResult {
    /// Peak processor hotspot, deg C.
    pub max_hotspot_c: f64,
    /// Time-averaged processor hotspot, deg C.
    pub mean_hotspot_c: f64,
    /// Migrations performed during the measured window.
    pub migrations: usize,
}

/// Rejects a ring that is not exactly 4 cores.
fn check_ring(ring: &ThreadPlacement) -> Result<()> {
    if ring.len() != 4 {
        return Err(ConfigError::new(
            "ring",
            format!("migration ring must have 4 cores, got {}", ring.len()),
        )
        .into());
    }
    Ok(())
}

/// Runs the migration experiment for `benchmark` around `ring` (4 cores).
///
/// # Errors
///
/// [`crate::XylemError::Config`] if `ring` does not hold exactly 4 cores,
/// the period or step is not positive and finite, or fewer than 2
/// rotations are asked for; otherwise propagates model errors.
pub fn migration_experiment(
    system: &XylemSystem,
    benchmark: Benchmark,
    ring: &ThreadPlacement,
    cfg: &MigrationConfig,
) -> Result<MigrationResult> {
    check_ring(ring)?;
    for (what, v) in [("period_s", cfg.period_s), ("dt_s", cfg.dt_s)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(
                ConfigError::new(what, format!("{v} s must be positive and finite")).into(),
            );
        }
    }
    if cfg.rotations < 2 {
        return Err(ConfigError::new(
            "rotations",
            format!(
                "{} rotations leave nothing to measure after the warm-up one",
                cfg.rotations
            ),
        )
        .into());
    }
    let steps_per_period = (cfg.period_s / cfg.dt_s).round().max(1.0) as usize;

    let built = system.built();
    let model = built.stack().discretize(cfg.grid)?;
    let pm_layer = built.proc_metal_layer();

    // Two threads at the ring's opposite positions, one map per ring
    // phase; a quarter of the uncore demand.
    let metrics = system.machine().run(benchmark, cfg.f_ghz, 2);
    let mut phase_maps = Vec::with_capacity(4);
    for phase in 0..4 {
        let active = [ring.cores()[phase], ring.cores()[(phase + 2) % 4]];
        phase_maps.push(system.metrics_power_map(
            &model,
            &metrics,
            &active,
            0.25,
            LEAKAGE_TEMP_ESTIMATE,
        )?);
    }

    // Warm start: steady state of phase 0.
    let mut field = model.steady_state(&phase_maps[0])?;
    let mut max_hot = f64::NEG_INFINITY;
    let mut sum_hot = 0.0;
    let mut samples = 0usize;
    let mut migrations = 0usize;

    for rotation in 0..cfg.rotations {
        for map in &phase_maps {
            for _ in 0..steps_per_period {
                field = model.transient(map, &field, cfg.dt_s, 1)?;
                if rotation > 0 {
                    let hot = field.max_of_layer(pm_layer).get();
                    max_hot = max_hot.max(hot);
                    sum_hot += hot;
                    samples += 1;
                }
            }
            if rotation > 0 {
                migrations += 1;
            }
        }
    }

    Ok(MigrationResult {
        max_hotspot_c: max_hot,
        mean_hotspot_c: sum_hot / samples.max(1) as f64,
        migrations,
    })
}

/// Result of a threshold-triggered migration run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdMigrationResult {
    /// Migrations needed to finish the run.
    pub migrations: usize,
    /// Total simulated time, s.
    pub duration_s: f64,
    /// Peak hotspot, deg C.
    pub max_hotspot_c: f64,
}

/// Threshold-triggered migration (the paper's Sec. 5.2.3 claim: "we will
/// need fewer migrations to complete the program" on rings closer to the
/// high-conductivity sites).
///
/// One thread runs at `f_ghz` on a ring core until the hotspot reaches
/// `trip`, then hops to the coolest idle ring core; the run lasts
/// `duration_s`. Returns how many hops were needed — fewer hops on the
/// inner ring of an aligned-and-shorted stack.
///
/// # Errors
///
/// [`crate::XylemError::Config`] if `ring` does not hold exactly 4 cores;
/// otherwise propagates model errors.
pub fn threshold_migration_experiment(
    system: &XylemSystem,
    benchmark: Benchmark,
    ring: &ThreadPlacement,
    f_ghz: f64,
    trip: Celsius,
    duration_s: f64,
    grid: GridSpec,
) -> Result<ThresholdMigrationResult> {
    check_ring(ring)?;
    let built = system.built();
    let model = built.stack().discretize(grid)?;
    let pm_layer = built.proc_metal_layer();
    let metrics = system.machine().run(benchmark, f_ghz, 1);

    // One power map per ring position (single active thread, an eighth
    // of the uncore demand).
    let mut maps = Vec::with_capacity(4);
    for &active in ring.cores() {
        maps.push(system.metrics_power_map(
            &model,
            &metrics,
            &[active],
            0.125,
            LEAKAGE_TEMP_ESTIMATE,
        )?);
    }

    let dt = 2e-3;
    let max_steps = (duration_s / dt).ceil() as usize;
    let mut field = xylem_thermal::temperature::TemperatureField::uniform(&model, model.ambient());
    let mut pos = 0usize;
    let mut migrations = 0usize;
    let mut max_hot = f64::NEG_INFINITY;
    // Cell sets per ring core for per-core temperature reads.
    let core_cells: Vec<Vec<usize>> = ring
        .cores()
        .iter()
        .map(|&id| {
            let mut cells = Vec::new();
            for sub in xylem_stack::proc_die::CORE_BLOCKS {
                let name = xylem_stack::proc_die::ProcDieGeometry::core_block_name(id, sub);
                if let Ok(w) = model.block_weights(pm_layer, &name) {
                    cells.extend(w.iter().map(|&(c, _)| c));
                }
            }
            cells
        })
        .collect();

    for _ in 0..max_steps {
        field = model.transient(&maps[pos], &field, dt, 1)?;
        let slice = field.layer_slice(pm_layer);
        let active_hot = core_cells[pos]
            .iter()
            .map(|&c| slice[c])
            .fold(f64::NEG_INFINITY, f64::max);
        max_hot = max_hot.max(field.max_of_layer(pm_layer).get());
        if active_hot >= trip.get() {
            // Hop to the coolest other ring core (the first on a tie).
            let heat = |i: usize| -> f64 { core_cells[i].iter().map(|&c| slice[c]).sum() };
            pos = (0..4)
                .filter(|&i| i != pos)
                .min_by(|&a, &b| heat(a).total_cmp(&heat(b)))
                .unwrap_or(pos);
            migrations += 1;
        }
    }

    Ok(ThresholdMigrationResult {
        migrations,
        duration_s,
        max_hotspot_c: max_hot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use crate::XylemError;
    use xylem_stack::XylemScheme;

    fn system(scheme: XylemScheme) -> XylemSystem {
        let mut cfg = SystemConfig::fast(scheme);
        cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
        XylemSystem::new(cfg).unwrap()
    }

    fn quick_cfg() -> MigrationConfig {
        MigrationConfig {
            f_ghz: 2.4,
            period_s: 0.030,
            dt_s: 0.010,
            rotations: 2,
            grid: GridSpec::new(12, 12),
        }
    }

    #[test]
    fn inner_ring_cooler_on_banke() {
        let s = system(XylemScheme::BankEnhanced);
        let cfg = quick_cfg();
        let inner =
            migration_experiment(&s, Benchmark::Cholesky, &ThreadPlacement::inner(), &cfg).unwrap();
        let outer =
            migration_experiment(&s, Benchmark::Cholesky, &ThreadPlacement::outer(), &cfg).unwrap();
        assert!(
            inner.mean_hotspot_c < outer.mean_hotspot_c,
            "inner {} vs outer {}",
            inner.mean_hotspot_c,
            outer.mean_hotspot_c
        );
    }

    #[test]
    fn threshold_migration_counts_hops() {
        let s = system(XylemScheme::BankEnhanced);
        // A trip level slightly above ambient forces hops quickly.
        let r = threshold_migration_experiment(
            &s,
            Benchmark::Cholesky,
            &ThreadPlacement::inner(),
            3.4,
            Celsius::new(70.0),
            0.2,
            GridSpec::new(12, 12),
        )
        .unwrap();
        assert!(r.migrations > 0, "{r:?}");
        // A trip level no run reaches means no hops.
        let calm = threshold_migration_experiment(
            &s,
            Benchmark::Is,
            &ThreadPlacement::inner(),
            2.4,
            Celsius::new(150.0),
            0.05,
            GridSpec::new(12, 12),
        )
        .unwrap();
        assert_eq!(calm.migrations, 0);
    }

    #[test]
    fn inner_ring_needs_no_more_hops_on_banke() {
        let s = system(XylemScheme::BankEnhanced);
        let run = |ring: &ThreadPlacement| {
            threshold_migration_experiment(
                &s,
                Benchmark::Cholesky,
                ring,
                3.4,
                Celsius::new(72.0),
                0.3,
                GridSpec::new(12, 12),
            )
            .unwrap()
            .migrations
        };
        let inner = run(&ThreadPlacement::inner());
        let outer = run(&ThreadPlacement::outer());
        assert!(inner <= outer, "inner {inner} vs outer {outer}");
    }

    #[test]
    fn malformed_ring_or_schedule_is_a_config_error() {
        let s = system(XylemScheme::Base);
        let three = ThreadPlacement::new(vec![2, 3, 6]);
        let r = migration_experiment(&s, Benchmark::Fft, &three, &quick_cfg());
        assert!(matches!(r, Err(XylemError::Config(_))), "{r:?}");
        let r = threshold_migration_experiment(
            &s,
            Benchmark::Fft,
            &three,
            2.4,
            Celsius::new(80.0),
            0.01,
            GridSpec::new(12, 12),
        );
        assert!(matches!(r, Err(XylemError::Config(_))), "{r:?}");
        let frozen = MigrationConfig {
            period_s: 0.0,
            ..quick_cfg()
        };
        let r = migration_experiment(&s, Benchmark::Fft, &ThreadPlacement::inner(), &frozen);
        assert!(matches!(r, Err(XylemError::Config(_))), "{r:?}");
        let unmeasured = MigrationConfig {
            rotations: 1,
            ..quick_cfg()
        };
        let r = migration_experiment(&s, Benchmark::Fft, &ThreadPlacement::inner(), &unmeasured);
        assert!(matches!(r, Err(XylemError::Config(_))), "{r:?}");
    }

    #[test]
    fn migration_count_and_bounds() {
        let s = system(XylemScheme::Base);
        let cfg = quick_cfg();
        let r = migration_experiment(&s, Benchmark::Fft, &ThreadPlacement::inner(), &cfg).unwrap();
        assert_eq!(r.migrations, 4); // one measured rotation
        assert!(r.max_hotspot_c >= r.mean_hotspot_c);
        assert!(r.mean_hotspot_c > 45.0 && r.mean_hotspot_c < 120.0);
    }
}

//! End-to-end integration: workload -> archsim -> power -> thermal, across
//! crates, on reduced grids.

use xylem::dtm::{
    dtm_transient_configured, dtm_transient_phased, dvfs_power_maps, DtmPolicy, DtmResult,
    DtmRunConfig,
};
use xylem::headroom::{max_frequency_at_iso_temperature, max_frequency_under_limits};
use xylem::migration::{migration_experiment, threshold_migration_experiment, MigrationConfig};
use xylem::placement::ThreadPlacement;
use xylem::sensor::{FaultKind, SensorFault, SensorModel};
use xylem::system::{Instance, RunSpec, SystemConfig, XylemSystem};
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::units::Celsius;
use xylem_workloads::{Benchmark, PhasedWorkload};

fn system(scheme: XylemScheme) -> XylemSystem {
    let mut cfg = SystemConfig::fast(scheme);
    cfg.cache_dir = Some(std::env::temp_dir().join("xylem-integration-cache"));
    XylemSystem::new(cfg).expect("system builds")
}

#[test]
fn full_chain_produces_consistent_evaluation() {
    let mut sys = system(XylemScheme::BankEnhanced);
    let e = sys.evaluate_uniform(Benchmark::Fft, 2.8).unwrap();
    // Temperatures ordered: processor (bottom) hotter than DRAM, both
    // above ambient.
    assert!(e.proc_hotspot_c > e.dram_hotspot_c);
    assert!(e.dram_hotspot_c > 45.0);
    // Power decomposition adds up.
    assert!((e.proc_power_w + e.dram_power_w - e.total_power_w).abs() < 1e-9);
    // Per-core hotspots bounded by the die hotspot.
    for &t in &e.core_hotspot_c {
        assert!(t <= e.proc_hotspot_c + 1e-9);
    }
    // Performance metrics present and positive.
    assert!(e.exec_time_s() > 0.0);
    assert!(e.stack_energy_j() > 0.0);
}

#[test]
fn scheme_ordering_holds_end_to_end() {
    // For every scheme pair the paper orders, the full chain agrees:
    // banke <= isoCount <= bank <= prior ~= base (hotspot at 2.4 GHz).
    let app = Benchmark::Radiosity;
    let temp = |s: XylemScheme| system(s).evaluate_uniform(app, 2.4).unwrap().proc_hotspot_c;
    let base = temp(XylemScheme::Base);
    let bank = temp(XylemScheme::BankSurround);
    let banke = temp(XylemScheme::BankEnhanced);
    let iso = temp(XylemScheme::IsoCount);
    let prior = temp(XylemScheme::Prior);
    assert!(banke < iso, "banke {banke} vs isoCount {iso}");
    assert!(iso < bank, "isoCount {iso} vs bank {bank}");
    assert!(bank < base, "bank {bank} vs base {base}");
    assert!((prior - base).abs() < 1.0, "prior {prior} vs base {base}");
}

#[test]
fn iso_temperature_boost_chain() {
    let app = Benchmark::Lu;
    let mut base = system(XylemScheme::Base);
    let reference = base.evaluate_uniform(app, 2.4).unwrap();
    let mut banke = system(XylemScheme::BankEnhanced);
    let boost =
        max_frequency_at_iso_temperature(&mut banke, app, Celsius::new(reference.proc_hotspot_c))
            .unwrap()
            .expect("banke admits 2.4");
    assert!(boost.f_ghz > 2.4);
    // Boosted run is faster but not hotter than the reference.
    assert!(boost.evaluation.exec_time_s() < reference.exec_time_s());
    assert!(boost.evaluation.proc_hotspot_c <= reference.proc_hotspot_c + 1e-9);
    // And burns more power (the headroom is spent, not saved).
    assert!(boost.evaluation.total_power_w > reference.total_power_w);
}

#[test]
fn dtm_respects_both_limits() {
    let mut sys = system(XylemScheme::BankEnhanced);
    for app in [Benchmark::LuNas, Benchmark::Is] {
        let out = max_frequency_under_limits(&mut sys, app).unwrap().unwrap();
        assert!(out.evaluation.proc_hotspot_c <= 100.0 + 1e-9, "{app}");
        assert!(out.evaluation.dram_hotspot_c <= 95.0 + 1e-9, "{app}");
    }
}

#[test]
fn mixed_instances_and_partial_occupancy() {
    let mut sys = system(XylemScheme::BankSurround);
    let run = RunSpec {
        instances: vec![
            Instance {
                benchmark: Benchmark::Cholesky,
                placement: ThreadPlacement::inner(),
                f_ghz: 2.6,
            },
            Instance {
                benchmark: Benchmark::Ft,
                placement: ThreadPlacement::outer(),
                f_ghz: 2.4,
            },
        ],
        uncore_f_ghz: 2.4,
    };
    let e = sys.evaluate(&run).unwrap();
    assert_eq!(e.workloads.len(), 2);
    // The compute-bound instance dominates the thermal picture: the
    // hottest core is one of the inner cores it runs on.
    assert!(
        [2usize, 3, 6, 7].contains(&e.hottest_core()),
        "hottest core {}",
        e.hottest_core()
    );
}

#[test]
fn response_cache_survives_reuse_across_systems() {
    // Two constructions of the same scheme share the disk cache and
    // produce identical evaluations.
    let e1 = system(XylemScheme::Base)
        .evaluate_uniform(Benchmark::Sp, 2.4)
        .unwrap();
    let e2 = system(XylemScheme::Base)
        .evaluate_uniform(Benchmark::Sp, 2.4)
        .unwrap();
    assert_eq!(e1.proc_hotspot_c, e2.proc_hotspot_c);
    assert_eq!(e1.total_power_w, e2.total_power_w);
}

// ---- Transient power maps and controller traces, pinned --------------

fn bits_digest(v: &[f64]) -> String {
    let bytes: Vec<u8> = v.iter().flat_map(|f| f.to_bits().to_le_bytes()).collect();
    format!("{:016x}", xylem_obs::hash::fnv1a(&bytes))
}

/// Every float a DTM run reports: the trace, then the run summary.
fn dtm_bits(r: &DtmResult) -> Vec<f64> {
    let mut v: Vec<f64> = r
        .samples
        .iter()
        .flat_map(|s| [s.time_s, s.f_ghz, s.hotspot.get()])
        .collect();
    v.extend([r.final_f_ghz, r.time_above_trip]);
    v
}

/// Pins the bits of every transient power map and the traces built on
/// them: the DVFS maps, a sensed DTM run with a stuck-hot sensor, a
/// phased DTM run, both migration rings and threshold migration. The
/// expected digests were captured on the code in which each of these
/// callers still assembled its own power maps and the phased run had its
/// own controller loop; routing them through one builder and one loop
/// must move no bit.
#[test]
fn transient_power_bits_are_pinned() {
    let base = system(XylemScheme::Base);
    let banke = system(XylemScheme::BankEnhanced);

    // Per-DVFS-point maps, BankEnhanced, Cholesky up to 3.5 GHz, 16x16.
    let model = banke
        .built()
        .stack()
        .discretize(GridSpec::new(16, 16))
        .unwrap();
    let (points, maps) = dvfs_power_maps(&banke, Benchmark::Cholesky, 3.5, &model).unwrap();
    let mut flat = points.clone();
    for m in &maps {
        for l in 0..m.n_layers() {
            flat.extend_from_slice(m.layer_slice(l));
        }
    }
    assert_eq!(points.len(), maps.len());
    assert_eq!(bits_digest(&flat), "8366c92452fc7d3d");

    let policy = DtmPolicy {
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    };
    let grid = GridSpec::new(12, 12);

    // Sensed run: the default array with sensor 0 stuck hot mid-run.
    let run = DtmRunConfig {
        sensors: Some(SensorModel::default_array(12, 12, 7)),
        faults: vec![SensorFault {
            sensor: 0,
            kind: FaultKind::StuckAt,
            from_step: 10,
            to_step: 30,
            value_c: 130.0,
        }],
        ..DtmRunConfig::new(policy)
    };
    let r = dtm_transient_configured(&base, Benchmark::Cholesky, 3.5, 1.0, &run, grid).unwrap();
    assert_eq!(bits_digest(&dtm_bits(&r)), "0258e8729d9a33f7");
    assert_eq!(
        (r.throttle_events, r.failsafe_events, r.cg_iterations),
        (18, 0, 344)
    );

    // Phased run: cool warm-up, hot main phase, tail.
    let w = PhasedWorkload::standard(Benchmark::Cholesky);
    let r = dtm_transient_phased(&base, &w, 3.5, 1.2, &policy, grid).unwrap();
    assert_eq!(bits_digest(&dtm_bits(&r)), "ce975b666461c38c");
    assert_eq!((r.throttle_events, r.cg_iterations), (12, 376));

    // Fixed-schedule migration around both rings.
    let cfg = MigrationConfig {
        f_ghz: 2.4,
        period_s: 0.030,
        dt_s: 0.010,
        rotations: 2,
        grid,
    };
    let mut flat = Vec::new();
    for ring in [ThreadPlacement::inner(), ThreadPlacement::outer()] {
        let m = migration_experiment(&banke, Benchmark::Cholesky, &ring, &cfg).unwrap();
        flat.extend([m.max_hotspot_c, m.mean_hotspot_c, m.migrations as f64]);
    }
    assert_eq!(bits_digest(&flat), "eaacb1de23f7e86a");

    // Threshold-triggered migration.
    let t = threshold_migration_experiment(
        &banke,
        Benchmark::Cholesky,
        &ThreadPlacement::inner(),
        3.4,
        Celsius::new(72.0),
        0.3,
        grid,
    )
    .unwrap();
    assert_eq!(
        bits_digest(&[t.max_hotspot_c, t.duration_s]),
        "58c1c2e1fa568549"
    );
    assert_eq!(t.migrations, 4);
}

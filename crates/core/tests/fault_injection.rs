//! Deterministic fault-injection sweep for the DTM runtime.
//!
//! `./ci.sh faults` runs this suite. Every scenario is derived from a
//! seed, so a failure reproduces exactly: sensor arrays with random
//! noise/latency, random stuck-at/dropout/spike fault schedules, and a
//! forced-solver-failure subset that starves the CG iteration cap so
//! every step has to climb the fallback ladder. The invariants:
//!
//! * the DTM loop never panics and never returns non-finite state;
//! * `time_above_trip` stays bounded — masked or missing telemetry must
//!   not let the die sit above trip;
//! * every forced solver failure recovers through the ladder with a
//!   non-empty `RecoveryReport`;
//! * a mid-run checkpoint resume reproduces the uninterrupted
//!   `DtmResult` exactly (bit-identical).

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xylem::dtm::{dtm_transient_configured, CheckpointConfig, DtmPolicy, DtmRunConfig};
use xylem::sensor::{FaultKind, SensorFault, SensorModel, SensorSite};
use xylem::system::{SystemConfig, XylemSystem};
use xylem::XylemError;
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::units::Celsius;
use xylem_thermal::SolverOptions;
use xylem_workloads::Benchmark;

const GRID: usize = 12;
const STEPS: usize = 60;

/// A checkpoint path private to this test process, so concurrent runs of
/// the suite never share a file.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xylem-fi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir.join(name)
}

fn system(scheme: XylemScheme) -> XylemSystem {
    let mut cfg = SystemConfig::fast(scheme);
    cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
    XylemSystem::new(cfg).unwrap()
}

fn policy() -> DtmPolicy {
    DtmPolicy {
        trip: Celsius::new(100.0),
        release: Celsius::new(98.0),
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    }
}

/// A dense 4x4 sensor grid: every cell of the 12x12 grid is within ~1.5
/// cells of a sensor, so a handful of faulted sensors cannot mask the
/// hotspot from the max-fusion.
fn dense_sensors(seed: u64, rng: &mut StdRng) -> SensorModel {
    let mut sites = Vec::new();
    for qx in 0..4 {
        for qy in 0..4 {
            sites.push(SensorSite {
                ix: qx * 3 + 1,
                iy: qy * 3 + 1,
            });
        }
    }
    SensorModel {
        sites,
        quantization_c: 0.25,
        noise_sigma_c: rng.gen_range(0.0..0.5),
        latency_steps: rng.gen_range(0..3usize),
        seed,
        plausible_max_c: 150.0,
    }
}

/// Up to three random faults, never touching sensor 0 — the guarantee
/// needs at least most of the array healthy (a plausible-but-wrong
/// reading on every sensor is undetectable by construction).
fn random_faults(rng: &mut StdRng, n_sensors: usize) -> Vec<SensorFault> {
    let n = rng.gen_range(1..4usize);
    (0..n)
        .map(|_| {
            let kind = match rng.gen_range(0..3u32) {
                0 => FaultKind::StuckAt,
                1 => FaultKind::Dropout,
                _ => FaultKind::Spike,
            };
            let from = rng.gen_range(0..STEPS);
            SensorFault {
                sensor: rng.gen_range(1..n_sensors),
                kind,
                from_step: from,
                to_step: from + rng.gen_range(1..STEPS),
                value_c: match kind {
                    FaultKind::StuckAt => rng.gen_range(-50.0..250.0),
                    FaultKind::Spike => rng.gen_range(-80.0..80.0),
                    FaultKind::Dropout => 0.0,
                },
            }
        })
        .collect()
}

fn scenario(seed: u64) -> (Benchmark, f64, DtmRunConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (benchmark, f_ghz) = if seed % 2 == 0 {
        (Benchmark::LuNas, 3.5) // hot: the controller genuinely throttles
    } else {
        (Benchmark::Is, 2.8) // cool: the controller should stay put
    };
    let sensors = dense_sensors(seed, &mut rng);
    let faults = random_faults(&mut rng, sensors.sites.len());
    let solver = (seed % 10 == 0).then_some(SolverOptions {
        // Starved cap: the configured attempt fails every step and the
        // fallback ladder has to recover each solve.
        max_iterations: 2,
        ..SolverOptions::default()
    });
    let run = DtmRunConfig {
        sensors: Some(sensors),
        faults,
        solver,
        ..DtmRunConfig::new(policy())
    };
    (benchmark, f_ghz, run)
}

#[test]
fn seeded_sweep_never_panics_and_stays_bounded() {
    let hot = system(XylemScheme::Base);
    let cool = system(XylemScheme::BankEnhanced);
    let duration = STEPS as f64 * policy().control_period_s;
    let grid = GridSpec::new(GRID, GRID);
    let mut forced_failures = 0usize;
    for seed in 0..50u64 {
        let (benchmark, f_ghz, run) = scenario(seed);
        let sys = if seed % 2 == 0 { &hot } else { &cool };
        // Control: the same sensor array with no faults injected. A hot
        // workload regulated through discrete sensors sits above trip
        // for a sizable fraction of the run by construction (hysteresis
        // oscillation plus the sensor-to-hotspot gradient); the faulted
        // run is held to that same level, so the delta measures only
        // what the faults cost.
        let mut clean = run.clone();
        clean.faults.clear();
        let base = dtm_transient_configured(sys, benchmark, f_ghz, duration, &clean, grid)
            .unwrap()
            .time_above_trip;
        let r = dtm_transient_configured(sys, benchmark, f_ghz, duration, &run, grid)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(r.samples.len(), STEPS, "seed {seed}");
        for s in &r.samples {
            assert!(
                s.hotspot.get().is_finite() && s.f_ghz.is_finite(),
                "seed {seed}: non-finite sample {s:?}"
            );
        }
        assert!(
            (0.0..=1.0).contains(&r.time_above_trip),
            "seed {seed}: time_above_trip {}",
            r.time_above_trip
        );
        // Max-fusion means a fault either over-throttles (safe), gets
        // discarded as implausible, or drops out (fail-safe throttle).
        // The worst undetectable case — a plausible-but-low reading on
        // the sensor nearest the hotspot — degrades regulation by the
        // inter-sensor gradient, worth at most a handful of extra steps
        // above trip; anything beyond that margin is a masking bug.
        assert!(
            r.time_above_trip <= base + 0.2,
            "seed {seed}: die above trip for {} of the run vs {base} fault-free",
            r.time_above_trip
        );
        if run.solver.is_some() {
            forced_failures += 1;
            assert!(
                !r.recovery.is_empty(),
                "seed {seed}: starved solver must show ladder activity"
            );
            assert!(
                r.recovery.recoveries >= 1,
                "seed {seed}: ladder never recovered: {:?}",
                r.recovery
            );
        }
    }
    assert!(forced_failures >= 5, "sweep must include forced failures");
}

#[test]
fn checkpointing_does_not_perturb_the_run() {
    let s = system(XylemScheme::Base);
    let duration = STEPS as f64 * policy().control_period_s;
    let grid = GridSpec::new(GRID, GRID);
    let (benchmark, f_ghz, mut run) = scenario(4);
    let plain = dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();

    let path = scratch("perturb.ckpt");
    let _ = std::fs::remove_file(&path);
    run.checkpoint = Some(CheckpointConfig {
        path: path.clone(),
        every_steps: 7,
        resume: false,
    });
    let saved = dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();
    assert_eq!(plain, saved, "checkpoint writes must be observation-only");
    assert!(path.exists());
}

#[test]
fn resume_from_mid_run_checkpoint_is_bit_identical() {
    let s = system(XylemScheme::Base);
    let duration = STEPS as f64 * policy().control_period_s;
    let grid = GridSpec::new(GRID, GRID);
    // A noisy, faulted, sensored scenario: resume must restore the
    // sensor delay lines and the counter-based noise must replay.
    let (benchmark, f_ghz, mut run) = scenario(2);
    let uninterrupted =
        dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();

    // `every_steps` deliberately does not divide STEPS: the last file is
    // written at step 56, so the resumed run recomputes a real suffix.
    let path = scratch("resume.ckpt");
    let _ = std::fs::remove_file(&path);
    run.checkpoint = Some(CheckpointConfig {
        path: path.clone(),
        every_steps: 7,
        resume: false,
    });
    dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();

    // "Kill" the run: resume from the leftover step-56 file.
    let loaded = xylem::checkpoint::load(&path).unwrap();
    assert_eq!(loaded.step, 56, "mid-run checkpoint expected");
    run.checkpoint = Some(CheckpointConfig {
        path,
        every_steps: 7,
        resume: true,
    });
    let resumed = dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();
    assert_eq!(
        uninterrupted, resumed,
        "resumed run must be bit-identical to the uninterrupted one"
    );
}

#[test]
fn corrupt_checkpoint_is_rejected_not_trusted() {
    let s = system(XylemScheme::Base);
    let duration = STEPS as f64 * policy().control_period_s;
    let grid = GridSpec::new(GRID, GRID);
    let (benchmark, f_ghz, mut run) = scenario(6);
    let path = scratch("corrupt.ckpt");
    let _ = std::fs::remove_file(&path);
    run.checkpoint = Some(CheckpointConfig {
        path: path.clone(),
        every_steps: 7,
        resume: false,
    });
    dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();

    // Flip payload bytes; the checksum must catch it on resume.
    let mut text = std::fs::read_to_string(&path).unwrap();
    let pos = text.len() / 2;
    text.replace_range(pos..pos + 1, "7");
    std::fs::write(&path, text).unwrap();
    run.checkpoint = Some(CheckpointConfig {
        path,
        every_steps: 7,
        resume: true,
    });
    let err = dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap_err();
    assert!(matches!(err, XylemError::Checkpoint(_)), "{err}");
}

#[test]
fn checkpoint_from_a_different_run_is_rejected() {
    let s = system(XylemScheme::Base);
    let duration = STEPS as f64 * policy().control_period_s;
    let grid = GridSpec::new(GRID, GRID);
    let (benchmark, f_ghz, mut run) = scenario(8);
    let path = scratch("mismatch.ckpt");
    let _ = std::fs::remove_file(&path);
    run.checkpoint = Some(CheckpointConfig {
        path: path.clone(),
        every_steps: 7,
        resume: false,
    });
    dtm_transient_configured(&s, benchmark, f_ghz, duration, &run, grid).unwrap();

    // Same file, different (still valid) policy: the config hash must
    // not match.
    let mut other = run.clone();
    other.policy.trip = Celsius::new(105.0);
    other.checkpoint = Some(CheckpointConfig {
        path,
        every_steps: 7,
        resume: true,
    });
    let err = dtm_transient_configured(&s, benchmark, f_ghz, duration, &other, grid).unwrap_err();
    assert!(matches!(err, XylemError::Checkpoint(_)), "{err}");
}

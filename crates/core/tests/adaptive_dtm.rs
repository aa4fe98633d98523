//! Integration tests for adaptive stepping in the DTM loop: result
//! plumbing, checkpoint format v2, backward compatibility with
//! pre-adaptive (format v1) files, and bit-identical adaptive resume.

use std::path::{Path, PathBuf};

use xylem::checkpoint::{self, CHECKPOINT_VERSION};
use xylem::dtm::{dtm_transient_configured, CheckpointConfig, DtmPolicy, DtmRunConfig};
use xylem::system::{SystemConfig, XylemSystem};
use xylem::XylemError;
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::AdaptiveOptions;
use xylem_workloads::Benchmark;

const GRID: usize = 12;
const DURATION_S: f64 = 0.6;

fn system() -> XylemSystem {
    let mut cfg = SystemConfig::fast(XylemScheme::BankEnhanced);
    cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
    XylemSystem::new(cfg).unwrap()
}

fn adaptive_policy() -> DtmPolicy {
    DtmPolicy {
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    }
    .with_adaptive(AdaptiveOptions {
        rtol: 1e-3,
        atol: 1e-3,
        dt_min: 1e-4,
        dt_max: 20e-3,
        dt_init: 2e-3,
        ..AdaptiveOptions::default()
    })
}

fn tmp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xylem-adaptive-dtm-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Rewrites a current-format checkpoint file into a faithful v1 file:
/// drops the `adaptive` payload key (v1 never had it) and stamps the
/// envelope version to 1, re-deriving the checksum over the new payload.
fn downgrade_to_v1(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    // The payload is a JSON-escaped string field; the adaptive key of a
    // fixed-step run is always the literal null.
    let text = text.replace("\\\"adaptive\\\":null,", "");
    let text = text.replace(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        "\"version\":1",
    );
    std::fs::write(path, &text).unwrap();
    // Fix up the checksum: load cares that it matches the payload.
    let start = text.find("\"payload\":\"").unwrap() + "\"payload\":\"".len();
    let end = text.rfind("\",\"version\"").unwrap();
    let payload = text[start..end].replace("\\\"", "\"");
    let sum = format!("{:016x}", xylem_obs::fnv1a(payload.as_bytes()));
    let csum_start = text.find("\"checksum\":\"").unwrap() + "\"checksum\":\"".len();
    let mut fixed = text.clone();
    fixed.replace_range(csum_start..csum_start + 16, &sum);
    std::fs::write(path, fixed).unwrap();
}

#[test]
fn adaptive_run_completes_and_reports_a_summary() {
    let s = system();
    let run = DtmRunConfig::new(adaptive_policy());
    let r = dtm_transient_configured(
        &s,
        Benchmark::Is,
        2.8,
        DURATION_S,
        &run,
        GridSpec::new(GRID, GRID),
    )
    .unwrap();
    let a = r.adaptive.expect("adaptive run must carry a summary");
    assert!(a.accepted > 0, "{a:?}");
    assert!(a.be_solves >= a.accepted, "{a:?}");
    assert!(a.final_dt_s > 0.0, "{a:?}");
    assert!(!a.economy, "unbudgeted run entered economy mode: {a:?}");
    assert!(r.peak_hotspot().get() < 120.0, "{r:?}");
    // A fixed-step run of the same scenario reports no summary.
    let fixed = dtm_transient_configured(
        &s,
        Benchmark::Is,
        2.8,
        DURATION_S,
        &DtmRunConfig::new(DtmPolicy {
            control_period_s: 20e-3,
            ..DtmPolicy::paper_default()
        }),
        GridSpec::new(GRID, GRID),
    )
    .unwrap();
    assert!(fixed.adaptive.is_none());
}

#[test]
fn adaptive_resume_is_bit_identical() {
    let s = system();
    let grid = GridSpec::new(GRID, GRID);
    let policy = adaptive_policy();

    // Uninterrupted reference (checkpointing on, resume off — saving
    // must not perturb the trajectory).
    let path = tmp_ckpt("adaptive_resume.ckpt");
    let run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 10,
            resume: false,
        }),
        ..DtmRunConfig::new(policy)
    };
    let full = dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &run, grid).unwrap();

    // The file on disk is the state at the last multiple of 10 steps;
    // a resuming run must finish with the identical result, controller
    // state included.
    let ck = checkpoint::load(&path).unwrap();
    assert!(ck.adaptive.is_some(), "adaptive state missing from v2 file");
    let resumed_run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 10,
            resume: true,
        }),
        ..run
    };
    let resumed =
        dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &resumed_run, grid).unwrap();
    assert_eq!(full, resumed, "resumed adaptive run diverged");
    for (a, b) in full.samples.iter().zip(&resumed.samples) {
        assert_eq!(a.hotspot.get().to_bits(), b.hotspot.get().to_bits());
    }
}

#[test]
fn fixed_run_resumes_from_a_v1_checkpoint() {
    let s = system();
    let grid = GridSpec::new(GRID, GRID);
    let policy = DtmPolicy {
        control_period_s: 20e-3,
        ..DtmPolicy::paper_default()
    };
    let path = tmp_ckpt("v1_fixed_resume.ckpt");
    let run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 10,
            resume: false,
        }),
        ..DtmRunConfig::new(policy)
    };
    let full = dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &run, grid).unwrap();

    // Rewrite the last checkpoint as a faithful pre-adaptive v1 file:
    // resuming from it must still work and reproduce the reference.
    downgrade_to_v1(&path);
    let ck = checkpoint::load(&path).unwrap();
    assert!(ck.adaptive.is_none(), "v1 file cannot carry adaptive state");
    let resumed_run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 0,
            resume: true,
        }),
        ..run
    };
    let resumed =
        dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &resumed_run, grid).unwrap();
    assert_eq!(full, resumed, "fixed-step resume from v1 diverged");
}

#[test]
fn adaptive_resume_from_v1_fails_with_a_clear_error() {
    let s = system();
    let grid = GridSpec::new(GRID, GRID);
    let path = tmp_ckpt("v1_adaptive_resume.ckpt");
    // Write a genuine fixed-step checkpoint, then age it to v1.
    let fixed_run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 10,
            resume: false,
        }),
        ..DtmRunConfig::new(DtmPolicy {
            control_period_s: 20e-3,
            ..DtmPolicy::paper_default()
        })
    };
    dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &fixed_run, grid).unwrap();
    downgrade_to_v1(&path);

    let adaptive_run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 10,
            resume: true,
        }),
        ..DtmRunConfig::new(adaptive_policy())
    };
    let err = dtm_transient_configured(&s, Benchmark::Is, 2.8, DURATION_S, &adaptive_run, grid)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, XylemError::Checkpoint(_)),
        "wrong error kind: {err:?}"
    );
    assert!(
        msg.contains("stepping mode"),
        "error does not name the stepping-mode mismatch: {msg}"
    );
}

/// The checked-in pre-adaptive fixture still loads: guards the format
/// against accidental breakage of v1 compatibility. Regenerate with
/// `cargo test -p xylem-core --test adaptive_dtm -- --ignored` after a
/// deliberate format change (and bump the version history docs).
#[test]
fn checked_in_v1_fixture_loads_with_no_adaptive_state() {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_adaptive_v1.ckpt"
    ));
    let ck = checkpoint::load(path).unwrap();
    assert_eq!(ck.step, 20);
    assert_eq!((ck.grid_nx, ck.grid_ny), (GRID, GRID));
    assert!(ck.adaptive.is_none(), "v1 fixture must carry no controller");
    assert!(ck.temps.iter().all(|t| t.is_finite()));
    assert_eq!(ck.samples.len(), 20);
}

/// Regenerates the checked-in v1 fixture. Ignored by default — run it
/// only when the fixture must change, then commit the new file.
#[test]
#[ignore]
fn regenerate_v1_fixture() {
    let s = system();
    let grid = GridSpec::new(GRID, GRID);
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_adaptive_v1.ckpt"
    ));
    let run = DtmRunConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            every_steps: 20,
            resume: false,
        }),
        ..DtmRunConfig::new(DtmPolicy {
            control_period_s: 20e-3,
            ..DtmPolicy::paper_default()
        })
    };
    // 0.4 s / 20 ms = 20 steps: exactly one checkpoint at step 20.
    dtm_transient_configured(&s, Benchmark::Is, 2.8, 0.4, &run, grid).unwrap();
    downgrade_to_v1(&path);
    checkpoint::load(&path).expect("regenerated fixture must load");
}

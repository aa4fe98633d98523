//! Thread-count determinism: two identical `dtm_transient_configured`
//! runs (same seed, same faults) must produce bit-identical temperature
//! trajectories AND identical metric counter totals regardless of how
//! many threads the solver uses.
//!
//! The vendored thread pool is sized once per process from
//! `RAYON_NUM_THREADS`, so the two runs must live in separate
//! processes: each test re-executes itself (filtered to that one test)
//! with the env var set to 1 and then 4, and each child writes a
//! digest of its run — FNV-1a over every sample's raw f64 bits, plus
//! every deterministic observability counter. The parent asserts the
//! two digests are byte-identical.
//!
//! The DTM pair runs the model's default solver, the geometric
//! multigrid on every grid, so the V-cycle — smoothers, restriction,
//! and its finest-level parallel matvec — stays inside the determinism
//! digest.
//!
//! This is the lock on xylem-obs design rule 2 (counters count
//! deterministic quantities, never wall-clock) and on the solver's
//! deterministic parallel reductions.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use xylem::dtm::{dtm_transient_configured, DtmPolicy, DtmRunConfig};
use xylem::sensor::{FaultKind, SensorFault, SensorModel};
use xylem::system::{SystemConfig, XylemSystem};
use xylem_obs::fnv1a;
use xylem_stack::XylemScheme;
use xylem_sweep::{run_sweep, SweepOptions, SweepSpec};
use xylem_thermal::grid::GridSpec;
use xylem_workloads::Benchmark;

const CHILD_ENV: &str = "XYLEM_DETERMINISM_CHILD_OUT";
/// 32x32 keeps the node count (~30k) above the solver's parallel
/// threshold, so the multi-threaded child really exercises the
/// parallel CSR/stencil path.
const GRID: usize = 32;

/// Child body for the sweep digest pair: a small but multi-axis batch
/// through `run_sweep`, with the shard count tied to the thread count
/// so BOTH parallelism knobs vary between the two children. The digest
/// covers every result f64 bit-for-bit, every record's status and
/// attempt count, and every deterministic counter; wall-clock fields
/// (elapsed, tasks/sec, latency histogram) are deliberately excluded.
fn run_sweep_child(out_path: &str) {
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    let spec = SweepSpec {
        schemes: vec![XylemScheme::Base, XylemScheme::BankEnhanced],
        benchmarks: vec![Benchmark::Cholesky],
        f_ghz: vec![2.4, 3.0],
        die_thickness_um: vec![50.0, 100.0],
        grid: 16,
        ..SweepSpec::default()
    };
    let opts = SweepOptions {
        shards: threads.parse().unwrap_or(1),
        // Per-thread-count cache dir, same reasoning as run_child.
        cache_dir: Some(
            std::env::temp_dir().join(format!("xylem-determinism-cache-sweep-{threads}")),
        ),
        ..SweepOptions::default()
    };
    let report = run_sweep(&spec, &opts).expect("sweep runs");
    report.require_complete().expect("no chaos: all tasks ok");

    let mut text = String::new();
    let _ = writeln!(
        text,
        "spec={} tasks={} ok={} quarantined={}",
        report.spec_hash, report.total, report.ok, report.quarantined
    );
    let mut bytes = Vec::new();
    for rec in &report.records {
        let r = rec.result.as_ref().expect("ok record carries a result");
        bytes.extend_from_slice(&r.proc_hotspot_c.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.dram_hotspot_c.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.total_power_w.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.exec_time_s.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.dtm_f_ghz.map_or(0, f64::to_bits).to_le_bytes());
        for c in &r.core_hotspot_c {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        let _ = writeln!(
            text,
            "task {} {} status={} attempts={}",
            rec.id,
            rec.key,
            rec.status.label(),
            rec.attempts
        );
    }
    let _ = writeln!(text, "result_digest={:016x}", fnv1a(&bytes));
    for (label, value) in xylem_obs::counters_snapshot() {
        let _ = writeln!(text, "counter {label}={value}");
    }
    std::fs::write(out_path, text).expect("child writes digest");
}

/// Child body for the scenario-DSL digest pair: compile and solve the
/// checked-in `xylem-paper.stk` (parse -> validate -> lower ->
/// discretize -> steady solve) and digest every bit of the result. The
/// lowering itself is single-threaded by construction; the solve is the
/// parallel part, and the `scenario_lowered` counter in the digest
/// proves the DSL path (not a cached artifact) produced the stack.
fn run_scenario_child(out_path: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/valid/xylem-paper.stk");
    let src = std::fs::read_to_string(&path).expect("xylem-paper.stk reads");
    let lowered = xylem_scenario::compile(&src).expect("paper scenario compiles");
    let report = xylem_scenario::run(&lowered).expect("paper scenario solves");

    let mut text = String::new();
    let _ = writeln!(
        text,
        "nodes={} conductance={:016x} temperature={:016x} hotspot={:016x}",
        report.nodes,
        report.conductance_digest,
        report.temperature_digest,
        report.global_hotspot_c.to_bits()
    );
    for p in &report.probes {
        let _ = writeln!(
            text,
            "probe {} {}={:016x}",
            p.name,
            p.layer,
            p.celsius.to_bits()
        );
    }
    for (label, value) in xylem_obs::counters_snapshot() {
        let _ = writeln!(text, "counter {label}={value}");
    }
    std::fs::write(out_path, text).expect("child writes digest");
}

fn run_child(tag: &str, out_path: &str) {
    if tag == "sweep" {
        run_sweep_child(out_path);
        return;
    }
    if tag == "scenario" {
        run_scenario_child(out_path);
        return;
    }
    // Per-thread-count, per-tag cache dir: both children of a pair must
    // do the *same* response-cache work (build or load), or solve_calls
    // would differ for cache-warming reasons rather than thread-count
    // ones.
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    let mut cfg = SystemConfig::fast(XylemScheme::Base);
    cfg.cache_dir =
        Some(std::env::temp_dir().join(format!("xylem-determinism-cache-{tag}-{threads}")));
    let sys = XylemSystem::new(cfg).expect("system builds");
    let run = DtmRunConfig {
        policy: DtmPolicy::paper_default(),
        sensors: Some(SensorModel::default_array(GRID, GRID, 42)),
        faults: vec![
            SensorFault {
                sensor: 0,
                kind: FaultKind::Dropout,
                from_step: 10,
                to_step: 20,
                value_c: 0.0,
            },
            SensorFault {
                sensor: 2,
                kind: FaultKind::Spike,
                from_step: 25,
                to_step: 30,
                value_c: 40.0,
            },
        ],
        solver: None,
        checkpoint: None,
        deadline_ms: None,
    };
    let policy = DtmPolicy::paper_default();
    let duration = 50.0 * policy.control_period_s;
    let r = dtm_transient_configured(
        &sys,
        Benchmark::Cholesky,
        3.5,
        duration,
        &run,
        GridSpec::new(GRID, GRID),
    )
    .expect("dtm run succeeds");

    // Digest every bit the run produced: the sampled trajectory (time,
    // frequency, hotspot temperature) and the run-level aggregates.
    let mut bytes = Vec::new();
    for s in &r.samples {
        bytes.extend_from_slice(&s.time_s.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.f_ghz.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.hotspot.get().to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&r.final_f_ghz.to_bits().to_le_bytes());

    let mut text = String::new();
    let _ = writeln!(
        text,
        "samples={} digest={:016x}",
        r.samples.len(),
        fnv1a(&bytes)
    );
    let _ = writeln!(
        text,
        "cg_iterations={} throttles={} failsafes={}",
        r.cg_iterations, r.throttle_events, r.failsafe_events
    );
    // Every counter is deterministic by design (obs rule 2); latency
    // histograms are wall-clock and deliberately excluded.
    for (label, value) in xylem_obs::counters_snapshot() {
        let _ = writeln!(text, "counter {label}={value}");
    }
    for (label, value) in xylem_obs::gauges_snapshot() {
        let _ = writeln!(text, "gauge {label}={:016x}", value.to_bits());
    }
    std::fs::write(out_path, text).expect("child writes digest");
}

/// Runs the 1-thread/4-thread child pair for one solver configuration
/// and asserts their digests are byte-identical. `test_name` must be
/// the exact name of the calling test so the re-executed binary lands
/// back in it.
fn run_pair(test_name: &str, tag: &str) {
    if let Ok(out) = std::env::var(CHILD_ENV) {
        run_child(tag, &out);
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let dir = std::env::temp_dir();
    let mut digests = Vec::new();
    for threads in ["1", "4"] {
        let out = dir.join(format!("xylem-determinism-{tag}-{threads}.txt"));
        let status = Command::new(&exe)
            .args([test_name, "--exact", "--test-threads=1"])
            .env(CHILD_ENV, &out)
            .env("RAYON_NUM_THREADS", threads)
            // Keep the child harness's `test ... ok` lines out of the
            // parent's stdout, where they would interleave with the
            // parent's own result lines.
            .stdout(Stdio::null())
            .status()
            .expect("child spawns");
        assert!(
            status.success(),
            "{tag} child with {threads} threads failed"
        );
        let digest = std::fs::read_to_string(&out).expect("child digest readable");
        // Sanity: the child actually did the work it digests. A sweep
        // child with a warm response cache legitimately solves nothing
        // (steady-state evaluation is superposition over cached unit
        // responses), so its marker is the task counter instead.
        if tag == "sweep" {
            assert!(digest.contains("counter sweep_tasks_ok="), "{digest}");
            assert!(!digest.contains("sweep_tasks_ok=0\n"), "{digest}");
        } else if tag == "scenario" {
            assert!(digest.contains("counter scenario_lowered="), "{digest}");
            assert!(!digest.contains("scenario_lowered=0\n"), "{digest}");
        } else {
            assert!(digest.contains("counter cg_iterations="), "{digest}");
            assert!(!digest.contains("cg_iterations=0\n"), "{digest}");
        }
        digests.push((threads, digest));
    }
    assert_eq!(
        digests[0].1, digests[1].1,
        "{tag}: 1-thread and 4-thread runs diverged:\n--- 1 thread ---\n{}\n--- 4 threads ---\n{}",
        digests[0].1, digests[1].1
    );
}

#[test]
fn dtm_run_is_bit_identical_across_thread_counts() {
    run_pair("dtm_run_is_bit_identical_across_thread_counts", "default");
}

#[test]
fn scenario_solve_is_bit_identical_across_thread_counts() {
    // The `.stk` pipeline end to end: the lowered xylem-paper stack's
    // conductance matrix, steady solve, and probe readings must not
    // notice the solver's thread count.
    run_pair(
        "scenario_solve_is_bit_identical_across_thread_counts",
        "scenario",
    );
}

#[test]
fn sweep_is_bit_identical_across_thread_and_shard_counts() {
    // Shards follow the thread count inside the child, so the 1-thread
    // child runs a single-worker sweep and the 4-thread child a
    // four-shard one; results, statuses, and counters must not notice.
    run_pair(
        "sweep_is_bit_identical_across_thread_and_shard_counts",
        "sweep",
    );
}

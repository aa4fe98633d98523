//! Crash-safety acceptance tests for the sweep engine — the `./ci.sh
//! sweep` lane.
//!
//! * A 3x3 (benchmark x frequency) sweep is SIGKILLed mid-run in a
//!   child process; resuming from its journal must reach 100%
//!   completion with zero duplicate journal entries.
//! * A seeded chaos campaign (injected panics, forced non-convergence,
//!   deadline blowouts) must complete with every task `ok` or
//!   `quarantined`, never panic the orchestrator, and resume
//!   bit-identically on the completed subset.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use xylem_stack::XylemScheme;
use xylem_sweep::{
    run_sweep, BackoffPolicy, ChaosConfig, Journal, SweepOptions, SweepSpec, TaskStatus,
};
use xylem_workloads::Benchmark;

const KILL_CHILD_ENV: &str = "XYLEM_SWEEP_KILL_CHILD_JOURNAL";
/// 12x12 keeps unit-response builds cheap; one stack geometry means the
/// system is built once and every task after the first is fast.
const GRID: usize = 12;

/// The 3x3 acceptance grid: one stack, three workloads, three
/// frequencies.
fn nine_task_spec() -> SweepSpec {
    SweepSpec {
        schemes: vec![XylemScheme::Base],
        benchmarks: vec![Benchmark::Cholesky, Benchmark::Barnes, Benchmark::Fft],
        f_ghz: vec![2.0, 2.4, 2.8],
        grid: GRID,
        ..SweepSpec::default()
    }
}

fn shared_cache_dir() -> PathBuf {
    std::env::temp_dir().join("xylem-sweep-resilience-cache")
}

fn base_options() -> SweepOptions {
    SweepOptions {
        shards: 2,
        cache_dir: Some(shared_cache_dir()),
        fsync_every: 1,
        backoff: BackoffPolicy {
            base_ms: 1,
            max_ms: 4,
        },
        ..SweepOptions::default()
    }
}

/// Builds the (shared) response cache so the killed child's per-task
/// time is dominated by its pacing delay, not by cache warming.
fn warm_cache() {
    let mut spec = nine_task_spec();
    spec.benchmarks = vec![Benchmark::Cholesky];
    spec.f_ghz = vec![2.0];
    run_sweep(&spec, &base_options()).expect("cache warm-up sweep succeeds");
}

#[test]
fn killed_sweep_resumes_to_full_completion_without_duplicates() {
    // Child mode: run the paced, journaled sweep until the parent kills
    // this process. Completing anyway is fine — the parent's resume
    // then simply replays all nine records.
    if let Ok(journal) = std::env::var(KILL_CHILD_ENV) {
        let mut opts = base_options();
        opts.journal_path = Some(PathBuf::from(journal));
        opts.pace_ms = 250;
        run_sweep(&nine_task_spec(), &opts).expect("child sweep runs");
        return;
    }

    warm_cache();
    let journal = std::env::temp_dir().join(format!(
        "xylem-sweep-kill-resume-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args([
            "killed_sweep_resumes_to_full_completion_without_duplicates",
            "--exact",
            "--test-threads=1",
        ])
        .env(KILL_CHILD_ENV, &journal)
        // The child is killed mid-line; left on the shared stdout, its
        // half-written `test ... ` line splices into the parent
        // harness's own result lines.
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child spawns");

    // Wait for the header plus at least two task records, then SIGKILL
    // the child mid-run (its 250 ms pacing makes a mid-sweep kill all
    // but certain).
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let lines = std::fs::read(&journal)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0);
        if lines >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child never produced two journal records"
        );
        assert!(
            child.try_wait().expect("child status").is_none(),
            "child exited before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL delivers");
    let _ = child.wait();

    // Resume in-process: the sweep must finish every task exactly once.
    let mut opts = base_options();
    opts.journal_path = Some(journal.clone());
    opts.resume = true;
    let report = run_sweep(&nine_task_spec(), &opts).expect("resume completes");
    assert_eq!(report.total, 9);
    assert_eq!(report.ok, 9, "every task must complete: {report:?}");
    assert_eq!(report.quarantined, 0);
    assert!(report.replayed >= 2, "kill happened after two records");
    assert!(
        report.replayed < 9,
        "kill must land mid-sweep, not after completion"
    );
    assert_eq!(report.duplicate_journal_records, 0);

    // And the journal itself now holds exactly one record per task.
    let scan = Journal::scan(&journal, Some(&report.spec_hash), 9).expect("final journal scans");
    assert_eq!(scan.records.len(), 9);
    assert_eq!(scan.duplicates, 0, "zero duplicate journal entries");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn chaos_campaign_never_panics_and_resumes_bit_identically() {
    // Keep the injected worker panics from spraying backtraces into the
    // test output; everything else still prints.
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("chaos: injected panic") {
                eprintln!("{info}");
            }
        }));
    });

    warm_cache();
    let journal =
        std::env::temp_dir().join(format!("xylem-sweep-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let mut opts = base_options();
    opts.journal_path = Some(journal.clone());
    opts.max_attempts = 2;
    opts.chaos = Some(ChaosConfig {
        seed: 0xC0FF_EE00,
        panic_per_mille: 250,
        error_per_mille: 250,
        deadline_per_mille: 150,
    });

    let first = run_sweep(&nine_task_spec(), &opts).expect("orchestrator survives the campaign");
    assert_eq!(first.total, 9);
    assert_eq!(
        first.ok + first.quarantined,
        first.total,
        "every task ends ok or quarantined: {first:?}"
    );
    assert!(
        first.retried_attempts > 0,
        "a 65% per-attempt fault rate must force retries: {first:?}"
    );
    // Chaos rolls are a pure function of (seed, task key, attempt), so
    // these counts are stable: this seed leaves survivors on both sides.
    assert!(first.ok > 0, "{first:?}");
    assert!(first.quarantined > 0, "{first:?}");
    for rec in &first.records {
        match rec.status {
            TaskStatus::Ok => {
                assert!(rec.result.is_some(), "ok record carries a result: {rec:?}");
            }
            TaskStatus::Quarantined => {
                assert!(rec.result.is_none());
                assert!(
                    rec.error.as_deref().is_some_and(|e| !e.is_empty()),
                    "quarantine names its last error: {rec:?}"
                );
            }
        }
    }

    // Resume over the same journal: everything is already recorded, so
    // the completed subset must replay bit-identically — no re-runs, no
    // second chances for quarantined configs within the same journal.
    let mut resume_opts = opts.clone();
    resume_opts.resume = true;
    let second = run_sweep(&nine_task_spec(), &resume_opts).expect("resume succeeds");
    assert_eq!(second.replayed, second.total);
    assert_eq!(second.records, first.records, "bit-identical replay");
    let _ = std::fs::remove_file(&journal);
}

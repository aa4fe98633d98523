//! Worker-count independence: the scheduler applies each tick's slice
//! outcomes sorted by session id after joining its workers, so the
//! durable output must not depend on how many workers ran the slices.
//!
//! The same seeded fleet runs with chaos on (panics, solver errors and
//! synthetic deadline misses, so the retry, degradation and quarantine
//! rungs all fire) at `workers` 0, 1 and 3, with no wall-clock
//! deadlines. The spool files and every `done` digest must match byte
//! for byte.

use std::path::{Path, PathBuf};

use xylem_obs::metrics::{counter, Counter};
use xylem_serve::selftest::client_fleet;
use xylem_serve::spool::Spool;
use xylem_serve::{ChaosConfig, Server, ServerConfig, Submission, TenantQuota};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xylem-serve-workers-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the fleet to completion in `dir` and returns the two journal
/// files' bytes.
fn run_fleet(dir: &Path, workers: usize) -> (Vec<u8>, Vec<u8>) {
    let mut cfg = ServerConfig::new(dir);
    cfg.workers = workers;
    cfg.round_slots = 6;
    cfg.queue_cap = 64;
    cfg.max_attempts = 3;
    cfg.suspend_ticks = 2;
    cfg.quota = TenantQuota {
        max_active: 16,
        max_active_steps: 1 << 20,
    };
    cfg.chaos = Some(ChaosConfig {
        seed: 0x5EED,
        panic_per_mille: 80,
        error_per_mille: 80,
        deadline_per_mille: 60,
    });
    cfg.sync = false;
    let (mut server, _) = Server::open(cfg).expect("open");
    for job in client_fleet(0xF1EE7, 40, 4) {
        match server
            .submit(&job.tenant, &job.scenario, &job.params)
            .expect("no infrastructure fault")
        {
            Submission::Admitted(_) => {}
            Submission::Rejected(r) => panic!("unexpected rejection under capacity: {r}"),
        }
    }
    server.run_until_settled(100_000).expect("settles");
    let st = server.status();
    assert_eq!(st.done + st.quarantined, 40, "workers {workers}: {st:?}");
    server.shutdown();
    let read = |name: &str| std::fs::read(dir.join(name)).expect("spool file");
    (read("manifest.jsonl"), read("frames.jsonl"))
}

#[test]
fn spool_output_is_independent_of_worker_count() {
    xylem::supervise::silence_expected_panics();
    let panics_before = counter(Counter::ServePanicsCaught);
    let mut runs = Vec::new();
    for workers in [0usize, 1, 3] {
        let dir = tmp(&format!("w{workers}"));
        let (manifest, frames) = run_fleet(&dir, workers);
        let (_, scan) = Spool::open(&dir, false).expect("reopen");
        runs.push((workers, manifest, frames, scan.done, scan.quarantined));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        counter(Counter::ServePanicsCaught) > panics_before,
        "chaos must inject panics"
    );
    let (_, manifest, frames, done, quarantined) = &runs[0];
    assert!(!done.is_empty(), "some sessions complete");
    assert!(!quarantined.is_empty(), "chaos quarantines some sessions");
    for (workers, m, f, d, q) in &runs[1..] {
        assert!(m == manifest, "workers {workers}: manifest.jsonl differs");
        assert!(f == frames, "workers {workers}: frames.jsonl differs");
        assert_eq!(d, done, "workers {workers}: done digests differ");
        assert_eq!(q, quarantined, "workers {workers}: quarantine set differs");
    }
}

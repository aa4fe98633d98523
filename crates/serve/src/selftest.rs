//! The chaos/load harness behind `xylem serve --selftest` and the
//! `./ci.sh serve` drill.
//!
//! One call drives a full campaign against a real [`Server`]:
//! thousands of deterministic simulated client submissions across
//! tenants (with retry-on-backpressure loops), seeded fault injection
//! (panics, solver errors, deadline exhaustion), slow-client buffer
//! pressure, and optionally a mid-run SIGKILL of a child server
//! process followed by an in-process resume. It then *verifies* the
//! service contracts — every non-quarantined session completed, its
//! final field bit-identical to a chaos-free reference run, zero
//! duplicate frames after the kill — and reports latency percentiles
//! for the benchmark table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Map, Number, Value};
use xylem_obs::hash::splitmix64;
use xylem_obs::metrics::{counter, summarize, Counter, Hist};

use crate::chaos::ChaosConfig;
use crate::error::ServeError;
use crate::scheduler::{Server, ServerConfig, Submission, SubmitParams, TenantQuota};

/// Selftest campaign knobs.
#[derive(Debug, Clone)]
pub struct SelftestConfig {
    /// Client submissions to drive (default 1000).
    pub sessions: usize,
    /// Distinct tenants to spread them over.
    pub tenants: usize,
    /// Slice worker threads per tick.
    pub workers: usize,
    /// Campaign seed (chaos decisions and job parameters).
    pub seed: u64,
    /// Whether to inject faults.
    pub chaos: bool,
    /// Whether to run the SIGKILL drill (needs `exe`).
    pub kill_drill: bool,
    /// Spool root; campaign and drill use subdirectories.
    pub spool: PathBuf,
    /// `BENCH_thermal.json` to merge the `serve` row into.
    pub bench_out: Option<PathBuf>,
    /// Binary to spawn for the drill child (`xylem` itself).
    pub exe: Option<PathBuf>,
}

impl SelftestConfig {
    /// Defaults for a spool root.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        SelftestConfig {
            sessions: 1000,
            tenants: 8,
            workers: 2,
            seed: 0xCAFE,
            chaos: true,
            kill_drill: false,
            spool: spool.into(),
            bench_out: None,
            exe: None,
        }
    }
}

/// What the campaign observed and verified.
#[derive(Debug, Clone, Default)]
pub struct SelftestReport {
    /// Submission attempts (including retried ones).
    pub submitted: u64,
    /// Distinct sessions admitted.
    pub admitted: u64,
    /// Transient (backpressure) rejections observed.
    pub rejected: u64,
    /// Sessions that completed.
    pub completed: u64,
    /// Sessions quarantined by the ladder.
    pub quarantined: u64,
    /// Panics caught and contained.
    pub panics_caught: u64,
    /// Economy-stepping degradations.
    pub degradations: u64,
    /// Checkpoint-and-suspend events.
    pub suspends: u64,
    /// Slow-client lines shed.
    pub sheds: u64,
    /// Completed sessions re-verified bit-identically.
    pub verified: u64,
    /// Submit-to-first-frame p50, ms.
    pub p50_first_frame_ms: f64,
    /// Submit-to-first-frame p99, ms.
    pub p99_first_frame_ms: f64,
    /// Whole-session p50, ms.
    pub p50_session_ms: f64,
    /// Whole-session p99, ms.
    pub p99_session_ms: f64,
    /// Whether the SIGKILL drill ran and passed.
    pub kill_drill_passed: bool,
}

/// The demo scenario family: same topology, varying grid and power so
/// a few distinct sources exercise model sharing.
pub fn demo_scenario(grid: usize, power_w: f64) -> String {
    format!(
        "\
material si :
    thermal conductivity 120.0 ;
    volumetric heat capacity 1.75e6 ;
dimensions :
    chip length 8e-3 , width 8e-3 ;
    grid {grid} , {grid} ;
layer body :
    height 1e-4 ;
    material si ;
stack :
    layer body ;
power :
    uniform body {power_w:.1} ;
solver :
    steady ;
output :
    probe hot max in body ;
"
    )
}

/// One deterministic simulated client job.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientJob {
    /// Tenant name.
    pub tenant: String,
    /// Scenario source.
    pub scenario: String,
    /// Submission parameters.
    pub params: SubmitParams,
}

/// The deterministic job list for a campaign seed. Shared by the live
/// run, the drill child, and the verification rerun — determinism of
/// the fleet is what makes "bit-identical" checkable at all.
pub fn client_fleet(seed: u64, sessions: usize, tenants: usize) -> Vec<ClientJob> {
    (0..sessions)
        .map(|i| {
            let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37));
            let grid = 4 + (r % 2) as usize * 2; // 4 or 6
            let power = 3.0 + ((r >> 8) % 5) as f64; // 3..7 W
            let steps = 4 + ((r >> 16) % 9) as u32; // 4..12
            ClientJob {
                tenant: format!("tenant-{}", i % tenants.max(1)),
                scenario: demo_scenario(grid, power),
                params: SubmitParams {
                    steps,
                    dt_s: 1e-3,
                    frame_every: 2,
                    power_scale: 1.0,
                    trip_c: None,
                    deadline_ms: None,
                },
            }
        })
        .collect()
}

/// Campaign server configuration: sized so a big fleet genuinely
/// overloads it (forcing backpressure) without starving completion.
fn campaign_config(spool: &Path, workers: usize, chaos: Option<ChaosConfig>) -> ServerConfig {
    let mut cfg = ServerConfig::new(spool);
    cfg.workers = workers;
    cfg.round_slots = 8;
    cfg.queue_cap = 48;
    cfg.client_buffer_cap = 8;
    cfg.max_attempts = 6;
    cfg.suspend_ticks = 2;
    cfg.quota = TenantQuota {
        max_active: 12,
        max_active_steps: 1 << 16,
    };
    cfg.chaos = chaos;
    // The campaign is a load test, not a crash drill: skip fsync so a
    // thousand sessions do not serialize on the disk. The crash drill
    // and `tests/crash.rs` run with sync on.
    cfg.sync = false;
    cfg
}

/// Runs the load/chaos campaign and (optionally) the SIGKILL drill.
///
/// # Errors
///
/// [`ServeError`] on infrastructure faults, and
/// [`ServeError::Protocol`] when a verified contract does not hold
/// (the harness treats a broken contract as a hard failure).
pub fn run_selftest(cfg: &SelftestConfig) -> Result<SelftestReport, ServeError> {
    xylem::supervise::silence_expected_panics();
    let campaign_dir = cfg.spool.join("campaign");
    let _ = std::fs::remove_dir_all(&campaign_dir);

    let chaos = cfg.chaos.then_some(ChaosConfig {
        seed: cfg.seed,
        panic_per_mille: 25,
        error_per_mille: 25,
        deadline_per_mille: 15,
    });

    let c0 = Snapshot::take();
    let (mut server, _) = Server::open(campaign_config(&campaign_dir, cfg.workers, chaos))?;
    let fleet = client_fleet(cfg.seed, cfg.sessions, cfg.tenants);

    let mut report = SelftestReport::default();
    let mut admitted: BTreeMap<u64, usize> = BTreeMap::new(); // id -> fleet index
    let mut pending: std::collections::VecDeque<usize> = (0..fleet.len()).collect();
    let mut drained_lines = 0u64;

    // Client loop: try a burst of submissions, requeue the rejected
    // (the retry-after protocol), tick the server, occasionally drain
    // a few sessions (most clients stay slow, pressuring the buffers).
    let mut spin = 0u64;
    while !pending.is_empty() || server.status().active > 0 {
        for _ in 0..16 {
            let Some(idx) = pending.pop_front() else {
                break;
            };
            let job = &fleet[idx];
            report.submitted += 1;
            match server.submit(&job.tenant, &job.scenario, &job.params)? {
                Submission::Admitted(id) => {
                    admitted.insert(id, idx);
                }
                Submission::Rejected(r) if r.is_transient() => {
                    report.rejected += 1;
                    pending.push_back(idx);
                }
                Submission::Rejected(r) => {
                    return Err(ServeError::Protocol(format!(
                        "fleet job {idx} permanently rejected: {r}"
                    )));
                }
            }
        }
        server.tick()?;
        // A minority of clients drain; everyone else lets the
        // slow-client shedding path do its job.
        if spin.is_multiple_of(7) {
            for id in server.done_ids().into_iter().take(4) {
                drained_lines += server.drain_output(id).len() as u64;
            }
        }
        spin += 1;
        if spin > 200_000 {
            return Err(ServeError::Protocol(
                "campaign failed to settle (liveness)".to_string(),
            ));
        }
    }
    let status = server.status();
    let done_ids = server.done_ids();
    let quarantined_ids = server.quarantined_ids();
    server.shutdown();

    let c1 = Snapshot::take();
    report.admitted = admitted.len() as u64;
    report.completed = done_ids.len() as u64;
    report.quarantined = quarantined_ids.len() as u64;
    report.panics_caught = c1.panics - c0.panics;
    report.degradations = c1.degradations - c0.degradations;
    report.suspends = c1.suspends - c0.suspends;
    report.sheds = c1.sheds - c0.sheds;
    let _ = drained_lines;

    // Contract: every admitted session reached a durable terminal
    // state, and nothing is left active.
    if status.active != 0 {
        return Err(ServeError::Protocol(format!(
            "{} sessions still active after settle",
            status.active
        )));
    }
    if report.completed + report.quarantined != report.admitted {
        return Err(ServeError::Protocol(format!(
            "admitted {} != completed {} + quarantined {}",
            report.admitted, report.completed, report.quarantined
        )));
    }
    // Contract: the campaign genuinely overloaded the server.
    if cfg.sessions >= 200 && report.rejected == 0 {
        return Err(ServeError::Protocol(
            "campaign never saw backpressure; queue_cap not exercised".to_string(),
        ));
    }
    // Contract: chaos actually bit, and was contained.
    if cfg.chaos && report.panics_caught == 0 {
        return Err(ServeError::Protocol(
            "chaos enabled but no panics were injected/caught".to_string(),
        ));
    }
    if !cfg.chaos && report.quarantined != 0 {
        return Err(ServeError::Protocol(
            "quarantines without chaos: the ladder fired spuriously".to_string(),
        ));
    }

    // Latency percentiles, taken before the verification replay adds
    // its own sessions (process-cumulative, which is fine: the campaign
    // dominates this process's serve histograms up to here).
    let ff = summarize(Hist::ServeFirstFrameMs);
    let ss = summarize(Hist::ServeSessionMs);
    report.p50_first_frame_ms = ff.p50_ms;
    report.p99_first_frame_ms = ff.p99_ms;
    report.p50_session_ms = ss.p50_ms;
    report.p99_session_ms = ss.p99_ms;

    // Bit-identity: re-run every completed session in a fresh,
    // chaos-free, inline server and compare final digests. The campaign
    // ran on `cfg.workers` threads, so this is a worker-count check too.
    report.verified = verify_completed(&campaign_dir, cfg, &fleet, &admitted, &done_ids)?;

    if cfg.kill_drill {
        run_kill_drill(cfg)?;
        report.kill_drill_passed = true;
    }

    if let Some(bench) = &cfg.bench_out {
        merge_bench(bench, &report, cfg)?;
    }
    Ok(report)
}

/// Re-runs every completed session chaos-free in a fresh, inline
/// (`workers = 0`) server and compares the durable `done` digests.
/// Returns how many were verified.
fn verify_completed(
    campaign_dir: &Path,
    cfg: &SelftestConfig,
    fleet: &[ClientJob],
    admitted: &BTreeMap<u64, usize>,
    done_ids: &[u64],
) -> Result<u64, ServeError> {
    use crate::spool::Spool;
    let (_, scan) = Spool::open(campaign_dir, false)?;
    let verify_dir = cfg.spool.join("verify");
    let _ = std::fs::remove_dir_all(&verify_dir);
    let (mut vserver, _) = Server::open(campaign_config(&verify_dir, 0, None))?;
    // Reference session id -> campaign session id.
    let mut replays: BTreeMap<u64, u64> = BTreeMap::new();
    for &id in done_ids {
        let Some(&idx) = admitted.get(&id) else {
            continue;
        };
        let job = &fleet[idx];
        let vid = loop {
            match vserver.submit(&job.tenant, &job.scenario, &job.params)? {
                Submission::Admitted(v) => break v,
                // Admission backpressure: let the backlog drain first.
                Submission::Rejected(r) if r.is_transient() => {
                    vserver.run_until_settled(10_000)?;
                }
                Submission::Rejected(r) => {
                    return Err(ServeError::Protocol(format!("verify submit rejected: {r}")))
                }
            }
        };
        replays.insert(vid, id);
    }
    vserver.run_until_settled(10_000)?;
    vserver.shutdown();
    let (_, vscan) = Spool::open(&verify_dir, false)?;
    for (vid, id) in &replays {
        let (Some(reference), Some(live)) = (vscan.done.get(vid), scan.done.get(id)) else {
            return Err(ServeError::Protocol(format!(
                "verify run for session {id} has no done record"
            )));
        };
        if reference.final_digest != live.final_digest || reference.step != live.step {
            return Err(ServeError::Protocol(format!(
                "session {id} diverged from chaos-free reference: \
                 digest {:#x} vs {:#x}, step {} vs {}",
                live.final_digest, reference.final_digest, live.step, reference.step
            )));
        }
    }
    let _ = std::fs::remove_dir_all(&verify_dir);
    Ok(replays.len() as u64)
}

/// The deterministic fleet the SIGKILL drill child runs.
pub fn drill_fleet(seed: u64) -> Vec<ClientJob> {
    let mut fleet = client_fleet(seed ^ 0xD12111, 12, 3);
    for job in &mut fleet {
        // Long enough that a mid-run kill lands mid-session.
        job.params.steps = 40;
    }
    fleet
}

/// Runs the drill child body: submit the drill fleet, tick to
/// completion with a pacing sleep so the parent can land its SIGKILL
/// mid-run. Invoked by `xylem serve --drill-child`.
///
/// # Errors
///
/// [`ServeError`] on spool faults.
pub fn run_drill_child(spool: &Path, seed: u64, pace_ms: u64) -> Result<(), ServeError> {
    let mut cfg = ServerConfig::new(spool);
    cfg.workers = 2;
    cfg.round_slots = 4;
    cfg.sync = true;
    let (mut server, _) = Server::open(cfg)?;
    for job in drill_fleet(seed) {
        match server.submit(&job.tenant, &job.scenario, &job.params)? {
            Submission::Admitted(_) => {}
            Submission::Rejected(r) => {
                return Err(ServeError::Protocol(format!("drill submit rejected: {r}")))
            }
        }
    }
    while server.status().active > 0 {
        server.tick()?;
        if pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(pace_ms));
        }
    }
    server.shutdown();
    Ok(())
}

/// Frame key set of a spool: `(id, idx) -> (digest, chain)`.
pub type FrameSet = BTreeMap<(u64, u32), (u64, u64)>;

/// Reads a spool's frame journal into a keyed set, failing on any
/// duplicate `(id, idx)` — the crash drill's zero-duplicates check.
///
/// # Errors
///
/// [`ServeError::Io`] on read failure, [`ServeError::Protocol`] on a
/// duplicate frame.
pub fn frame_set(dir: &Path) -> Result<FrameSet, ServeError> {
    let path = dir.join("frames.jsonl");
    let mut out = FrameSet::new();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(ServeError::Io(e)),
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // Tolerate one torn tail line (the kill can land mid-append).
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let Some(m) = v.as_object() else { continue };
        let num = |k: &str| -> Option<u64> {
            match m.get(k) {
                Some(Value::Number(n)) => n.try_as::<u64>(),
                _ => None,
            }
        };
        if let (Some(id), Some(idx), Some(digest), Some(chain)) =
            (num("id"), num("idx"), num("digest"), num("chain"))
        {
            let key = (id, u32::try_from(idx).unwrap_or(u32::MAX));
            if out.insert(key, (digest, chain)).is_some() {
                return Err(ServeError::Protocol(format!(
                    "duplicate frame ({id}, {idx}) in {}",
                    path.display()
                )));
            }
        }
    }
    Ok(out)
}

/// The SIGKILL drill: spawn a child server over a sync spool, kill -9
/// it mid-run, resume in-process, and require (a) zero duplicate
/// frames, (b) the union journal bit-identical to an uninterrupted
/// reference run.
fn run_kill_drill(cfg: &SelftestConfig) -> Result<(), ServeError> {
    let Some(exe) = &cfg.exe else {
        return Err(ServeError::Protocol(
            "kill drill requested but no exe configured".to_string(),
        ));
    };
    let drill_dir = cfg.spool.join("drill");
    let _ = std::fs::remove_dir_all(&drill_dir);
    std::fs::create_dir_all(&drill_dir)?;

    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--drill-child",
            &format!("--spool={}", drill_dir.display()),
            &format!("--seed={}", cfg.seed),
            "--pace-ms=3",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()?;

    // Wait until real progress is durable, then SIGKILL mid-run.
    let frames_path = drill_dir.join("frames.jsonl");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let lines = std::fs::read_to_string(&frames_path)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 20 {
            break;
        }
        if child.try_wait()?.is_some() {
            return Err(ServeError::Protocol(
                "drill child finished before the kill landed; raise steps/pace".to_string(),
            ));
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            return Err(ServeError::Protocol(
                "drill child made no progress within 120s".to_string(),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill()?; // SIGKILL: no cleanup handlers run, by design.
    let _ = child.wait();

    // Resume in-process over the killed spool and finish everything.
    let mut rcfg = ServerConfig::new(&drill_dir);
    rcfg.workers = 2;
    rcfg.round_slots = 4;
    rcfg.sync = true;
    let (mut resumed, resume_report) = Server::open(rcfg)?;
    if resume_report.resumed == 0 {
        return Err(ServeError::Protocol(
            "kill landed but no session was mid-flight; raise steps/pace".to_string(),
        ));
    }
    resumed.run_until_settled(200_000)?;
    let quarantined = resumed.quarantined_ids();
    resumed.shutdown();
    if !quarantined.is_empty() {
        return Err(ServeError::Protocol(format!(
            "drill quarantined sessions {quarantined:?} without chaos"
        )));
    }

    // Reference: the same fleet, uninterrupted.
    let ref_dir = cfg.spool.join("drill-ref");
    let _ = std::fs::remove_dir_all(&ref_dir);
    run_drill_child(&ref_dir, cfg.seed, 0)?;

    let killed = frame_set(&drill_dir)?; // errors on any duplicate
    let reference = frame_set(&ref_dir)?;
    if killed != reference {
        return Err(ServeError::Protocol(format!(
            "killed+resumed journal diverges from uninterrupted reference: \
             {} vs {} frames",
            killed.len(),
            reference.len()
        )));
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    Ok(())
}

/// Serve-counter snapshot for campaign deltas.
struct Snapshot {
    panics: u64,
    degradations: u64,
    suspends: u64,
    sheds: u64,
}

impl Snapshot {
    fn take() -> Self {
        Snapshot {
            panics: counter(Counter::ServePanicsCaught),
            degradations: counter(Counter::ServeDeadlineDegradations),
            suspends: counter(Counter::ServeSuspends),
            sheds: counter(Counter::ServeSlowClientSheds),
        }
    }
}

/// Merges the `serve` row into `BENCH_thermal.json`, preserving every
/// other key (the bench smoke owns the rest of the file).
fn merge_bench(
    path: &Path,
    report: &SelftestReport,
    cfg: &SelftestConfig,
) -> Result<(), ServeError> {
    let mut root: Value = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map_err(|e| ServeError::Protocol(format!("{}: {e}", path.display())))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Object(Map::new()),
        Err(e) => return Err(ServeError::Io(e)),
    };
    let Value::Object(m) = &mut root else {
        return Err(ServeError::Protocol(format!(
            "{} is not a JSON object",
            path.display()
        )));
    };
    let mut serve = Map::new();
    let put_u = |k: &str, v: u64, m: &mut Map| {
        m.insert(k.to_string(), Value::Number(Number::U64(v)));
    };
    put_u("sessions", cfg.sessions as u64, &mut serve);
    put_u("admitted", report.admitted, &mut serve);
    put_u("completed", report.completed, &mut serve);
    put_u("quarantined", report.quarantined, &mut serve);
    put_u("rejected_transient", report.rejected, &mut serve);
    put_u("panics_caught", report.panics_caught, &mut serve);
    put_u("degradations", report.degradations, &mut serve);
    put_u("suspends", report.suspends, &mut serve);
    put_u("slow_client_sheds", report.sheds, &mut serve);
    put_u("verified_bit_identical", report.verified, &mut serve);
    serve.insert(
        "p50_submit_to_first_frame_ms".to_string(),
        Value::Number(Number::F64(report.p50_first_frame_ms)),
    );
    serve.insert(
        "p99_submit_to_first_frame_ms".to_string(),
        Value::Number(Number::F64(report.p99_first_frame_ms)),
    );
    serve.insert(
        "p50_session_ms".to_string(),
        Value::Number(Number::F64(report.p50_session_ms)),
    );
    serve.insert(
        "p99_session_ms".to_string(),
        Value::Number(Number::F64(report.p99_session_ms)),
    );
    serve.insert(
        "kill_drill_passed".to_string(),
        Value::Bool(report.kill_drill_passed),
    );
    m.insert("serve".to_string(), Value::Object(serve));
    let text =
        serde_json::to_string_pretty(&root).map_err(|e| ServeError::Protocol(e.to_string()))?;
    std::fs::write(path, text + "\n")?;
    Ok(())
}

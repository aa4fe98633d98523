//! The server: admission control, fair round-robin scheduling, the
//! degradation ladder, and crash-only state management.
//!
//! # Execution model
//!
//! Time is divided into *ticks*. Each tick the scheduler picks at most
//! `round_slots` runnable sessions — round-robin across tenants, so no
//! tenant's backlog can starve another — builds one slice request per
//! picked session on the tick thread, runs the batch with
//! [`fork_join`] over `workers` threads (joined before it returns; `0`
//! runs the batch inline), and applies the outcomes **sorted by session
//! id**. The join plus the sort makes the authoritative state evolution
//! deterministic, and independent of the worker count, even though
//! slice completion order on the workers is not.
//!
//! # Crash-only durability
//!
//! Order per applied slice: frame append + fsync → checkpoint save.
//! A SIGKILL between the two leaves a frame the checkpoint does not
//! know about; on resume the slice is recomputed bit-identically
//! (slices are split-invariant) and the regenerated frame is
//! *suppressed* by its durable index instead of re-journaled — zero
//! duplicates, zero gaps, no recovery-specific code path.
//!
//! # Degradation ladder
//!
//! A session that misses its slice deadline degrades instead of
//! failing: first *economy stepping* (frame stride doubles, halving
//! per-frame overhead), then *checkpoint-and-suspend* (its shared
//! model is released and it sleeps for `suspend_ticks`), and only on a
//! third miss *quarantine* — durable, inspectable, never silent. A
//! panicking or erroring slice never touches authoritative state (the
//! slice ran on a snapshot) and is retried up to `max_attempts`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xylem::supervise::fork_join;
use xylem_obs::metrics::{incr, record_ns, Counter, Hist};

use crate::chaos::ChaosConfig;
use crate::error::{Rejection, ServeError};
use crate::session::{
    run_slice, ModelRegistry, SessionSpec, SessionState, SharedModel, SliceOutcome, SliceRequest,
};
use crate::spool::{Spool, SpoolScan};

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum concurrently active (admitted, unfinished) sessions.
    pub max_active: usize,
    /// Maximum total remaining steps across a tenant's active sessions.
    pub max_active_steps: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_active: 64,
            max_active_steps: 1 << 20,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Spool directory (created if missing).
    pub spool_dir: PathBuf,
    /// Slice worker threads per tick; `0` runs slices inline on the
    /// tick thread. Outcomes do not depend on the count.
    pub workers: usize,
    /// Max slices dispatched per tick.
    pub round_slots: usize,
    /// Global cap on active sessions (backpressure beyond it).
    pub queue_cap: usize,
    /// Per-session client buffer capacity, in lines.
    pub client_buffer_cap: usize,
    /// Slice attempts (panic/error) before quarantine.
    pub max_attempts: u32,
    /// Ticks a deadline-suspended session sleeps.
    pub suspend_ticks: u64,
    /// Per-tenant quota.
    pub quota: TenantQuota,
    /// Fault injection (None outside the chaos harness).
    pub chaos: Option<ChaosConfig>,
    /// Whether the spool fsyncs: journal appends, state checkpoints and
    /// source files. `false` keeps every write, rename and its order, so
    /// a killed process still resumes bit-identically (the page cache
    /// outlives it), but a power loss may drop the newest records.
    pub sync: bool,
}

impl ServerConfig {
    /// Defaults for a spool directory.
    pub fn new(spool_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            spool_dir: spool_dir.into(),
            workers: 2,
            round_slots: 8,
            queue_cap: 256,
            client_buffer_cap: 64,
            max_attempts: 3,
            suspend_ticks: 4,
            quota: TenantQuota::default(),
            chaos: None,
            sync: true,
        }
    }
}

/// Admission verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// Admitted with this session id.
    Admitted(u64),
    /// Not admitted; see the rejection for whether to retry.
    Rejected(Rejection),
}

/// Client-settable parameters of a submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitParams {
    /// Total backward-Euler steps.
    pub steps: u32,
    /// Step size, seconds.
    pub dt_s: f64,
    /// Steps per frame.
    pub frame_every: u32,
    /// Power multiplier.
    pub power_scale: f64,
    /// Serve-side throttle trip, deg C.
    pub trip_c: Option<f64>,
    /// Per-slice wall-clock budget, ms.
    pub deadline_ms: Option<u64>,
}

impl Default for SubmitParams {
    fn default() -> Self {
        SubmitParams {
            steps: 8,
            dt_s: 1e-3,
            frame_every: 2,
            power_scale: 1.0,
            trip_c: None,
            deadline_ms: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Runnable,
    Suspended { until_tick: u64 },
}

struct Session {
    spec: SessionSpec,
    state: SessionState,
    phase: Phase,
    shared: Option<Arc<SharedModel>>,
    /// Frames already durable in the journal (suppress re-emission
    /// below this index after a crash-resume).
    durable_frames: u32,
    /// Wall-clock submission time; `None` for resumed sessions, whose
    /// submit-to-frame latency would be meaningless.
    submitted_at: Option<Instant>,
    submit_tick: u64,
    first_frame_tick: Option<u64>,
}

/// Per-session outgoing line buffer with slow-client shedding: when the
/// client stops draining, the *oldest* lines are dropped (they remain
/// durable in the journal — shedding loses convenience, not data).
#[derive(Default)]
struct ClientBuffer {
    lines: VecDeque<String>,
    shed: bool,
}

/// Counts of sessions by terminal state, plus live totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatus {
    /// Current scheduler tick.
    pub tick: u64,
    /// Admitted, unfinished sessions.
    pub active: usize,
    /// Of those, currently runnable.
    pub runnable: usize,
    /// Sessions completed (ever, including before a crash).
    pub done: usize,
    /// Sessions quarantined (ever).
    pub quarantined: usize,
}

/// What `Server::open` recovered from the spool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeReport {
    /// In-flight sessions restored and requeued.
    pub resumed: usize,
    /// Sessions already durably done.
    pub already_done: usize,
    /// Sessions already durably quarantined.
    pub already_quarantined: usize,
}

/// The serve scheduler. See the module docs for the execution model.
pub struct Server {
    cfg: ServerConfig,
    spool: Spool,
    registry: ModelRegistry,
    sessions: BTreeMap<u64, Session>,
    /// Tick-clock latency log of completed sessions (id →
    /// (submit_tick, first_frame_tick, done_tick)); tick-based so
    /// fairness bounds are deterministic on any machine.
    completion_ticks: BTreeMap<u64, (u64, Option<u64>, u64)>,
    done: BTreeSet<u64>,
    quarantined: BTreeSet<u64>,
    outputs: BTreeMap<u64, ClientBuffer>,
    tick: u64,
    ring_offset: usize,
    next_id: u64,
}

impl Server {
    /// Opens the server over a spool directory, resuming every
    /// in-flight session recorded there.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for spool I/O or corruption.
    pub fn open(cfg: ServerConfig) -> Result<(Server, ResumeReport), ServeError> {
        let (spool, scan) = Spool::open(&cfg.spool_dir, cfg.sync)?;
        let mut registry = ModelRegistry::new();
        let SpoolScan {
            submits,
            done,
            quarantined,
            durable_frames,
            sources,
            max_id,
        } = scan;
        for (key, source) in sources {
            registry.restore(key, source);
        }

        let mut server = Server {
            spool,
            registry,
            sessions: BTreeMap::new(),
            completion_ticks: BTreeMap::new(),
            done: done.keys().copied().collect(),
            quarantined,
            outputs: BTreeMap::new(),
            tick: 0,
            ring_offset: 0,
            next_id: max_id + 1,
            cfg,
        };

        let mut report = ResumeReport {
            already_done: server.done.len(),
            already_quarantined: server.quarantined.len(),
            ..ResumeReport::default()
        };
        for spec in submits {
            let id = spec.id;
            if server.done.contains(&id) || server.quarantined.contains(&id) {
                continue;
            }
            let restored = server.spool.load_state(id)?;
            let durable = durable_frames.get(&id).copied().unwrap_or(0);
            let mid_flight = restored.is_some() || durable > 0;
            let state = restored.unwrap_or_else(|| SessionState::fresh(&spec));
            server.sessions.insert(
                id,
                Session {
                    spec,
                    state,
                    phase: Phase::Runnable,
                    shared: None,
                    durable_frames: durable,
                    submitted_at: None,
                    submit_tick: 0,
                    first_frame_tick: None,
                },
            );
            if mid_flight {
                incr(Counter::ServeSessionsResumed);
                report.resumed += 1;
            }
        }
        Ok((server, report))
    }

    fn active_of(&self, tenant: &str) -> (usize, u64) {
        let mut count = 0usize;
        let mut steps = 0u64;
        for s in self.sessions.values() {
            if s.spec.tenant == tenant {
                count += 1;
                steps += u64::from(s.spec.steps.saturating_sub(s.state.step));
            }
        }
        (count, steps)
    }

    /// Submits a scenario for simulation.
    ///
    /// Admission is checked before any durable write: global capacity,
    /// per-tenant quota, parameter sanity, and a full compile of the
    /// scenario source. A rejection is a normal outcome, not an error;
    /// transient rejections carry a `retry_after_ms` hint proportional
    /// to the current backlog.
    ///
    /// # Errors
    ///
    /// [`ServeError`] only for spool faults; overload never errors.
    pub fn submit(
        &mut self,
        tenant: &str,
        source: &str,
        params: &SubmitParams,
    ) -> Result<Submission, ServeError> {
        incr(Counter::ServeSubmitted);
        let reject = |r: Rejection| {
            incr(Counter::ServeRejected);
            Ok(Submission::Rejected(r))
        };

        if !(params.dt_s.is_finite() && params.dt_s > 0.0) {
            return reject(Rejection::permanent(format!("bad dt_s {}", params.dt_s)));
        }
        if params.steps == 0 || params.frame_every == 0 {
            return reject(Rejection::permanent("steps and frame_every must be >= 1"));
        }
        if !(params.power_scale.is_finite() && params.power_scale >= 0.0) {
            return reject(Rejection::permanent(format!(
                "bad power_scale {}",
                params.power_scale
            )));
        }
        if u64::from(params.steps) > self.cfg.quota.max_active_steps {
            return reject(Rejection::permanent(format!(
                "job of {} steps exceeds the per-tenant step quota {}",
                params.steps, self.cfg.quota.max_active_steps
            )));
        }

        let active = self.sessions.len();
        if active >= self.cfg.queue_cap {
            return reject(Rejection::backpressure(
                format!("server at capacity ({active} active sessions)"),
                5 * active as u64,
            ));
        }
        let (tenant_active, tenant_steps) = self.active_of(tenant);
        if tenant_active >= self.cfg.quota.max_active {
            return reject(Rejection::backpressure(
                format!("tenant {tenant} at session quota ({tenant_active})"),
                10 * tenant_active as u64,
            ));
        }
        if tenant_steps + u64::from(params.steps) > self.cfg.quota.max_active_steps {
            return reject(Rejection::backpressure(
                format!("tenant {tenant} at step quota ({tenant_steps} active steps)"),
                (tenant_steps / 16).max(1),
            ));
        }

        let source_key = match self.registry.register(source) {
            Ok(k) => k,
            Err(r) => return reject(r),
        };

        let id = self.next_id;
        self.next_id += 1;
        let spec = SessionSpec {
            id,
            tenant: tenant.to_string(),
            source_key,
            steps: params.steps,
            dt_s: params.dt_s,
            frame_every: params.frame_every,
            power_scale: params.power_scale,
            trip_c: params.trip_c,
            deadline_ms: params.deadline_ms,
        };
        // Durability order: source, then submit record, then memory.
        // A crash right after the fsync'd submit record resumes the
        // session; a crash before it never admitted anything.
        if let Some(src) = self.registry.source(source_key) {
            let src = src.to_string();
            self.spool.record_source(source_key, &src)?;
        }
        self.spool.record_submit(&spec)?;
        let state = SessionState::fresh(&spec);
        self.sessions.insert(
            id,
            Session {
                spec,
                state,
                phase: Phase::Runnable,
                shared: None,
                durable_frames: 0,
                submitted_at: Some(Instant::now()),
                submit_tick: self.tick,
                first_frame_tick: None,
            },
        );
        incr(Counter::ServeAdmitted);
        Ok(Submission::Admitted(id))
    }

    /// Round-robin selection across tenants: rotate the tenant ring
    /// each tick, take one session per tenant per pass.
    fn select(&self) -> Vec<u64> {
        let mut by_tenant: BTreeMap<&str, VecDeque<u64>> = BTreeMap::new();
        for (id, s) in &self.sessions {
            if s.phase == Phase::Runnable {
                by_tenant.entry(&s.spec.tenant).or_default().push_back(*id);
            }
        }
        if by_tenant.is_empty() {
            return Vec::new();
        }
        let mut queues: Vec<VecDeque<u64>> = by_tenant.into_values().collect();
        let n = queues.len();
        queues.rotate_left(self.ring_offset % n);
        let mut picked = Vec::new();
        let mut any = true;
        while picked.len() < self.cfg.round_slots && any {
            any = false;
            for q in &mut queues {
                if picked.len() >= self.cfg.round_slots {
                    break;
                }
                if let Some(id) = q.pop_front() {
                    picked.push(id);
                    any = true;
                }
            }
        }
        picked
    }

    /// Runs one scheduler tick. Returns the number of slices applied.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for spool faults while persisting outcomes.
    pub fn tick(&mut self) -> Result<usize, ServeError> {
        // Wake suspended sessions whose sleep expired.
        let now = self.tick;
        for s in self.sessions.values_mut() {
            if let Phase::Suspended { until_tick } = s.phase {
                if until_tick <= now {
                    s.phase = Phase::Runnable;
                }
            }
        }

        let mut ids = Vec::new();
        let mut requests = Vec::new();
        for id in self.select() {
            if let Some(req) = self.slice_request(id)? {
                ids.push(id);
                requests.push(req);
            }
        }
        let results = fork_join(self.cfg.workers, requests, |req| {
            let _clock = SliceClock(Instant::now());
            run_slice(&req)
        });
        let mut outcomes: Vec<(u64, SliceOutcome)> = ids
            .into_iter()
            .zip(results)
            .map(|(id, result)| {
                let outcome = result.unwrap_or_else(|message| {
                    // The containment point: every session panic in the
                    // whole service funnels through here and is counted.
                    incr(Counter::ServePanicsCaught);
                    SliceOutcome::Panicked { message }
                });
                (id, outcome)
            })
            .collect();
        outcomes.sort_by_key(|(id, _)| *id);
        let applied = outcomes.len();
        for (id, outcome) in outcomes {
            self.apply(id, outcome)?;
        }

        self.tick += 1;
        self.ring_offset = self.ring_offset.wrapping_add(1);
        Ok(applied)
    }

    /// Ticks until no session is active or `max_ticks` elapse.
    ///
    /// # Errors
    ///
    /// As [`Server::tick`]; additionally [`ServeError::Protocol`] if
    /// the budget runs out with sessions still active (a liveness bug).
    pub fn run_until_settled(&mut self, max_ticks: u64) -> Result<(), ServeError> {
        for _ in 0..max_ticks {
            if self.sessions.is_empty() {
                return Ok(());
            }
            self.tick()?;
        }
        if self.sessions.is_empty() {
            return Ok(());
        }
        Err(ServeError::Protocol(format!(
            "{} sessions still active after {max_ticks} ticks",
            self.sessions.len()
        )))
    }

    /// Builds the slice request for `id` on a snapshot of its state,
    /// materializing its model first if needed (`None` if the session
    /// is gone or was quarantined at materialization).
    fn slice_request(&mut self, id: u64) -> Result<Option<SliceRequest>, ServeError> {
        let Some(s) = self.sessions.get_mut(&id) else {
            return Ok(None);
        };
        if s.shared.is_none() {
            match self.registry.acquire(s.spec.source_key) {
                Ok(m) => s.shared = Some(m),
                Err(e) => {
                    // A source that stopped discretizing is a permanent
                    // fault of this session, not of the server.
                    xylem_obs::metrics::incr(Counter::ServeMaterializationFailures);
                    let reason = format!("model materialization failed: {e}");
                    self.quarantine(id, &reason)?;
                    return Ok(None);
                }
            }
        }
        let Some(s) = self.sessions.get(&id) else {
            return Ok(None);
        };
        Ok(s.shared.clone().map(|shared| SliceRequest {
            shared,
            spec: s.spec.clone(),
            state: s.state.clone(),
            chaos: self.cfg.chaos,
        }))
    }

    fn push_line(&mut self, id: u64, line: String) {
        let buf = self.outputs.entry(id).or_default();
        while buf.lines.len() >= self.cfg.client_buffer_cap.max(1) {
            buf.lines.pop_front();
            buf.shed = true;
            incr(Counter::ServeSlowClientSheds);
        }
        buf.lines.push_back(line);
    }

    fn quarantine(&mut self, id: u64, reason: &str) -> Result<(), ServeError> {
        self.spool.record_quarantine(id, reason)?;
        self.sessions.remove(&id);
        self.quarantined.insert(id);
        incr(Counter::ServeSessionsQuarantined);
        self.push_line(id, event_json(id, "quarantined", reason));
        Ok(())
    }

    fn apply(&mut self, id: u64, outcome: SliceOutcome) -> Result<(), ServeError> {
        if !self.sessions.contains_key(&id) {
            return Ok(());
        }
        match outcome {
            SliceOutcome::Advanced { state, frame } => {
                let durable = self.sessions.get(&id).map_or(0, |s| s.durable_frames);
                let line = if frame.idx < durable {
                    incr(Counter::ServeFramesSuppressed);
                    None
                } else {
                    let line = self.spool.record_frame(&frame)?;
                    incr(Counter::ServeFramesEmitted);
                    Some(line)
                };
                let tick = self.tick;
                let (snapshot, complete, submitted_at, ticks) = {
                    let Some(s) = self.sessions.get_mut(&id) else {
                        return Ok(());
                    };
                    if s.first_frame_tick.is_none() {
                        s.first_frame_tick = Some(tick);
                        if let Some(at) = s.submitted_at {
                            let ns = at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                            record_ns(Hist::ServeFirstFrameMs, ns);
                        }
                    }
                    s.state = state;
                    (
                        s.state.clone(),
                        s.state.is_complete(&s.spec),
                        s.submitted_at,
                        (s.submit_tick, s.first_frame_tick, tick),
                    )
                };
                // Frame (already fsync'd) strictly precedes checkpoint.
                self.spool.save_state(id, &snapshot)?;
                if let Some(line) = line {
                    self.push_line(id, line);
                }
                if complete {
                    let done = Spool::done_record(id, &snapshot);
                    self.spool.record_done(&done)?;
                    self.sessions.remove(&id);
                    self.done.insert(id);
                    self.completion_ticks.insert(id, ticks);
                    incr(Counter::ServeSessionsCompleted);
                    if let Some(at) = submitted_at {
                        let ns = at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        record_ns(Hist::ServeSessionMs, ns);
                    }
                    self.push_line(id, event_json(id, "done", "session complete"));
                }
            }
            SliceOutcome::DeadlineMiss => {
                let suspend_until = self.tick + self.cfg.suspend_ticks;
                let (snapshot, misses) = {
                    let Some(s) = self.sessions.get_mut(&id) else {
                        return Ok(());
                    };
                    s.state.deadline_misses += 1;
                    let misses = s.state.deadline_misses;
                    if misses == 1 {
                        // Rung 1: economy stepping — double the frame
                        // stride so each deadline budget buys more
                        // steps.
                        s.state.frame_stride = s.state.frame_stride.saturating_mul(2);
                    } else if misses == 2 {
                        // Rung 2: checkpoint and suspend; release the
                        // shared model so memory drains under pressure.
                        s.shared = None;
                        s.phase = Phase::Suspended {
                            until_tick: suspend_until,
                        };
                    }
                    (s.state.clone(), misses)
                };
                self.spool.save_state(id, &snapshot)?;
                if misses == 1 {
                    incr(Counter::ServeDeadlineDegradations);
                    self.push_line(id, event_json(id, "degraded", "economy stepping engaged"));
                } else if misses == 2 {
                    incr(Counter::ServeSuspends);
                    self.push_line(id, event_json(id, "suspended", "checkpointed and parked"));
                } else {
                    self.quarantine(id, "deadline budget exhausted")?;
                }
            }
            SliceOutcome::Failed { error } | SliceOutcome::Panicked { message: error } => {
                // The slice ran on a snapshot: authoritative state is
                // untouched (poisoned-state teardown by construction).
                // (Panics were already counted in `tick`.)
                let (snapshot, attempts) = {
                    let Some(s) = self.sessions.get_mut(&id) else {
                        return Ok(());
                    };
                    s.state.attempts += 1;
                    (s.state.clone(), s.state.attempts)
                };
                self.spool.save_state(id, &snapshot)?;
                if attempts >= self.cfg.max_attempts {
                    self.quarantine(id, &format!("{attempts} failed attempts; last: {error}"))?;
                } else {
                    self.push_line(id, event_json(id, "retrying", &error));
                }
            }
        }
        Ok(())
    }

    /// Drains the buffered output lines for a session. If lines were
    /// shed since the last drain, the first line announces it (the
    /// shed frames themselves remain durable in the journal).
    pub fn drain_output(&mut self, id: u64) -> Vec<String> {
        match self.outputs.get_mut(&id) {
            Some(buf) => {
                let mut out = Vec::with_capacity(buf.lines.len() + 1);
                if buf.shed {
                    buf.shed = false;
                    out.push(event_json(
                        id,
                        "overflow",
                        "older lines shed; replay from the frames journal",
                    ));
                }
                out.extend(buf.lines.drain(..));
                out
            }
            None => Vec::new(),
        }
    }

    /// Current status counts.
    pub fn status(&self) -> ServerStatus {
        ServerStatus {
            tick: self.tick,
            active: self.sessions.len(),
            runnable: self
                .sessions
                .values()
                .filter(|s| s.phase == Phase::Runnable)
                .count(),
            done: self.done.len(),
            quarantined: self.quarantined.len(),
        }
    }

    /// Ids of durably completed sessions.
    pub fn done_ids(&self) -> Vec<u64> {
        self.done.iter().copied().collect()
    }

    /// Tick-clock latencies of a session completed in this process:
    /// `(submit_tick, first_frame_tick, done_tick)`. Deterministic
    /// (scheduler ticks, not wall clock), which is what the fairness
    /// regression locks its bound against.
    pub fn completion_ticks(&self, id: u64) -> Option<(u64, Option<u64>, u64)> {
        self.completion_ticks.get(&id).copied()
    }

    /// Ids of durably quarantined sessions.
    pub fn quarantined_ids(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Closes the server. Every tick joins its workers and all state is
    /// already durable, so there is nothing to drain — the graceful
    /// path and `kill -9` converge on the same spool contents.
    pub fn shutdown(self) {}
}

/// Serializes a lifecycle event as a JSONL line.
fn event_json(id: u64, kind: &str, detail: &str) -> String {
    let mut m = serde::Map::new();
    m.insert(
        "record".to_string(),
        serde::Value::String("event".to_string()),
    );
    m.insert(
        "id".to_string(),
        serde::Value::Number(serde::Number::U64(id)),
    );
    m.insert("kind".to_string(), serde::Value::String(kind.to_string()));
    m.insert(
        "detail".to_string(),
        serde::Value::String(detail.to_string()),
    );
    serde_json::to_string(&serde::Value::Object(m)).unwrap_or_default()
}

/// Records a slice's wall time into `serve_slice_ms` when dropped, so
/// a slice that panics is timed too.
struct SliceClock(Instant);

impl Drop for SliceClock {
    fn drop(&mut self) {
        let ns = self.0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        record_ns(Hist::ServeSliceMs, ns);
    }
}

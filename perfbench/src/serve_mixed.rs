//! `serve_mixed`: `xylem-serve` as a multi-tenant service. Eight
//! closed-loop clients over four tenants each submit their next `.stk`
//! session only after the last one is done. Sources are the valid corpus
//! under `scenarios/valid/`; tenant 0 runs the 32x32 paper stack, a
//! quarter of the sessions (so concurrent sessions share its model and
//! every tick waits on its slice); a third of sessions set a trip.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xylem_obs::json::{parse, Value};
use xylem_obs::metrics::{counter, summarize, Counter, Hist};
use xylem_serve::session::{
    run_slice, FrameRecord, SessionSpec, SessionState, SharedModel, SliceOutcome, SliceRequest,
};
use xylem_serve::spool::Spool;
use xylem_serve::{Server, ServerConfig, Submission, SubmitParams};

use crate::harness::{
    guarded_percentile, ms, secs, BenchError, Deck, EndToEnd, Outcome, Rng, RunDir, Threads,
    MIN_OPS,
};
use crate::trace::{bytes_per_cg_iter, Ledger};

const CORPUS_DIR: &str = "scenarios/valid";
const HEAVY_SOURCE: &str = "xylem-paper.stk";
const CLIENTS: usize = 8;
const TENANTS: usize = 4;
const STEPS: u32 = 16;
const FRAME_EVERY: u32 = 4;
const POWER_SCALES: [f64; 2] = [1.0, 1.5];
/// Serve-side throttle trip of the sessions that set one, deg C.
const TRIP_C: f64 = 60.0;
/// Independent set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Seconds past `--seconds` after which unsettled sessions fail the run.
const SETTLE_S: f64 = 100.0;
/// Traced runs report counts over this many leading ticks / sessions.
const COUNT_TICKS: usize = 64;
const COUNT_SESSIONS: usize = 16;

/// One session's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SessionConfig {
    source: usize,
    scale: usize,
    trip: bool,
}

impl SessionConfig {
    fn params(self) -> SubmitParams {
        SubmitParams {
            steps: STEPS,
            dt_s: 1e-3,
            frame_every: FRAME_EVERY,
            power_scale: POWER_SCALES[self.scale],
            trip_c: self.trip.then_some(TRIP_C),
            deadline_ms: None,
        }
    }
}

/// The corpus, sorted by file name, and the index of the heavy source.
fn load_corpus() -> Result<(Vec<String>, Vec<String>, usize), BenchError> {
    let mut paths: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("{CORPUS_DIR}: {e} (run from the repository root)"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "stk"))
        .collect();
    paths.sort();
    let names: Vec<String> = paths
        .iter()
        .map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .collect::<Option<_>>()
        .ok_or("unnamed corpus file")?;
    let heavy = names
        .iter()
        .position(|n| n == HEAVY_SOURCE)
        .ok_or("heavy source missing from the corpus")?;
    let sources = paths
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((names, sources, heavy))
}

/// The session mix. Tenant 0's clients run the heavy source and every
/// other client takes the next light source from a seeded deck, so a
/// fixed quarter of the clients (and of the sessions, since every active
/// session gets a slice each tick) is heavy whatever the seed. Trip and
/// power scale come from a second deck: a third of sessions set a trip,
/// crossed with both scales.
struct Mix {
    params: Deck<(bool, usize)>,
    lights: Deck<usize>,
    heavy: usize,
}

impl Mix {
    fn new(rng: &mut Rng, n_sources: usize, heavy: usize) -> Mix {
        let mut params = Vec::new();
        for trip in [true, false, false] {
            for scale in 0..POWER_SCALES.len() {
                params.push((trip, scale));
            }
        }
        let lights = (0..n_sources).filter(|&i| i != heavy).collect();
        Mix {
            params: Deck::new(params, Rng::new(rng.next_u64())),
            lights: Deck::new(lights, Rng::new(rng.next_u64())),
            heavy,
        }
    }

    fn next(&mut self, client: usize) -> SessionConfig {
        let (trip, scale) = self.params.draw();
        SessionConfig {
            source: if tenant_of(client) == 0 {
                self.heavy
            } else {
                self.lights.draw()
            },
            scale,
            trip,
        }
    }
}

fn tenant_of(client: usize) -> usize {
    client % TENANTS
}

fn server_config(spool: &Path, threads: Threads) -> ServerConfig {
    let mut cfg = ServerConfig::new(spool);
    cfg.workers = threads.serve_workers;
    cfg.sync = true;
    cfg.chaos = None;
    cfg
}

/// Opens a server and runs one warm-up session per source, serially.
fn setup(spool: &Path, threads: Threads, sources: &[String]) -> Result<Server, BenchError> {
    let (mut server, _) = Server::open(server_config(spool, threads))?;
    let params = SessionConfig {
        source: 0,
        scale: 0,
        trip: false,
    }
    .params();
    for src in sources {
        match server.submit("warmup", src, &params)? {
            Submission::Admitted(id) => {
                server.run_until_settled(10_000)?;
                server.drain_output(id);
            }
            Submission::Rejected(r) => return Err(format!("warm-up rejected: {r}").into()),
        }
    }
    Ok(server)
}

/// A replayed session: its frame chain and per-slice results.
struct Replay {
    chain: u64,
    frames: u32,
    /// (slice ms, steps in the slice, frame, state after the slice).
    slices: Vec<(f64, usize, FrameRecord, SessionState)>,
    compile_ms: f64,
    discretize_ms: f64,
    bytes_per_cg_iter: f64,
}

/// Runs a session directly through the scenario compiler and the slice
/// runner, outside the server.
fn replay(source: &str, c: SessionConfig, id: u64) -> Result<Replay, BenchError> {
    let t = Instant::now();
    let lowered = xylem_scenario::compile(source)?;
    let compile_ms = ms(t);
    let t = Instant::now();
    let (model, base_power) = xylem_scenario::discretize_with_power(&lowered)?;
    let discretize_ms = ms(t);
    let bytes_per_cg_iter = bytes_per_cg_iter(model.node_count(), model.csr().nnz());
    let shared = Arc::new(SharedModel { model, base_power });
    let params = c.params();
    let spec = SessionSpec {
        id,
        tenant: "replay".to_string(),
        source_key: xylem_serve::chaos::fnv1a(source.as_bytes()),
        steps: params.steps,
        dt_s: params.dt_s,
        frame_every: params.frame_every,
        power_scale: params.power_scale,
        trip_c: params.trip_c,
        deadline_ms: None,
    };
    let mut state = SessionState::fresh(&spec);
    let mut slices = Vec::new();
    while !state.is_complete(&spec) {
        let before = state.step;
        let t = Instant::now();
        let outcome = run_slice(&SliceRequest {
            shared: Arc::clone(&shared),
            spec: spec.clone(),
            state: state.clone(),
            chaos: None,
        });
        let slice_ms = ms(t);
        match outcome {
            SliceOutcome::Advanced { state: s, frame } => {
                slices.push((slice_ms, (s.step - before) as usize, frame, s.clone()));
                state = s;
            }
            other => return Err(format!("replay slice did not advance: {other:?}").into()),
        }
    }
    Ok(Replay {
        chain: state.chain,
        frames: state.frames,
        slices,
        compile_ms,
        discretize_ms,
        bytes_per_cg_iter,
    })
}

/// One in-flight session of a client.
struct InFlight {
    id: u64,
    config: SessionConfig,
    submitted: Instant,
    first_frame_ms: Option<f64>,
    chain: Option<u64>,
    frames: u32,
}

/// A completed session, kept for verification.
struct Done {
    id: u64,
    config: SessionConfig,
    chain: Option<u64>,
    frames: u32,
}

/// What one timed phase of the clients produced.
#[derive(Default)]
struct Ops {
    /// Submit-to-done latency of every settled session.
    op_ms: Vec<f64>,
    first_frame_ms: Vec<f64>,
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    rejections: u64,
    timed_s: f64,
    ticks: u64,
    /// Slice compute over the phase, summed over the workers.
    slice_sum_ms: f64,
    /// Spans of a traced phase.
    tick_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Slices dispatched by each of the leading ticks of a traced phase.
    slices_per_tick: Vec<f64>,
}

/// Runs the closed-loop clients for `seconds` and at least [`MIN_OPS`]
/// sessions, then lets every in-flight session settle. A traced phase
/// also takes spans around `submit` and `tick`.
fn phase(
    server: &mut Server,
    mix: &mut Mix,
    sources: &[String],
    seconds: f64,
    traced: bool,
) -> Result<Ops, BenchError> {
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    let mut clients: Vec<Option<InFlight>> = (0..CLIENTS).map(|_| None).collect();
    let mut ops = Ops::default();
    let slices0 = summarize(Hist::ServeSliceMs);
    let tick0 = server.status().tick;

    let started = Instant::now();
    loop {
        if secs(started) < seconds || ops.op_ms.len() < MIN_OPS {
            for (c, slot) in clients.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let config = mix.next(c);
                ops.attempted += 1;
                let t = Instant::now();
                let verdict = server.submit(
                    &tenants[tenant_of(c)],
                    &sources[config.source],
                    &config.params(),
                )?;
                if traced {
                    ops.submit_us.push(ms(t) * 1e3);
                }
                match verdict {
                    Submission::Admitted(id) => {
                        *slot = Some(InFlight {
                            id,
                            config,
                            submitted: t,
                            first_frame_ms: None,
                            chain: None,
                            frames: 0,
                        });
                    }
                    Submission::Rejected(r) => {
                        eprintln!("serve_mixed: submission rejected: {r}");
                        ops.rejections += 1;
                        ops.failed += 1;
                    }
                }
            }
        } else if clients.iter().all(Option::is_none) {
            break;
        } else if secs(started) > seconds + SETTLE_S {
            return Err("in-flight sessions did not settle".into());
        }

        let t = Instant::now();
        let slices = server.tick()?;
        if traced {
            ops.tick_ms.push(ms(t));
            if ops.slices_per_tick.len() < COUNT_TICKS {
                ops.slices_per_tick.push(slices as f64);
            }
        }

        for slot in &mut clients {
            let Some(s) = slot.as_mut() else { continue };
            let mut finished = None;
            for line in server.drain_output(s.id) {
                let v = parse(&line).map_err(|e| format!("unparsable output line: {e:?}"))?;
                match v.get("record").and_then(Value::as_str) {
                    Some("frame") => {
                        if s.first_frame_ms.is_none() {
                            s.first_frame_ms = Some(ms(s.submitted));
                        }
                        s.chain = v.get("chain").and_then(Value::as_u64);
                        s.frames += 1;
                    }
                    Some("event") => match v.get("kind").and_then(Value::as_str) {
                        Some("done") => finished = Some(true),
                        Some("quarantined") => finished = Some(false),
                        _ => {}
                    },
                    _ => {}
                }
            }
            let Some(ok) = finished else { continue };
            ops.op_ms.push(ms(s.submitted));
            if let Some(ff) = s.first_frame_ms {
                ops.first_frame_ms.push(ff);
            }
            if ok {
                ops.done.push(Done {
                    id: s.id,
                    config: s.config,
                    chain: s.chain,
                    frames: s.frames,
                });
            } else {
                eprintln!("serve_mixed: session {} quarantined", s.id);
                ops.failed += 1;
            }
            *slot = None;
        }
    }
    ops.timed_s = secs(started);
    let slices1 = summarize(Hist::ServeSliceMs);
    ops.slice_sum_ms =
        slices1.mean_ms * slices1.count as f64 - slices0.mean_ms * slices0.count as f64;
    ops.ticks = server.status().tick - tick0;
    Ok(ops)
}

pub fn run(
    seed: u64,
    seconds: f64,
    threads: Threads,
    mut ledger: Option<Ledger>,
) -> Result<Outcome, BenchError> {
    let (names, sources, heavy) = load_corpus()?;
    let run_dir = RunDir::create("serve_mixed")?;

    let mut setup_s = Vec::new();
    let mut server = None;
    for round in 0..SETUP_ROUNDS {
        let spool = run_dir.sub(&format!("spool-{round}"))?;
        let t = Instant::now();
        let s = setup(&spool, threads, &sources)?;
        setup_s.push(secs(t));
        if let Some(previous) = server.replace(s) {
            previous.shutdown();
        }
    }
    let mut server = server.ok_or("no set-up round ran")?;
    let fallbacks0 = counter(Counter::SolveFallbacks);

    // A traced run times the seeded session mix untraced first, then
    // again with spans.
    let mix = || Mix::new(&mut Rng::new(seed), sources.len(), heavy);
    let untraced = match ledger {
        Some(_) => Some(phase(&mut server, &mut mix(), &sources, seconds, false)?),
        None => None,
    };
    let ops = phase(&mut server, &mut mix(), &sources, seconds, ledger.is_some())?;
    server.shutdown();

    // Spool bytes per session: the durable writes of the leading
    // sessions, replayed into a fresh spool.
    let mut replays: BTreeMap<SessionConfig, Replay> = BTreeMap::new();
    if let Some(l) = ledger.as_mut() {
        let dir = run_dir.sub("spool-replay")?;
        let (mut spool, _) = Spool::open(&dir, true)?;
        for d in ops.done.iter().take(COUNT_SESSIONS) {
            let src = &sources[d.config.source];
            let r = replay(src, d.config, d.id)?;
            let params = d.config.params();
            let key = xylem_serve::chaos::fnv1a(src.as_bytes());
            spool.record_source(key, src)?;
            spool.record_submit(&SessionSpec {
                id: d.id,
                tenant: "replay".to_string(),
                source_key: key,
                steps: params.steps,
                dt_s: params.dt_s,
                frame_every: params.frame_every,
                power_scale: params.power_scale,
                trip_c: params.trip_c,
                deadline_ms: None,
            })?;
            let mut last = None;
            for (_, _, frame, state) in &r.slices {
                spool.record_frame(frame)?;
                spool.save_state(d.id, state)?;
                last = Some(state.clone());
            }
            if let Some(state) = last {
                spool.record_done(&Spool::done_record(d.id, &state))?;
            }
            replays.entry(d.config).or_insert(r);
        }
        let sessions = COUNT_SESSIONS.min(ops.done.len());
        l.set(
            "serve.spool_bytes_per_session",
            dir_bytes(&dir)? as f64 / sessions.max(1) as f64,
            sessions,
        );
    }
    run_dir.remove();

    // Verification: every completed session's frame chain against a
    // direct replay of its config (one replay per distinct config).
    let mut mismatches = 0u64;
    for d in untraced.iter().chain([&ops]).flat_map(|o| &o.done) {
        if let std::collections::btree_map::Entry::Vacant(slot) = replays.entry(d.config) {
            slot.insert(replay(&sources[d.config.source], d.config, d.id)?);
        }
        let r = &replays[&d.config];
        if d.chain != Some(r.chain) || d.frames != r.frames {
            eprintln!(
                "serve_mixed: session {} ({}) chain {:?} != replay {:#x}",
                d.id, names[d.config.source], d.chain, r.chain
            );
            mismatches += 1;
        }
    }
    let attempted = untraced.as_ref().map_or(0, |u| u.attempted) + ops.attempted;
    let failed = untraced.as_ref().map_or(0, |u| u.failed) + ops.failed + mismatches;

    let mut out = Outcome {
        correct: mismatches == 0,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "serve_mixed: {} sessions completed over {} ticks, {} distinct configs replayed, \
         set-up rounds {setup_s:?} s",
        ops.done.len(),
        ops.ticks,
        replays.len()
    ));
    match ledger {
        None => EndToEnd {
            setup_s,
            units: ops.done.len() as f64,
            timed_s: ops.timed_s,
            attempted,
            failed,
            op_ms: ops.op_ms,
        }
        .into_metrics(&mut out)?,
        Some(mut l) => {
            for (c, r) in &replays {
                let heavy_slice = c.source == heavy;
                if heavy_slice {
                    l.set("thermal.bytes_per_cg_iter_computed", r.bytes_per_cg_iter, 1);
                }
                l.sample("scenario.compile_ms", r.compile_ms);
                l.sample("scenario.discretize_ms", r.discretize_ms);
                for (slice_ms, steps, _, _) in &r.slices {
                    l.sample(
                        if heavy_slice {
                            "serve.slice_ms_heavy"
                        } else {
                            "serve.slice_ms_light"
                        },
                        *slice_ms,
                    );
                    l.sample("thermal.transient_step_ms", slice_ms / *steps as f64);
                }
            }
            for &us in &ops.submit_us {
                l.sample("serve.submit_us", us);
            }
            for &t in &ops.tick_ms {
                l.sample("serve.tick_ms", t);
            }
            for &s in &ops.slices_per_tick {
                l.count("serve.slices_per_tick", s);
            }
            // Mean tick time not covered by slice compute spread over
            // the workers.
            l.set(
                "serve.tick_residual_ms",
                crate::harness::mean(&ops.tick_ms)
                    - ops.slice_sum_ms
                        / threads.serve_workers.max(1) as f64
                        / ops.ticks.max(1) as f64,
                ops.tick_ms.len(),
            );
            l.set(
                "serve.first_frame_ms_p50",
                guarded_percentile("serve.first_frame_ms_p50", &ops.first_frame_ms, 0.5)?,
                ops.first_frame_ms.len(),
            );
            l.set(
                "serve.first_frame_ms_p90",
                guarded_percentile("serve.first_frame_ms_p90", &ops.first_frame_ms, 0.9)?,
                ops.first_frame_ms.len(),
            );
            l.set(
                "serve.rejections",
                ops.rejections as f64,
                ops.attempted as usize,
            );
            l.set(
                "thermal.fallback_events",
                (counter(Counter::SolveFallbacks) - fallbacks0) as f64,
                1,
            );
            let untraced_ms = untraced.map(|u| u.op_ms).unwrap_or_default();
            l.set_trace_overhead(&untraced_ms, &ops.op_ms);
            l.set(
                "fail_ratio",
                failed as f64 / attempted.max(1) as f64,
                attempted as usize,
            );
            out.attempted = attempted.max(1);
            out.failed = failed;
            l.into_metrics(&mut out);
        }
    }
    Ok(out)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, BenchError> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

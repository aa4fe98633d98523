//! Session model: specs, resumable state, shared compiled scenarios,
//! and the slice runner that the scheduler dispatches to the pool.
//!
//! A session is a transient thermal simulation chopped into *slices*:
//! each slice advances the field by one frame stride of backward-Euler
//! steps and emits exactly one temperature frame. Slice boundaries are
//! pure bookkeeping — backward Euler with a warm start is invariant
//! under splitting `k` steps into `k1 + k2` from the intermediate state
//! — so a session resumed from a checkpoint recomputes bit-identical
//! frames no matter where the crash landed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use serde::{Deserialize, Serialize};
use xylem_obs::hash::{fnv1a_serve, fnv1a_serve_extend};
use xylem_scenario::digest::field_digest;
use xylem_thermal::error::ThermalError;
use xylem_thermal::model::ThermalModel;
use xylem_thermal::power::PowerMap;
use xylem_thermal::solve::{DeadlineGuard, SolverWorkspace};
use xylem_thermal::temperature::TemperatureField;

use crate::chaos::{ChaosConfig, ChaosOutcome, CHAOS_PANIC_MARKER};
use crate::error::{Rejection, ServeError};

/// Number of throttle levels the serve-side DTM ladder distinguishes.
pub const THROTTLE_LEVELS: u8 = 4;

/// Power derate per throttle level: level `l` scales power by
/// `1 - 0.2 l`, mirroring the DVFS ladder's coarse steps.
pub const THROTTLE_DERATE_PER_LEVEL: f64 = 0.2;

/// Hysteresis band below the trip point before a level is released.
pub const THROTTLE_RELEASE_BAND_C: f64 = 2.0;

/// Immutable per-session submission parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Server-assigned session id (unique within a spool).
    pub id: u64,
    /// Owning tenant (admission quotas are per-tenant).
    pub tenant: String,
    /// Stable hash of the `.stk` source this session runs.
    pub source_key: u64,
    /// Total backward-Euler steps to run.
    pub steps: u32,
    /// Step size, seconds.
    pub dt_s: f64,
    /// Requested steps per emitted frame (the initial frame stride).
    pub frame_every: u32,
    /// Uniform multiplier on the scenario's bound power.
    pub power_scale: f64,
    /// Serve-side throttle trip point, deg C (None = never throttle).
    pub trip_c: Option<f64>,
    /// Per-slice compute budget, wall-clock ms (None = unbounded).
    pub deadline_ms: Option<u64>,
}

impl SessionSpec {
    /// Stable key for chaos decisions and fair hashing.
    pub fn chaos_key(&self) -> u64 {
        fnv1a_serve_extend(fnv1a_serve(self.tenant.as_bytes()), &self.id.to_le_bytes())
    }
}

/// The resumable state of a session. This struct *is* the checkpoint
/// payload: everything the slice runner reads lives here, so restoring
/// it restores the computation bit-exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Steps completed so far.
    pub step: u32,
    /// Raw temperature field at `step` (empty = start from ambient).
    pub temps: Vec<f64>,
    /// Current throttle level, `0..THROTTLE_LEVELS`.
    pub level: u8,
    /// Frames emitted so far (also the next frame index).
    pub frames: u32,
    /// FNV-1a chain over every emitted frame's `(step, digest)`.
    pub chain: u64,
    /// Current steps-per-frame (doubled by economy degradation).
    pub frame_stride: u32,
    /// Deadline misses so far (drives the degradation ladder).
    pub deadline_misses: u32,
    /// Failed slice attempts (panics + solver errors) so far.
    pub attempts: u32,
}

impl SessionState {
    /// Fresh state for a just-admitted session.
    pub fn fresh(spec: &SessionSpec) -> Self {
        SessionState {
            step: 0,
            temps: Vec::new(),
            level: 0,
            frames: 0,
            chain: fnv1a_serve(b"xylem-serve-frame-chain"),
            frame_stride: spec.frame_every.max(1),
            deadline_misses: 0,
            attempts: 0,
        }
    }

    /// Whether the session has run all its steps.
    pub fn is_complete(&self, spec: &SessionSpec) -> bool {
        self.step >= spec.steps
    }
}

/// One emitted temperature frame (the streamed unit of progress).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Session the frame belongs to.
    pub id: u64,
    /// Zero-based frame index within the session.
    pub idx: u32,
    /// Step count after this frame's slice.
    pub step: u32,
    /// Global hotspot after the slice, deg C.
    pub hot_c: f64,
    /// FNV-1a digest of the full temperature field.
    pub digest: u64,
    /// Chain digest over all frames up to and including this one.
    pub chain: u64,
    /// Throttle level the slice ran at.
    pub level: u8,
}

/// A compiled scenario shared by every session submitted with an
/// identical `.stk` source: one discretized model (with its internal
/// transient-operator cache) and the scenario's bound power map.
pub struct SharedModel {
    /// The discretized thermal model.
    pub model: ThermalModel,
    /// Unscaled power map from the scenario's `power` section.
    pub base_power: PowerMap,
}

/// Registry of shared models, keyed by source hash. Holds sources
/// strongly (they are small and needed for crash recovery) and models
/// weakly (a suspended or finished fleet frees its memory).
pub struct ModelRegistry {
    sources: BTreeMap<u64, String>,
    cache: Mutex<BTreeMap<u64, Weak<SharedModel>>>,
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            sources: BTreeMap::new(),
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Validates a source at admission time and registers it.
    ///
    /// Compiling (parse + lower, no discretization) here means a
    /// malformed scenario is a *permanent* rejection at submit, not a
    /// runtime quarantine after it was queued.
    ///
    /// # Errors
    ///
    /// A permanent [`Rejection`] carrying the first parse diagnostic.
    pub fn register(&mut self, source: &str) -> Result<u64, Rejection> {
        let key = fnv1a_serve(source.as_bytes());
        if self.sources.contains_key(&key) {
            return Ok(key);
        }
        xylem_scenario::compile(source)
            .map_err(|e| Rejection::permanent(format!("scenario does not compile: {e}")))?;
        self.sources.insert(key, source.to_string());
        Ok(key)
    }

    /// Re-registers a source recovered from the spool without
    /// revalidating (it was validated when first admitted).
    pub fn restore(&mut self, key: u64, source: String) {
        self.sources.insert(key, source);
    }

    /// The registered source text for `key`, if any.
    pub fn source(&self, key: u64) -> Option<&str> {
        self.sources.get(&key).map(String::as_str)
    }

    /// Materializes (or re-uses) the shared model for `key`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for an unknown key, or a wrapped
    /// [`ThermalError`] if discretization fails.
    pub fn acquire(&self, key: u64) -> Result<Arc<SharedModel>, ServeError> {
        if let Some(m) = lock_or_recover(&self.cache)
            .get(&key)
            .and_then(Weak::upgrade)
        {
            return Ok(m);
        }
        let source = self
            .sources
            .get(&key)
            .ok_or_else(|| ServeError::Protocol(format!("unknown source key {key:#x}")))?;
        let lowered = xylem_scenario::compile(source).map_err(|e| {
            ServeError::Protocol(format!("registered source stopped compiling: {e}"))
        })?;
        let (model, base_power) = xylem_scenario::discretize_with_power(&lowered)?;
        let shared = Arc::new(SharedModel { model, base_power });
        lock_or_recover(&self.cache).insert(key, Arc::downgrade(&shared));
        Ok(shared)
    }
}

/// Everything one slice execution needs, snapshotted at dispatch. The
/// scheduler keeps its own copy of the state; on any failure the
/// snapshot here is simply dropped, so a panicking slice can never
/// poison the authoritative session state.
pub struct SliceRequest {
    /// The shared compiled scenario.
    pub shared: Arc<SharedModel>,
    /// Session parameters.
    pub spec: SessionSpec,
    /// State snapshot the slice starts from.
    pub state: SessionState,
    /// Fault injection, if the server runs in chaos mode.
    pub chaos: Option<ChaosConfig>,
}

/// What one slice attempt produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The slice ran: new state plus the one frame it emitted.
    Advanced {
        /// Post-slice session state.
        state: SessionState,
        /// The emitted frame.
        frame: FrameRecord,
    },
    /// The slice blew its wall-clock budget; state unchanged.
    DeadlineMiss,
    /// The solver failed; state unchanged.
    Failed {
        /// Display of the underlying error.
        error: String,
    },
    /// The slice panicked (filled in by the scheduler's
    /// `catch_unwind`); state unchanged.
    Panicked {
        /// Downcast panic payload.
        message: String,
    },
}

/// Throttle factor for a level.
fn derate(level: u8) -> f64 {
    1.0 - THROTTLE_DERATE_PER_LEVEL * f64::from(level)
}

/// Runs one slice. May panic (chaos injection or a genuine bug): the
/// caller is required to wrap this in `catch_unwind`.
pub fn run_slice(req: &SliceRequest) -> SliceOutcome {
    if let Some(chaos) = &req.chaos {
        match chaos.decide(
            req.spec.chaos_key(),
            u64::from(req.state.step),
            req.state.attempts,
        ) {
            ChaosOutcome::None => {}
            ChaosOutcome::Panic => panic!(
                "{CHAOS_PANIC_MARKER} (session {}, step {}, attempt {})",
                req.spec.id, req.state.step, req.state.attempts
            ),
            ChaosOutcome::Error => {
                return SliceOutcome::Failed {
                    error: "chaos: injected solver error".to_string(),
                }
            }
            ChaosOutcome::Deadline => return SliceOutcome::DeadlineMiss,
        }
    }

    let model = &req.shared.model;
    let stride = req.state.frame_stride.max(1);
    let remaining = req.spec.steps.saturating_sub(req.state.step);
    let k = stride.min(remaining).max(1) as usize;

    let mut power = req.shared.base_power.clone();
    power.scale(req.spec.power_scale * derate(req.state.level));

    let initial = if req.state.temps.is_empty() {
        TemperatureField::uniform(model, model.ambient())
    } else {
        match TemperatureField::from_raw(model, req.state.temps.clone()) {
            Ok(f) => f,
            Err(e) => {
                return SliceOutcome::Failed {
                    error: format!("checkpointed field rejected: {e}"),
                }
            }
        }
    };

    let _deadline = req.spec.deadline_ms.map(|ms| {
        DeadlineGuard::install(std::time::Instant::now() + std::time::Duration::from_millis(ms))
    });

    let mut ws = SolverWorkspace::new();
    let t = match model.transient_with(&power, &initial, req.spec.dt_s, k, None, &mut ws) {
        Ok(t) => t,
        Err(ThermalError::DeadlineExceeded { .. }) => return SliceOutcome::DeadlineMiss,
        Err(e) => {
            return SliceOutcome::Failed {
                error: e.to_string(),
            }
        }
    };

    let mut state = req.state.clone();
    state.step += k as u32;
    state.temps = t.raw().to_vec();
    let digest = field_digest(t.raw());
    state.chain = fnv1a_serve_extend(
        fnv1a_serve_extend(state.chain, &u64::from(state.step).to_le_bytes()),
        &digest.to_le_bytes(),
    );
    let frame = FrameRecord {
        id: req.spec.id,
        idx: state.frames,
        step: state.step,
        hot_c: t.global_hotspot().2.get(),
        digest,
        chain: state.chain,
        level: state.level,
    };
    state.frames += 1;

    // Serve-side thermal throttle: derate power when the frame hotspot
    // trips, release with hysteresis once it cools.
    if let Some(trip) = req.spec.trip_c {
        if frame.hot_c > trip && state.level + 1 < THROTTLE_LEVELS {
            state.level += 1;
        } else if frame.hot_c < trip - THROTTLE_RELEASE_BAND_C && state.level > 0 {
            state.level -= 1;
        }
    }

    SliceOutcome::Advanced { state, frame }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
material si :
    thermal conductivity 120.0 ;
    volumetric heat capacity 1.75e6 ;
dimensions :
    chip length 8e-3 , width 8e-3 ;
    grid 4 , 4 ;
layer body :
    height 1e-4 ;
    material si ;
stack :
    layer body ;
power :
    uniform body 5.0 ;
solver :
    steady ;
output :
    probe hot max in body ;
";

    fn spec(registry: &mut ModelRegistry) -> SessionSpec {
        let key = registry.register(MINIMAL).expect("compiles");
        SessionSpec {
            id: 1,
            tenant: "t0".to_string(),
            source_key: key,
            steps: 6,
            dt_s: 1e-3,
            frame_every: 2,
            power_scale: 1.0,
            trip_c: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn slices_compose_bit_identically_regardless_of_boundaries() {
        let mut registry = ModelRegistry::new();
        let spec = spec(&mut registry);
        let shared = registry.acquire(spec.source_key).expect("discretizes");

        // Reference: run to completion slice by slice (stride 2).
        let mut state = SessionState::fresh(&spec);
        let mut frames = Vec::new();
        while !state.is_complete(&spec) {
            match run_slice(&SliceRequest {
                shared: Arc::clone(&shared),
                spec: spec.clone(),
                state: state.clone(),
                chaos: None,
            }) {
                SliceOutcome::Advanced { state: s, frame } => {
                    state = s;
                    frames.push(frame);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(state.step, 6);

        // Same run, resumed: recompute the last slice from the
        // second frame's checkpointed state; the frame must match
        // bit for bit (this is the crash-recovery invariant).
        let mut mid = SessionState::fresh(&spec);
        for _ in 0..2 {
            if let SliceOutcome::Advanced { state: s, .. } = run_slice(&SliceRequest {
                shared: Arc::clone(&shared),
                spec: spec.clone(),
                state: mid.clone(),
                chaos: None,
            }) {
                mid = s;
            }
        }
        let redone = match run_slice(&SliceRequest {
            shared: Arc::clone(&shared),
            spec: spec.clone(),
            state: mid,
            chaos: None,
        }) {
            SliceOutcome::Advanced { frame, .. } => frame,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(redone, frames[2]);
    }

    #[test]
    fn identical_sources_share_one_model() {
        let mut registry = ModelRegistry::new();
        let k1 = registry.register(MINIMAL).expect("compiles");
        let k2 = registry.register(MINIMAL).expect("compiles");
        assert_eq!(k1, k2);
        let a = registry.acquire(k1).expect("ok");
        let b = registry.acquire(k2).expect("ok");
        assert!(Arc::ptr_eq(&a, &b), "same source must share the model");
    }

    #[test]
    fn malformed_source_is_a_permanent_rejection() {
        let mut registry = ModelRegistry::new();
        let r = registry.register("material ;").expect_err("must reject");
        assert!(!r.is_transient());
    }

    #[test]
    fn zero_deadline_reports_miss_not_panic() {
        let mut registry = ModelRegistry::new();
        let mut spec = spec(&mut registry);
        spec.deadline_ms = Some(0);
        let shared = registry.acquire(spec.source_key).expect("ok");
        let out = run_slice(&SliceRequest {
            shared,
            state: SessionState::fresh(&spec),
            spec,
            chaos: None,
        });
        assert_eq!(out, SliceOutcome::DeadlineMiss);
    }
}

//! Versioned, checksummed checkpoint files for long transient runs.
//!
//! A multi-hour DTM sweep must survive being killed: the loop
//! periodically serializes its full state — temperature field,
//! controller state, sensor delay lines, accumulated trace — and a
//! `--resume` run picks up from the last good file. The format is
//! paranoid by design:
//!
//! * an outer envelope carries a magic string, a format **version**,
//!   and an FNV-1a **checksum** over the serialized payload, so a
//!   truncated or bit-flipped file is rejected before deserialization;
//! * the payload embeds the **grid shape**, **time step**, and a
//!   **config hash** of the run parameters; resuming under a different
//!   configuration is a [`CheckpointError::Mismatch`], not a silently
//!   wrong answer.
//!
//! JSON floats round-trip exactly (shortest-representation printing),
//! so a resumed run continues from bit-identical state — the
//! fault-injection suite asserts resume equals an uninterrupted run.
//! Files are written with [`crate::durable::write_atomic`]: a crash
//! mid-write never corrupts the previous checkpoint, and a power loss
//! just after `save` returns cannot un-link the new file.
//!
//! The envelope is payload-agnostic: [`save_state`] / [`load_payload`]
//! wrap any serialized state in the same magic/version/checksum armor,
//! which is how xylem-serve persists
//! per-session state without reimplementing the durability protocol.
//! Each save records its text encode and its atomic write in the
//! `checkpoint_encode_ms` and `checkpoint_write_ms` histograms.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::dtm::DtmSample;
use crate::durable::write_atomic;
use crate::error::CheckpointError;
use crate::sensor::SensorArray;
use xylem_obs::hash::fnv1a;
use xylem_obs::{span, Hist, Span};
use xylem_thermal::{AdaptiveController, RecoveryReport};

/// First bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "xylem-checkpoint";

/// Current format version; bumped on any payload layout change.
///
/// History: v1 = fixed-step only; v2 adds the optional adaptive
/// controller state ([`DtmCheckpoint::adaptive`]).
pub const CHECKPOINT_VERSION: u64 = 2;

/// Oldest format version [`load`] still accepts. A v1 payload simply
/// lacks the `adaptive` key, which deserializes to `None` — exactly the
/// state of a fixed-step run, so fixed-step resumes from v1 files keep
/// working unchanged.
pub const CHECKPOINT_MIN_VERSION: u64 = 1;

/// Outer envelope: everything needed to reject a bad file before
/// touching the payload. Read through this derive; written by
/// [`envelope_bytes`], which emits the same bytes without building it.
#[derive(Debug, Deserialize)]
struct Envelope {
    magic: String,
    version: u64,
    /// FNV-1a 64-bit hash of `payload`, hex.
    checksum: String,
    /// The serialized [`DtmCheckpoint`], nested as a string so the
    /// checksum covers exactly the bytes that will be deserialized.
    payload: String,
}

/// Complete mid-run state of a DTM transient loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtmCheckpoint {
    /// Control steps completed.
    pub step: usize,
    /// Grid cells in x of the run that wrote the file.
    pub grid_nx: usize,
    /// Grid cells in y.
    pub grid_ny: usize,
    /// Control period (= transient dt), s.
    pub dt: f64,
    /// FNV-1a hash (hex) of the serialized run configuration.
    pub config_hash: String,
    /// Raw node temperatures at `step`.
    pub temps: Vec<f64>,
    /// Controller DVFS level index.
    pub level: usize,
    /// Downward frequency steps so far.
    pub throttle_events: usize,
    /// Samples above trip so far.
    pub above: usize,
    /// Fail-safe activations so far.
    pub failsafe_events: usize,
    /// CG iterations so far.
    pub cg_iterations: usize,
    /// Controller trace so far.
    pub samples: Vec<DtmSample>,
    /// Sensor delay-line state (None for a perfect-telemetry run).
    pub sensors: Option<SensorArray>,
    /// Solver recoveries so far.
    pub recovery: RecoveryReport,
    /// Adaptive step-size controller state (None for a fixed-step run,
    /// and for every pre-adaptive v1 file). Serialized bit-exactly so a
    /// resumed adaptive run continues with the same dt, PI history, and
    /// budget accounting as an uninterrupted one.
    pub adaptive: Option<AdaptiveController>,
}

/// Hash of a run configuration's canonical JSON, as stored in
/// [`DtmCheckpoint::config_hash`].
#[must_use]
pub fn config_hash(config_json: &str) -> String {
    format!("{:016x}", fnv1a(config_json.as_bytes()))
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// The envelope file bytes around `payload`, byte for byte what the
/// derived serializer of [`Envelope`] wrote: keys in `BTreeMap` order,
/// the payload as one escaped JSON string. Built in a single pass into a
/// buffer sized up front, with no `Value` tree and no copy of the
/// payload.
fn envelope_bytes(payload: &str) -> Vec<u8> {
    // Each `"` and `\` in a JSON payload gains one escape byte; 128
    // covers the fixed fields.
    let escapes = payload.bytes().filter(|&b| b == b'"' || b == b'\\').count();
    let mut text = Vec::with_capacity(payload.len() + escapes + 128);
    text.extend_from_slice(b"{\"checksum\":\"");
    text.extend_from_slice(format!("{:016x}", fnv1a(payload.as_bytes())).as_bytes());
    text.extend_from_slice(b"\",\"magic\":");
    serde_json::push_escaped_str(&mut text, CHECKPOINT_MAGIC);
    text.extend_from_slice(b",\"payload\":");
    serde_json::push_escaped_str(&mut text, payload);
    text.extend_from_slice(b",\"version\":");
    text.extend_from_slice(CHECKPOINT_VERSION.to_string().as_bytes());
    text.push(b'}');
    text
}

/// Finishes the encode timed by `encode` (wrapping `payload` in the
/// envelope) and writes the file via [`write_atomic`] (fsynced when
/// `sync`), timing the write separately.
fn write_envelope(
    path: &Path,
    payload: &str,
    encode: Span,
    sync: bool,
) -> Result<(), CheckpointError> {
    let bytes = envelope_bytes(payload);
    drop(encode);
    let _write = span("checkpoint_write", Some(Hist::CheckpointWriteMs));
    write_atomic(path, &bytes, sync).map_err(|e| io_err(path, e))
}

/// Serializes `state` to JSON and writes it wrapped in the checkpoint
/// envelope (magic, version, FNV-1a checksum) via [`write_atomic`]:
/// either the old content or the new survives a power loss at any
/// instant, never a torn mix, never a vanished entry. `sync = false`
/// skips the fsyncs (see [`write_atomic`]). The
/// `checkpoint_encode_ms` histogram gets the whole text encode (state,
/// checksum, envelope), `checkpoint_write_ms` the atomic write.
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem failures;
/// [`CheckpointError::Corrupt`] if the state cannot be serialized.
pub fn save_state<T: Serialize + ?Sized>(
    path: &Path,
    state: &T,
    sync: bool,
) -> Result<(), CheckpointError> {
    let encode = span("checkpoint_encode", Some(Hist::CheckpointEncodeMs));
    let payload = serde_json::to_string(state).map_err(|e| CheckpointError::Corrupt {
        reason: format!("payload serialization failed: {e}"),
    })?;
    write_envelope(path, &payload, encode, sync)
}

/// Reads and validates an envelope written by [`save_state`] (magic,
/// version range, checksum) and returns the verified payload string.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read;
/// [`CheckpointError::Corrupt`] for a damaged or foreign file;
/// [`CheckpointError::Mismatch`] for an unsupported version.
pub fn load_payload(path: &Path) -> Result<String, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let envelope: Envelope = serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt {
        reason: format!("envelope parse failed: {e}"),
    })?;
    if envelope.magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::Corrupt {
            reason: format!("bad magic {:?}", envelope.magic),
        });
    }
    if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&envelope.version) {
        return Err(CheckpointError::Mismatch {
            what: "format version",
            expected: format!("{CHECKPOINT_MIN_VERSION}..={CHECKPOINT_VERSION}"),
            found: envelope.version.to_string(),
        });
    }
    let sum = format!("{:016x}", fnv1a(envelope.payload.as_bytes()));
    if sum != envelope.checksum {
        return Err(CheckpointError::Corrupt {
            reason: format!(
                "checksum mismatch: stored {}, computed {sum}",
                envelope.checksum
            ),
        });
    }
    Ok(envelope.payload)
}

/// Serializes `ckpt` to `path` atomically and durably (see
/// [`save_state`]).
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem failures;
/// [`CheckpointError::Corrupt`] if the state cannot be serialized
/// (non-finite temperatures — JSON has no NaN).
pub fn save(path: &Path, ckpt: &DtmCheckpoint) -> Result<(), CheckpointError> {
    if let Some(node) = ckpt.temps.iter().position(|t| !t.is_finite()) {
        return Err(CheckpointError::Corrupt {
            reason: format!("refusing to write non-finite temperature at node {node}"),
        });
    }
    save_state(path, ckpt, true)
}

/// Loads and validates a checkpoint file (magic, version, checksum,
/// payload shape). Run-compatibility checks are the caller's job via
/// [`DtmCheckpoint::validate_against`].
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read;
/// [`CheckpointError::Corrupt`] for a damaged or foreign file;
/// [`CheckpointError::Mismatch`] for an unsupported version.
pub fn load(path: &Path) -> Result<DtmCheckpoint, CheckpointError> {
    let payload = load_payload(path)?;
    serde_json::from_str(&payload).map_err(|e| CheckpointError::Corrupt {
        reason: format!("payload parse failed: {e}"),
    })
}

impl DtmCheckpoint {
    /// Confirms the checkpoint belongs to the resuming run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first field (grid
    /// shape, dt, config hash) that disagrees.
    pub fn validate_against(
        &self,
        grid_nx: usize,
        grid_ny: usize,
        dt: f64,
        config_hash: &str,
    ) -> Result<(), CheckpointError> {
        if (self.grid_nx, self.grid_ny) != (grid_nx, grid_ny) {
            return Err(CheckpointError::Mismatch {
                what: "grid shape",
                expected: format!("{grid_nx}x{grid_ny}"),
                found: format!("{}x{}", self.grid_nx, self.grid_ny),
            });
        }
        if self.dt.to_bits() != dt.to_bits() {
            return Err(CheckpointError::Mismatch {
                what: "time step",
                expected: format!("{dt:e}"),
                found: format!("{:e}", self.dt),
            });
        }
        if self.config_hash != config_hash {
            return Err(CheckpointError::Mismatch {
                what: "config hash",
                expected: config_hash.to_owned(),
                found: self.config_hash.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a raw `payload` string in the envelope, as `save_state`
    /// does for a serialized state.
    fn save_payload(path: &Path, payload: &str) -> Result<(), CheckpointError> {
        let encode = span("checkpoint_encode", Some(Hist::CheckpointEncodeMs));
        write_envelope(path, payload, encode, true)
    }

    /// `name` under the temp dir, suffixed with the process id so two
    /// test processes never share a checkpoint file.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> DtmCheckpoint {
        DtmCheckpoint {
            step: 17,
            grid_nx: 12,
            grid_ny: 12,
            dt: 1e-3,
            config_hash: config_hash("{\"policy\":1}"),
            temps: vec![45.0, 46.25, 47.5],
            level: 2,
            throttle_events: 3,
            above: 1,
            failsafe_events: 0,
            cg_iterations: 512,
            samples: Vec::new(),
            sensors: None,
            recovery: RecoveryReport::default(),
            adaptive: None,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("round_trip.ckpt");
        let mut ckpt = sample_checkpoint();
        // Awkward floats that must survive bit-exactly.
        ckpt.temps = vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 95.000_000_1];
        save(&path, &ckpt).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(ckpt, back);
        for (a, b) in ckpt.temps.iter().zip(&back.temps) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("corrupt.ckpt");
        save(&path, &sample_checkpoint()).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the payload without breaking the JSON.
        let pos = text.find("45.0").unwrap();
        text.replace_range(pos..pos + 4, "54.0");
        std::fs::write(&path, text).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("truncated.ckpt");
        save(&path, &sample_checkpoint()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load(Path::new("/nonexistent/xylem.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
    }

    #[test]
    fn mismatched_run_is_rejected_field_by_field() {
        let c = sample_checkpoint();
        assert!(c.validate_against(12, 12, 1e-3, &c.config_hash).is_ok());
        assert!(matches!(
            c.validate_against(16, 16, 1e-3, &c.config_hash),
            Err(CheckpointError::Mismatch {
                what: "grid shape",
                ..
            })
        ));
        assert!(matches!(
            c.validate_against(12, 12, 2e-3, &c.config_hash),
            Err(CheckpointError::Mismatch {
                what: "time step",
                ..
            })
        ));
        assert!(matches!(
            c.validate_against(12, 12, 1e-3, "deadbeef"),
            Err(CheckpointError::Mismatch {
                what: "config hash",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_state_refuses_to_serialize() {
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("nan.ckpt");
        let mut ckpt = sample_checkpoint();
        ckpt.temps[1] = f64::NAN;
        assert!(save(&path, &ckpt).is_err());
    }

    #[test]
    fn save_is_durable_and_atomic() {
        // Regression for the missing parent-directory fsync: `save` must
        // fsync the temp file, leave no temp sibling behind, and sync
        // the directory so the rename itself survives power loss. The
        // fsync calls are on the success path, so this test failing to
        // even *reach* them (e.g. an unwritable parent) is an Io error,
        // never a silent skip.
        let dir = scratch_dir("xylem-ckpt-durable-test");
        let path = dir.join("durable.ckpt");
        save(&path, &sample_checkpoint()).unwrap();
        assert!(path.exists());
        assert!(
            !path.with_extension("tmp").exists(),
            "temp sibling must be renamed away"
        );
        // Overwrite in place: still atomic, still no temp left.
        let mut second = sample_checkpoint();
        second.step += 1;
        save(&path, &second).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(load(&path).unwrap().step, second.step);
        // A parent that cannot be opened for the directory sync (or the
        // write) is a clean Io error, not a panic.
        let bad = dir.join("no-such-subdir").join("x.ckpt");
        assert!(matches!(
            save(&bad, &sample_checkpoint()),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn every_save_times_its_encode_and_its_write() {
        use xylem_obs::summarize;
        let dir = scratch_dir("xylem-ckpt-durable-test");
        let count = |h| summarize(h).count;
        let (encodes, writes) = (
            count(Hist::CheckpointEncodeMs),
            count(Hist::CheckpointWriteMs),
        );
        save(&dir.join("timed.ckpt"), &sample_checkpoint()).unwrap();
        save_payload(&dir.join("timed-payload.ckpt"), "{}").unwrap();
        // Other tests may save concurrently, so only a lower bound holds.
        assert!(count(Hist::CheckpointEncodeMs) >= encodes + 2);
        assert!(count(Hist::CheckpointWriteMs) >= writes + 2);
    }

    #[test]
    fn generic_payload_round_trips_and_rejects_tampering() {
        let dir = scratch_dir("xylem-ckpt-durable-test");
        let path = dir.join("payload.ckpt");
        let payload = "{\"session\":\"s-0007\",\"step\":41,\"temps\":[45.5,46.25]}";
        save_payload(&path, payload).unwrap();
        assert_eq!(load_payload(&path).unwrap(), payload);
        // Flip one payload byte: checksum must catch it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let pos = text.find("41").unwrap();
        text.replace_range(pos..pos + 2, "14");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            load_payload(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn recovery_rungs_round_trip_and_a_retired_rung_is_corrupt() {
        use xylem_thermal::{PreconditionerKind, RecoveryEvent};
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("rung.ckpt");
        let mut ckpt = sample_checkpoint();
        ckpt.recovery = RecoveryReport {
            events: vec![RecoveryEvent {
                rung: PreconditionerKind::Jacobi,
                relaxed_tolerance: 1e-6,
                iterations: 212,
                residual: 4.5e-10,
                recovered: true,
            }],
            attempts: 1,
            recoveries: 1,
        };
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap(), ckpt);

        // Files written while an algebraic multigrid rung existed may
        // name it; such a file is a typed rejection, never a panic.
        let payload = load_payload(&path).unwrap();
        assert!(payload.contains("\"rung\":\"Jacobi\""), "{payload}");
        save_payload(&path, &payload.replace("\"Jacobi\"", "\"Amg\"")).unwrap();
        match load(&path) {
            Err(CheckpointError::Corrupt { reason }) => assert!(reason.contains("Amg"), "{reason}"),
            other => panic!("expected Corrupt naming the variant, got {other:?}"),
        }

        // A pre-adaptive v1 file still loads.
        let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pre_adaptive_v1.ckpt");
        assert!(load(&v1).unwrap().adaptive.is_none());
    }

    /// Floats whose text is easy to get wrong: a repeating fraction, a
    /// sum off by an ulp, an exact decimal tie (printed rounded up), the
    /// smallest subnormal, small and huge exponents, integral values on
    /// both sides of 1e16, negative zero and NaN (written as `null`).
    const AWKWARD_FLOATS: [f64; 10] = [
        1.0 / 3.0,
        0.1 + 0.2,
        1_658_206_780_088_562.25,
        5e-324,
        1e-7,
        2.5e300,
        45.0,
        1e16,
        -0.0,
        f64::NAN,
    ];

    #[test]
    fn file_bytes_are_pinned() {
        // Captured from the `format!`-based float writer this file format
        // was first written with; any encoder change that moves a byte of
        // an existing checkpoint (and so its checksum) fails here.
        let dir = scratch_dir("xylem-ckpt-test");
        let path = dir.join("pinned.ckpt");
        let mut ckpt = sample_checkpoint();
        ckpt.temps = AWKWARD_FLOATS.to_vec();
        ckpt.samples = vec![DtmSample {
            time_s: 0.001 * 3.0,
            f_ghz: 2.8,
            hotspot: xylem_thermal::units::Celsius::new(81.125),
        }];
        // `save` refuses the NaN, so go through the same encode it uses.
        save_payload(&path, &serde_json::to_string(&ckpt).unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, PINNED_CHECKPOINT);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors, through the hex form the
        // checkpoint stores as its config hash.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(config_hash(""), "cbf29ce484222325");
        assert_eq!(config_hash("a"), "af63dc4c8601ec8c");
        assert_eq!(config_hash("foobar"), "85944171f73967e8");
    }

    const PINNED_CHECKPOINT: &str = r#"{"checksum":"a27148aea7b6b635","magic":"xylem-checkpoint","payload":"{\"above\":1,\"adaptive\":null,\"cg_iterations\":512,\"config_hash\":\"32cb9ba7b78eb060\",\"dt\":0.001,\"failsafe_events\":0,\"grid_nx\":12,\"grid_ny\":12,\"level\":2,\"recovery\":{\"attempts\":0,\"events\":[],\"recoveries\":0},\"samples\":[{\"f_ghz\":2.8,\"hotspot\":81.125,\"time_s\":0.003}],\"sensors\":null,\"step\":17,\"temps\":[0.3333333333333333,0.30000000000000004,1658206780088562.3,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,0.0000001,2500000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,45.0,10000000000000000,-0.0,null],\"throttle_events\":3}","version":2}"#;
}

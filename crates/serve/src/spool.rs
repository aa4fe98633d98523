//! The durable spool: everything the server must not lose.
//!
//! Layout under the spool directory:
//!
//! ```text
//! spool/
//!   manifest.jsonl      submit / done / quarantine records
//!   frames.jsonl        every emitted temperature frame
//!   sources/<key>.stk   scenario sources, one file per distinct hash
//!   ckpt/<id>.ckpt      per-session state checkpoints (envelope format)
//! ```
//!
//! Crash-only discipline: both journals are append-only
//! [`xylem::durable::Journal`]s, written line by line with an fsync
//! *before* the checkpoint that supersedes the line's slice, and source
//! files and state checkpoints are written with [`write_atomic`]. A
//! spool opened with `sync` false skips every one of these fsyncs (the
//! writes, the order and the renames stay): a killed process still
//! resumes from the page cache, a power loss may not. A torn tail (the one
//! partially-written line a SIGKILL can leave, possibly ending inside a
//! multi-byte character) is ignored on open and physically truncated
//! before appends resume; mid-file corruption, by contrast, is an error
//! — silent data loss in the middle of a journal means the storage
//! lied, and resuming over it would fabricate history.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use xylem::checkpoint::{self, load_payload};
use xylem::durable::{write_atomic, Journal, Scan};
use xylem::error::CheckpointError;
use xylem_obs::hash::{fnv1a_serve_extend, FNV_OFFSET};

use crate::error::ServeError;
use crate::session::{FrameRecord, SessionSpec, SessionState};

/// A `submit` manifest record (the spec plus its record tag).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SubmitRecord {
    record: String,
    id: u64,
    tenant: String,
    source_key: u64,
    steps: u32,
    dt_s: f64,
    frame_every: u32,
    power_scale: f64,
    trip_c: Option<f64>,
    deadline_ms: Option<u64>,
}

/// A `done` manifest record: the terminal digest a verifier compares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneRecord {
    record: String,
    /// Completed session.
    pub id: u64,
    /// Final step count.
    pub step: u32,
    /// Frames emitted over the whole run.
    pub frames: u32,
    /// FNV-1a digest of the final temperature field.
    pub final_digest: u64,
    /// Frame chain digest at completion.
    pub chain: u64,
}

/// A `quarantine` manifest record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuarantineRecord {
    record: String,
    id: u64,
    reason: String,
}

/// Tagged frame line in `frames.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FrameLine {
    record: String,
    id: u64,
    idx: u32,
    step: u32,
    hot_c: f64,
    digest: u64,
    chain: u64,
    level: u8,
}

/// What a spool scan recovered.
#[derive(Debug, Default)]
pub struct SpoolScan {
    /// Every admitted spec, in submit order.
    pub submits: Vec<SessionSpec>,
    /// Sessions with a durable `done` record.
    pub done: BTreeMap<u64, DoneRecord>,
    /// Sessions with a durable `quarantine` record.
    pub quarantined: BTreeSet<u64>,
    /// Per-session count of durable frames (max index + 1).
    pub durable_frames: BTreeMap<u64, u32>,
    /// Recovered `(key, source)` pairs.
    pub sources: Vec<(u64, String)>,
    /// Highest session id ever admitted (0 if none).
    pub max_id: u64,
}

/// The server's durable storage handle.
pub struct Spool {
    dir: PathBuf,
    sync: bool,
    manifest: Journal,
    frames: Journal,
}

fn io_ctx(e: std::io::Error, path: &Path) -> ServeError {
    ServeError::Io(std::io::Error::new(
        e.kind(),
        format!("{}: {e}", path.display()),
    ))
}

/// Reads a journal file without modifying it (`None` when it does not
/// exist yet).
fn read_journal(path: &Path) -> Result<Option<Scan>, ServeError> {
    match Scan::read(path) {
        Ok(scan) => Ok(Some(scan)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_ctx(e, path)),
    }
}

/// Opens a validated journal for appending, creating it if missing.
fn open_journal(
    path: &Path,
    scan: Option<&Scan>,
    fsync_every: usize,
) -> Result<Journal, ServeError> {
    match scan {
        Some(scan) => Journal::resume(path, scan, fsync_every),
        None => Journal::create(path, fsync_every),
    }
    .map_err(|e| io_ctx(e, path))
}

/// Parses complete line `line_no` of journal `path` as a `T`; a line
/// that does not parse is mid-file corruption.
fn parse<T: Deserialize>(path: &Path, line_no: usize, line: &[u8]) -> Result<T, ServeError> {
    serde_json::from_slice(line).map_err(|e| ServeError::Corrupt {
        source: path.display().to_string(),
        detail: format!("line {line_no}: {e}"),
    })
}

impl Spool {
    /// Opens (or creates) a spool directory, recovering every durable
    /// record. Torn journal tails are truncated; everything else must
    /// parse, and a spool that does not is left untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failure, [`ServeError::Corrupt`]
    /// on mid-journal damage.
    pub fn open(dir: &Path, sync: bool) -> Result<(Spool, SpoolScan), ServeError> {
        std::fs::create_dir_all(dir.join("sources")).map_err(|e| io_ctx(e, dir))?;
        std::fs::create_dir_all(dir.join("ckpt")).map_err(|e| io_ctx(e, dir))?;

        let manifest_path = dir.join("manifest.jsonl");
        let frames_path = dir.join("frames.jsonl");
        let manifest_raw = read_journal(&manifest_path)?;
        let frames_raw = read_journal(&frames_path)?;

        let mut scan = SpoolScan::default();
        for (i, line) in manifest_raw.iter().flat_map(Scan::lines).enumerate() {
            let v: serde::Value = parse(&manifest_path, i + 1, line)?;
            let tag = v
                .as_object()
                .and_then(|m| m.get("record"))
                .and_then(serde::Value::as_str)
                .unwrap_or("");
            match tag {
                "submit" => {
                    let r: SubmitRecord = parse(&manifest_path, i + 1, line)?;
                    scan.max_id = scan.max_id.max(r.id);
                    scan.submits.push(SessionSpec {
                        id: r.id,
                        tenant: r.tenant,
                        source_key: r.source_key,
                        steps: r.steps,
                        dt_s: r.dt_s,
                        frame_every: r.frame_every,
                        power_scale: r.power_scale,
                        trip_c: r.trip_c,
                        deadline_ms: r.deadline_ms,
                    });
                }
                "done" => {
                    let r: DoneRecord = parse(&manifest_path, i + 1, line)?;
                    scan.done.insert(r.id, r);
                }
                "quarantine" => {
                    let r: QuarantineRecord = parse(&manifest_path, i + 1, line)?;
                    scan.quarantined.insert(r.id);
                }
                other => {
                    return Err(ServeError::Corrupt {
                        source: manifest_path.display().to_string(),
                        detail: format!("unknown record tag {other:?}"),
                    })
                }
            }
        }
        for (i, line) in frames_raw.iter().flat_map(Scan::lines).enumerate() {
            let r: FrameLine = parse(&frames_path, i + 1, line)?;
            let durable = scan.durable_frames.entry(r.id).or_insert(0);
            *durable = (*durable).max(r.idx + 1);
        }

        // Recover sources.
        for entry in std::fs::read_dir(dir.join("sources")).map_err(|e| io_ctx(e, dir))? {
            let entry = entry.map_err(|e| io_ctx(e, dir))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".stk") {
                if let Ok(key) = u64::from_str_radix(hex, 16) {
                    let text = std::fs::read_to_string(entry.path())
                        .map_err(|e| io_ctx(e, &entry.path()))?;
                    scan.sources.push((key, text));
                }
            }
        }

        // Everything validated: only now touch the journals.
        let fsync_every = usize::from(sync);
        let manifest = open_journal(&manifest_path, manifest_raw.as_ref(), fsync_every)?;
        let frames = open_journal(&frames_path, frames_raw.as_ref(), fsync_every)?;
        Ok((
            Spool {
                dir: dir.to_path_buf(),
                sync,
                manifest,
                frames,
            },
            scan,
        ))
    }

    /// Durably records a new scenario source (idempotent per key).
    pub fn record_source(&mut self, key: u64, source: &str) -> Result<(), ServeError> {
        let path = self.dir.join("sources").join(format!("{key:016x}.stk"));
        if path.exists() {
            return Ok(());
        }
        write_atomic(&path, source.as_bytes(), self.sync).map_err(|e| io_ctx(e, &path))
    }

    /// Durably records an admission. Must precede any compute for the
    /// session (crash-only: an admitted session is never forgotten).
    pub fn record_submit(&mut self, spec: &SessionSpec) -> Result<(), ServeError> {
        let r = SubmitRecord {
            record: "submit".to_string(),
            id: spec.id,
            tenant: spec.tenant.clone(),
            source_key: spec.source_key,
            steps: spec.steps,
            dt_s: spec.dt_s,
            frame_every: spec.frame_every,
            power_scale: spec.power_scale,
            trip_c: spec.trip_c,
            deadline_ms: spec.deadline_ms,
        };
        let line = serde_json::to_string(&r).map_err(|e| ServeError::Protocol(e.to_string()))?;
        append(&mut self.manifest, &line)
    }

    /// Durably records a frame. Returns the serialized line so the
    /// scheduler can also stream it to the client buffer.
    pub fn record_frame(&mut self, frame: &FrameRecord) -> Result<String, ServeError> {
        let r = FrameLine {
            record: "frame".to_string(),
            id: frame.id,
            idx: frame.idx,
            step: frame.step,
            hot_c: frame.hot_c,
            digest: frame.digest,
            chain: frame.chain,
            level: frame.level,
        };
        let line = serde_json::to_string(&r).map_err(|e| ServeError::Protocol(e.to_string()))?;
        append(&mut self.frames, &line)?;
        Ok(line)
    }

    /// Durably records completion.
    pub fn record_done(&mut self, rec: &DoneRecord) -> Result<(), ServeError> {
        let line = serde_json::to_string(rec).map_err(|e| ServeError::Protocol(e.to_string()))?;
        append(&mut self.manifest, &line)
    }

    /// Builds a `done` record.
    pub fn done_record(id: u64, state: &SessionState) -> DoneRecord {
        DoneRecord {
            record: "done".to_string(),
            id,
            step: state.step,
            frames: state.frames,
            final_digest: state.temps.iter().fold(FNV_OFFSET, |h, t| {
                fnv1a_serve_extend(h, &t.to_bits().to_le_bytes())
            }),
            chain: state.chain,
        }
    }

    /// Durably records a quarantine.
    pub fn record_quarantine(&mut self, id: u64, reason: &str) -> Result<(), ServeError> {
        let r = QuarantineRecord {
            record: "quarantine".to_string(),
            id,
            reason: reason.to_string(),
        };
        let line = serde_json::to_string(&r).map_err(|e| ServeError::Protocol(e.to_string()))?;
        append(&mut self.manifest, &line)
    }

    /// Path of a session's checkpoint file.
    pub fn ckpt_path(&self, id: u64) -> PathBuf {
        self.dir.join("ckpt").join(format!("{id}.ckpt"))
    }

    /// Checkpoints a session's state (atomic replace via the workspace
    /// checkpoint envelope; fsynced when the spool syncs).
    pub fn save_state(&self, id: u64, state: &SessionState) -> Result<(), ServeError> {
        checkpoint::save_state(&self.ckpt_path(id), state, self.sync)
            .map_err(|e| ServeError::Checkpoint(e.to_string()))
    }

    /// Loads a session's checkpointed state, if one exists.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] if the envelope exists but fails
    /// integrity validation or the payload does not parse.
    pub fn load_state(&self, id: u64) -> Result<Option<SessionState>, ServeError> {
        let path = self.ckpt_path(id);
        if !path.exists() {
            return Ok(None);
        }
        let payload = match load_payload(&path) {
            Ok(p) => p,
            Err(CheckpointError::Io { .. }) if !path.exists() => return Ok(None),
            Err(e) => return Err(ServeError::Checkpoint(e.to_string())),
        };
        let state: SessionState =
            serde_json::from_str(&payload).map_err(|e| ServeError::Checkpoint(e.to_string()))?;
        Ok(Some(state))
    }
}

fn append(journal: &mut Journal, line: &str) -> Result<(), ServeError> {
    journal.append(line).map_err(|e| io_ctx(e, journal.path()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xylem-serve-spool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(id: u64) -> SessionSpec {
        SessionSpec {
            id,
            tenant: "t".to_string(),
            source_key: 7,
            steps: 4,
            dt_s: 1e-3,
            frame_every: 2,
            power_scale: 1.0,
            trip_c: Some(80.0),
            deadline_ms: None,
        }
    }

    /// Writes every record kind into a fresh spool opened with `sync`,
    /// reopens it and checks all of it came back.
    fn round_trip(name: &str, sync: bool) {
        let dir = tmp(name);
        {
            let (mut spool, scan) = Spool::open(&dir, sync).expect("open");
            assert!(scan.submits.is_empty());
            spool.record_source(7, "material ;").expect("source");
            spool.record_submit(&spec(1)).expect("submit");
            spool.record_submit(&spec(2)).expect("submit");
            let mut state = SessionState::fresh(&spec(1));
            state.step = 4;
            state.temps = vec![1.0, 2.0];
            state.frames = 2;
            spool
                .record_frame(&FrameRecord {
                    id: 1,
                    idx: 0,
                    step: 2,
                    hot_c: 50.0,
                    digest: 9,
                    chain: 11,
                    level: 0,
                })
                .expect("frame");
            spool.save_state(1, &state).expect("ckpt");
            spool
                .record_done(&Spool::done_record(1, &state))
                .expect("done");
            spool.record_quarantine(2, "test").expect("quarantine");
        }
        let (spool, scan) = Spool::open(&dir, sync).expect("reopen");
        assert_eq!(scan.submits.len(), 2);
        assert_eq!(scan.submits[0], spec(1));
        assert!(scan.done.contains_key(&1));
        assert_eq!(scan.done[&1].frames, 2);
        assert!(scan.quarantined.contains(&2));
        assert_eq!(scan.durable_frames[&1], 1);
        assert_eq!(scan.sources, vec![(7, "material ;".to_string())]);
        assert_eq!(scan.max_id, 2);
        let state = spool.load_state(1).expect("load").expect("present");
        assert_eq!(state.step, 4);
        assert_eq!(state.temps, vec![1.0, 2.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_round_trip_through_reopen() {
        round_trip("roundtrip", true);
    }

    #[test]
    fn unsynced_records_round_trip_through_reopen() {
        // No fsyncs, the same files: a reopen in the same boot reads
        // everything back.
        round_trip("roundtrip-unsynced", false);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp("torn");
        {
            let (mut spool, _) = Spool::open(&dir, true).expect("open");
            spool.record_submit(&spec(1)).expect("submit");
        }
        // Simulate a SIGKILL mid-append: a partial line with no newline.
        let path = dir.join("manifest.jsonl");
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"record\":\"submit\",\"id\":9")
            .expect("tear");
        drop(f);
        let (_, scan) = Spool::open(&dir, true).expect("reopen tolerates torn tail");
        assert_eq!(scan.submits.len(), 1);
        assert_eq!(scan.max_id, 1);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.ends_with('\n'), "tail must be physically truncated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_inside_a_utf8_character_is_truncated_on_open() {
        let dir = tmp("utf8");
        {
            let (mut spool, _) = Spool::open(&dir, true).expect("open");
            spool.record_submit(&spec(1)).expect("submit");
            let mut zoe = spec(2);
            zoe.tenant = "zo\u{eb}".to_string();
            spool.record_submit(&zoe).expect("submit");
        }
        // A SIGKILL between the two bytes of `ë` (0xC3 0xAB).
        let path = dir.join("manifest.jsonl");
        let bytes = std::fs::read(&path).expect("read");
        let cut = bytes
            .windows(2)
            .position(|w| w == [0xC3, 0xAB])
            .expect("tenant bytes present")
            + 1;
        std::fs::write(&path, &bytes[..cut]).expect("tear");
        let (_, scan) = Spool::open(&dir, true).expect("reopen tolerates a torn character");
        assert_eq!(scan.submits, vec![spec(1)]);
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(
            bytes.last(),
            Some(&b'\n'),
            "tail must be physically truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let dir = tmp("corrupt");
        {
            let (mut spool, _) = Spool::open(&dir, true).expect("open");
            spool.record_submit(&spec(1)).expect("submit");
        }
        let path = dir.join("manifest.jsonl");
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"garbage not json\n").expect("append");
        {
            let mut g = OpenOptions::new().append(true).open(&path).expect("open");
            g.write_all(b"{\"record\":\"quarantine\",\"id\":1,\"reason\":\"x\"}\n")
                .expect("append");
        }
        drop(f);
        match Spool::open(&dir, true) {
            Err(ServeError::Corrupt { .. }) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_none_not_error() {
        let dir = tmp("nockpt");
        let (spool, _) = Spool::open(&dir, true).expect("open");
        assert!(spool.load_state(42).expect("ok").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // Written by the parent format; any encoder or framing change
        // that would strand existing spools fails here.
        let dir = tmp("pinned");
        let (mut spool, _) = Spool::open(&dir, true).expect("open");
        spool
            .record_submit(&SessionSpec {
                id: 7,
                tenant: "zo\u{eb}".into(),
                source_key: 0x0123_4567_89ab_cdef,
                steps: 40,
                dt_s: 1e-3,
                frame_every: 5,
                power_scale: 1.25,
                trip_c: Some(85.5),
                deadline_ms: None,
            })
            .expect("submit");
        spool
            .record_frame(&FrameRecord {
                id: 7,
                idx: 3,
                step: 20,
                hot_c: 0.1 + 0.2 + 80.0,
                digest: u64::MAX,
                chain: 0xdead_beef,
                level: 2,
            })
            .expect("frame");
        let state = SessionState {
            step: 40,
            temps: vec![45.0, 1.0 / 3.0],
            level: 1,
            frames: 8,
            chain: 42,
            frame_stride: 5,
            deadline_misses: 0,
            attempts: 1,
        };
        spool
            .record_done(&Spool::done_record(7, &state))
            .expect("done");
        spool
            .record_quarantine(8, "deadline \"missed\" \u{d7}3")
            .expect("quarantine");
        drop(spool);
        let manifest = concat!(
            r#"{"deadline_ms":null,"dt_s":0.001,"frame_every":5,"id":7,"power_scale":1.25,"record":"submit","source_key":81985529216486895,"steps":40,"tenant":"zoë","trip_c":85.5}"#,
            "\n",
            r#"{"chain":42,"final_digest":7007210308551703817,"frames":8,"id":7,"record":"done","step":40}"#,
            "\n",
            r#"{"id":8,"reason":"deadline \"missed\" ×3","record":"quarantine"}"#,
            "\n",
        );
        let frames = concat!(
            r#"{"chain":3735928559,"digest":18446744073709551615,"hot_c":80.3,"id":7,"idx":3,"level":2,"record":"frame","step":20}"#,
            "\n",
        );
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read");
        assert_eq!(read("manifest.jsonl"), manifest);
        assert_eq!(read("frames.jsonl"), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_file_bytes_are_pinned() {
        // Written by the `format!`-based float writer; a session state
        // file is the checkpoint envelope around the state's JSON, so any
        // encoder or envelope change that would strand a suspended
        // session fails here.
        let dir = tmp("pinned-state");
        let (spool, _) = Spool::open(&dir, true).expect("open");
        let state = SessionState {
            step: 40,
            temps: vec![
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
            ],
            level: 3,
            frames: 8,
            chain: u64::MAX,
            frame_stride: 10,
            deadline_misses: 2,
            attempts: 1,
        };
        spool.save_state(9, &state).expect("save");
        let text = std::fs::read_to_string(spool.ckpt_path(9)).expect("read");
        assert_eq!(text, PINNED_STATE);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const PINNED_STATE: &str = r#"{"checksum":"043085148f012d66","magic":"xylem-checkpoint","payload":"{\"attempts\":1,\"chain\":18446744073709551615,\"deadline_misses\":2,\"frame_stride\":10,\"frames\":8,\"level\":3,\"step\":40,\"temps\":[0.3333333333333333,0.30000000000000004,1658206780088562.3,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,0.0000001,2500000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,45.0,10000000000000000,-0.0,null]}","version":2}"#;
}

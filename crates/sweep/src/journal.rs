//! Append-only JSONL result journal with crash-tolerant resume.
//!
//! One line per completed task (plus a header line), encoded with
//! [`xylem_obs::json`]'s writer and appended through the shared
//! [`xylem::durable::Journal`], fsync'd in batches. The format is
//! designed for the failure mode it will actually see — a sweep process
//! killed mid-write:
//!
//! * the **header** carries the sweep spec's config hash; resuming
//!   against a journal written by a different spec fails with
//!   [`SweepError::SpecMismatch`] instead of silently mixing grids;
//! * a **torn tail** (partial final line from a kill mid-`write`) is
//!   ignored on scan and truncated away before appending resumes, so
//!   the file never accumulates mid-stream garbage;
//! * corruption anywhere *before* the tail is not survivable-by-design
//!   and reports [`SweepError::Corrupt`] — never a panic, never partial
//!   state;
//! * duplicate records for one task id are tolerated (keep-first) and
//!   counted, so replay logic upstream can assert there were none.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use xylem::durable::{self, Scan};
use xylem::SweepError;
use xylem_obs::json::{self, Value};

/// Journal format version (the `version` field of the header line).
pub const JOURNAL_VERSION: u64 = 1;

/// Terminal disposition of one sweep task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Evaluated successfully (possibly after retries).
    Ok,
    /// Every attempt failed; the task is quarantined and the sweep
    /// completed without it.
    Quarantined,
}

impl TaskStatus {
    /// Wire label used in the journal.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TaskStatus::Ok => "ok",
            TaskStatus::Quarantined => "quarantined",
        }
    }

    fn from_label(s: &str) -> Option<TaskStatus> {
        match s {
            "ok" => Some(TaskStatus::Ok),
            "quarantined" => Some(TaskStatus::Quarantined),
            _ => None,
        }
    }
}

/// The numeric outcome of one successful task evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// Processor-die hotspot, °C.
    pub proc_hotspot_c: f64,
    /// Bottom-DRAM-die hotspot, °C.
    pub dram_hotspot_c: f64,
    /// Total dissipated power, W.
    pub total_power_w: f64,
    /// Workload execution time, s.
    pub exec_time_s: f64,
    /// Per-core hotspots, °C (cores 1..=8).
    pub core_hotspot_c: [f64; 8],
    /// Maximum frequency at the task's DTM trip temperature, GHz
    /// (`None` when the task has no DTM axis or no feasible frequency).
    pub dtm_f_ghz: Option<f64>,
}

impl TaskResult {
    /// The hottest core (1-based), ties to the lower id.
    #[must_use]
    pub fn hottest_core(&self) -> usize {
        let mut best = 1;
        for c in 2..=8 {
            if self.core_hotspot_c[c - 1] > self.core_hotspot_c[best - 1] {
                best = c;
            }
        }
        best
    }

    fn to_value(&self) -> Value {
        let cores = self.core_hotspot_c.iter().map(|&t| Value::F64(t)).collect();
        Value::Object(vec![
            ("proc_hotspot_c".into(), Value::F64(self.proc_hotspot_c)),
            ("dram_hotspot_c".into(), Value::F64(self.dram_hotspot_c)),
            ("total_power_w".into(), Value::F64(self.total_power_w)),
            ("exec_time_s".into(), Value::F64(self.exec_time_s)),
            ("core_hotspot_c".into(), Value::Array(cores)),
            (
                "dtm_f_ghz".into(),
                self.dtm_f_ghz.map_or(Value::Null, Value::F64),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<TaskResult> {
        let mut core_hotspot_c = [0.0; 8];
        match v.get("core_hotspot_c") {
            Some(Value::Array(items)) if items.len() == 8 => {
                for (slot, item) in core_hotspot_c.iter_mut().zip(items) {
                    *slot = item.as_f64()?;
                }
            }
            _ => return None,
        }
        Some(TaskResult {
            proc_hotspot_c: v.get("proc_hotspot_c")?.as_f64()?,
            dram_hotspot_c: v.get("dram_hotspot_c")?.as_f64()?,
            total_power_w: v.get("total_power_w")?.as_f64()?,
            exec_time_s: v.get("exec_time_s")?.as_f64()?,
            core_hotspot_c,
            dtm_f_ghz: match v.get("dtm_f_ghz") {
                None | Some(Value::Null) => None,
                Some(x) => Some(x.as_f64()?),
            },
        })
    }
}

/// One journal line: the terminal record of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task id (position in the spec's enumeration).
    pub id: u64,
    /// Human-readable task key (see `TaskSpec::key`).
    pub key: String,
    /// Terminal disposition.
    pub status: TaskStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// The evaluation outcome (`None` for quarantined tasks).
    pub result: Option<TaskResult>,
    /// The final attempt's error display (`None` for ok tasks).
    pub error: Option<String>,
}

impl TaskRecord {
    /// Serializes the record to its journal line value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ev".into(), Value::Str("sweep_task".into())),
            ("id".into(), Value::U64(self.id)),
            ("key".into(), Value::Str(self.key.clone())),
            ("status".into(), Value::Str(self.status.label().into())),
            ("attempts".into(), Value::U64(u64::from(self.attempts))),
            (
                "result".into(),
                self.result
                    .as_ref()
                    .map_or(Value::Null, TaskResult::to_value),
            ),
            (
                "error".into(),
                self.error
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            ),
        ])
    }

    /// Parses a journal line value back into a record.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<TaskRecord> {
        let status = TaskStatus::from_label(v.get("status")?.as_str()?)?;
        Some(TaskRecord {
            id: v.get("id")?.as_u64()?,
            key: v.get("key")?.as_str()?.to_string(),
            status,
            attempts: u32::try_from(v.get("attempts")?.as_u64()?).ok()?,
            result: match v.get("result") {
                None | Some(Value::Null) => None,
                Some(r) => Some(TaskResult::from_value(r)?),
            },
            error: match v.get("error") {
                None | Some(Value::Null) => None,
                Some(e) => Some(e.as_str()?.to_string()),
            },
        })
    }
}

/// What a scan of an existing journal found.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Replayed records, keep-first per task id, in file order.
    pub records: Vec<TaskRecord>,
    /// Records dropped because an earlier line already covered their id.
    pub duplicates: usize,
    /// Bytes of torn tail dropped (0 for a cleanly-closed journal).
    pub torn_tail_bytes: u64,
}

fn io_err(path: &Path, source: std::io::Error) -> SweepError {
    SweepError::Io {
        path: path.display().to_string(),
        source,
    }
}

fn corrupt(reason: impl Into<String>) -> SweepError {
    SweepError::Corrupt {
        reason: reason.into(),
    }
}

/// An open, append-only sweep journal, shared by the sweep workers.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<durable::Journal>,
}

impl Journal {
    /// Creates (truncating) a fresh journal and durably writes its
    /// header.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failures.
    pub fn create(
        path: &Path,
        spec_hash: &str,
        n_tasks: usize,
        fsync_every: usize,
    ) -> Result<Journal, SweepError> {
        let header = Value::Object(vec![
            ("ev".into(), Value::Str("sweep_header".into())),
            ("version".into(), Value::U64(JOURNAL_VERSION)),
            ("spec_hash".into(), Value::Str(spec_hash.into())),
            ("n_tasks".into(), Value::U64(n_tasks as u64)),
        ]);
        let mut inner =
            durable::Journal::create(path, fsync_every.max(1)).map_err(|e| io_err(path, e))?;
        inner
            .append(&header.to_string())
            .and_then(|()| inner.sync())
            .map_err(|e| io_err(path, e))?;
        Ok(Journal {
            inner: Mutex::new(inner),
        })
    }

    /// Scans an existing journal, truncates any torn tail, and reopens
    /// it for appending. Returns the journal plus the replayed records.
    /// A journal that fails validation is left untouched.
    ///
    /// # Errors
    ///
    /// [`SweepError::SpecMismatch`] when the header's hash is not
    /// `spec_hash`; [`SweepError::Corrupt`] for damage before the final
    /// line; [`SweepError::Io`] on filesystem failures.
    pub fn open_resume(
        path: &Path,
        spec_hash: &str,
        n_tasks: usize,
        fsync_every: usize,
    ) -> Result<(Journal, JournalScan), SweepError> {
        let raw = Scan::read(path).map_err(|e| io_err(path, e))?;
        let scan = replay(&raw, Some(spec_hash), n_tasks)?;
        let inner = durable::Journal::resume(path, &raw, fsync_every.max(1))
            .map_err(|e| io_err(path, e))?;
        Ok((
            Journal {
                inner: Mutex::new(inner),
            },
            scan,
        ))
    }

    /// Reads and validates a journal without opening it for writing.
    /// `expected_spec_hash = None` skips the spec check (inspection
    /// tools); `n_tasks` bounds valid task ids.
    ///
    /// # Errors
    ///
    /// See [`Journal::open_resume`].
    pub fn scan(
        path: &Path,
        expected_spec_hash: Option<&str>,
        n_tasks: usize,
    ) -> Result<JournalScan, SweepError> {
        let raw = Scan::read(path).map_err(|e| io_err(path, e))?;
        replay(&raw, expected_spec_hash, n_tasks)
    }

    fn lock(&self) -> MutexGuard<'_, durable::Journal> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            // A worker panicked while holding the journal lock. Each
            // append is a single write of a whole line, so the file is
            // still consistent: recover the guard and keep journaling
            // instead of wedging the whole sweep.
            if xylem_obs::enabled() {
                xylem_obs::event("sweep_journal_lock_recovered").emit();
            }
            poisoned.into_inner()
        })
    }

    /// Appends one task record, fsyncing every `fsync_every` appends.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on write or sync failures.
    pub fn append(&self, record: &TaskRecord) -> Result<(), SweepError> {
        let mut inner = self.lock();
        let line = record.to_value().to_string();
        inner.append(&line).map_err(|e| io_err(inner.path(), e))
    }

    /// Fsyncs any records not yet synced.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on sync failures.
    pub fn sync(&self) -> Result<(), SweepError> {
        let mut inner = self.lock();
        inner.sync().map_err(|e| io_err(inner.path(), e))
    }
}

/// Validates the complete lines of `raw` and replays them keep-first.
fn replay(
    raw: &Scan,
    expected_spec_hash: Option<&str>,
    n_tasks: usize,
) -> Result<JournalScan, SweepError> {
    let mut records: Vec<TaskRecord> = Vec::new();
    let mut seen_ids: Vec<bool> = vec![false; n_tasks];
    let mut duplicates = 0usize;
    let mut saw_header = false;
    for (i, line) in raw.lines().enumerate() {
        match parse_line(line, i + 1, n_tasks, expected_spec_hash, saw_header)? {
            ParsedLine::Header => saw_header = true,
            ParsedLine::Task(rec) => {
                let idx = rec.id as usize;
                if seen_ids[idx] {
                    duplicates += 1;
                } else {
                    seen_ids[idx] = true;
                    records.push(rec);
                }
            }
            ParsedLine::Ignored => {}
        }
    }
    if !saw_header {
        return Err(corrupt("missing sweep_header line"));
    }
    Ok(JournalScan {
        records,
        duplicates,
        torn_tail_bytes: raw.torn_tail_bytes(),
    })
}

enum ParsedLine {
    Header,
    Task(TaskRecord),
    Ignored,
}

fn parse_line(
    line: &[u8],
    line_no: usize,
    n_tasks: usize,
    expected_spec_hash: Option<&str>,
    saw_header: bool,
) -> Result<ParsedLine, SweepError> {
    if line.is_empty() {
        return Ok(ParsedLine::Ignored);
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| corrupt(format!("line {line_no} is not valid UTF-8")))?;
    let value =
        json::parse(text).map_err(|e| corrupt(format!("line {line_no} is not valid JSON: {e}")))?;
    match value.get("ev").and_then(Value::as_str) {
        Some("sweep_header") => {
            if saw_header {
                return Err(corrupt(format!("line {line_no}: duplicate sweep_header")));
            }
            if line_no != 1 {
                return Err(corrupt(format!(
                    "line {line_no}: sweep_header must be the first line"
                )));
            }
            let version = value.get("version").and_then(Value::as_u64);
            if version != Some(JOURNAL_VERSION) {
                return Err(corrupt(format!(
                    "unsupported journal version {version:?} (this build reads {JOURNAL_VERSION})"
                )));
            }
            let found = value
                .get("spec_hash")
                .and_then(Value::as_str)
                .ok_or_else(|| corrupt("sweep_header is missing spec_hash"))?;
            if let Some(expected) = expected_spec_hash {
                if found != expected {
                    return Err(SweepError::SpecMismatch {
                        expected: expected.to_string(),
                        found: found.to_string(),
                    });
                }
            }
            let header_n = value.get("n_tasks").and_then(Value::as_u64);
            if header_n != Some(n_tasks as u64) {
                return Err(corrupt(format!(
                    "sweep_header counts {header_n:?} tasks, this sweep enumerates {n_tasks}"
                )));
            }
            Ok(ParsedLine::Header)
        }
        Some("sweep_task") => {
            if !saw_header {
                return Err(corrupt(format!(
                    "line {line_no}: sweep_task before sweep_header"
                )));
            }
            let rec = TaskRecord::from_value(&value)
                .ok_or_else(|| corrupt(format!("line {line_no}: malformed sweep_task record")))?;
            if rec.id as usize >= n_tasks {
                return Err(corrupt(format!(
                    "line {line_no}: task id {} out of range (spec has {n_tasks} tasks)",
                    rec.id
                )));
            }
            Ok(ParsedLine::Task(rec))
        }
        // Unknown event kinds are skipped so future writers can annotate
        // the journal without breaking old readers.
        Some(_) => Ok(ParsedLine::Ignored),
        None => Err(corrupt(format!("line {line_no}: missing ev field"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "xylem-sweep-journal-{}-{n}-{name}.jsonl",
            std::process::id()
        ))
    }

    fn record(id: u64) -> TaskRecord {
        TaskRecord {
            id,
            key: format!("banke/Cholesky/f2.4/die{id}"),
            status: TaskStatus::Ok,
            attempts: 1,
            result: Some(TaskResult {
                proc_hotspot_c: 80.5,
                dram_hotspot_c: 77.25,
                total_power_w: 24.0,
                exec_time_s: 1.5,
                core_hotspot_c: [80.5, 79.0, 78.0, 77.0, 76.0, 75.0, 74.0, 73.0],
                dtm_f_ghz: if id % 2 == 0 { Some(3.1) } else { None },
            }),
            error: None,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        for rec in [
            record(0),
            record(1),
            TaskRecord {
                id: 2,
                key: "base/FFT/f2.4".into(),
                status: TaskStatus::Quarantined,
                attempts: 3,
                result: None,
                error: Some("solver diverged: residual 1e9 \"bad\"".into()),
            },
        ] {
            let line = rec.to_value().to_string();
            let parsed = json::parse(&line).expect("emitted line parses");
            assert_eq!(TaskRecord::from_value(&parsed), Some(rec));
        }
    }

    #[test]
    fn create_append_scan_round_trip() {
        let path = tmp("roundtrip");
        let journal = Journal::create(&path, "abc123", 4, 2).expect("create");
        for id in 0..3 {
            journal.append(&record(id)).expect("append");
        }
        journal.sync().expect("sync");
        drop(journal);
        let scan = Journal::scan(&path, Some("abc123"), 4).expect("scan");
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.duplicates, 0);
        assert_eq!(scan.torn_tail_bytes, 0);
        assert_eq!(scan.records[1], record(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_resume() {
        let path = tmp("torn");
        let journal = Journal::create(&path, "h", 4, 1).expect("create");
        journal.append(&record(0)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        // Simulate a kill mid-write: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"ev\":\"sweep_task\",\"id\":1,\"key\":\"tr")
            .expect("write");
        drop(f);

        let (journal, scan) = Journal::open_resume(&path, "h", 4, 1).expect("resume");
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail_bytes > 0);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        // Appending after truncation yields a clean journal again.
        journal.append(&record(1)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        let scan = Journal::scan(&path, Some("h"), 4).expect("rescan");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_tail_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_truncate() {
        let path = tmp("midfile");
        let journal = Journal::create(&path, "h", 4, 1).expect("create");
        journal.append(&record(0)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        // A *terminated* garbage line followed by a valid record.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "{{\"ev\":\"sweep_task\",\"id\":").expect("write");
        writeln!(f, "{}", record(1).to_value()).expect("write");
        drop(f);
        match Journal::scan(&path, Some("h"), 4) {
            Err(SweepError::Corrupt { reason }) => {
                assert!(reason.contains("line 3"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spec_mismatch_is_refused() {
        let path = tmp("mismatch");
        Journal::create(&path, "old-spec", 4, 1).expect("create");
        match Journal::open_resume(&path, "new-spec", 4, 1) {
            Err(SweepError::SpecMismatch { expected, found }) => {
                assert_eq!(expected, "new-spec");
                assert_eq!(found, "old-spec");
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicates_keep_first_and_are_counted() {
        let path = tmp("dup");
        let journal = Journal::create(&path, "h", 4, 1).expect("create");
        journal.append(&record(0)).expect("append");
        let mut second = record(0);
        second.attempts = 9;
        journal.append(&second).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        let scan = Journal::scan(&path, Some("h"), 4).expect("scan");
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.duplicates, 1);
        assert_eq!(scan.records[0].attempts, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_id_and_missing_header_are_corrupt() {
        let path = tmp("range");
        let journal = Journal::create(&path, "h", 2, 1).expect("create");
        journal.append(&record(3)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        assert!(matches!(
            Journal::scan(&path, Some("h"), 2),
            Err(SweepError::Corrupt { .. })
        ));
        std::fs::write(&path, format!("{}\n", record(0).to_value())).expect("write");
        assert!(matches!(
            Journal::scan(&path, Some("h"), 2),
            Err(SweepError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_reports_missing_header() {
        let path = tmp("empty");
        std::fs::write(&path, b"").expect("write");
        assert!(matches!(
            Journal::scan(&path, None, 2),
            Err(SweepError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // Written by the parent format; any encoder or framing change
        // that would strand existing journals fails here.
        let path = tmp("pinned");
        let journal = Journal::create(&path, "5eed0123abcd4567", 3, 1).expect("create");
        journal
            .append(&TaskRecord {
                id: 1,
                key: "banke/Cholesky/f2.4/zo\u{eb}".into(),
                status: TaskStatus::Ok,
                attempts: 2,
                result: Some(TaskResult {
                    proc_hotspot_c: 0.1 + 0.2,
                    dram_hotspot_c: 77.25,
                    total_power_w: 24.0,
                    exec_time_s: 1.5e-3,
                    core_hotspot_c: [80.5, 79.0, 78.0, 77.0, 76.0, 75.0, 74.0, 1.0 / 3.0],
                    dtm_f_ghz: Some(3.1),
                }),
                error: None,
            })
            .expect("append");
        journal
            .append(&TaskRecord {
                id: 2,
                key: "base/FFT/f2.4".into(),
                status: TaskStatus::Quarantined,
                attempts: 3,
                result: None,
                error: Some("solver diverged: \"bad\"\tna\u{ef}ve".into()),
            })
            .expect("append");
        drop(journal);
        let expected = concat!(
            r#"{"ev":"sweep_header","version":1,"spec_hash":"5eed0123abcd4567","n_tasks":3}"#,
            "\n",
            r#"{"ev":"sweep_task","id":1,"key":"banke/Cholesky/f2.4/zoë","status":"ok","attempts":2,"result":{"proc_hotspot_c":0.30000000000000004,"dram_hotspot_c":77.25,"total_power_w":24.0,"exec_time_s":0.0015,"core_hotspot_c":[80.5,79.0,78.0,77.0,76.0,75.0,74.0,0.3333333333333333],"dtm_f_ghz":3.1},"error":null}"#,
            "\n",
            r#"{"ev":"sweep_task","id":2,"key":"base/FFT/f2.4","status":"quarantined","attempts":3,"result":null,"error":"solver diverged: \"bad\"\tnaïve"}"#,
            "\n",
        );
        assert_eq!(std::fs::read_to_string(&path).expect("read"), expected);
        std::fs::remove_file(&path).ok();
    }
}

//! One crash-consistency harness for the shared durable journal and
//! both of its users.
//!
//! A multi-record journal with multi-byte characters is truncated at
//! every byte offset — every state a kill mid-append can leave, torn
//! characters included — and each prefix is recovered through
//! [`xylem::durable::Journal`], the sweep's `Journal::open_resume` and
//! the serve `Spool::open`. For every prefix:
//!
//! * the recovered records are exactly the complete lines of the prefix;
//! * the file is cut back to the prefix's last newline;
//! * a following append leaves a clean journal.
//!
//! A spec mismatch or a corrupt line in the middle fails without
//! changing one byte of any file.

use std::path::{Path, PathBuf};

use xylem::durable::{Journal, Scan};
use xylem::SweepError;
use xylem_serve::session::{FrameRecord, SessionSpec, SessionState};
use xylem_serve::spool::Spool;
use xylem_serve::ServeError;
use xylem_sweep::{Journal as SweepJournal, TaskRecord, TaskResult, TaskStatus};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xylem-journal-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("file reads")
}

/// Length of the newline-terminated prefix of `bytes`.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// Number of complete lines in `bytes`.
fn complete_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Asserts `path` holds exactly the complete lines of `prefix` and that
/// the cut left nothing after them.
fn assert_cut_back(path: &Path, prefix: &[u8], cut: usize) {
    assert_eq!(
        read(path),
        &prefix[..complete_len(prefix)],
        "cut {cut}: torn tail must be truncated to the last newline"
    );
}

// ---------------------------------------------------------------- durable

const LINES: [&str; 3] = [
    r#"{"n":0,"who":"zoë"}"#,
    r#"{"n":1,"who":"日本"}"#,
    r#"{"n":2,"who":"🔥 naïve"}"#,
];
const NEXT: &str = r#"{"n":3,"who":"ï"}"#;

#[test]
fn durable_journal_recovers_every_prefix() {
    let path = scratch("durable").join("journal.jsonl");
    let mut journal = Journal::create(&path, 1).expect("create");
    for line in LINES {
        journal.append(line).expect("append");
    }
    drop(journal);
    let full = read(&path);

    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        std::fs::write(&path, prefix).expect("prefix writes");
        let scan = Scan::read(&path).expect("scan");
        assert_eq!(read(&path), prefix, "cut {cut}: scanning must not write");

        let mut expected: Vec<&[u8]> = LINES[..complete_lines(prefix)]
            .iter()
            .map(|l| l.as_bytes())
            .collect();
        assert_eq!(scan.lines().collect::<Vec<_>>(), expected, "cut {cut}");
        assert_eq!(scan.torn_tail_bytes(), (cut - complete_len(prefix)) as u64);

        let mut journal = Journal::resume(&path, &scan, 0).expect("resume");
        assert_cut_back(&path, prefix, cut);
        journal.append(NEXT).expect("append");
        journal.sync().expect("sync");
        drop(journal);

        let after = Scan::read(&path).expect("rescan");
        expected.push(NEXT.as_bytes());
        assert_eq!(after.lines().collect::<Vec<_>>(), expected, "cut {cut}");
        assert_eq!(after.torn_tail_bytes(), 0, "cut {cut}");
    }
}

// ------------------------------------------------------------------ sweep

const SPEC: &str = "5eed0123abcd4567";
const N_TASKS: usize = 4;

fn task(id: u64) -> TaskRecord {
    if id.is_multiple_of(2) {
        TaskRecord {
            id,
            key: format!("banke/Cholesky/f2.4/zo\u{eb}{id}"),
            status: TaskStatus::Ok,
            attempts: 1,
            result: Some(TaskResult {
                proc_hotspot_c: 80.5 + id as f64,
                dram_hotspot_c: 77.25,
                total_power_w: 24.0,
                exec_time_s: 1.0 / 3.0,
                core_hotspot_c: [80.5, 79.0, 78.0, 77.0, 76.0, 75.0, 74.0, 73.0],
                dtm_f_ghz: Some(3.1),
            }),
            error: None,
        }
    } else {
        TaskRecord {
            id,
            key: format!("base/FFT/f2.4/{id}"),
            status: TaskStatus::Quarantined,
            attempts: 3,
            result: None,
            error: Some(format!("diverged: \"bad\" \u{d7}{id} \u{65e5}\u{672c}")),
        }
    }
}

/// A sweep journal with the header and tasks 0..3; returns its bytes.
fn write_sweep_journal(path: &Path) -> Vec<u8> {
    let journal = SweepJournal::create(path, SPEC, N_TASKS, 8).expect("create");
    for id in 0..3 {
        journal.append(&task(id)).expect("append");
    }
    journal.sync().expect("sync");
    drop(journal);
    read(path)
}

#[test]
fn sweep_journal_resumes_from_every_prefix() {
    let path = scratch("sweep").join("sweep.jsonl");
    let full = write_sweep_journal(&path);

    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        std::fs::write(&path, prefix).expect("prefix writes");
        let lines = complete_lines(prefix);
        let resumed = SweepJournal::open_resume(&path, SPEC, N_TASKS, 8);
        if lines == 0 {
            // Not even the header survived: refused, and left as found.
            match resumed {
                Err(SweepError::Corrupt { reason }) => {
                    assert!(reason.contains("sweep_header"), "cut {cut}: {reason}");
                }
                other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
            }
            assert_eq!(read(&path), prefix, "cut {cut}: refused journal untouched");
            continue;
        }
        let (journal, scan) = resumed.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let mut expected: Vec<TaskRecord> = (0..lines as u64 - 1).map(task).collect();
        assert_eq!(scan.records, expected, "cut {cut}");
        assert_eq!(scan.duplicates, 0);
        assert_eq!(scan.torn_tail_bytes, (cut - complete_len(prefix)) as u64);
        assert_cut_back(&path, prefix, cut);

        journal.append(&task(3)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        let after = SweepJournal::scan(&path, Some(SPEC), N_TASKS).expect("rescan");
        expected.push(task(3));
        assert_eq!(after.records, expected, "cut {cut}");
        assert_eq!(after.torn_tail_bytes, 0, "cut {cut}");
    }
}

// ------------------------------------------------------------------ serve

fn spec(id: u64, tenant: &str) -> SessionSpec {
    SessionSpec {
        id,
        tenant: tenant.to_string(),
        source_key: 7,
        steps: 4,
        dt_s: 1e-3,
        frame_every: 2,
        power_scale: 1.0,
        trip_c: Some(80.0),
        deadline_ms: None,
    }
}

fn frame(idx: u32) -> FrameRecord {
    FrameRecord {
        id: 1,
        idx,
        step: 2 * (idx + 1),
        hot_c: 50.0 + f64::from(idx) / 3.0,
        digest: 9,
        chain: 11,
        level: 0,
    }
}

/// A spool with manifest `submit 1 (zoë)`, `submit 2 (日本)`, `done 1`,
/// `quarantine 2` and two frames of session 1; returns the manifest and
/// frame-log bytes.
fn write_spool(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let (mut spool, _) = Spool::open(dir, true).expect("open");
    spool.record_submit(&spec(1, "zo\u{eb}")).expect("submit");
    spool.record_submit(&spec(2, "日本")).expect("submit");
    for idx in 0..2 {
        spool.record_frame(&frame(idx)).expect("frame");
    }
    let mut state = SessionState::fresh(&spec(1, "zo\u{eb}"));
    state.step = 4;
    state.temps = vec![45.0, 46.25];
    state.frames = 2;
    spool
        .record_done(&Spool::done_record(1, &state))
        .expect("done");
    spool
        .record_quarantine(2, "deadline \u{d7}3 na\u{ef}ve")
        .expect("quarantine");
    drop(spool);
    (
        read(&dir.join("manifest.jsonl")),
        read(&dir.join("frames.jsonl")),
    )
}

fn open_ok(dir: &Path, cut: usize) -> (Spool, xylem_serve::spool::SpoolScan) {
    Spool::open(dir, false).unwrap_or_else(|e| panic!("cut {cut}: {e}"))
}

#[test]
fn spool_manifest_recovers_every_prefix() {
    let dir = scratch("spool-manifest");
    let (manifest, frames) = write_spool(&dir);
    let path = dir.join("manifest.jsonl");
    let submits = [spec(1, "zo\u{eb}"), spec(2, "日本")];

    for cut in 0..=manifest.len() {
        let prefix = &manifest[..cut];
        std::fs::write(&path, prefix).expect("prefix writes");
        std::fs::write(dir.join("frames.jsonl"), &frames).expect("frames write");
        let lines = complete_lines(prefix);

        let (mut spool, scan) = open_ok(&dir, cut);
        let mut expected = submits[..lines.min(2)].to_vec();
        assert_eq!(scan.submits, expected, "cut {cut}");
        assert_eq!(scan.max_id, expected.len() as u64, "cut {cut}");
        assert_eq!(scan.done.contains_key(&1), lines >= 3, "cut {cut}");
        assert_eq!(scan.quarantined.contains(&2), lines >= 4, "cut {cut}");
        assert_eq!(scan.durable_frames.get(&1), Some(&2), "cut {cut}");
        assert_cut_back(&path, prefix, cut);

        spool.record_submit(&spec(9, "\u{ef}")).expect("submit");
        drop(spool);
        let (_, after) = open_ok(&dir, cut);
        expected.push(spec(9, "\u{ef}"));
        assert_eq!(after.submits, expected, "cut {cut}");
        assert_eq!(Scan::read(&path).expect("scan").torn_tail_bytes(), 0);
    }
}

#[test]
fn spool_frame_log_recovers_every_prefix() {
    let dir = scratch("spool-frames");
    let (manifest, frames) = write_spool(&dir);
    let path = dir.join("frames.jsonl");

    for cut in 0..=frames.len() {
        let prefix = &frames[..cut];
        std::fs::write(&path, prefix).expect("prefix writes");
        std::fs::write(dir.join("manifest.jsonl"), &manifest).expect("manifest write");
        let lines = complete_lines(prefix) as u32;

        let (mut spool, scan) = open_ok(&dir, cut);
        let durable = (lines > 0).then_some(lines);
        assert_eq!(scan.durable_frames.get(&1).copied(), durable, "cut {cut}");
        assert_eq!(scan.submits.len(), 2, "cut {cut}");
        assert_cut_back(&path, prefix, cut);

        spool.record_frame(&frame(lines)).expect("frame");
        drop(spool);
        let (_, after) = open_ok(&dir, cut);
        assert_eq!(
            after.durable_frames.get(&1),
            Some(&(lines + 1)),
            "cut {cut}"
        );
        assert_eq!(Scan::read(&path).expect("scan").torn_tail_bytes(), 0);
    }
}

// -------------------------------------------------------------- refusals

/// `bytes` plus a torn tail that ends inside the two bytes of `ë`.
fn with_torn_tail(bytes: &[u8], line_start: &str) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out.extend_from_slice(line_start.as_bytes());
    out.extend_from_slice(&"\u{eb}".as_bytes()[..1]);
    out
}

#[test]
fn sweep_refusals_leave_the_journal_byte_identical() {
    let path = scratch("sweep-refused").join("sweep.jsonl");
    let full = write_sweep_journal(&path);
    let torn = with_torn_tail(&full, r#"{"ev":"sweep_task","id":3,"key":"zo"#);

    // Resuming under another spec: refused before the tail is touched.
    std::fs::write(&path, &torn).expect("write");
    match SweepJournal::open_resume(&path, "another-spec", N_TASKS, 8) {
        Err(SweepError::SpecMismatch { expected, found }) => {
            assert_eq!((expected.as_str(), found.as_str()), ("another-spec", SPEC));
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    assert_eq!(read(&path), torn);

    // A complete garbage line after the header: corruption, not a tail.
    let header_end = full.iter().position(|&b| b == b'\n').expect("header") + 1;
    let mut corrupt = full[..header_end].to_vec();
    corrupt.extend_from_slice(b"{\"ev\":\"sweep_task\",\"id\":\n");
    corrupt.extend_from_slice(&torn[header_end..]);
    std::fs::write(&path, &corrupt).expect("write");
    match SweepJournal::open_resume(&path, SPEC, N_TASKS, 8) {
        Err(SweepError::Corrupt { reason }) => assert!(reason.contains("line 2"), "{reason}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(read(&path), corrupt);
}

#[test]
fn spool_refusals_leave_every_journal_byte_identical() {
    let dir = scratch("spool-refused");
    let (manifest, frames) = write_spool(&dir);
    let manifest_path = dir.join("manifest.jsonl");
    let frames_path = dir.join("frames.jsonl");
    let first_line = manifest.iter().position(|&b| b == b'\n').expect("line") + 1;

    // Corrupt manifest middle, torn tails on both journals.
    let mut bad_manifest = manifest[..first_line].to_vec();
    bad_manifest.extend_from_slice(b"garbage not json\n");
    bad_manifest.extend_from_slice(&manifest[first_line..]);
    let bad_manifest = with_torn_tail(&bad_manifest, r#"{"record":"submit","tenant":"zo"#);
    let torn_frames = with_torn_tail(&frames, r#"{"record":"frame","hot_c":"zo"#);
    std::fs::write(&manifest_path, &bad_manifest).expect("write");
    std::fs::write(&frames_path, &torn_frames).expect("write");
    assert!(matches!(
        Spool::open(&dir, true),
        Err(ServeError::Corrupt { .. })
    ));
    assert_eq!(read(&manifest_path), bad_manifest);
    assert_eq!(read(&frames_path), torn_frames);

    // Corrupt frame-log middle: the manifest's torn tail must survive
    // too, since nothing is written until both journals validate.
    let torn_manifest = with_torn_tail(&manifest, r#"{"record":"submit","tenant":"zo"#);
    let mut bad_frames = b"{\"record\":\"frame\"\n".to_vec();
    bad_frames.extend_from_slice(&frames);
    std::fs::write(&manifest_path, &torn_manifest).expect("write");
    std::fs::write(&frames_path, &bad_frames).expect("write");
    assert!(matches!(
        Spool::open(&dir, true),
        Err(ServeError::Corrupt { .. })
    ));
    assert_eq!(read(&manifest_path), torn_manifest);
    assert_eq!(read(&frames_path), bad_frames);
}

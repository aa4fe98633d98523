//! Crash-safe files: the append-only JSONL [`Journal`] behind the sweep
//! journal and the serve spool, and [`write_atomic`] behind checkpoints
//! and spool sources.
//!
//! A kill mid-append leaves at most one partial line, the *torn tail*,
//! because each line goes out with its newline in one `write`.
//! [`Scan::read`] reads a journal as bytes and trusts only
//! newline-terminated lines: a torn fragment may end inside a
//! multi-byte character, or may even parse. The caller validates the
//! lines first; only then does [`Journal::resume`] truncate the tail, so
//! a journal that fails validation is left byte-for-byte untouched.
//! Record encoding and replay stay with the callers.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Replaces `path` with `bytes`: temp sibling (extension `tmp`), fsync,
/// rename, parent-directory fsync. A reader sees the old content or the
/// new, and once this returns a power loss cannot un-link the new file.
/// With `sync` false both fsyncs are skipped: the rename is still
/// atomic and a killed process still finds the new file (the page cache
/// outlives it), but a power loss may lose it.
///
/// # Errors
///
/// Any filesystem failure; the previous content is then intact.
pub fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    std::fs::rename(&tmp, path)?;
    if sync {
        fsync_parent(path)?;
    }
    Ok(())
}

/// Fsyncs the directory containing `path`, making a new or renamed
/// entry durable. A bare relative file name syncs the current directory.
fn fsync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// A journal file read whole: its newline-terminated lines, then the
/// torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    bytes: Vec<u8>,
    valid_len: usize,
}

impl Scan {
    /// Reads `path` without modifying it.
    ///
    /// # Errors
    ///
    /// The read failure, including `NotFound` for a missing file.
    pub fn read(path: &Path) -> io::Result<Scan> {
        let bytes = std::fs::read(path)?;
        let valid_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        Ok(Scan { bytes, valid_len })
    }

    /// The complete lines, in file order, without their newlines.
    pub fn lines(&self) -> impl Iterator<Item = &[u8]> {
        self.bytes[..self.valid_len]
            .split_inclusive(|&b| b == b'\n')
            .map(|line| &line[..line.len() - 1])
    }

    /// Bytes after the last newline (0 for a cleanly closed journal).
    #[must_use]
    pub fn torn_tail_bytes(&self) -> u64 {
        (self.bytes.len() - self.valid_len) as u64
    }
}

/// An open append-only journal, fsynced after every `fsync_every`
/// appends (never by [`Journal::append`] when 0).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    fsync_every: usize,
    pending: usize,
}

impl Journal {
    /// Creates (truncating) an empty journal and fsyncs its parent
    /// directory.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn create(path: &Path, fsync_every: usize) -> io::Result<Journal> {
        let file = File::create(path)?;
        fsync_parent(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            fsync_every,
            pending: 0,
        })
    }

    /// Reopens `path` for appending once the caller has validated
    /// `scan` of it: a torn tail is truncated and the truncation
    /// fsynced, so the next line never joins a partial one.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn resume(path: &Path, scan: &Scan, fsync_every: usize) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        let dropped = scan.torn_tail_bytes();
        if dropped > 0 {
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
            if xylem_obs::enabled() {
                xylem_obs::event("journal_torn_tail")
                    .u64("dropped_bytes", dropped)
                    .str("path", &path.display().to_string())
                    .emit();
            }
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            fsync_every,
            pending: 0,
        })
    }

    /// Appends `line`, which must not contain a newline, and its
    /// newline in one `write`; fsyncs when this completes a batch.
    ///
    /// # Errors
    ///
    /// The write or sync failure.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        self.pending += 1;
        if self.fsync_every > 0 && self.pending >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs every appended line.
    ///
    /// # Errors
    ///
    /// The sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.pending = 0;
        Ok(())
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xylem-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn scan_splits_complete_lines_and_measures_the_tail() {
        let path = tmp("scan.jsonl");
        std::fs::write(&path, "a\n\nzo\u{eb}\nto").expect("write");
        let scan = Scan::read(&path).expect("read");
        let lines: Vec<&[u8]> = scan.lines().collect();
        assert_eq!(lines, [&b"a"[..], b"", "zo\u{eb}".as_bytes()]);
        assert_eq!(scan.torn_tail_bytes(), 2);
        std::fs::write(&path, "no newline").expect("write");
        let scan = Scan::read(&path).expect("read");
        assert_eq!(scan.lines().count(), 0);
        assert_eq!(scan.torn_tail_bytes(), 10);
        assert!(Scan::read(&tmp("missing.jsonl")).is_err());
    }

    #[test]
    fn append_batches_fsyncs_and_resume_continues_cleanly() {
        let path = tmp("batch.jsonl");
        let mut j = Journal::create(&path, 2).expect("create");
        j.append("one").expect("append");
        assert_eq!(j.pending, 1);
        j.append("two").expect("append");
        assert_eq!(j.pending, 0, "second append completes the batch");
        drop(j);
        let scan = Scan::read(&path).expect("read");
        let mut j = Journal::resume(&path, &scan, 0).expect("resume");
        j.append("three").expect("append");
        assert_eq!(j.pending, 1, "fsync_every = 0 never syncs on append");
        j.sync().expect("sync");
        assert_eq!(j.path(), path.as_path());
        assert_eq!(std::fs::read(&path).expect("read"), b"one\ntwo\nthree\n");
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let path = tmp("atomic.txt");
        write_atomic(&path, b"first", true).expect("write");
        write_atomic(&path, b"second", true).expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(!path.with_extension("tmp").exists());
        // Unsynced, the replace is just as atomic for readers.
        write_atomic(&path, b"third", false).expect("unsynced overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"third");
        assert!(!path.with_extension("tmp").exists());
        let bad = tmp("no-such-dir").join("x.txt");
        assert!(write_atomic(&bad, b"x", true).is_err());
    }
}

//! `xylem-lint`: a two-pass workspace static-analysis pass for the Xylem
//! crates.
//!
//! Pass 1 ([`symbols`]) builds a lightweight per-file symbol table over
//! the token stream: `use` imports, function spans, unit-newtype
//! bindings, float-accumulator locals, and the file's determinism-zone
//! classification (*hot-path* / *instrumented* / *free*). Pass 2
//! ([`rules`]) runs ten rules: five token-local, four dataflow-aware,
//! and one workspace-wide:
//!
//! 1. **`f64-param`** — public API functions of `xylem-thermal`,
//!    `xylem-power`, and `xylem-core` must not take a raw `f64` where the
//!    parameter name indicates a physical quantity; use the newtypes in
//!    `xylem_thermal::units` instead. Bulk `&[f64]` kernel interfaces are
//!    deliberately out of scope.
//! 2. **`unwrap`** — library code (crate `src/` trees, excluding binary
//!    targets and `#[cfg(test)]` items) must not contain `.unwrap()` or
//!    message-free `panic!()`-family macros.
//! 3. **`magic-float`** — float literals matching known physical-constant
//!    magnitudes (the Celsius offset, material conductivities and heat
//!    capacities) must live in `thermal/src/material.rs` or
//!    `power/src/blocks.rs`, not inline.
//! 4. **`no-panic-path`** — the fault-tolerance-critical modules (the DTM
//!    loop, the solver fallback ladder, the sensor model, checkpointing)
//!    must not contain `.unwrap()` or `.expect()` at all: the recovery
//!    paths must propagate every failure as a `Result`.
//! 5. **`no-println`** — modules instrumented with `xylem-obs` must not
//!    use print-family macros; structured output goes through the
//!    observability sink so `--metrics-out` JSONL streams stay parseable.
//! 6. **`no-nondet-collections`** — `HashMap`/`HashSet` banned in
//!    hot-path modules (hash iteration order breaks the bit-identical
//!    determinism claim); use `BTreeMap`/`BTreeSet` or indexed vectors.
//! 7. **`no-raw-accumulation`** — from-scratch `+=` float folds and f64
//!    `.sum()` calls in hot-path modules must go through the
//!    deterministic pairwise helpers in `xylem_thermal::reduce`.
//! 8. **`no-unit-escape`** — `.0` projection on unit-newtype values
//!    outside `units.rs` and the material tables; use `.get()`.
//! 9. **`obs-coverage`** — instrumented-module functions with a
//!    fallback/degradation branch must reference the `xylem-obs` sink.
//! 10. **`no-uncalled-pub`** — a `pub` item in a crate's `src/` must be
//!     named by program code (crate sources, benches, examples,
//!     `perfbench/src`); tests, comments and `use` re-exports are not
//!     callers ([`analyze_workspace`]).
//!
//! Two workspace-root files tune the verdict, sharing one format (one
//! `<rule> <path-suffix> <symbol>` entry per line, `#` comments, symbol
//! `*` wildcards):
//!
//! * `xylem-lint.allow` — deliberate, permanent exemptions.
//! * `xylem-lint.baseline` — the ratchet: findings that predate a rule,
//!   pinned so they do not fail CI while any **new** finding does.
//!
//! Entries in either file that match zero findings are *stale* and fail
//! the run themselves (escape hatch: `--allow-stale` during bring-up),
//! so the ratchet can only ever tighten.
//!
//! Run with `cargo run -p xylem-lint` from the workspace root; the binary
//! prints `path:line: [rule] message` per finding (or JSONL with
//! `--json`) and exits non-zero if any finding or stale entry survives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod rules;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

use xylem_obs::json::Value;

/// File name of the permanent-exemption list at the workspace root.
pub const ALLOW_FILE: &str = "xylem-lint.allow";

/// File name of the pinned-findings ratchet at the workspace root.
pub const BASELINE_FILE: &str = "xylem-lint.baseline";

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`f64-param`, `unwrap`, ..., or `lex`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// The offending symbol (`fn.param`, macro name, or literal text) —
    /// what an allowlist/baseline entry must name.
    pub symbol: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The finding as a JSON object for the `--json` JSONL mode. The
    /// schema is locked by a snapshot test: keys `rule`, `path`, `line`,
    /// `symbol`, `zone`, `message`, in that order.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("rule".into(), Value::Str(self.rule.to_string())),
            ("path".into(), Value::Str(self.path.clone())),
            ("line".into(), Value::U64(u64::from(self.line))),
            ("symbol".into(), Value::Str(self.symbol.clone())),
            (
                "zone".into(),
                Value::Str(symbols::Zone::of(&self.path).label().to_string()),
            ),
            ("message".into(), Value::Str(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One parsed entry of `xylem-lint.allow` / `xylem-lint.baseline`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the entry exempts.
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path_suffix: String,
    /// Exact symbol, or `*` for any.
    pub symbol: String,
    /// 1-indexed line in the source file (for stale reporting).
    pub line: usize,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.rule, self.path_suffix, self.symbol)
    }
}

/// Parsed `xylem-lint.allow` / `xylem-lint.baseline` entries.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text: one `<rule> <path-suffix> <symbol>` entry
    /// per line, `#` comments, blank lines ignored. Malformed lines are
    /// reported as errors rather than silently dropped.
    ///
    /// # Errors
    ///
    /// Returns the 1-indexed line numbers of malformed entries.
    pub fn parse(text: &str) -> Result<Self, Vec<usize>> {
        let mut entries = Vec::new();
        let mut bad = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(path_suffix), Some(symbol), None) => {
                    entries.push(AllowEntry {
                        rule: rule.to_string(),
                        path_suffix: path_suffix.to_string(),
                        symbol: symbol.to_string(),
                        line: idx + 1,
                    });
                }
                _ => bad.push(idx + 1),
            }
        }
        if bad.is_empty() {
            Ok(Self { entries })
        } else {
            Err(bad)
        }
    }

    /// Whether a finding of `rule` at `path` on `symbol` is allowlisted.
    #[must_use]
    pub fn permits(&self, rule: &str, path: &str, symbol: &str) -> bool {
        self.matching_entry(rule, path, symbol).is_some()
    }

    /// Index of the first entry matching a finding, if any.
    fn matching_entry(&self, rule: &str, path: &str, symbol: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == rule
                && path.ends_with(&e.path_suffix)
                && (e.symbol == "*" || e.symbol == symbol)
        })
    }

    /// The parsed entries, in file order.
    #[must_use]
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

/// An allowlist/baseline entry that matched zero findings: the finding
/// it exempted has been fixed (or renamed), so the entry must go — a
/// stale entry is a hole the ratchet would silently leak through.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// Which file the entry lives in ([`ALLOW_FILE`] or
    /// [`BASELINE_FILE`]).
    pub file: &'static str,
    /// 1-indexed line of the entry.
    pub line: usize,
    /// The entry text, `<rule> <path-suffix> <symbol>`.
    pub entry: String,
}

impl StaleEntry {
    /// The stale entry rendered as a pseudo-finding (rule `stale-allow`
    /// or `stale-baseline`) so text and JSONL output stay uniform.
    #[must_use]
    pub fn to_diagnostic(&self) -> Diagnostic {
        let rule = if self.file == BASELINE_FILE {
            "stale-baseline"
        } else {
            "stale-allow"
        };
        Diagnostic {
            rule,
            path: self.file.to_string(),
            line: u32::try_from(self.line).unwrap_or(u32::MAX),
            symbol: self.entry.clone(),
            message: format!(
                "entry `{}` matches zero findings; delete it (the exempted finding is gone)",
                self.entry
            ),
        }
    }
}

/// Outcome of a full workspace audit.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Findings that survived the allowlist and baseline.
    pub findings: Vec<Diagnostic>,
    /// Count of findings suppressed by the allowlist or baseline.
    pub suppressed: usize,
    /// Allowlist/baseline entries that matched nothing.
    pub stale: Vec<StaleEntry>,
}

impl WorkspaceReport {
    /// Whether the audit passes: no surviving findings, and (unless
    /// `allow_stale`) no stale entries.
    #[must_use]
    pub fn is_clean(&self, allow_stale: bool) -> bool {
        self.findings.is_empty() && (allow_stale || self.stale.is_empty())
    }
}

/// Runs both analyzer passes over one source file and returns the *raw*
/// findings (no allowlist/baseline filtering). Pure: no filesystem
/// access, so fixtures can be checked in-memory. Total: lex errors come
/// back as a `lex` diagnostic, never a panic.
#[must_use]
pub fn analyze_source(relpath: &str, src: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = match lexer::lex(src) {
        Ok(toks) => toks,
        Err(e) => {
            out.push(Diagnostic {
                rule: "lex",
                path: relpath.to_string(),
                line: e.line,
                symbol: "lex-error".to_string(),
                message: e.msg,
            });
            return out;
        }
    };
    let mask = rules::test_mask(&toks);
    let syms = symbols::FileSymbols::build(relpath, &toks);
    rules::check_f64_params(relpath, &toks, &mask, &mut out);
    rules::check_panics(relpath, &toks, &mask, &mut out);
    rules::check_magic_floats(relpath, &toks, &mask, &mut out);
    rules::check_no_panic_paths(relpath, &toks, &mask, &mut out);
    rules::check_no_println(relpath, &toks, &mask, &syms, &mut out);
    rules::check_nondet_collections(relpath, &toks, &mask, &syms, &mut out);
    rules::check_raw_accumulation(relpath, &toks, &mask, &syms, &mut out);
    rules::check_unit_escape(relpath, &toks, &mask, &syms, &mut out);
    rules::check_obs_coverage(relpath, &toks, &mask, &syms, &mut out);
    out
}

/// Runs the workspace-wide rule (`no-uncalled-pub`) over in-memory
/// `(relpath, src)` pairs and returns its *raw* findings. Pure and total
/// like [`analyze_source`]: a file that does not lex defines and calls
/// nothing here (its `lex` finding comes from [`analyze_source`]).
#[must_use]
pub fn analyze_workspace(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let lexed: Vec<(&str, Vec<lexer::Tok>)> = files
        .iter()
        .filter_map(|&(relpath, src)| Some((relpath, lexer::lex(src).ok()?)))
        .collect();
    let mut out = Vec::new();
    rules::check_uncalled_pub(&lexed, &mut out);
    out
}

/// Runs every rule over one source file and filters through `allow`.
#[must_use]
pub fn check_source(relpath: &str, src: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    analyze_source(relpath, src)
        .into_iter()
        .filter(|d| !allow.permits(d.rule, &d.path, &d.symbol))
        .collect()
}

/// Collects every `.rs` file under `root`, skipping `target/`, `vendor/`,
/// and dot-directories. Paths are returned workspace-relative and sorted.
///
/// # Errors
///
/// Returns an I/O error description if a directory cannot be read.
pub fn collect_rust_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("path {} not under root: {e}", path.display()))?;
                files.push(rel.to_path_buf());
            }
        }
    }
    files.sort();
    Ok(files)
}

fn load_entry_file(root: &Path, name: &str) -> Result<Allowlist, String> {
    let path = root.join(name);
    match std::fs::read_to_string(&path) {
        Ok(text) => Allowlist::parse(&text).map_err(|lines| {
            format!(
                "{}: malformed entries on lines {:?} (expected `<rule> <path-suffix> <symbol>`)",
                path.display(),
                lines
            )
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Loads the optional `xylem-lint.allow` at `root`.
///
/// # Errors
///
/// Returns a description of malformed allowlist lines.
pub fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    load_entry_file(root, ALLOW_FILE)
}

/// Loads the optional `xylem-lint.baseline` at `root`.
///
/// # Errors
///
/// Returns a description of malformed baseline lines.
pub fn load_baseline(root: &Path) -> Result<Allowlist, String> {
    load_entry_file(root, BASELINE_FILE)
}

/// Audits every `.rs` file under `root`: raw findings are filtered
/// through the allowlist first, then the baseline; entries of either
/// file that matched nothing are reported as stale.
///
/// # Errors
///
/// Returns a description of filesystem or entry-file-format problems.
pub fn audit_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let allow = load_allowlist(root)?;
    let baseline = load_baseline(root)?;
    let mut report = WorkspaceReport::default();
    let mut allow_used = vec![false; allow.entries.len()];
    let mut baseline_used = vec![false; baseline.entries.len()];
    let mut sources = Vec::new();
    for rel in collect_rust_files(root)? {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let pairs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(relpath, src)| (relpath.as_str(), src.as_str()))
        .collect();
    let raw = pairs
        .iter()
        .flat_map(|&(relpath, src)| analyze_source(relpath, src))
        .chain(analyze_workspace(&pairs));
    for d in raw {
        if let Some(i) = allow.matching_entry(d.rule, &d.path, &d.symbol) {
            allow_used[i] = true;
            report.suppressed += 1;
        } else if let Some(i) = baseline.matching_entry(d.rule, &d.path, &d.symbol) {
            baseline_used[i] = true;
            report.suppressed += 1;
        } else {
            report.findings.push(d);
        }
    }
    for (list, used, file) in [
        (&allow, &allow_used, ALLOW_FILE),
        (&baseline, &baseline_used, BASELINE_FILE),
    ] {
        for (e, used) in list.entries.iter().zip(used.iter()) {
            if !used {
                report.stale.push(StaleEntry {
                    file,
                    line: e.line,
                    entry: e.to_string(),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_matches() {
        let a = Allowlist::parse(
            "# comment\n\
             f64-param thermal/src/grid.rs scale.temp_c\n\
             unwrap core/src/response.rs *  # trailing comment\n",
        )
        .expect("parses");
        assert!(a.permits("f64-param", "crates/thermal/src/grid.rs", "scale.temp_c"));
        assert!(!a.permits("f64-param", "crates/thermal/src/grid.rs", "other.temp_c"));
        assert!(a.permits("unwrap", "crates/core/src/response.rs", "anything"));
        assert!(!a.permits("unwrap", "crates/core/src/dtm.rs", "anything"));
        // Entries carry their source line for stale reporting.
        assert_eq!(a.entries()[0].line, 2);
        assert_eq!(a.entries()[1].line, 3);
    }

    #[test]
    fn malformed_allowlist_lines_are_reported() {
        let err = Allowlist::parse("f64-param only-two\n").expect_err("rejects");
        assert_eq!(err, vec![1]);
    }

    #[test]
    fn check_source_reports_lex_errors_as_diagnostics() {
        let d = check_source(
            "crates/core/src/x.rs",
            "let s = \"open",
            &Allowlist::default(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lex");
    }

    #[test]
    fn allowlisted_findings_are_suppressed() {
        let allow = Allowlist::parse("f64-param thermal/src/foo.rs set_ambient.ambient_c\n")
            .expect("parses");
        let src = "pub fn set_ambient(ambient_c: f64) {}";
        assert!(check_source("crates/thermal/src/foo.rs", src, &allow).is_empty());
        assert_eq!(
            check_source("crates/thermal/src/foo.rs", src, &Allowlist::default()).len(),
            1
        );
    }

    #[test]
    fn diagnostic_json_has_locked_key_order() {
        let d = Diagnostic {
            rule: "no-raw-accumulation",
            path: "crates/thermal/src/solve.rs".to_string(),
            line: 42,
            symbol: "dot.acc".to_string(),
            message: "raw fold".to_string(),
        };
        assert_eq!(
            d.to_json().to_string(),
            r#"{"rule":"no-raw-accumulation","path":"crates/thermal/src/solve.rs","line":42,"symbol":"dot.acc","zone":"hot-path+instrumented","message":"raw fold"}"#
        );
    }

    #[test]
    fn stale_entries_become_pseudo_findings() {
        let s = StaleEntry {
            file: BASELINE_FILE,
            line: 7,
            entry: "unwrap core/src/dtm.rs *".to_string(),
        };
        let d = s.to_diagnostic();
        assert_eq!(d.rule, "stale-baseline");
        assert_eq!(d.path, BASELINE_FILE);
        assert_eq!(d.line, 7);
        let s = StaleEntry {
            file: ALLOW_FILE,
            line: 1,
            entry: "x y z".to_string(),
        };
        assert_eq!(s.to_diagnostic().rule, "stale-allow");
    }
}

//! Shared experiment infrastructure: tables, CSV output, system cache,
//! and the one timing sampler the solver smoke benchmark uses.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use xylem::system::{SystemConfig, XylemSystem};
use xylem_stack::XylemScheme;

/// Workspace-relative directory for experiment CSVs
/// (`target/xylem-results`), overridable with `XYLEM_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    if let Some(d) = std::env::var_os("XYLEM_RESULTS_DIR") {
        return PathBuf::from(d);
    }
    workspace_target().join("xylem-results")
}

/// Workspace-relative directory for unit-response caches
/// (`target/xylem-cache`), overridable with `XYLEM_CACHE_DIR`.
pub fn cache_dir() -> PathBuf {
    if let Some(d) = std::env::var_os("XYLEM_CACHE_DIR") {
        return PathBuf::from(d);
    }
    workspace_target().join("xylem-cache")
}

fn workspace_target() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target")
}

/// Builds the paper-default system for `scheme` with the shared response
/// cache (first use per scheme solves ~89 unit problems; later uses load
/// from disk).
///
/// # Panics
///
/// Panics on construction errors (experiment binaries fail loudly).
pub fn system(scheme: XylemScheme) -> XylemSystem {
    let mut cfg = SystemConfig::paper_default(scheme);
    cfg.cache_dir = Some(cache_dir());
    XylemSystem::new(cfg).unwrap_or_else(|e| panic!("building {scheme} system: {e}"))
}

/// Builds a system with a modified stack configuration (sensitivity
/// sweeps and ablations), still using the shared cache. These sweeps run
/// on a **32x32** grid: every swept point needs its own unit-response
/// set, and the reported quantities are cross-scheme deltas/means whose
/// trends are grid-stable.
///
/// # Panics
///
/// Panics on construction errors.
pub fn system_with(
    scheme: XylemScheme,
    modify: impl FnOnce(&mut xylem_stack::StackConfig),
) -> XylemSystem {
    let mut cfg = SystemConfig::paper_default(scheme);
    cfg.grid = xylem_thermal::grid::GridSpec::new(32, 32);
    cfg.cache_dir = Some(cache_dir());
    modify(&mut cfg.stack);
    XylemSystem::new(cfg).unwrap_or_else(|e| panic!("building {scheme} system: {e}"))
}

/// The 32x32 counterpart of [`system`], for tables that mix default and
/// modified configurations (everything on the same grid).
///
/// # Panics
///
/// Panics on construction errors.
pub fn system_fast(scheme: XylemScheme) -> XylemSystem {
    system_with(scheme, |_| {})
}

/// A printable/saveable result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Formats the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(s, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(s, "  {:>w$}", c, w = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes `name.csv` under [`results_dir`].
    pub fn save_csv(&self, name: &str) {
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let mut csv = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            csv,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        let _ = std::fs::write(dir.join(format!("{name}.csv")), &csv);
        // Provenance: a manifest rides along with every CSV so a result
        // file can be traced back to the exact table that produced it
        // (and, when a metrics sink is live, lands in the JSONL too).
        let manifest = self.manifest(name, &csv);
        let _ = std::fs::write(
            dir.join(format!("{name}.manifest.json")),
            format!("{}\n", manifest.to_value()),
        );
        manifest.emit();
    }

    /// The provenance manifest for this table: title, shape, and an
    /// FNV-1a hash of the rendered CSV bytes.
    fn manifest(&self, name: &str, csv: &str) -> xylem_obs::RunManifest {
        xylem_obs::RunManifest::new("xylem-bench", name)
            .with("title", &self.title)
            .with("rows", self.rows.len())
            .with("cols", self.headers.len())
            .with(
                "csv_fnv1a",
                format!("{:016x}", xylem_obs::fnv1a(csv.as_bytes())),
            )
    }

    /// Prints and saves in one step.
    pub fn emit(&self, name: &str) {
        self.print();
        self.save_csv(name);
        println!("[saved {}/{name}.csv]", results_dir().display());
        println!();
    }
}

/// The summary of one timed row's samples, in milliseconds: the median,
/// the fastest sample and the interquartile range, with the sample
/// count they rest on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Timing {
    /// Median sample.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Third minus first quartile (linear interpolation between order
    /// statistics).
    pub iqr: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Timing {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on empty input or a NaN sample.
    pub fn of(samples: &[f64]) -> Timing {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let quantile = |q: f64| {
            let pos = q * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Timing {
            median: quantile(0.5),
            min: s[0],
            iqr: quantile(0.75) - quantile(0.25),
            samples: s.len(),
        }
    }
}

/// Times each of `rows` once per round for `rounds` rounds and returns
/// each row's [`Timing`], in row order. Interleaving the rows spreads
/// host drift (frequency scaling, a noisy neighbour) over every row
/// instead of letting it land on whichever row happens to run last.
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn sample_rows(rounds: usize, rows: &mut [Box<dyn FnMut() + '_>]) -> Vec<Timing> {
    let mut samples = vec![Vec::with_capacity(rounds); rows.len()];
    for _ in 0..rounds {
        for (row, out) in rows.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            row();
            out.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.iter().map(|s| Timing::of(s)).collect()
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Arithmetic mean of a slice.
///
/// # Panics
///
/// Panics on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics on empty input or non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_width_check() {
        let mut t = Table::new("demo", &["app", "value"]);
        t.row(vec!["FFT".into(), "1.00".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("FFT"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn means() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timing_of_an_odd_sample_set() {
        let t = Timing::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            t,
            Timing {
                median: 3.0,
                min: 1.0,
                iqr: 2.0,
                samples: 5
            }
        );
    }

    #[test]
    fn timing_of_an_even_sample_set_interpolates() {
        // Quartile positions 0.75 and 2.25 of the sorted [1, 2, 3, 4]:
        // q1 = 1.75, median = 2.5, q3 = 3.25.
        let t = Timing::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(
            t,
            Timing {
                median: 2.5,
                min: 1.0,
                iqr: 1.5,
                samples: 4
            }
        );
    }

    #[test]
    fn one_outlier_moves_the_mean_not_the_median() {
        let quiet = [2.0, 2.0, 2.0, 2.0, 2.0];
        let spiked = [2.0, 2.0, 2.0, 2.0, 200.0];
        assert!(mean(&spiked) > 10.0 * mean(&quiet));
        assert_eq!(Timing::of(&spiked).median, Timing::of(&quiet).median);
        assert_eq!(Timing::of(&spiked).min, 2.0);
    }

    #[test]
    fn each_round_visits_every_row_once() {
        let visits = std::cell::RefCell::new(Vec::new());
        let mut rows: Vec<Box<dyn FnMut()>> = (0..3)
            .map(|i| {
                let visits = &visits;
                Box::new(move || visits.borrow_mut().push(i)) as Box<dyn FnMut()>
            })
            .collect();
        let timings = sample_rows(4, &mut rows);
        drop(rows);
        assert_eq!(visits.into_inner(), [0, 1, 2].repeat(4));
        assert_eq!(timings.len(), 3);
        assert!(timings.iter().all(|t| t.samples == 4 && t.min >= 0.0));
    }
}

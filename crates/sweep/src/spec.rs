//! Declarative sweep specifications and their deterministic task grids.
//!
//! A [`SweepSpec`] is the cartesian product of axes over (scheme ×
//! die thickness × pillar footprint × die count × D2D thickness ×
//! workload × frequency × DTM trip). Enumeration order is fixed, so a
//! task's `id` is stable across runs of the same spec — the journal
//! keys on it. [`SweepSpec::spec_hash`] digests the canonical axis
//! string through the checkpoint layer's [`xylem::checkpoint::config_hash`]
//! so a resume against a journal written by a *different* spec is
//! refused instead of silently mixing result grids.

use std::path::Path;

use xylem::checkpoint::config_hash;
use xylem::{ConfigError, SystemConfig, XylemError};
use xylem_obs::hash::{fnv1a, splitmix64};
use xylem_stack::XylemScheme;
use xylem_thermal::grid::GridSpec;
use xylem_workloads::Benchmark;

/// One fully-resolved point of the design space: everything needed to
/// build a stack and evaluate one workload on it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Position in the spec's enumeration order (journal key).
    pub id: usize,
    /// TTSV placement scheme.
    pub scheme: XylemScheme,
    /// Workload to evaluate.
    pub benchmark: Benchmark,
    /// Core frequency, GHz.
    pub f_ghz: f64,
    /// DRAM die thickness override, µm (`None` keeps the paper default).
    pub die_thickness_um: Option<f64>,
    /// Thermal-cluster (pillar) footprint override, µm.
    pub pillar_footprint_um: Option<f64>,
    /// Die-to-die layer thickness override, µm.
    pub d2d_thickness_um: Option<f64>,
    /// DRAM die count override.
    pub n_dram_dies: Option<usize>,
    /// DTM policy axis: evaluate the maximum frequency holding the
    /// hotspot at this trip temperature (`None` skips the DTM search).
    pub trip_c: Option<f64>,
}

impl TaskSpec {
    /// Human-readable unique key: `scheme/benchmark/f<ghz>` plus one
    /// `/<axis><value>` segment per overridden axis.
    #[must_use]
    pub fn key(&self) -> String {
        let mut k = format!(
            "{}/{}/f{}",
            self.scheme.name(),
            self.benchmark.name(),
            self.f_ghz
        );
        if let Some(v) = self.die_thickness_um {
            k.push_str(&format!("/die{v}"));
        }
        if let Some(v) = self.pillar_footprint_um {
            k.push_str(&format!("/pf{v}"));
        }
        if let Some(v) = self.n_dram_dies {
            k.push_str(&format!("/nd{v}"));
        }
        if let Some(v) = self.d2d_thickness_um {
            k.push_str(&format!("/d2d{v}"));
        }
        if let Some(v) = self.trip_c {
            k.push_str(&format!("/trip{v}"));
        }
        k
    }

    /// FNV-1a hash of [`TaskSpec::key`] — seeds per-task jitter.
    #[must_use]
    pub fn key_hash(&self) -> u64 {
        fnv1a(self.key().as_bytes())
    }

    /// Hash over the *stack-defining* axes only (scheme + geometry, not
    /// workload/frequency/trip). Tasks sharing a `stack_key` share a
    /// built [`xylem::XylemSystem`], so the engine shards by this value:
    /// every distinct stack is built exactly once per sweep process.
    #[must_use]
    pub fn stack_key(&self) -> u64 {
        let s = format!(
            "{}|die={:?}|pf={:?}|nd={:?}|d2d={:?}",
            self.scheme.name(),
            self.die_thickness_um,
            self.pillar_footprint_um,
            self.n_dram_dies,
            self.d2d_thickness_um
        );
        fnv1a(s.as_bytes())
    }

    /// The [`SystemConfig`] this task evaluates: the paper default for
    /// its scheme with the task's geometry overrides applied (µm fields
    /// converted to meters) at a `grid`×`grid` resolution.
    #[must_use]
    pub fn system_config(&self, grid: usize, cache_dir: Option<&Path>) -> SystemConfig {
        let mut config = SystemConfig::paper_default(self.scheme);
        config.grid = GridSpec::new(grid, grid);
        config.cache_dir = cache_dir.map(Path::to_path_buf);
        if let Some(um) = self.die_thickness_um {
            config.stack.die_thickness = um * 1e-6;
        }
        if let Some(um) = self.pillar_footprint_um {
            config.stack.pillar_footprint = um * 1e-6;
        }
        if let Some(um) = self.d2d_thickness_um {
            config.stack.d2d_thickness = um * 1e-6;
        }
        if let Some(n) = self.n_dram_dies {
            config.stack.n_dram_dies = n;
        }
        config
    }
}

/// A declarative sweep: one `Vec` per axis, expanded as a cartesian
/// product in a fixed order. Empty geometry/trip axes mean "paper
/// default only"; empty scheme/benchmark/frequency axes are invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// TTSV placement schemes to sweep.
    pub schemes: Vec<XylemScheme>,
    /// Workloads to sweep.
    pub benchmarks: Vec<Benchmark>,
    /// Core frequencies, GHz.
    pub f_ghz: Vec<f64>,
    /// DRAM die thicknesses, µm (empty = paper default only).
    pub die_thickness_um: Vec<f64>,
    /// Pillar footprints, µm (empty = paper default only).
    pub pillar_footprint_um: Vec<f64>,
    /// DRAM die counts (empty = paper default only).
    pub n_dram_dies: Vec<usize>,
    /// D2D layer thicknesses, µm (empty = paper default only).
    pub d2d_thickness_um: Vec<f64>,
    /// DTM trip temperatures, °C (empty = no DTM axis).
    pub trips_c: Vec<f64>,
    /// Thermal grid resolution (`grid`×`grid`).
    pub grid: usize,
    /// Random subsample size: keep only this many tasks, drawn
    /// deterministically from `seed` (`None` = the full grid).
    pub sample: Option<usize>,
    /// Seed for subsampling and retry-backoff jitter.
    pub seed: u64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            schemes: XylemScheme::ALL.to_vec(),
            benchmarks: vec![Benchmark::Cholesky],
            f_ghz: vec![2.4],
            die_thickness_um: Vec::new(),
            pillar_footprint_um: Vec::new(),
            n_dram_dies: Vec::new(),
            d2d_thickness_um: Vec::new(),
            trips_c: Vec::new(),
            grid: 64,
            sample: None,
            seed: 0,
        }
    }
}

/// An optional axis: empty means a single "paper default" (`None`) point.
fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
    if values.is_empty() {
        vec![None]
    } else {
        values.iter().copied().map(Some).collect()
    }
}

impl SweepSpec {
    /// Checks the spec is enumerable.
    ///
    /// # Errors
    ///
    /// [`XylemError::Config`] when a required axis is empty or the grid
    /// resolution is zero.
    pub fn validate(&self) -> Result<(), XylemError> {
        if self.schemes.is_empty() {
            return Err(ConfigError::new("schemes", "at least one scheme is required").into());
        }
        if self.benchmarks.is_empty() {
            return Err(ConfigError::new("benchmarks", "at least one workload is required").into());
        }
        if self.f_ghz.is_empty() {
            return Err(ConfigError::new("f_ghz", "at least one frequency is required").into());
        }
        if self.grid == 0 {
            return Err(ConfigError::new("grid", "resolution must be positive").into());
        }
        if self.sample == Some(0) {
            return Err(ConfigError::new("sample", "subsample size must be positive").into());
        }
        Ok(())
    }

    /// Expands the cartesian product in the fixed enumeration order
    /// (scheme, die thickness, pillar, die count, D2D, benchmark,
    /// frequency, trip), assigns sequential ids, then applies the seeded
    /// subsample if configured. Ids refer to the *full* grid, so a
    /// sampled sweep and its parent grid agree on task identity.
    #[must_use]
    pub fn tasks(&self) -> Vec<TaskSpec> {
        let mut out = Vec::new();
        let mut id = 0usize;
        for &scheme in &self.schemes {
            for die_thickness_um in axis(&self.die_thickness_um) {
                for pillar_footprint_um in axis(&self.pillar_footprint_um) {
                    for n_dram_dies in axis(&self.n_dram_dies) {
                        for d2d_thickness_um in axis(&self.d2d_thickness_um) {
                            for &benchmark in &self.benchmarks {
                                for &f_ghz in &self.f_ghz {
                                    for trip_c in axis(&self.trips_c) {
                                        out.push(TaskSpec {
                                            id,
                                            scheme,
                                            benchmark,
                                            f_ghz,
                                            die_thickness_um,
                                            pillar_footprint_um,
                                            d2d_thickness_um,
                                            n_dram_dies,
                                            trip_c,
                                        });
                                        id += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some(k) = self.sample {
            if k < out.len() {
                // Deterministic sample: order by a per-id hash, keep the
                // first k, then restore id order.
                let mut keyed: Vec<(u64, TaskSpec)> = out
                    .into_iter()
                    .map(|t| (splitmix64(self.seed ^ splitmix64(t.id as u64)), t))
                    .collect();
                keyed.sort_by_key(|(h, t)| (*h, t.id));
                keyed.truncate(k);
                keyed.sort_by_key(|(_, t)| t.id);
                out = keyed.into_iter().map(|(_, t)| t).collect();
            }
        }
        out
    }

    /// Canonical digest of every enumeration-relevant field, via the
    /// checkpoint layer's [`config_hash`]. Stored in the journal header;
    /// resume refuses a journal whose hash differs.
    #[must_use]
    pub fn spec_hash(&self) -> String {
        let mut s = String::from("xylem-sweep-spec-v1");
        s.push_str("|schemes=");
        for sc in &self.schemes {
            s.push_str(sc.name());
            s.push(',');
        }
        s.push_str("|benchmarks=");
        for b in &self.benchmarks {
            s.push_str(b.name());
            s.push(',');
        }
        push_f64_axis(&mut s, "f_ghz", &self.f_ghz);
        push_f64_axis(&mut s, "die_um", &self.die_thickness_um);
        push_f64_axis(&mut s, "pf_um", &self.pillar_footprint_um);
        s.push_str("|nd=");
        for n in &self.n_dram_dies {
            s.push_str(&format!("{n},"));
        }
        push_f64_axis(&mut s, "d2d_um", &self.d2d_thickness_um);
        push_f64_axis(&mut s, "trip_c", &self.trips_c);
        s.push_str(&format!("|grid={}", self.grid));
        s.push_str(&format!("|sample={:?}", self.sample));
        s.push_str(&format!("|seed={}", self.seed));
        config_hash(&s)
    }
}

fn push_f64_axis(s: &mut String, label: &str, values: &[f64]) {
    s.push('|');
    s.push_str(label);
    s.push('=');
    for v in values {
        s.push_str(&format!("{v},"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            schemes: vec![XylemScheme::Base, XylemScheme::BankEnhanced],
            benchmarks: vec![Benchmark::Cholesky, Benchmark::Barnes],
            f_ghz: vec![2.4],
            die_thickness_um: vec![50.0, 100.0],
            grid: 16,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn enumeration_is_stable_and_sequential() {
        let tasks = small_spec().tasks();
        assert_eq!(tasks.len(), 2 * 2 * 2);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i);
        }
        // scheme is the outermost axis, trip/freq the innermost.
        assert_eq!(tasks[0].scheme, XylemScheme::Base);
        assert_eq!(tasks[4].scheme, XylemScheme::BankEnhanced);
        assert_eq!(tasks[0].benchmark, Benchmark::Cholesky);
        assert_eq!(tasks[1].benchmark, Benchmark::Barnes);
        assert_eq!(small_spec().tasks(), tasks, "tasks() is pure");
    }

    #[test]
    fn keys_are_unique() {
        let tasks = small_spec().tasks();
        let mut keys: Vec<String> = tasks.iter().map(TaskSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), tasks.len());
    }

    #[test]
    fn sampling_is_deterministic_and_id_ordered() {
        let mut spec = small_spec();
        spec.sample = Some(3);
        spec.seed = 7;
        let a = spec.tasks();
        let b = spec.tasks();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
        // A different seed picks a different subset (with overwhelming
        // probability for this grid).
        spec.seed = 8;
        assert_ne!(spec.tasks(), a);
    }

    #[test]
    fn spec_hash_tracks_every_axis() {
        let base = small_spec();
        let h = base.spec_hash();
        assert_eq!(h, small_spec().spec_hash());
        let mut changed = small_spec();
        changed.trips_c = vec![95.0];
        assert_ne!(changed.spec_hash(), h);
        let mut changed = small_spec();
        changed.seed = 99;
        assert_ne!(changed.spec_hash(), h);
        let mut changed = small_spec();
        changed.grid = 32;
        assert_ne!(changed.spec_hash(), h);
    }

    #[test]
    fn validate_rejects_empty_required_axes() {
        let mut spec = small_spec();
        spec.schemes.clear();
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.f_ghz.clear();
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.sample = Some(0);
        assert!(spec.validate().is_err());
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn stack_key_ignores_workload_axes() {
        let tasks = small_spec().tasks();
        // tasks 0 and 1 share geometry (die 50um) but differ in workload;
        // task 2 is the 100um die.
        assert_eq!(tasks[0].stack_key(), tasks[1].stack_key());
        assert_ne!(tasks[0].stack_key(), tasks[2].stack_key());
    }

    #[test]
    fn system_config_applies_um_overrides() {
        let t = TaskSpec {
            id: 0,
            scheme: XylemScheme::BankEnhanced,
            benchmark: Benchmark::Cholesky,
            f_ghz: 2.4,
            die_thickness_um: Some(50.0),
            pillar_footprint_um: Some(250.0),
            d2d_thickness_um: Some(10.0),
            n_dram_dies: Some(8),
            trip_c: None,
        };
        let c = t.system_config(16, None);
        assert!((c.stack.die_thickness - 50.0e-6).abs() < 1e-12);
        assert!((c.stack.pillar_footprint - 250.0e-6).abs() < 1e-12);
        assert!((c.stack.d2d_thickness - 10.0e-6).abs() < 1e-12);
        assert_eq!(c.stack.n_dram_dies, 8);
        assert!(c.cache_dir.is_none());
    }
}

//! Per-block unit thermal responses (discrete Green's functions).
//!
//! The RC network is linear, so the temperature field is an affine
//! function of block powers:
//!
//! ```text
//! T(cell) = T_ambient_field(cell) + sum_b P_b * R_b(cell)
//! ```
//!
//! [`ThermalResponse::compute`] solves one steady-state problem per power
//! source (81 processor blocks + one uniform source per DRAM die) and
//! stores the responses at the two sensor layers the experiments read:
//! the processor metal layer and the bottom-most DRAM metal layer. Every
//! subsequent evaluation is then a dense dot product instead of a solve —
//! this is what makes sweeping 17 applications x 5 schemes x 12
//! frequencies practical.
//!
//! Responses are cached on disk (JSON under a caller-supplied directory)
//! keyed by a hash of the full stack configuration.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use xylem_stack::builder::BuiltStack;
use xylem_thermal::error::ThermalError;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::units::{Celsius, Watts};

use crate::durable::write_atomic;
use crate::Result;

/// Sensor-layer responses to unit power in each source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalResponse {
    grid_nx: usize,
    grid_ny: usize,
    ambient_c: f64,
    /// Processor-block names, in source order.
    proc_blocks: Vec<String>,
    /// `proc_response[source][cell]`: K/W at the processor metal layer.
    /// Sources: processor blocks first, then one per DRAM die (top
    /// first).
    proc_response: Vec<Vec<f64>>,
    /// Same sources, sensed at the bottom DRAM metal layer.
    dram_response: Vec<Vec<f64>>,
    /// Number of DRAM-die sources.
    n_dram_dies: usize,
    /// Cells of each core's 9 blocks at the processor metal layer
    /// (core id 1..=8 -> index 0..8).
    core_cells: Vec<Vec<usize>>,
}

impl ThermalResponse {
    /// Solves the unit problems for `built` on `grid`.
    ///
    /// # Errors
    ///
    /// Propagates discretization/solver errors.
    pub fn compute(built: &BuiltStack, grid: GridSpec) -> Result<Self> {
        let model = built.stack().discretize(grid)?;
        let pm_layer = built.proc_metal_layer();
        let bd_layer = built.bottom_dram_metal_layer();

        let proc_blocks: Vec<String> = model.block_names(pm_layer).to_vec();
        let n_dram = built.dram_metal_layers().len();

        let mut proc_response = Vec::with_capacity(proc_blocks.len() + n_dram);
        let mut dram_response = Vec::with_capacity(proc_blocks.len() + n_dram);

        // Ambient field: zero power everywhere -> everything at ambient.
        // (The affine term is just the ambient constant for this package.)
        let ambient_c = model.ambient().get();
        let unit = Watts::new(1.0);

        // One workspace for all ~91 unit solves, each warm-started from
        // the previous source's field: neighbouring blocks produce
        // similar unit responses, so the chain converges in a fraction
        // of the cold per-solve iteration count.
        let mut ws = xylem_thermal::SolverWorkspace::new();
        let mut prev: Option<xylem_thermal::TemperatureField> = None;
        for block in &proc_blocks {
            let mut p = PowerMap::zeros(&model);
            p.add_block_power(&model, pm_layer, block, unit)?;
            let t = model.steady_state_from(&p, prev.as_ref(), &mut ws)?;
            proc_response.push(
                t.layer_slice(pm_layer)
                    .iter()
                    .map(|x| x - ambient_c)
                    .collect(),
            );
            dram_response.push(
                t.layer_slice(bd_layer)
                    .iter()
                    .map(|x| x - ambient_c)
                    .collect(),
            );
            prev = Some(t);
        }
        for &die_layer in built.dram_metal_layers() {
            let mut p = PowerMap::zeros(&model);
            p.add_uniform_layer_power(die_layer, unit);
            let t = model.steady_state_from(&p, prev.as_ref(), &mut ws)?;
            proc_response.push(
                t.layer_slice(pm_layer)
                    .iter()
                    .map(|x| x - ambient_c)
                    .collect(),
            );
            dram_response.push(
                t.layer_slice(bd_layer)
                    .iter()
                    .map(|x| x - ambient_c)
                    .collect(),
            );
            prev = Some(t);
        }

        // Core cell sets for per-core hotspot queries.
        let mut core_cells = Vec::with_capacity(8);
        for core in 1..=8usize {
            let mut cells = Vec::new();
            for sub in xylem_stack::proc_die::CORE_BLOCKS {
                let name = xylem_stack::proc_die::ProcDieGeometry::core_block_name(core, sub);
                if let Ok(w) = model.block_weights(pm_layer, &name) {
                    cells.extend(w.iter().map(|&(c, _)| c));
                }
            }
            cells.sort_unstable();
            cells.dedup();
            core_cells.push(cells);
        }

        Ok(ThermalResponse {
            grid_nx: grid.nx(),
            grid_ny: grid.ny(),
            ambient_c,
            proc_blocks,
            proc_response,
            dram_response,
            n_dram_dies: n_dram,
            core_cells,
        })
    }

    /// Loads a cached response for `built`+`grid` from `cache_dir`, or
    /// computes and stores it. Pass a directory like
    /// `target/xylem-cache`; it is created if missing. The file is
    /// written with [`write_atomic`], so a crash mid-write leaves the
    /// previous file (or none), never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates computation errors. Cache I/O failures fall back to
    /// recomputation (and are reported only if recomputation also fails).
    pub fn load_or_compute(
        cache_dir: impl AsRef<Path>,
        built: &BuiltStack,
        grid: GridSpec,
    ) -> Result<Self> {
        let path = Self::cache_path(cache_dir.as_ref(), built, grid);
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(r) = serde_json::from_slice::<ThermalResponse>(&bytes) {
                if r.grid_nx == grid.nx() && r.grid_ny == grid.ny() {
                    return Ok(r);
                }
            }
        }
        let r = Self::compute(built, grid)?;
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Ok(bytes) = serde_json::to_vec(&r) {
            let _ = write_atomic(&path, &bytes, true);
        }
        Ok(r)
    }

    /// Bump when solver numerics or derived geometry (anything not
    /// captured by the config serialization, e.g. scheme site-placement
    /// logic) change, so stale caches are never served.
    // v4: the geometric multigrid preconditions every grid (below
    // 32x32 it replaced an algebraic one) — numerically equivalent
    // within tolerance, but not bit-identical to v3 fields there.
    const CACHE_VERSION: u32 = 4;

    /// The cache file for `built` + `grid`: FNV-1a over an explicit
    /// little-endian encoding of the cache version, the full
    /// configuration (geometry, scheme, package) as JSON, the *derived*
    /// TTSV site list as JSON (placement logic lives outside the
    /// config), and the grid — so the name is stable across Rust
    /// releases and platforms, unlike `std`'s `DefaultHasher`. The two
    /// JSON strings are length-prefixed so no split of bytes between
    /// them can collide.
    fn cache_path(dir: &Path, built: &BuiltStack, grid: GridSpec) -> PathBuf {
        let cfg = serde_json::to_string(built.config()).unwrap_or_default();
        let sites = serde_json::to_string(built.sites()).unwrap_or_default();
        let mut key = Vec::new();
        key.extend_from_slice(&Self::CACHE_VERSION.to_le_bytes());
        for text in [&cfg, &sites] {
            key.extend_from_slice(&(text.len() as u64).to_le_bytes());
            key.extend_from_slice(text.as_bytes());
        }
        key.extend_from_slice(&(grid.nx() as u64).to_le_bytes());
        key.extend_from_slice(&(grid.ny() as u64).to_le_bytes());
        dir.join(format!("response-{:016x}.json", xylem_obs::fnv1a(&key)))
    }

    /// Whether two responses have identical processor-side unit
    /// responses (used by cache tests).
    pub fn proc_response_eq(&self, other: &ThermalResponse) -> bool {
        self.proc_response == other.proc_response
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient_c)
    }

    /// The processor-block source names.
    pub fn proc_blocks(&self) -> &[String] {
        &self.proc_blocks
    }

    /// Number of DRAM-die sources.
    pub fn n_dram_dies(&self) -> usize {
        self.n_dram_dies
    }

    /// Index of a processor block source.
    pub fn proc_block_index(&self, name: &str) -> Option<usize> {
        self.proc_blocks.iter().position(|b| b == name)
    }

    /// Temperature fields at the two sensor layers for the given powers:
    /// `(processor metal cells, bottom DRAM metal cells)`, deg C.
    ///
    /// `proc_powers[i]` matches [`ThermalResponse::proc_blocks`]`[i]`;
    /// `dram_powers[d]` is the total power of DRAM die `d` (top first).
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerMapMismatch`] if the vectors have the wrong
    /// lengths.
    pub fn temperatures(
        &self,
        proc_powers: &[f64],
        dram_powers: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        if proc_powers.len() != self.proc_blocks.len() || dram_powers.len() != self.n_dram_dies {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: proc_powers.len() + dram_powers.len(),
                model_nodes: self.proc_blocks.len() + self.n_dram_dies,
            }
            .into());
        }
        let cells = self.grid_nx * self.grid_ny;
        let mut proc = vec![self.ambient_c; cells];
        let mut dram = vec![self.ambient_c; cells];
        for (s, &p) in proc_powers.iter().chain(dram_powers.iter()).enumerate() {
            if p == 0.0 {
                continue;
            }
            let rp = &self.proc_response[s];
            let rd = &self.dram_response[s];
            for c in 0..cells {
                proc[c] += p * rp[c];
                dram[c] += p * rd[c];
            }
        }
        Ok((proc, dram))
    }

    /// Maximum of a cell field.
    pub fn hotspot(field: &[f64]) -> f64 {
        field.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Maximum temperature over core `id`'s cells (1..=8).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=8`.
    pub fn core_hotspot(&self, proc_field: &[f64], id: usize) -> f64 {
        assert!((1..=8).contains(&id), "core {id} out of range");
        self.core_cells[id - 1]
            .iter()
            .map(|&c| proc_field[c])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_stack::{StackConfig, XylemScheme};

    fn small_response(scheme: XylemScheme) -> ThermalResponse {
        let built = StackConfig::paper_default(scheme).build().unwrap();
        ThermalResponse::compute(&built, GridSpec::new(16, 16)).unwrap()
    }

    #[test]
    fn source_count_is_blocks_plus_dies() {
        let r = small_response(XylemScheme::Base);
        assert_eq!(r.proc_blocks().len(), 83);
        assert_eq!(r.n_dram_dies(), 8);
        assert_eq!(r.proc_response.len(), 91);
    }

    #[test]
    fn superposition_matches_direct_solve() {
        let built = StackConfig::paper_default(XylemScheme::BankSurround)
            .build()
            .unwrap();
        let grid = GridSpec::new(16, 16);
        let r = ThermalResponse::compute(&built, grid).unwrap();

        // Direct solve with a mixed power map.
        let model = built.stack().discretize(grid).unwrap();
        let pm = built.proc_metal_layer();
        let mut p = PowerMap::zeros(&model);
        p.add_block_power(&model, pm, "core1_fpu", Watts::new(2.0))
            .unwrap();
        p.add_block_power(&model, pm, "llc_top", Watts::new(1.5))
            .unwrap();
        p.add_uniform_layer_power(built.dram_metal_layers()[7], Watts::new(0.4));
        let direct = model.steady_state(&p).unwrap();

        // Superposed.
        let mut proc_powers = vec![0.0; r.proc_blocks().len()];
        proc_powers[r.proc_block_index("core1_fpu").unwrap()] = 2.0;
        proc_powers[r.proc_block_index("llc_top").unwrap()] = 1.5;
        let mut dram_powers = vec![0.0; 8];
        dram_powers[7] = 0.4;
        let (proc, dram) = r.temperatures(&proc_powers, &dram_powers).unwrap();

        let direct_proc = direct.layer_slice(pm);
        for c in 0..proc.len() {
            assert!(
                (proc[c] - direct_proc[c]).abs() < 1e-4,
                "cell {c}: {} vs {}",
                proc[c],
                direct_proc[c]
            );
        }
        let direct_dram = direct.layer_slice(built.bottom_dram_metal_layer());
        for c in 0..dram.len() {
            assert!((dram[c] - direct_dram[c]).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_power_is_ambient() {
        let r = small_response(XylemScheme::Base);
        let (proc, dram) = r.temperatures(&vec![0.0; 83], &vec![0.0; 8]).unwrap();
        assert!(proc.iter().all(|&t| (t - r.ambient().get()).abs() < 1e-12));
        assert!(dram.iter().all(|&t| (t - r.ambient().get()).abs() < 1e-12));
    }

    #[test]
    fn core_hotspot_tracks_its_own_power() {
        let r = small_response(XylemScheme::Base);
        let mut proc_powers = vec![0.0; 83];
        proc_powers[r.proc_block_index("core5_fpu").unwrap()] = 3.0;
        let (proc, _) = r.temperatures(&proc_powers, &vec![0.0; 8]).unwrap();
        let hot5 = r.core_hotspot(&proc, 5);
        let hot4 = r.core_hotspot(&proc, 4); // diagonal corner
        assert!(hot5 > hot4 + 1.0, "{hot5} vs {hot4}");
        assert!((ThermalResponse::hotspot(&proc) - hot5).abs() < 1e-9);
    }

    #[test]
    fn wrong_power_vector_length_rejected() {
        let r = small_response(XylemScheme::Base);
        assert!(r.temperatures(&vec![0.0; 3], &vec![0.0; 8]).is_err());
        assert!(r.temperatures(&vec![0.0; 83], &vec![0.0; 2]).is_err());
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dir = std::env::temp_dir().join("xylem-response-test");
        let _ = std::fs::remove_dir_all(&dir);
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let grid = GridSpec::new(8, 8);
        let a = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        let b = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        assert_eq!(a.proc_response, b.proc_response);
        // A different scheme hashes to a different file.
        let built2 = StackConfig::paper_default(XylemScheme::BankEnhanced)
            .build()
            .unwrap();
        let c = ThermalResponse::load_or_compute(&dir, &built2, grid).unwrap();
        assert_ne!(a.proc_response, c.proc_response);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2);
    }

    #[test]
    fn cache_file_name_is_pinned() {
        // The key is FNV-1a over a fixed byte encoding, so the name of a
        // given config's cache file never changes with the toolchain.
        // Changing the config serialization, the site placement or
        // CACHE_VERSION moves it (and must update this pin).
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let path = ThermalResponse::cache_path(Path::new("cache"), &built, GridSpec::new(8, 8));
        assert_eq!(
            path,
            Path::new("cache").join("response-c007acc1d04a0c73.json")
        );
    }

    #[test]
    fn cache_key_separates_grid_shapes() {
        // nx and ny are encoded separately, so transposed grids (same
        // cell count) must not share a file.
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let names: Vec<PathBuf> = [(8, 8), (8, 16), (16, 8), (16, 16)]
            .iter()
            .map(|&(nx, ny)| {
                ThermalResponse::cache_path(Path::new("c"), &built, GridSpec::new(nx, ny))
            })
            .collect();
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                assert_ne!(names[i], names[j]);
            }
        }
    }

    #[test]
    fn cache_file_name_does_not_depend_on_the_directory() {
        let built = StackConfig::paper_default(XylemScheme::BankSurround)
            .build()
            .unwrap();
        let grid = GridSpec::new(8, 8);
        let a = ThermalResponse::cache_path(Path::new("a"), &built, grid);
        let b = ThermalResponse::cache_path(Path::new("x/y"), &built, grid);
        assert_eq!(a.file_name(), b.file_name());
        assert_eq!(a.parent(), Some(Path::new("a")));
    }

    #[test]
    fn corrupt_cache_file_is_recomputed_and_replaced() {
        let dir =
            std::env::temp_dir().join(format!("xylem-response-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let grid = GridSpec::new(8, 8);
        let path = ThermalResponse::cache_path(&dir, &built, grid);
        std::fs::write(&path, b"{ not json").unwrap();
        let r = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        let fresh = ThermalResponse::compute(&built, grid).unwrap();
        assert!(r.proc_response_eq(&fresh));
        let stored: ThermalResponse =
            serde_json::from_slice(&std::fs::read(&path).unwrap()).expect("rewritten");
        assert!(stored.proc_response_eq(&fresh));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_response_for_another_grid_is_not_served() {
        // A file whose stored grid disagrees with the request (e.g. a
        // hash collision) must be recomputed, not returned.
        let dir = std::env::temp_dir().join(format!("xylem-response-grid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let wrong = ThermalResponse::compute(&built, GridSpec::new(4, 4)).unwrap();
        let grid = GridSpec::new(8, 4);
        let path = ThermalResponse::cache_path(&dir, &built, grid);
        std::fs::write(&path, serde_json::to_vec(&wrong).unwrap()).unwrap();
        let r = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        assert_eq!((r.grid_nx, r.grid_ny), (8, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_block_has_no_index() {
        let r = small_response(XylemScheme::Base);
        assert_eq!(r.proc_block_index("no_such_block"), None);
        let first = r.proc_blocks()[0].clone();
        assert_eq!(r.proc_block_index(&first), Some(0));
    }

    #[test]
    fn hotspot_of_an_empty_field_is_negative_infinity() {
        assert_eq!(ThermalResponse::hotspot(&[]), f64::NEG_INFINITY);
        assert_eq!(ThermalResponse::hotspot(&[1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "core 0 out of range")]
    fn core_hotspot_rejects_core_zero() {
        let r = small_response(XylemScheme::Base);
        let field = vec![r.ambient().get(); 16 * 16];
        let _ = r.core_hotspot(&field, 0);
    }
}

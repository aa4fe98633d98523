//! [`XylemSystem`]: the full evaluation chain for one stack.
//!
//! `workload -> archsim metrics -> block powers (+ DRAM power) -> thermal
//! field`, with a short fixed-point loop because leakage depends on
//! temperature. Thermal fields come from the cached unit responses of
//! [`crate::response`], so an evaluation costs microseconds after the
//! one-time per-scheme solve.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use xylem_archsim::{AppMetrics, Machine};
use xylem_dram::DramEnergyModel;
use xylem_power::{CoreActivity, ProcessorPowerModel, UncoreActivity};
use xylem_stack::builder::{BuiltStack, StackConfig};
use xylem_stack::XylemScheme;
use xylem_thermal::error::ThermalError;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::model::ThermalModel;
use xylem_thermal::power::PowerMap;
use xylem_thermal::units::{Celsius, Watts};
use xylem_workloads::Benchmark;

use crate::evaluation::{Evaluation, WorkloadResult};
use crate::placement::ThreadPlacement;
use crate::response::ThermalResponse;
use crate::Result;

/// DRAM temperature behind the refresh and leakage terms of every grid
/// power map (the paper's T_dram,max operating corner).
const DRAM_TEMP_ESTIMATE_C: f64 = 85.0;

/// One application instance inside a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// The application.
    pub benchmark: Benchmark,
    /// Where its threads run.
    pub placement: ThreadPlacement,
    /// Core frequency for this instance's cores, GHz.
    pub f_ghz: f64,
}

/// A run: one or more application instances on disjoint cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// The instances.
    pub instances: Vec<Instance>,
    /// Uncore (LLC/bus/MC) frequency, GHz.
    pub uncore_f_ghz: f64,
}

impl RunSpec {
    /// The standard 8-thread run: one application on all cores at `f_ghz`.
    pub fn uniform(benchmark: Benchmark, f_ghz: f64) -> Self {
        RunSpec {
            instances: vec![Instance {
                benchmark,
                placement: ThreadPlacement::all_eight(),
                f_ghz,
            }],
            uncore_f_ghz: f_ghz,
        }
    }

    /// Checks that instances occupy disjoint cores.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadStack`] describing the conflict.
    pub fn validate(&self) -> Result<()> {
        let mut used = [false; 9];
        for inst in &self.instances {
            for &c in inst.placement.cores() {
                if used[c] {
                    return Err(ThermalError::BadStack {
                        reason: format!("core {c} assigned to two instances"),
                    }
                    .into());
                }
                used[c] = true;
            }
        }
        Ok(())
    }
}

/// Configuration of a [`XylemSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The stack (scheme, dies, geometry, package).
    pub stack: StackConfig,
    /// Thermal grid resolution (the experiments use 64x64; tests use
    /// smaller grids).
    pub grid: GridSpec,
    /// Directory for the unit-response disk cache (`None` disables
    /// caching).
    pub cache_dir: Option<PathBuf>,
    /// Leakage/temperature fixed-point iterations.
    pub leakage_iterations: usize,
}

impl SystemConfig {
    /// The paper's evaluation configuration for `scheme` at 64x64.
    pub fn paper_default(scheme: XylemScheme) -> Self {
        SystemConfig {
            stack: StackConfig::paper_default(scheme),
            grid: GridSpec::new(64, 64),
            cache_dir: Some(default_cache_dir()),
            leakage_iterations: 2,
        }
    }

    /// Same, at a reduced grid (for tests and quick runs).
    pub fn fast(scheme: XylemScheme) -> Self {
        SystemConfig {
            grid: GridSpec::new(16, 16),
            ..SystemConfig::paper_default(scheme)
        }
    }
}

/// Default on-disk location for unit-response caches: the
/// `XYLEM_CACHE_DIR` environment variable, or `xylem-response-cache`
/// under the system temp directory.
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("XYLEM_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("xylem-response-cache"))
}

/// The assembled system: stack + models + cached thermal responses.
#[derive(Debug)]
pub struct XylemSystem {
    config: SystemConfig,
    built: BuiltStack,
    response: ThermalResponse,
    machine: Machine,
    power: ProcessorPowerModel,
    dram_energy: DramEnergyModel,
}

impl XylemSystem {
    /// Builds the stack and computes (or loads) its unit responses.
    ///
    /// # Errors
    ///
    /// Propagates stack construction and solver errors.
    pub fn new(config: SystemConfig) -> Result<Self> {
        let built = config.stack.build()?;
        let response = match &config.cache_dir {
            Some(dir) => ThermalResponse::load_or_compute(dir, &built, config.grid)?,
            None => ThermalResponse::compute(&built, config.grid)?,
        };
        Ok(XylemSystem {
            config,
            built,
            response,
            machine: Machine::paper_default(),
            power: ProcessorPowerModel::paper_default(),
            dram_energy: DramEnergyModel::paper_default(),
        })
    }

    /// The stack configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The built stack (geometry + metadata).
    pub fn built(&self) -> &BuiltStack {
        &self.built
    }

    /// The TTSV scheme.
    pub fn scheme(&self) -> XylemScheme {
        self.config.stack.scheme
    }

    /// The performance model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The processor power model.
    pub fn power_model(&self) -> &ProcessorPowerModel {
        &self.power
    }

    /// A power map on `model` for a transient or direct solve: the block
    /// powers of `cores` and `uncore` with leakage at `leakage`, on the
    /// processor metal layer, plus the DRAM die power of `dram_rates`
    /// (stack-wide read, write and activate commands per second) spread
    /// uniformly over every DRAM metal layer. Each caller picks its own
    /// leakage estimate; the DRAM sits at 85 C.
    ///
    /// # Errors
    ///
    /// Propagates floorplan errors (a power block missing from `model`).
    pub fn power_map(
        &self,
        model: &ThermalModel,
        cores: &[CoreActivity],
        uncore: &UncoreActivity,
        dram_rates: [f64; 3],
        leakage: Celsius,
    ) -> Result<PowerMap> {
        let pm_layer = self.built.proc_metal_layer();
        let mut map = PowerMap::zeros(model);
        for (name, w) in &self.power.block_powers(cores, uncore, leakage) {
            map.add_block_power(model, pm_layer, name, *w)?;
        }
        let dram_layers = self.built.dram_metal_layers();
        let [read, write, activate] = dram_rates;
        let die_w = self.dram_energy.die_power(
            read,
            write,
            activate,
            DRAM_TEMP_ESTIMATE_C,
            dram_layers.len(),
        );
        for &l in dram_layers {
            map.add_uniform_layer_power(l, Watts::new(die_w));
        }
        Ok(map)
    }

    /// [`Self::power_map`] for the threads of `metrics` on `cores` (ids
    /// 1-8; the other cores idle at the same operating point), with
    /// `uncore_share` of their uncore demand and all of their DRAM
    /// traffic.
    ///
    /// # Errors
    ///
    /// As [`Self::power_map`].
    pub fn metrics_power_map(
        &self,
        model: &ThermalModel,
        metrics: &AppMetrics,
        cores: &[usize],
        uncore_share: f64,
        leakage: Celsius,
    ) -> Result<PowerMap> {
        let point = self.power.dvfs().point_at(metrics.f_ghz);
        let mut activities = [CoreActivity::idle(point); 8];
        for &c in cores {
            activities[c - 1] = CoreActivity {
                activity: metrics.activity,
                memory_intensity: metrics.memory_intensity,
                point,
            };
        }
        let uncore = UncoreActivity {
            llc: metrics.llc_activity * uncore_share,
            mc: metrics.mc_utilization.map(|u| u * uncore_share),
            noc: metrics.noc_activity * uncore_share,
            point,
        };
        let dram_rates = [
            metrics.dram_read_rate,
            metrics.dram_write_rate,
            metrics.dram_activate_rate,
        ];
        self.power_map(model, &activities, &uncore, dram_rates, leakage)
    }

    /// Evaluates the standard 8-thread run of `benchmark` at `f_ghz`.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate_uniform(&mut self, benchmark: Benchmark, f_ghz: f64) -> Result<Evaluation> {
        self.evaluate(&RunSpec::uniform(benchmark, f_ghz))
    }

    /// Evaluates an arbitrary run.
    ///
    /// # Errors
    ///
    /// Propagates model errors; rejects overlapping placements.
    pub fn evaluate(&mut self, run: &RunSpec) -> Result<Evaluation> {
        run.validate()?;
        let dvfs = self.power.dvfs().clone();
        let uncore_point = dvfs.point_at(run.uncore_f_ghz);

        // Performance metrics per instance (independent of temperature).
        let per_instance: Vec<AppMetrics> = run
            .instances
            .iter()
            .map(|inst| {
                self.machine
                    .run(inst.benchmark, inst.f_ghz, inst.placement.len())
            })
            .collect();

        // Leakage <-> temperature fixed point.
        let mut t_proc = 85.0;
        let mut t_dram = 80.0;
        let mut proc_field = Vec::new();
        let mut dram_field = Vec::new();
        let mut proc_power_w = 0.0;
        let mut dram_power_w = 0.0;
        let iters = self.config.leakage_iterations.max(1);
        for _ in 0..iters {
            // Per-core inputs.
            let mut cores = vec![CoreActivity::idle(uncore_point); 8];
            for (inst, metrics) in run.instances.iter().zip(&per_instance) {
                let point = dvfs.point_at(inst.f_ghz);
                for &c in inst.placement.cores() {
                    cores[c - 1] = CoreActivity {
                        activity: metrics.activity,
                        memory_intensity: metrics.memory_intensity,
                        point,
                    };
                }
            }
            // Uncore inputs: sum of instance demands, clamped.
            let mut llc = 0.0;
            let mut mc = [0.0; 4];
            let mut noc = 0.0;
            for m in &per_instance {
                llc += m.llc_activity * m.threads as f64 / 8.0;
                for (acc, &u) in mc.iter_mut().zip(&m.mc_utilization) {
                    *acc += u;
                }
                noc += m.noc_activity;
            }
            let uncore = UncoreActivity {
                llc: llc.min(1.0),
                mc: mc.map(|u| u.min(1.0)),
                noc: noc.min(1.0),
                point: uncore_point,
            };

            let blocks = self
                .power
                .block_powers(&cores, &uncore, Celsius::new(t_proc));
            let mut proc_powers = vec![0.0; self.response.proc_blocks().len()];
            proc_power_w = 0.0;
            for (name, w) in &blocks {
                let idx = self.response.proc_block_index(name).ok_or_else(|| {
                    ThermalError::BadFloorplan {
                        reason: format!("power block '{name}' not in floorplan"),
                    }
                })?;
                proc_powers[idx] += w.get();
                proc_power_w += w.get();
            }

            // DRAM power per die from summed command rates.
            let n_dies = self.response.n_dram_dies();
            let (mut rd, mut wr, mut act) = (0.0, 0.0, 0.0);
            for m in &per_instance {
                rd += m.dram_read_rate;
                wr += m.dram_write_rate;
                act += m.dram_activate_rate;
            }
            let die_w = self.dram_energy.die_power(rd, wr, act, t_dram, n_dies);
            let dram_powers = vec![die_w; n_dies];
            dram_power_w = die_w * n_dies as f64;

            let (pf, df) = self.response.temperatures(&proc_powers, &dram_powers)?;
            t_proc = ThermalResponse::hotspot(&pf);
            t_dram = ThermalResponse::hotspot(&df);
            proc_field = pf;
            dram_field = df;
        }

        let mut core_hotspot_c = [0.0; 8];
        for id in 1..=8 {
            core_hotspot_c[id - 1] = self.response.core_hotspot(&proc_field, id);
        }

        Ok(Evaluation {
            proc_hotspot_c: ThermalResponse::hotspot(&proc_field),
            core_hotspot_c,
            dram_hotspot_c: ThermalResponse::hotspot(&dram_field),
            proc_power_w,
            dram_power_w,
            total_power_w: proc_power_w + dram_power_w,
            workloads: run
                .instances
                .iter()
                .zip(per_instance)
                .map(|(inst, metrics)| WorkloadResult {
                    benchmark: inst.benchmark,
                    cores: inst.placement.cores().to_vec(),
                    f_ghz: inst.f_ghz,
                    metrics,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(scheme: XylemScheme) -> XylemSystem {
        let mut cfg = SystemConfig::fast(scheme);
        cfg.cache_dir = Some(std::env::temp_dir().join("xylem-system-test-cache"));
        XylemSystem::new(cfg).unwrap()
    }

    #[test]
    fn uniform_run_is_physically_sane() {
        let mut s = system(XylemScheme::Base);
        let e = s.evaluate_uniform(Benchmark::Cholesky, 2.4).unwrap();
        assert!(
            e.proc_hotspot_c > 60.0 && e.proc_hotspot_c < 130.0,
            "{}",
            e.proc_hotspot_c
        );
        assert!(e.dram_hotspot_c < e.proc_hotspot_c);
        assert!((8.0..30.0).contains(&e.proc_power_w), "{}", e.proc_power_w);
        assert!((1.0..6.0).contains(&e.dram_power_w), "{}", e.dram_power_w);
        assert_eq!(e.workloads.len(), 1);
    }

    #[test]
    fn higher_frequency_is_hotter_and_faster() {
        let mut s = system(XylemScheme::Base);
        let a = s.evaluate_uniform(Benchmark::Fft, 2.4).unwrap();
        let b = s.evaluate_uniform(Benchmark::Fft, 3.2).unwrap();
        assert!(b.proc_hotspot_c > a.proc_hotspot_c + 3.0);
        assert!(b.exec_time_s() < a.exec_time_s());
        assert!(b.total_power_w > a.total_power_w);
    }

    #[test]
    fn banke_is_cooler_than_base() {
        let mut base = system(XylemScheme::Base);
        let mut banke = system(XylemScheme::BankEnhanced);
        let eb = base.evaluate_uniform(Benchmark::Barnes, 2.4).unwrap();
        let ee = banke.evaluate_uniform(Benchmark::Barnes, 2.4).unwrap();
        assert!(
            ee.proc_hotspot_c < eb.proc_hotspot_c - 1.0,
            "banke {} vs base {}",
            ee.proc_hotspot_c,
            eb.proc_hotspot_c
        );
    }

    #[test]
    fn compute_bound_hotter_than_memory_bound() {
        let mut s = system(XylemScheme::Base);
        let hot = s.evaluate_uniform(Benchmark::LuNas, 2.4).unwrap();
        let cool = s.evaluate_uniform(Benchmark::Is, 2.4).unwrap();
        assert!(hot.proc_hotspot_c > cool.proc_hotspot_c + 5.0);
        assert!(hot.proc_power_w > cool.proc_power_w + 5.0);
    }

    #[test]
    fn overlapping_instances_rejected() {
        let mut s = system(XylemScheme::Base);
        let run = RunSpec {
            instances: vec![
                Instance {
                    benchmark: Benchmark::Fft,
                    placement: ThreadPlacement::inner(),
                    f_ghz: 2.4,
                },
                Instance {
                    benchmark: Benchmark::Is,
                    placement: ThreadPlacement::new(vec![2, 5]),
                    f_ghz: 2.4,
                },
            ],
            uncore_f_ghz: 2.4,
        };
        assert!(s.evaluate(&run).is_err());
    }

    #[test]
    fn mixed_run_reports_both_workloads() {
        let mut s = system(XylemScheme::Base);
        let run = RunSpec {
            instances: vec![
                Instance {
                    benchmark: Benchmark::LuNas,
                    placement: ThreadPlacement::inner(),
                    f_ghz: 2.4,
                },
                Instance {
                    benchmark: Benchmark::Is,
                    placement: ThreadPlacement::outer(),
                    f_ghz: 2.4,
                },
            ],
            uncore_f_ghz: 2.4,
        };
        let e = s.evaluate(&run).unwrap();
        assert_eq!(e.workloads.len(), 2);
        // Idle-free: all 8 cores busy; inner cores run the hot code.
        assert!(e.core_hotspot_c[1] > e.core_hotspot_c[0] - 10.0);
    }

    #[test]
    fn partial_occupancy_cooler_than_full() {
        let mut s = system(XylemScheme::Base);
        let four = RunSpec {
            instances: vec![Instance {
                benchmark: Benchmark::Cholesky,
                placement: ThreadPlacement::inner(),
                f_ghz: 2.4,
            }],
            uncore_f_ghz: 2.4,
        };
        let e4 = s.evaluate(&four).unwrap();
        let e8 = s.evaluate_uniform(Benchmark::Cholesky, 2.4).unwrap();
        assert!(e4.proc_hotspot_c < e8.proc_hotspot_c);
    }
}

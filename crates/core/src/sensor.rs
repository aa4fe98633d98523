//! On-die thermal sensors for the DTM loop.
//!
//! The seed controller read a perfect, instantaneous hotspot
//! temperature. Real DTM loops (Sec. 2, Fig. 7) see the die through a
//! handful of discrete sensors with quantization, noise, readout
//! latency, and — on a long enough run — hardware faults. This module
//! models that path: each control step every sensor samples its grid
//! cell, the reading is noised, quantized, possibly corrupted by an
//! injected fault, and delivered `latency_steps` periods later. The
//! controller then fuses the delayed frame with a plausibility filter
//! and falls back to full throttle when no sensor can be trusted
//! (see [`SensorArray::fuse`]).
//!
//! Noise is **counter-based** (a splitmix64 hash of seed, step, and
//! sensor index) rather than drawn from a stateful RNG, so replaying a
//! step — e.g. after a checkpoint resume — reproduces the identical
//! reading without any generator state in the checkpoint.

use serde::{Deserialize, Serialize};

use xylem_obs::hash::splitmix64;
use xylem_thermal::temperature::TemperatureField;
use xylem_thermal::units::Celsius;

use crate::error::ConfigError;

/// Margin below ambient still accepted by the plausibility filter: a
/// die cannot cool below ambient, but noise and quantization may dip a
/// healthy reading slightly under it.
const PLAUSIBLE_BELOW_AMBIENT_C: f64 = 10.0;

/// Default ceiling of the plausibility window, deg C — far above any
/// survivable junction temperature, so only a faulted sensor trips it.
const DEFAULT_PLAUSIBLE_MAX_C: f64 = 150.0;

/// One sensor location: a cell of the monitored user layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensorSite {
    /// Cell x index.
    pub ix: usize,
    /// Cell y index.
    pub iy: usize,
}

/// What an injected fault does to the reading of its sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sensor reports `value_c` regardless of the die temperature.
    StuckAt,
    /// The sensor produces no reading at all.
    Dropout,
    /// `value_c` is added on top of the true reading.
    Spike,
}

/// A fault injected into one sensor over a step window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorFault {
    /// Index of the faulted sensor in [`SensorModel::sites`].
    pub sensor: usize,
    /// Fault behavior.
    pub kind: FaultKind,
    /// First control step (inclusive) the fault is active.
    pub from_step: usize,
    /// Last control step (exclusive) the fault is active.
    pub to_step: usize,
    /// Fault magnitude, deg C: the stuck reading for
    /// [`FaultKind::StuckAt`], the offset for [`FaultKind::Spike`],
    /// ignored for [`FaultKind::Dropout`].
    pub value_c: f64,
}

impl SensorFault {
    /// Whether this fault corrupts `sensor` at `step`.
    #[must_use]
    pub fn active(&self, sensor: usize, step: usize) -> bool {
        self.sensor == sensor && step >= self.from_step && step < self.to_step
    }
}

/// One delivered sensor reading. `valid == false` means the sensor
/// produced nothing this step (dropout); JSON cannot encode NaN, so
/// absence is a flag rather than a sentinel value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorReading {
    /// Reported temperature, deg C (meaningless when `valid` is false).
    pub value_c: f64,
    /// Whether the sensor delivered a reading.
    pub valid: bool,
}

/// Static description of the sensor array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorModel {
    /// Sensor locations on the monitored layer.
    pub sites: Vec<SensorSite>,
    /// Quantization step, deg C (0 disables; typical on-die sensors
    /// resolve ~0.25 C).
    pub quantization_c: f64,
    /// Standard deviation of the additive noise, deg C (uniform
    /// distribution scaled to this sigma; 0 disables).
    pub noise_sigma_c: f64,
    /// Control periods between sampling and delivery to the controller.
    pub latency_steps: usize,
    /// Seed of the counter-based noise hash.
    pub seed: u64,
    /// Ceiling of the plausibility window, deg C; readings above it are
    /// discarded by the fusion step.
    pub plausible_max_c: f64,
}

impl SensorModel {
    /// A realistic default: a 2x2 array spread over an `nx` by `ny`
    /// grid, 0.25 C quantization, 0.2 C noise, one period of latency.
    #[must_use]
    pub fn default_array(nx: usize, ny: usize, seed: u64) -> Self {
        let qx = nx.max(2) / 2;
        let qy = ny.max(2) / 2;
        let sites = vec![
            SensorSite {
                ix: qx / 2,
                iy: qy / 2,
            },
            SensorSite {
                ix: qx + qx / 2,
                iy: qy / 2,
            },
            SensorSite {
                ix: qx / 2,
                iy: qy + qy / 2,
            },
            SensorSite {
                ix: qx + qx / 2,
                iy: qy + qy / 2,
            },
        ];
        SensorModel {
            sites,
            quantization_c: 0.25,
            noise_sigma_c: 0.2,
            latency_steps: 1,
            seed,
            plausible_max_c: DEFAULT_PLAUSIBLE_MAX_C,
        }
    }

    /// An ideal array: one sensor per given site, no quantization,
    /// noise, or latency — useful to isolate fault effects in tests.
    #[must_use]
    pub fn ideal(sites: Vec<SensorSite>, seed: u64) -> Self {
        SensorModel {
            sites,
            quantization_c: 0.0,
            noise_sigma_c: 0.0,
            latency_steps: 0,
            seed,
            plausible_max_c: DEFAULT_PLAUSIBLE_MAX_C,
        }
    }

    /// Validates the model against a grid of `nx` by `ny` cells.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for an empty array, an out-of-grid site, or a
    /// non-finite/negative quantization, noise, or plausibility bound.
    pub fn validate(&self, nx: usize, ny: usize) -> Result<(), ConfigError> {
        if self.sites.is_empty() {
            return Err(ConfigError::new("sensors", "sensor array is empty"));
        }
        for (i, s) in self.sites.iter().enumerate() {
            if s.ix >= nx || s.iy >= ny {
                return Err(ConfigError::new(
                    "sensors",
                    format!(
                        "sensor {i} at ({}, {}) outside the {nx}x{ny} grid",
                        s.ix, s.iy
                    ),
                ));
            }
        }
        for (what, v) in [
            ("quantization_c", self.quantization_c),
            ("noise_sigma_c", self.noise_sigma_c),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::new(
                    "sensors",
                    format!("{what} = {v} must be finite and non-negative"),
                ));
            }
        }
        if !(self.plausible_max_c.is_finite() && self.plausible_max_c > 0.0) {
            return Err(ConfigError::new(
                "sensors",
                format!(
                    "plausible_max_c = {} must be finite and positive",
                    self.plausible_max_c
                ),
            ));
        }
        Ok(())
    }
}

/// The fused controller input for one step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedReading {
    /// Hotspot estimate, deg C (meaningless when `valid` is false).
    pub value_c: f64,
    /// Whether any sensor passed the plausibility filter.
    pub valid: bool,
    /// Sensors that contributed (delivered and plausible).
    pub used: usize,
}

/// Runtime sensor state: the model plus the per-sensor delay lines.
/// Serializable as-is, so a checkpoint captures the in-flight readings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorArray {
    /// Static description.
    pub model: SensorModel,
    /// Per-sensor delay line, oldest first, holding the `latency_steps`
    /// readings still in flight; [`SensorArray::sample`] pushes the new
    /// reading and delivers the front.
    queues: Vec<Vec<SensorReading>>,
}

/// Uniform in [0, 1) from (seed, step, sensor) — stateless, so any step
/// can be replayed.
fn unit_uniform(seed: u64, step: u64, sensor: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(step ^ splitmix64(sensor ^ 0x5851_F42D_4C95_7F2D)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl SensorArray {
    /// A fresh array with the delay lines primed at `ambient`, the
    /// reading a sensor would report for an unpowered die.
    #[must_use]
    pub fn new(model: SensorModel, ambient: Celsius) -> Self {
        let prime = SensorReading {
            value_c: ambient.get(),
            valid: true,
        };
        let queues = model
            .sites
            .iter()
            .map(|_| vec![prime; model.latency_steps])
            .collect();
        SensorArray { model, queues }
    }

    /// Samples the field at control step `step`, applies noise,
    /// quantization, and any active fault, pushes the result into each
    /// sensor's delay line, and returns the frame the controller sees
    /// (delayed by `latency_steps`).
    pub fn sample(
        &mut self,
        field: &TemperatureField,
        layer: usize,
        step: usize,
        faults: &[SensorFault],
    ) -> Vec<SensorReading> {
        let mut frame = Vec::with_capacity(self.model.sites.len());
        let mut faulted = 0usize;
        for (i, site) in self.model.sites.iter().enumerate() {
            let truth = field.cell(layer, site.ix, site.iy).get();
            let mut reading = SensorReading {
                value_c: truth,
                valid: true,
            };
            if self.model.noise_sigma_c > 0.0 {
                let u = unit_uniform(self.model.seed, step as u64, i as u64);
                // Uniform on [-sqrt(3), sqrt(3)) sigma has std sigma.
                let spread = 2.0 * 3.0_f64.sqrt() * self.model.noise_sigma_c;
                reading.value_c += (u - 0.5) * spread;
            }
            if self.model.quantization_c > 0.0 {
                let q = self.model.quantization_c;
                reading.value_c = (reading.value_c / q).round() * q;
            }
            for fault in faults {
                if fault.active(i, step) {
                    faulted += 1;
                    match fault.kind {
                        FaultKind::StuckAt => reading.value_c = fault.value_c,
                        FaultKind::Dropout => {
                            reading.valid = false;
                            reading.value_c = 0.0;
                        }
                        FaultKind::Spike => reading.value_c += fault.value_c,
                    }
                }
            }
            let queue = &mut self.queues[i];
            queue.push(reading);
            let delivered = queue.remove(0);
            frame.push(delivered);
        }
        xylem_obs::add(xylem_obs::Counter::SensorSamples, frame.len() as u64);
        if faulted > 0 && xylem_obs::enabled() {
            xylem_obs::event("sensor_fault")
                .u64("step", step as u64)
                .u64("active_faults", faulted as u64)
                .emit();
        }
        frame
    }

    /// Fuses a frame into the controller's hotspot estimate: the
    /// maximum over delivered readings inside the plausibility window
    /// `[ambient - 10, plausible_max_c]`. `valid == false` (no sensor
    /// survived the filter) is the fail-safe signal — the controller
    /// must assume the worst and throttle to the floor.
    #[must_use]
    pub fn fuse(&self, frame: &[SensorReading], ambient: Celsius) -> FusedReading {
        let floor = ambient.get() - PLAUSIBLE_BELOW_AMBIENT_C;
        let mut best = f64::NEG_INFINITY;
        let mut used = 0usize;
        for r in frame {
            if r.valid
                && r.value_c.is_finite()
                && r.value_c >= floor
                && r.value_c <= self.model.plausible_max_c
            {
                best = best.max(r.value_c);
                used += 1;
            }
        }
        xylem_obs::add(
            xylem_obs::Counter::SensorRejected,
            (frame.len() - used) as u64,
        );
        if used > 0 {
            xylem_obs::set_gauge(xylem_obs::Gauge::SensorFusedC, best);
        }
        FusedReading {
            value_c: if used > 0 { best } else { 0.0 },
            valid: used > 0,
            used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_thermal::grid::GridSpec;
    use xylem_thermal::layer::Layer;
    use xylem_thermal::material::SILICON;
    use xylem_thermal::model::ThermalModel;
    use xylem_thermal::stack::Stack;

    fn model() -> ThermalModel {
        let die = 8e-3;
        let stack = Stack::builder(die, die)
            .layer(Layer::uniform("a", 100e-6, SILICON.clone()))
            .build()
            .unwrap();
        stack.discretize(GridSpec::new(8, 8)).unwrap()
    }

    fn uniform_field(m: &ThermalModel, t: f64) -> TemperatureField {
        TemperatureField::uniform(m, Celsius::new(t))
    }

    #[test]
    fn ideal_sensors_report_the_truth() {
        let m = model();
        let f = uniform_field(&m, 80.0);
        let sm = SensorModel::ideal(vec![SensorSite { ix: 1, iy: 1 }], 7);
        let mut arr = SensorArray::new(sm, m.ambient());
        let frame = arr.sample(&f, 0, 0, &[]);
        assert_eq!(frame.len(), 1);
        assert!(frame[0].valid);
        assert_eq!(frame[0].value_c, 80.0);
    }

    #[test]
    fn latency_delays_delivery() {
        let m = model();
        let hot = uniform_field(&m, 90.0);
        let mut sm = SensorModel::ideal(vec![SensorSite { ix: 0, iy: 0 }], 7);
        sm.latency_steps = 2;
        let mut arr = SensorArray::new(sm, m.ambient());
        // The first two frames still show the primed ambient value.
        let f0 = arr.sample(&hot, 0, 0, &[]);
        let f1 = arr.sample(&hot, 0, 1, &[]);
        let f2 = arr.sample(&hot, 0, 2, &[]);
        assert_eq!(f0[0].value_c, m.ambient().get());
        assert_eq!(f1[0].value_c, m.ambient().get());
        assert_eq!(f2[0].value_c, 90.0);
    }

    #[test]
    fn noise_is_reproducible_and_bounded() {
        let m = model();
        let f = uniform_field(&m, 70.0);
        let mut sm = SensorModel::ideal(vec![SensorSite { ix: 2, iy: 3 }], 42);
        sm.noise_sigma_c = 0.5;
        let mut a = SensorArray::new(sm.clone(), m.ambient());
        let mut b = SensorArray::new(sm, m.ambient());
        for step in 0..50 {
            let ra = a.sample(&f, 0, step, &[]);
            let rb = b.sample(&f, 0, step, &[]);
            assert_eq!(ra, rb, "counter-based noise must replay exactly");
            assert!((ra[0].value_c - 70.0).abs() < 1.0);
        }
    }

    #[test]
    fn faults_corrupt_only_their_window() {
        let m = model();
        let f = uniform_field(&m, 60.0);
        let sm = SensorModel::ideal(vec![SensorSite { ix: 0, iy: 0 }], 1);
        let mut arr = SensorArray::new(sm, m.ambient());
        let faults = [SensorFault {
            sensor: 0,
            kind: FaultKind::StuckAt,
            from_step: 2,
            to_step: 4,
            value_c: 200.0,
        }];
        let readings: Vec<f64> = (0..6)
            .map(|s| arr.sample(&f, 0, s, &faults)[0].value_c)
            .collect();
        assert_eq!(readings, vec![60.0, 60.0, 200.0, 200.0, 60.0, 60.0]);
    }

    #[test]
    fn fusion_discards_implausible_readings() {
        let m = model();
        let sm = SensorModel::ideal(
            vec![SensorSite { ix: 0, iy: 0 }, SensorSite { ix: 1, iy: 0 }],
            1,
        );
        let arr = SensorArray::new(sm, m.ambient());
        let frame = [
            SensorReading {
                value_c: 85.0,
                valid: true,
            },
            SensorReading {
                value_c: 300.0, // stuck high, above plausible_max_c
                valid: true,
            },
        ];
        let fused = arr.fuse(&frame, m.ambient());
        assert!(fused.valid);
        assert_eq!(fused.used, 1);
        assert_eq!(fused.value_c, 85.0);
    }

    #[test]
    fn fusion_reports_failsafe_when_nothing_is_credible() {
        let m = model();
        let sm = SensorModel::ideal(vec![SensorSite { ix: 0, iy: 0 }], 1);
        let arr = SensorArray::new(sm, m.ambient());
        let frame = [SensorReading {
            value_c: 0.0,
            valid: false,
        }];
        let fused = arr.fuse(&frame, m.ambient());
        assert!(!fused.valid);
        assert_eq!(fused.used, 0);
    }

    #[test]
    fn validate_rejects_bad_models() {
        let ok = SensorModel::default_array(12, 12, 3);
        assert!(ok.validate(12, 12).is_ok());
        let empty = SensorModel::ideal(vec![], 0);
        assert!(empty.validate(12, 12).is_err());
        let outside = SensorModel::ideal(vec![SensorSite { ix: 40, iy: 0 }], 0);
        assert!(outside.validate(12, 12).is_err());
        let mut bad = SensorModel::default_array(12, 12, 3);
        bad.noise_sigma_c = f64::NAN;
        assert!(bad.validate(12, 12).is_err());
    }

    #[test]
    fn sensor_array_round_trips_through_json() {
        let m = model();
        let f = uniform_field(&m, 75.0);
        let mut sm = SensorModel::default_array(8, 8, 11);
        sm.latency_steps = 2;
        let mut arr = SensorArray::new(sm, m.ambient());
        for step in 0..5 {
            arr.sample(&f, 0, step, &[]);
        }
        let json = serde_json::to_string(&arr).unwrap();
        let back: SensorArray = serde_json::from_str(&json).unwrap();
        assert_eq!(arr, back, "in-flight readings survive serialization");
    }
}

//! Error-controlled adaptive time stepping for the transient engine.
//!
//! The fixed-`dt` backward-Euler loop in [`crate::model::ThermalModel::
//! transient_with`] has no accuracy control: a too-large step smears
//! transients past the throttle threshold, a too-small one wastes CG
//! solves. This module supplies the *policy* half of the adaptive
//! engine (`ThermalModel::transient_adaptive` is the mechanism):
//!
//! - [`AdaptiveOptions`] — tolerances, step bounds, controller gains,
//!   and run budgets, all validated before a run starts;
//! - [`AdaptiveController`] — the mutable stepping state: current step
//!   size, PI error history, accept/reject/hold counters, and budget
//!   accounting. It is serialisable so a DTM checkpoint can capture it
//!   and resume bit-identically.
//!
//! **Step-size rungs.** The controller only ever proposes steps of the
//! form `dt_min * 2^k` ("rungs"). The PI controller computes a real
//! factor, but the result is snapped *down* to the nearest rung. This
//! keeps the set of distinct operators tiny — step-doubling uses `dt`
//! and `dt/2`, both rungs — so the model's keyed transient-operator
//! cache almost always hits instead of re-running GMG setup every step.
//! Rung arithmetic is exact (power-of-two scaling), so replaying a
//! checkpointed controller reproduces the same `dt` sequence bitwise.
//!
//! **PI controller (accepted steps).** With the weighted-RMS error
//! `err` (accept iff `err <= 1`), the next step is
//! `dt * clamp(safety * err^(-pi_alpha) * err_prev^(pi_beta),
//! shrink_min, growth_max)`, snapped to a rung in `[dt_min, dt_max]`.
//! `err_prev` is updated only on accepted steps (Gustafsson's rule).
//!
//! **Rejection and degradation ladder.** A step is rejected when its
//! error exceeds tolerance or any solve in it diverges (solver error or
//! non-finite state); rejection rolls the state back and drops `dt` one
//! rung. At `dt_min` (or once `max_reject_streak` consecutive
//! rejections have burned), the engine stops retrying: an
//! error-too-large step is *force-accepted* (the finite two-half-step
//! solution is kept) and a diverging step becomes a *hold* (state
//! carried unchanged across the interval). Holds double `dt` so a dead
//! zone is crossed in geometrically few steps; both outcomes are
//! reported through counters and JSONL events, and neither panics.
//!
//! **Budgets.** Optional caps on total CG iterations and accumulated
//! solve wall-clock. When one trips, the engine degrades to *economy
//! mode* — plain single BE steps at the current `dt`, no step-doubling
//! error estimate — rather than aborting; the exhaustion is reported
//! once. Wall-clock budgets accumulate elapsed seconds (never absolute
//! timestamps), but are inherently non-reproducible across machines;
//! leave `max_wall_s` unset for bit-reproducible runs.
//!
//! See DESIGN.md §15 for the full derivation and semantics table.

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;

/// Floor applied to error estimates before feeding the PI controller,
/// so a perfectly-resolved step (err ≈ 0) cannot demand infinite
/// growth.
const ERR_FLOOR: f64 = 1e-12;

/// Configuration for error-controlled adaptive transient stepping.
///
/// All fields are plain numbers so the whole struct is `Copy`,
/// serialisable (it rides inside `DtmPolicy` and run fingerprints), and
/// cheap to validate. Construct with [`Default`] and override fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOptions {
    /// Relative tolerance on the per-step local truncation error.
    pub rtol: f64,
    /// Absolute tolerance (°C) on the per-step local truncation error.
    pub atol: f64,
    /// Smallest permitted step (s); also the base of the rung ladder.
    pub dt_min: f64,
    /// Largest permitted step (s). Effective maximum is the largest
    /// rung `dt_min * 2^k` not exceeding this.
    pub dt_max: f64,
    /// Initial step proposal (s), snapped down to a rung on start.
    pub dt_init: f64,
    /// Safety factor applied to the PI growth estimate, in `(0, 1]`.
    pub safety: f64,
    /// Upper clamp on per-step growth, `>= 1`.
    pub growth_max: f64,
    /// Lower clamp on per-step shrink, in `(0, 1)`.
    pub shrink_min: f64,
    /// Proportional exponent on the current error, in `(0, 1]`.
    pub pi_alpha: f64,
    /// Integral exponent on the previous accepted error, in `[0, 1]`.
    pub pi_beta: f64,
    /// Consecutive rejections tolerated before the step is forced
    /// through (force-accept or hold). At least 1.
    pub max_reject_streak: u32,
    /// Optional budget: total CG iterations across the run. Exhaustion
    /// switches the engine to economy mode (single BE steps).
    pub max_cg_iterations: Option<u64>,
    /// Optional budget: accumulated solve wall-clock seconds.
    /// Non-reproducible across machines; leave unset for deterministic
    /// runs.
    pub max_wall_s: Option<f64>,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            rtol: 1e-3,
            atol: 1e-3,
            dt_min: 1e-6,
            dt_max: 1.0,
            dt_init: 1e-4,
            safety: 0.9,
            growth_max: 2.0,
            shrink_min: 0.25,
            pi_alpha: 0.35,
            pi_beta: 0.2,
            max_reject_streak: 8,
            max_cg_iterations: None,
            max_wall_s: None,
        }
    }
}

impl AdaptiveOptions {
    /// Checks every field is in range, reporting the first violation as
    /// [`ThermalError::InvalidAdaptiveConfig`].
    pub fn validate(&self) -> Result<(), ThermalError> {
        let bad = |what: &'static str, value: f64| -> Result<(), ThermalError> {
            Err(ThermalError::InvalidAdaptiveConfig { what, value })
        };
        if !(self.rtol.is_finite() && self.rtol > 0.0) {
            return bad("rtol", self.rtol);
        }
        if !(self.atol.is_finite() && self.atol > 0.0) {
            return bad("atol", self.atol);
        }
        if !(self.dt_min.is_finite() && self.dt_min > 0.0) {
            return bad("dt_min", self.dt_min);
        }
        if !(self.dt_max.is_finite() && self.dt_max >= self.dt_min) {
            return bad("dt_max", self.dt_max);
        }
        if !(self.dt_init.is_finite() && self.dt_init >= self.dt_min && self.dt_init <= self.dt_max)
        {
            return bad("dt_init", self.dt_init);
        }
        if !(self.safety.is_finite() && self.safety > 0.0 && self.safety <= 1.0) {
            return bad("safety", self.safety);
        }
        if !(self.growth_max.is_finite() && self.growth_max >= 1.0) {
            return bad("growth_max", self.growth_max);
        }
        if !(self.shrink_min.is_finite() && self.shrink_min > 0.0 && self.shrink_min < 1.0) {
            return bad("shrink_min", self.shrink_min);
        }
        if !(self.pi_alpha.is_finite() && self.pi_alpha > 0.0 && self.pi_alpha <= 1.0) {
            return bad("pi_alpha", self.pi_alpha);
        }
        if !(self.pi_beta.is_finite() && (0.0..=1.0).contains(&self.pi_beta)) {
            return bad("pi_beta", self.pi_beta);
        }
        if self.max_reject_streak == 0 {
            return bad("max_reject_streak", 0.0);
        }
        if let Some(cg) = self.max_cg_iterations {
            if cg == 0 {
                return bad("max_cg_iterations", 0.0);
            }
        }
        if let Some(w) = self.max_wall_s {
            if !(w.is_finite() && w > 0.0) {
                return bad("max_wall_s", w);
            }
        }
        Ok(())
    }
}

/// Which optional run budget tripped (see
/// [`AdaptiveController::budget_exhausted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Total CG iterations exceeded `max_cg_iterations`.
    CgIterations,
    /// Accumulated solve wall-clock exceeded `max_wall_s`.
    WallClock,
}

impl BudgetKind {
    /// Stable label used in JSONL events.
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::CgIterations => "cg_iterations",
            BudgetKind::WallClock => "wall_clock",
        }
    }
}

/// Cumulative outcome counters of an adaptive run, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSummary {
    /// Steps accepted on their error estimate.
    pub accepted: u64,
    /// Steps force-accepted at the degradation floor.
    pub forced: u64,
    /// Steps rejected and rolled back.
    pub rejected: u64,
    /// Hold steps (state carried unchanged across the interval).
    pub holds: u64,
    /// Backward-Euler solves performed (including failed attempts).
    pub be_solves: u64,
    /// Step size after the last controller update (s).
    pub final_dt_s: f64,
    /// Whether the run ended in economy mode (a budget exhausted).
    pub economy: bool,
}

/// Mutable state of the adaptive stepper: step size, PI history, and
/// budget accounting.
///
/// Serialisable with bit-exact float round-tripping so DTM checkpoints
/// can persist it and resume the `dt` sequence identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveController {
    opts: AdaptiveOptions,
    /// Current proposed step (always a rung in `[dt_min, top_rung]`).
    dt: f64,
    /// WRMS error of the last accepted step (Gustafsson history).
    err_prev: f64,
    accepted: u64,
    forced: u64,
    rejected: u64,
    holds: u64,
    reject_streak: u32,
    be_solves: u64,
    cg_used: u64,
    wall_used_s: f64,
    economy: bool,
}

impl AdaptiveController {
    /// Builds a controller from validated options. The initial step is
    /// `dt_init` snapped down to a rung.
    pub fn new(opts: AdaptiveOptions) -> Result<Self, ThermalError> {
        opts.validate()?;
        let mut ctrl = AdaptiveController {
            opts,
            dt: opts.dt_min,
            err_prev: 1.0,
            accepted: 0,
            forced: 0,
            rejected: 0,
            holds: 0,
            reject_streak: 0,
            be_solves: 0,
            cg_used: 0,
            wall_used_s: 0.0,
            economy: false,
        };
        ctrl.dt = ctrl.snap_down(opts.dt_init);
        Ok(ctrl)
    }

    /// Current proposed step size (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Whether a budget has tripped and the engine runs in economy mode.
    pub fn in_economy(&self) -> bool {
        self.economy
    }

    /// Cumulative outcome counters.
    pub fn summary(&self) -> AdaptiveSummary {
        AdaptiveSummary {
            accepted: self.accepted,
            forced: self.forced,
            rejected: self.rejected,
            holds: self.holds,
            be_solves: self.be_solves,
            final_dt_s: self.dt,
            economy: self.economy,
        }
    }

    /// Largest rung `dt_min * 2^k <= dt_max`. Exact: rungs are the
    /// base times a power of two.
    fn top_rung(&self) -> f64 {
        let k = (self.opts.dt_max / self.opts.dt_min).log2().floor();
        self.opts.dt_min * 2f64.powi(k as i32)
    }

    /// Snaps `dt` down to the nearest rung, clamped to
    /// `[dt_min, top_rung]`.
    fn snap_down(&self, dt: f64) -> f64 {
        if !(dt.is_finite() && dt > self.opts.dt_min) {
            return self.opts.dt_min;
        }
        let k = (dt / self.opts.dt_min).log2().floor();
        let rung = self.opts.dt_min * 2f64.powi(k as i32);
        rung.min(self.top_rung())
    }

    /// Weighted-RMS local-truncation-error norm between the fine
    /// (two-half-step) and coarse (one-full-step) solutions. `<= 1`
    /// means the step is within tolerance. NaN/inf inputs propagate to
    /// a non-finite norm, which callers treat as divergence.
    pub fn error_norm(&self, fine: &[f64], coarse: &[f64]) -> f64 {
        let n = fine.len().max(1);
        // Folded with the fixed pairwise tree so the norm — and with it
        // every accept/reject decision — has one canonical value
        // independent of how this is ever chunked or parallelized.
        let sq: Vec<f64> = fine
            .iter()
            .zip(coarse.iter())
            .map(|(a, b)| {
                let scale = self.opts.atol + self.opts.rtol * a.abs();
                let r = (a - b) / scale;
                r * r
            })
            .collect();
        (crate::reduce::pairwise_sum(&sq) / n as f64).sqrt()
    }

    /// Records an accepted step with WRMS error `err` and advances the
    /// PI controller.
    pub fn on_accept(&mut self, err: f64) {
        self.accepted += 1;
        self.reject_streak = 0;
        let e = err.max(ERR_FLOOR);
        let factor = (self.opts.safety
            * e.powf(-self.opts.pi_alpha)
            * self.err_prev.max(ERR_FLOOR).powf(self.opts.pi_beta))
        .clamp(self.opts.shrink_min, self.opts.growth_max);
        self.dt = self.snap_down((self.dt * factor).max(self.opts.dt_min));
        self.err_prev = e;
    }

    /// Records a rejected step: one rung down, streak up. The PI error
    /// history is untouched (it tracks accepted steps only).
    pub fn on_reject(&mut self) {
        self.rejected += 1;
        self.reject_streak = self.reject_streak.saturating_add(1);
        self.dt = (self.dt * 0.5).max(self.opts.dt_min);
    }

    /// Records a force-accepted step (error still over tolerance at the
    /// degradation floor, but the state is finite and kept).
    pub fn on_force_accept(&mut self, err: f64) {
        self.forced += 1;
        self.reject_streak = 0;
        self.err_prev = err.max(ERR_FLOOR);
    }

    /// Records a hold (unsolvable interval skipped with the state
    /// unchanged). Doubles `dt` so a dead zone is crossed in
    /// geometrically few holds.
    pub fn on_hold(&mut self) {
        self.holds += 1;
        self.reject_streak = 0;
        self.dt = self.snap_down(self.dt * 2.0);
    }

    /// Records an accepted economy-mode step (no error estimate; `dt`
    /// unchanged).
    pub fn on_economy_accept(&mut self) {
        self.accepted += 1;
        self.reject_streak = 0;
    }

    /// True once the step cannot shrink further.
    pub fn at_dt_min(&self) -> bool {
        self.dt <= self.opts.dt_min
    }

    /// True once `max_reject_streak` consecutive rejections have burned.
    pub fn reject_streak_exhausted(&self) -> bool {
        self.reject_streak >= self.opts.max_reject_streak
    }

    /// Charges the cost of one attempted step against the budgets.
    pub fn note_cost(&mut self, solves: u64, cg_iterations: u64, wall_s: f64) {
        self.be_solves += solves;
        self.cg_used += cg_iterations;
        if wall_s.is_finite() && wall_s >= 0.0 {
            self.wall_used_s += wall_s;
        }
    }

    /// Which budget, if any, is exhausted.
    pub fn budget_exhausted(&self) -> Option<BudgetKind> {
        if let Some(max) = self.opts.max_cg_iterations {
            if self.cg_used >= max {
                return Some(BudgetKind::CgIterations);
            }
        }
        if let Some(max) = self.opts.max_wall_s {
            if self.wall_used_s >= max {
                return Some(BudgetKind::WallClock);
            }
        }
        None
    }

    /// Enters economy mode. Returns `true` on the first call (so the
    /// caller reports the transition exactly once).
    pub fn enter_economy(&mut self) -> bool {
        let first = !self.economy;
        self.economy = true;
        first
    }

    /// Notifies the controller of an input discontinuity (e.g. a DVFS
    /// level change): the step is refined back to at most the initial
    /// rung and the PI history reset, so control decisions land on
    /// accurately resolved temperatures.
    pub fn notify_discontinuity(&mut self) {
        self.dt = self.dt.min(self.snap_down(self.opts.dt_init));
        self.err_prev = 1.0;
        self.reject_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> AdaptiveOptions {
        AdaptiveOptions::default()
    }

    #[test]
    fn default_options_validate() {
        assert!(opts().validate().is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        let cases: Vec<(AdaptiveOptions, &str)> = vec![
            (
                AdaptiveOptions {
                    rtol: 0.0,
                    ..opts()
                },
                "rtol",
            ),
            (
                AdaptiveOptions {
                    atol: f64::NAN,
                    ..opts()
                },
                "atol",
            ),
            (
                AdaptiveOptions {
                    dt_min: -1.0,
                    ..opts()
                },
                "dt_min",
            ),
            (
                AdaptiveOptions {
                    dt_max: 1e-9,
                    ..opts()
                },
                "dt_max",
            ),
            (
                AdaptiveOptions {
                    dt_init: 10.0,
                    ..opts()
                },
                "dt_init",
            ),
            (
                AdaptiveOptions {
                    safety: 1.5,
                    ..opts()
                },
                "safety",
            ),
            (
                AdaptiveOptions {
                    growth_max: 0.5,
                    ..opts()
                },
                "growth_max",
            ),
            (
                AdaptiveOptions {
                    shrink_min: 1.0,
                    ..opts()
                },
                "shrink_min",
            ),
            (
                AdaptiveOptions {
                    pi_alpha: 0.0,
                    ..opts()
                },
                "pi_alpha",
            ),
            (
                AdaptiveOptions {
                    pi_beta: -0.1,
                    ..opts()
                },
                "pi_beta",
            ),
            (
                AdaptiveOptions {
                    max_reject_streak: 0,
                    ..opts()
                },
                "max_reject_streak",
            ),
            (
                AdaptiveOptions {
                    max_cg_iterations: Some(0),
                    ..opts()
                },
                "max_cg_iterations",
            ),
            (
                AdaptiveOptions {
                    max_wall_s: Some(0.0),
                    ..opts()
                },
                "max_wall_s",
            ),
        ];
        for (o, field) in cases {
            match o.validate() {
                Err(ThermalError::InvalidAdaptiveConfig { what, .. }) => {
                    assert_eq!(what, field);
                }
                other => panic!("expected InvalidAdaptiveConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn initial_dt_is_a_rung_at_most_dt_init() {
        let c = AdaptiveController::new(opts()).unwrap();
        let ratio = c.dt() / 1e-6;
        let k = ratio.log2();
        assert!((k - k.round()).abs() < 1e-12, "dt {} is not a rung", c.dt());
        assert!(c.dt() <= 1e-4 && c.dt() >= 1e-6);
    }

    #[test]
    fn accept_grows_and_stays_on_rungs() {
        let mut c = AdaptiveController::new(opts()).unwrap();
        let start = c.dt();
        // Tiny error: controller wants max growth, clamped to 2x.
        c.on_accept(1e-6);
        assert_eq!(c.dt(), start * 2.0);
        // Repeated growth saturates at the top rung <= dt_max.
        for _ in 0..80 {
            c.on_accept(1e-6);
        }
        assert!(c.dt() <= 1.0);
        let k = (c.dt() / 1e-6).log2();
        assert!((k - k.round()).abs() < 1e-12);
    }

    #[test]
    fn reject_halves_and_floors_at_dt_min() {
        let mut c = AdaptiveController::new(opts()).unwrap();
        let start = c.dt();
        c.on_reject();
        assert_eq!(c.dt(), start * 0.5);
        for _ in 0..40 {
            c.on_reject();
        }
        assert_eq!(c.dt(), 1e-6);
        assert!(c.at_dt_min());
        assert!(c.reject_streak_exhausted());
        c.on_hold();
        assert_eq!(c.reject_streak, 0);
        assert_eq!(c.dt(), 2e-6);
    }

    #[test]
    fn error_norm_matches_hand_computation() {
        let c = AdaptiveController::new(opts()).unwrap();
        // fine = [1.0], coarse = [1.0 + d]: err = d / (atol + rtol*1.0)
        let d = 1e-3;
        let err = c.error_norm(&[1.0], &[1.0 + d]);
        let scale = 1e-3 + 1e-3;
        assert!((err - d / scale).abs() < 1e-12);
        assert!(c.error_norm(&[f64::NAN], &[1.0]).is_nan());
    }

    #[test]
    fn budgets_trip_and_economy_reports_once() {
        let o = AdaptiveOptions {
            max_cg_iterations: Some(100),
            ..opts()
        };
        let mut c = AdaptiveController::new(o).unwrap();
        assert!(c.budget_exhausted().is_none());
        c.note_cost(3, 99, 0.0);
        assert!(c.budget_exhausted().is_none());
        c.note_cost(1, 1, 0.0);
        assert_eq!(c.budget_exhausted(), Some(BudgetKind::CgIterations));
        assert!(c.enter_economy());
        assert!(!c.enter_economy());
        assert!(c.in_economy());
        assert_eq!(c.be_solves, 4);
    }

    #[test]
    fn discontinuity_refines_back_to_initial_rung() {
        let mut c = AdaptiveController::new(opts()).unwrap();
        let initial = c.dt();
        for _ in 0..20 {
            c.on_accept(1e-6);
        }
        assert!(c.dt() > initial);
        c.notify_discontinuity();
        assert_eq!(c.dt(), initial);
        // A discontinuity never *grows* the step.
        for _ in 0..10 {
            c.on_reject();
        }
        let small = c.dt();
        c.notify_discontinuity();
        assert_eq!(c.dt(), small);
    }

    #[test]
    fn serde_round_trip_is_bit_exact() {
        let mut c = AdaptiveController::new(opts()).unwrap();
        c.on_accept(3.7e-1);
        c.on_reject();
        c.on_accept(9.1e-2);
        c.note_cost(9, 1234, 0.0);
        let json = serde_json::to_string(&c).unwrap();
        let back: AdaptiveController = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        assert_eq!(c.dt().to_bits(), back.dt().to_bits());
    }

    #[test]
    fn summary_tracks_counters() {
        let mut c = AdaptiveController::new(opts()).unwrap();
        c.on_accept(0.5);
        c.on_reject();
        c.on_force_accept(2.0);
        c.on_hold();
        c.on_economy_accept();
        let s = c.summary();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.forced, 1);
        assert_eq!(s.holds, 1);
        assert_eq!(s.final_dt_s, c.dt());
    }
}

//! Linear solvers for the RC network.
//!
//! The conductance matrix is symmetric positive definite (pure conduction
//! plus grounding convection terms on the diagonal), so the steady-state
//! and backward-Euler systems are solved with preconditioned conjugate
//! gradient over the matrix-free [`StencilOperator`] the model extracts
//! from the CSR matrix it lowers its node graph into.
//!
//! # Kernel design
//!
//! All vector kernels work in fixed chunks of [`ROW_CHUNK`] elements:
//! each chunk accumulates serially, per-chunk partials land in a
//! workspace buffer, and a fixed pairwise tree folds the partials.
//! Because the chunk boundaries — not the thread count — define every
//! summation order, the parallel (rayon row-chunked) and serial paths
//! produce **bit-identical** residual histories; runs are reproducible on
//! any machine. Dot products fuse into the passes that produce their
//! operands (`x += alpha p` / `r -= alpha ap` yields `||r||^2` as a
//! by-product), so a CG iteration makes no separate pass over `r` just to
//! measure it.
//!
//! # Convergence criterion
//!
//! Iteration stops when `||r_k|| <= tolerance * ||b||`, where `r_k` is
//! the **recurrence residual** (`r_{k+1} = r_k - alpha_k A p_k`), whose
//! squared norm falls out of the fused update pass. The recurrence
//! residual can drift from the true residual `b - A x_k` by rounding at
//! the 1e-15 relative scale — orders of magnitude below the default 1e-9
//! tolerance — and [`debug_check_solution`] cross-checks the reported
//! residual in debug builds.
//!
//! # Preconditioners
//!
//! [`PreconditionerKind`] selects between the geometric multigrid
//! V-cycle built from the structured grid description (see
//! [`crate::gmg`]; it needs the geometry, so
//! [`Preconditioner::build_gmg`] is its entry point) and Jacobi
//! diagonal scaling ([`Preconditioner::jacobi`], which needs only the
//! operator's diagonal). On the RC network's strongly anisotropic
//! conductance structure Jacobi needs ~400 iterations at 64x64; the
//! multigrid lands at a few dozen iterations for a few
//! matvec-equivalents per apply. Jacobi is also the one fallback step of [`solve_cg_resilient`]: it
//! has no setup to fail and converges on anything SPD.
//!
//! # Operators
//!
//! Every solve runs on one operator form: [`solve_cg`],
//! [`solve_cg_resilient`] and the preconditioner apply take a
//! [`StencilOperator`], so CG's matvecs, the GMG V-cycle's finest-level
//! matvecs and the Jacobi retry's diagonal all read the stencil. The
//! CSR matrix is a build-time input only: the stencil is extracted from
//! it, and [`Preconditioner::build_gmg`] sets the hierarchy up from it.
//! A hand-built matrix solves through its `(1, 1, 1)` stencil (see
//! [`crate::stencil`]), whose rows fold exactly like the CSR kernel.
//! Every work vector, the V-cycle's per-level scratch included, lives in
//! the caller's [`SolverWorkspace`], so threads sharing one model or
//! one preconditioner share no mutable state.

use serde::{Deserialize, Serialize};

use crate::csr::{CsrMatrix, PAR_MIN_ROWS, ROW_CHUNK};
use crate::error::ThermalError;
use crate::gmg::GmgScratch;
use crate::reduce::{dot_chunked, fused_p_update, fused_xr_update, reduce_pairwise};
use crate::stencil::StencilOperator;

/// Preconditioner selection for [`SolverOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreconditionerKind {
    /// Diagonal (Jacobi) scaling: cheapest per iteration, most
    /// iterations.
    Jacobi,
    /// Geometric multigrid V-cycle over the structured stack grid (the
    /// default): in-plane semicoarsening with z-line block-Jacobi
    /// smoothing. Needs the grid geometry, so it is built via
    /// [`Preconditioner::build_gmg`]. See [`crate::gmg`].
    Gmg,
}

/// Options controlling the iterative solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Relative residual tolerance: converged when
    /// `||b - A x|| <= tolerance * ||b||` (recurrence residual; see the
    /// module docs).
    pub tolerance: f64,
    /// Iteration cap before [`ThermalError::NoConvergence`].
    pub max_iterations: usize,
    /// Which preconditioner to build and apply.
    pub preconditioner: PreconditionerKind,
    /// Whether [`solve_cg_resilient`] may retry a failed GMG solve on
    /// Jacobi instead of surfacing [`ThermalError::NoConvergence`].
    pub fallback: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-9,
            max_iterations: 20_000,
            preconditioner: PreconditionerKind::Gmg,
            fallback: true,
        }
    }
}

/// Iteration budget the Jacobi retry gets at minimum, regardless of how
/// tight the configured cap was: the retry exists to rescue the solve,
/// so it must not inherit a cap that already proved too small.
const FALLBACK_MIN_ITERATIONS: usize = 20_000;

std::thread_local! {
    /// Wall-clock deadline for solves on this thread; installed by
    /// [`DeadlineGuard`], checked every [`DEADLINE_CHECK_STRIDE`]
    /// iterations inside the CG loop. `None` (the default) costs one
    /// thread-local load per check and never reads the clock, so runs
    /// without a deadline stay bit-for-bit undisturbed.
    static SOLVE_DEADLINE: std::cell::Cell<Option<std::time::Instant>> =
        const { std::cell::Cell::new(None) };
}

/// How many CG iterations pass between deadline checks. A power of two
/// so the modulo folds to a mask; at ~1 ms/iteration on the largest
/// grids the deadline overshoot is bounded by a few tens of ms.
const DEADLINE_CHECK_STRIDE: usize = 32;

/// RAII guard installing a wall-clock deadline for every solve on the
/// current thread. While the guard is alive, [`solve_cg`] and the
/// resilient variants abort with [`ThermalError::DeadlineExceeded`] as
/// soon as a periodic in-loop check observes the deadline in the past —
/// a stuck or pathologically slow solve returns to the caller instead of
/// spinning to its iteration cap. Dropping the guard restores whatever
/// deadline (usually none) was installed before, so guards nest.
#[derive(Debug)]
pub struct DeadlineGuard {
    prev: Option<std::time::Instant>,
}

impl DeadlineGuard {
    /// Installs `deadline` as the solve deadline for this thread until
    /// the guard is dropped.
    #[must_use = "the deadline is uninstalled when the guard drops"]
    pub fn install(deadline: std::time::Instant) -> Self {
        let prev = SOLVE_DEADLINE.with(|d| d.replace(Some(deadline)));
        DeadlineGuard { prev }
    }

    /// Whether a deadline is currently installed on this thread.
    pub fn active() -> bool {
        SOLVE_DEADLINE.with(|d| d.get().is_some())
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        SOLVE_DEADLINE.with(|d| d.set(prev));
    }
}

/// Whether the thread's installed deadline (if any) has expired. Reads
/// the clock only when a deadline is installed.
#[inline]
fn deadline_expired() -> bool {
    SOLVE_DEADLINE.with(|d| {
        d.get()
            .is_some_and(|deadline| std::time::Instant::now() >= deadline)
    })
}

/// Cap on detailed [`RecoveryEvent`]s kept per report; totals keep
/// counting past it (long degraded transients would otherwise grow the
/// report without bound).
const MAX_RECORDED_EVENTS: usize = 64;

/// The relaxed first-pass tolerance the Jacobi retry converges to before
/// re-tightening to the requested tolerance: three decades looser,
/// never looser than 1e-4, never looser than the request itself allows.
fn relaxed_tolerance(tolerance: f64) -> f64 {
    (tolerance * 1e3).min(1e-4).max(tolerance)
}

/// One fallback recovery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Preconditioner the retry ran on (always Jacobi; the field keeps
    /// the serialized report layout stable).
    pub rung: PreconditionerKind,
    /// Tolerance of the relaxed first pass.
    pub relaxed_tolerance: f64,
    /// CG iterations this rung spent (relaxed + retightened passes).
    pub iterations: usize,
    /// Relative residual at the end of the rung.
    pub residual: f64,
    /// Whether the rung brought the solve back to the requested
    /// tolerance.
    pub recovered: bool,
}

/// Record of every fallback recovery a solve (or a sequence of solves)
/// went through. An empty report means every solve converged on the
/// configured path; a non-empty one means the caller received
/// degraded-mode solutions that still meet the requested tolerance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Detailed per-rung events, capped at 64 entries; `attempts` /
    /// `recoveries` keep counting past the cap.
    pub events: Vec<RecoveryEvent>,
    /// Total rung attempts, recorded or not.
    pub attempts: usize,
    /// Total rungs that recovered the solve.
    pub recoveries: usize,
}

impl RecoveryReport {
    /// True when no fallback was ever needed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attempts == 0
    }

    /// Folds `other` into `self` (respecting the event cap).
    pub fn merge(&mut self, other: &RecoveryReport) {
        for ev in &other.events {
            if self.events.len() < MAX_RECORDED_EVENTS {
                self.events.push(*ev);
            }
        }
        self.attempts += other.attempts;
        self.recoveries += other.recoveries;
    }

    fn record(&mut self, ev: RecoveryEvent) {
        self.attempts += 1;
        if ev.recovered {
            self.recoveries += 1;
        }
        if self.events.len() < MAX_RECORDED_EVENTS {
            self.events.push(ev);
        }
    }
}

/// Statistics from a linear solve (or a sequence of transient solves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Conjugate-gradient iterations performed (summed over transient
    /// steps).
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Reusable solver buffers. Owned by the caller so repeated solves
/// (steady-state sweeps, transient stepping) allocate nothing per solve:
/// buffers grow to the model's node count (and the V-cycle scratch to
/// the hierarchy's level sizes) on first use and are reused verbatim
/// afterwards.
///
/// The `rhs`/`rhs0` staging buffers are for *callers* assembling
/// right-hand sides (the solvers never touch them); take them
/// with `std::mem::take` for the duration of a solve and put them back.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    partials: Vec<f64>,
    /// Per-level V-cycle vectors of the GMG preconditioner.
    gmg: GmgScratch,
    /// Right-hand-side staging buffer (caller-owned; untouched by the
    /// solver).
    pub rhs: Vec<f64>,
    /// Second staging buffer for transient stepping (the constant part
    /// of the backward-Euler right-hand side).
    pub rhs0: Vec<f64>,
    /// Full-step trial state for adaptive step-doubling
    /// (caller-owned; untouched by the solver).
    pub x_full: Vec<f64>,
    /// Two-half-step trial state for adaptive step-doubling
    /// (caller-owned; untouched by the solver).
    pub x_half: Vec<f64>,
    /// Entry-iterate backup for [`solve_cg_resilient`] cold restarts.
    x0: Vec<f64>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
        self.partials.resize(n.div_ceil(ROW_CHUNK), 0.0);
    }
}

/// A built preconditioner for one matrix. Rebuilt whenever the matrix
/// changes (e.g. the backward-Euler diagonal patch for a new `dt`).
#[derive(Debug, Clone)]
pub enum Preconditioner {
    /// Reciprocal diagonal.
    Jacobi {
        /// `1 / a_ii` per row.
        inv_diag: Vec<f64>,
    },
    /// Geometric multigrid hierarchy over the structured stack grid;
    /// one apply is a symmetric V(1,1) cycle with z-line smoothing.
    Gmg(Box<crate::gmg::GmgHierarchy>),
}

impl PreconditionerKind {
    /// Stable lowercase label used in metrics/event output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PreconditionerKind::Jacobi => "jacobi",
            PreconditionerKind::Gmg => "gmg",
        }
    }
}

impl Preconditioner {
    /// Which [`PreconditionerKind`] this built preconditioner is.
    #[must_use]
    pub fn kind(&self) -> PreconditionerKind {
        match self {
            Preconditioner::Jacobi { .. } => PreconditionerKind::Jacobi,
            Preconditioner::Gmg(_) => PreconditionerKind::Gmg,
        }
    }

    /// The Jacobi preconditioner of `a`, from its diagonal
    /// ([`StencilOperator::diagonal`]).
    #[must_use]
    pub fn jacobi(a: &StencilOperator) -> Self {
        Preconditioner::Jacobi {
            inv_diag: a.diagonal().iter().map(|d| 1.0 / d).collect(),
        }
    }

    /// Builds the geometric multigrid preconditioner for a structured
    /// matrix with `nl` grid layers of `nx x ny` cells (see
    /// [`crate::gmg`]). Returns `None` when the matrix does not match
    /// that geometry.
    #[must_use]
    pub fn build_gmg(a: &CsrMatrix, nx: usize, ny: usize, nl: usize) -> Option<Self> {
        crate::gmg::GmgHierarchy::build(a, nx, ny, nl).map(|h| Preconditioner::Gmg(Box::new(h)))
    }

    /// `z = M^-1 r` as a standalone call through `ws`'s buffers —
    /// benchmark/diagnostic entry point for measuring preconditioner
    /// apply cost in isolation.
    #[doc(hidden)]
    pub fn apply_timed(
        &self,
        a: &StencilOperator,
        r: &[f64],
        z: &mut [f64],
        ws: &mut SolverWorkspace,
    ) {
        ws.resize(r.len());
        let _ = self.apply(a, r, z, &mut ws.partials, &mut ws.gmg);
    }

    /// `z = M^-1 r` for the operator the preconditioner was built from,
    /// with the V-cycle's vectors in `gmg`. Returns `dot(r, z)`
    /// (deterministically chunked) when it falls out of the pass for
    /// free (Jacobi), else `None`.
    fn apply(
        &self,
        a: &StencilOperator,
        r: &[f64],
        z: &mut [f64],
        partials: &mut [f64],
        gmg: &mut GmgScratch,
    ) -> Option<f64> {
        match self {
            Preconditioner::Jacobi { inv_diag } => {
                // Fused: z = D^-1 r and rz = dot(r, z) in one pass.
                for (k, ((rc, zc), dc)) in r
                    .chunks(ROW_CHUNK)
                    .zip(z.chunks_mut(ROW_CHUNK))
                    .zip(inv_diag.chunks(ROW_CHUNK))
                    .enumerate()
                {
                    let mut acc = 0.0;
                    for ((ri, zi), di) in rc.iter().zip(zc.iter_mut()).zip(dc) {
                        *zi = ri * di;
                        acc += ri * *zi;
                    }
                    partials[k] = acc;
                }
                Some(reduce_pairwise(partials))
            }
            Preconditioner::Gmg(h) => {
                h.apply(a, r, z, gmg);
                None
            }
        }
    }
}

/// Solves `A x = b` by preconditioned conjugate gradient over `op`.
///
/// * `prec` must have been built for the matrix `op` was extracted from
///   ([`Preconditioner::build_gmg`] or [`Preconditioner::jacobi`]);
/// * `x` holds the initial guess on entry (warm starts welcome — a guess
///   near the solution directly cuts iterations) and the solution on
///   exit;
/// * `ws` provides every work vector; no allocation happens per solve
///   once the workspace has grown to `op.n()`.
///
/// # Errors
///
/// [`ThermalError::NoConvergence`] if the relative residual does not fall
/// below `options.tolerance` within `options.max_iterations`.
///
/// # Panics
///
/// Debug-asserts matching dimensions.
pub fn solve_cg(
    op: &StencilOperator,
    prec: &Preconditioner,
    b: &[f64],
    x: &mut [f64],
    ws: &mut SolverWorkspace,
    options: &SolverOptions,
) -> Result<SolveStats, ThermalError> {
    // Observability wrapper: counters/histogram always record (a few
    // atomic ops per solve); the residual curve and the per-solve event
    // are only built when a sink is installed.
    let obs = xylem_obs::enabled();
    let mut curve: Vec<f64> = Vec::new();
    let start = std::time::Instant::now();
    let result = solve_cg_raw(op, prec, b, x, ws, options, obs.then_some(&mut curve));
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (iterations, residual, converged) = match &result {
        Ok(s) => (s.iterations, s.residual, true),
        Err(ThermalError::NoConvergence {
            iterations,
            residual,
            ..
        }) => (*iterations, *residual, false),
        Err(ThermalError::DeadlineExceeded { iterations }) => (*iterations, f64::NAN, false),
        Err(_) => (0, f64::NAN, false),
    };
    xylem_obs::incr(xylem_obs::Counter::SolveCalls);
    xylem_obs::add(xylem_obs::Counter::CgIterations, iterations as u64);
    xylem_obs::set_gauge(xylem_obs::Gauge::LastResidual, residual);
    xylem_obs::record_ns(xylem_obs::Hist::SolveMs, elapsed_ns);
    if obs {
        xylem_obs::event("solve")
            .str("prec", prec.kind().label())
            .u64("n", op.n() as u64)
            .u64("iters", iterations as u64)
            .f64("residual", residual)
            .bool("converged", converged)
            .f64("ms", elapsed_ns as f64 / 1.0e6)
            .f64_array("residual_curve", &downsample_curve(&curve))
            .emit();
    }
    result
}

/// Cap on residual-curve points kept per solve while iterating.
const CURVE_CAP: usize = 4096;
/// Cap on residual-curve points emitted per solve event.
const CURVE_EMIT: usize = 64;

/// Thins a per-iteration residual curve to at most [`CURVE_EMIT`] points
/// (always keeping the final one) so long solves do not bloat the JSONL.
fn downsample_curve(curve: &[f64]) -> Vec<f64> {
    if curve.len() <= CURVE_EMIT {
        return curve.to_vec();
    }
    let stride = curve.len().div_ceil(CURVE_EMIT);
    let mut out: Vec<f64> = curve.iter().copied().step_by(stride).collect();
    if !(curve.len() - 1).is_multiple_of(stride) {
        if let Some(&last) = curve.last() {
            out.push(last);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn solve_cg_raw(
    op: &StencilOperator,
    prec: &Preconditioner,
    b: &[f64],
    x: &mut [f64],
    ws: &mut SolverWorkspace,
    options: &SolverOptions,
    mut curve: Option<&mut Vec<f64>>,
) -> Result<SolveStats, ThermalError> {
    let n = b.len();
    debug_assert_eq!(op.n(), n);
    debug_assert_eq!(x.len(), n);
    ws.resize(n);
    let par = n >= PAR_MIN_ROWS && rayon::current_num_threads() > 1;

    let norm_b = dot_chunked(b, b, &mut ws.partials, par).sqrt();
    if norm_b == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        return Ok(SolveStats {
            iterations: 0,
            residual: 0.0,
        });
    }

    // r = b - A x.
    op.matvec(x, &mut ws.r);
    for (ri, bi) in ws.r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let mut rr = dot_chunked(&ws.r, &ws.r, &mut ws.partials, par);
    let mut rz = match prec.apply(op, &ws.r, &mut ws.z, &mut ws.partials, &mut ws.gmg) {
        Some(rz) => rz,
        None => dot_chunked(&ws.r, &ws.z, &mut ws.partials, par),
    };
    ws.p.copy_from_slice(&ws.z);

    for it in 0..options.max_iterations {
        if it % DEADLINE_CHECK_STRIDE == 0 && deadline_expired() {
            return Err(ThermalError::DeadlineExceeded { iterations: it });
        }
        let res = rr.sqrt() / norm_b;
        if let Some(c) = curve.as_mut() {
            if c.len() < CURVE_CAP {
                c.push(res);
            }
        }
        if res <= options.tolerance {
            return Ok(SolveStats {
                iterations: it,
                residual: res,
            });
        }
        op.matvec(&ws.p, &mut ws.ap);
        let pap = dot_chunked(&ws.p, &ws.ap, &mut ws.partials, par);
        if pap <= 0.0 || !pap.is_finite() {
            // Matrix not SPD along p (should not happen); bail out.
            return Err(ThermalError::NoConvergence {
                iterations: it,
                residual: res,
                tolerance: options.tolerance,
            });
        }
        let alpha = rz / pap;
        rr = fused_xr_update(x, &mut ws.r, &ws.p, &ws.ap, alpha, &mut ws.partials, par);
        let rz_next = match prec.apply(op, &ws.r, &mut ws.z, &mut ws.partials, &mut ws.gmg) {
            Some(rz) => rz,
            None => dot_chunked(&ws.r, &ws.z, &mut ws.partials, par),
        };
        let beta = rz_next / rz;
        rz = rz_next;
        fused_p_update(&mut ws.p, &ws.z, beta, par);
    }

    let res = rr.sqrt() / norm_b;
    if res <= options.tolerance {
        Ok(SolveStats {
            iterations: options.max_iterations,
            residual: res,
        })
    } else {
        Err(ThermalError::NoConvergence {
            iterations: options.max_iterations,
            residual: res,
            tolerance: options.tolerance,
        })
    }
}

/// Whether every entry of a candidate solution is a finite number. A
/// solve that "converged" onto NaN/inf must be treated as failed.
fn solution_is_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// [`solve_cg`] with one fallback step: when a multigrid solve ends in
/// [`ThermalError::NoConvergence`] — or a nominally converged solution
/// containing non-finite values — it retries once on Jacobi, which has
/// no setup to fail and converges on anything SPD. The retry
/// cold-restarts from the entry iterate, first converging to a relaxed
/// tolerance ([`relaxed_tolerance`]) and then re-tightening to the
/// requested one, and lands in `report`, so callers observe
/// degraded-mode solves instead of hard errors. A failed Jacobi solve
/// has no further step.
///
/// With `options.fallback == false` this is exactly [`solve_cg`].
///
/// Every matvec goes through `op`; the Jacobi retry reads its diagonal
/// from `op` too ([`StencilOperator::diagonal`]).
///
/// The returned [`SolveStats`] count iterations across the failed
/// attempt and the retry; the residual is the final (recovered) one.
///
/// # Errors
///
/// [`ThermalError::NoConvergence`] when the retry fails too, or when
/// the failed solve already ran on Jacobi.
#[allow(clippy::too_many_arguments)]
pub fn solve_cg_resilient(
    op: &StencilOperator,
    prec: &Preconditioner,
    b: &[f64],
    x: &mut [f64],
    ws: &mut SolverWorkspace,
    options: &SolverOptions,
    report: &mut RecoveryReport,
) -> Result<SolveStats, ThermalError> {
    if !options.fallback {
        return solve_cg(op, prec, b, x, ws, options);
    }
    // Back up the entry iterate so the retry can cold-restart from it.
    // The buffer is workspace-owned: no allocation once it has grown.
    let mut x0 = std::mem::take(&mut ws.x0);
    x0.clear();
    x0.extend_from_slice(x);

    let mut total_iters = 0usize;
    let first = solve_cg(op, prec, b, x, ws, options);
    let mut last_residual = match first {
        Ok(stats) => {
            if solution_is_finite(x) {
                ws.x0 = x0;
                return Ok(stats);
            }
            total_iters += stats.iterations;
            f64::INFINITY
        }
        Err(ThermalError::NoConvergence {
            iterations,
            residual,
            ..
        }) => {
            total_iters += iterations;
            residual
        }
        Err(other) => {
            ws.x0 = x0;
            return Err(other);
        }
    };
    let from = prec.kind();
    if from == PreconditionerKind::Jacobi {
        ws.x0 = x0;
        return Err(ThermalError::NoConvergence {
            iterations: total_iters,
            residual: last_residual,
            tolerance: options.tolerance,
        });
    }

    x.copy_from_slice(&x0);
    xylem_obs::incr(xylem_obs::Counter::PreconditionerBuilds);
    let jacobi = Preconditioner::jacobi(op);
    let relaxed = relaxed_tolerance(options.tolerance);
    let loose = SolverOptions {
        tolerance: relaxed,
        max_iterations: options.max_iterations.max(FALLBACK_MIN_ITERATIONS),
        preconditioner: PreconditionerKind::Jacobi,
        fallback: false,
    };
    let tight = SolverOptions {
        tolerance: options.tolerance,
        ..loose
    };
    let mut retry_iters = 0usize;
    let mut retry_residual = f64::INFINITY;
    let mut recovered = false;
    // The relaxed pass, then the re-tightening pass from its solution.
    for (pass, last) in [(&loose, false), (&tight, true)] {
        match solve_cg(op, &jacobi, b, x, ws, pass) {
            Ok(s) if solution_is_finite(x) => {
                retry_iters += s.iterations;
                if last {
                    retry_residual = s.residual;
                    recovered = true;
                }
            }
            Ok(s) => {
                retry_iters += s.iterations;
                break;
            }
            Err(ThermalError::NoConvergence {
                iterations,
                residual,
                ..
            }) => {
                retry_iters += iterations;
                retry_residual = residual;
                break;
            }
            Err(e @ ThermalError::DeadlineExceeded { .. }) => {
                // The deadline applies to the whole solve: hand the
                // entry iterate back untouched.
                x.copy_from_slice(&x0);
                ws.x0 = x0;
                return Err(e);
            }
            Err(_) => break,
        }
    }

    total_iters += retry_iters;
    if retry_residual.is_finite() {
        last_residual = retry_residual;
    }
    xylem_obs::incr(xylem_obs::Counter::SolveFallbacks);
    if recovered {
        xylem_obs::incr(xylem_obs::Counter::SolveRecoveries);
    }
    if xylem_obs::enabled() {
        xylem_obs::event("solve_fallback")
            .str("from", from.label())
            .str("rung", PreconditionerKind::Jacobi.label())
            .f64("relaxed_tolerance", relaxed)
            .u64("iters", retry_iters as u64)
            .f64("residual", retry_residual)
            .bool("recovered", recovered)
            .emit();
    }
    report.record(RecoveryEvent {
        rung: PreconditionerKind::Jacobi,
        relaxed_tolerance: relaxed,
        iterations: retry_iters,
        residual: retry_residual,
        recovered,
    });
    ws.x0 = x0;
    if recovered {
        Ok(SolveStats {
            iterations: total_iters,
            residual: retry_residual,
        })
    } else {
        Err(ThermalError::NoConvergence {
            iterations: total_iters,
            residual: last_residual,
            tolerance: options.tolerance,
        })
    }
}

/// Debug-build sanity checks on a converged solution: the reported
/// residual must respect the requested tolerance (with slack for the
/// final-iteration overshoot) and every temperature must be a physically
/// meaningful number (finite, not below absolute zero).
///
/// Compiled to nothing in release builds.
pub fn debug_check_solution(stats: &SolveStats, options: &SolverOptions, temps_c: &[f64]) {
    debug_assert!(
        stats.residual.is_finite() && stats.residual <= options.tolerance * 10.0,
        "solver reported residual {} above tolerance {}",
        stats.residual,
        options.tolerance
    );
    if cfg!(debug_assertions) {
        for (i, &t) in temps_c.iter().enumerate() {
            debug_assert!(
                t.is_finite() && t >= crate::units::ABSOLUTE_ZERO_C,
                "node {i}: unphysical temperature {t} degC"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{chunk_dot, pairwise_dot};

    /// `a` as a stencil of the `(1, 1, 1)` geometry, which every matrix
    /// with a diagonal fits: row 0 plus rim, then tail rows.
    fn op(a: &CsrMatrix) -> StencilOperator {
        StencilOperator::from_csr(a, 1, 1, 1).expect("every matrix fits (1, 1, 1)")
    }

    /// `kind` built for `a`; GMG sees the matrix as one cell column of
    /// `n` layers, which every matrix with a diagonal is.
    fn build(a: &CsrMatrix, kind: PreconditionerKind) -> Preconditioner {
        match kind {
            PreconditionerKind::Jacobi => Preconditioner::jacobi(&op(a)),
            PreconditionerKind::Gmg => {
                Preconditioner::build_gmg(a, 1, 1, a.n()).expect("column geometry")
            }
        }
    }

    fn solve(
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        kind: PreconditionerKind,
    ) -> Result<SolveStats, ThermalError> {
        let prec = build(a, kind);
        let mut ws = SolverWorkspace::new();
        let options = SolverOptions {
            preconditioner: kind,
            ..SolverOptions::default()
        };
        solve_cg(&op(a), &prec, b, x, &mut ws, &options)
    }

    /// A 1D Laplacian chain: SPD, needs real CG iterations.
    fn chain(n: usize, diag: f64) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, diag));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, &t)
    }

    const ALL_KINDS: [PreconditionerKind; 2] =
        [PreconditionerKind::Jacobi, PreconditionerKind::Gmg];

    #[test]
    fn solves_diagonal_system() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        for kind in ALL_KINDS {
            let mut x = vec![0.0, 0.0];
            let stats = solve(&a, &[2.0, 8.0], &mut x, kind).unwrap();
            assert!((x[0] - 1.0).abs() < 1e-9, "{kind:?}");
            assert!((x[1] - 2.0).abs() < 1e-9, "{kind:?}");
            assert!(stats.residual <= 1e-9);
        }
    }

    #[test]
    fn solves_spd_system_with_every_preconditioner() {
        let a = CsrMatrix::from_triplets(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 2.0),
            ],
        );
        let b = vec![1.0, 2.0, 3.0];
        for kind in ALL_KINDS {
            let mut x = vec![0.0; 3];
            solve(&a, &b, &mut x, kind).unwrap();
            let mut ax = vec![0.0; 3];
            a.matvec_serial(&x, &mut ax);
            for i in 0..3 {
                assert!((ax[i] - b[i]).abs() < 1e-8, "{kind:?}: {x:?}");
            }
        }
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (1, 1, 2.0)]);
        let mut x = vec![5.0, -3.0];
        let stats = solve(&a, &[0.0, 0.0], &mut x, PreconditionerKind::Jacobi).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn iteration_cap_reported() {
        // A 1D Laplacian chain with a tight cap.
        let a = op(&chain(50, 2.0));
        let prec = Preconditioner::jacobi(&a);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let mut ws = SolverWorkspace::new();
        let opts = SolverOptions {
            tolerance: 1e-14,
            max_iterations: 2,
            preconditioner: PreconditionerKind::Jacobi,
            fallback: false,
        };
        let err = solve_cg(&a, &prec, &b, &mut x, &mut ws, &opts).unwrap_err();
        match err {
            ThermalError::NoConvergence { iterations, .. } => assert_eq!(iterations, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn ladder_recovers_from_a_starved_iteration_cap() {
        // An iteration cap far below what the chain needs forces the
        // configured GMG attempt to fail; the Jacobi retry must still
        // deliver the tight-tolerance solution. As one cell column of
        // `n` layers the hierarchy is a single direct Cholesky level,
        // exact in one iteration, so only a zero cap starves it; as a
        // row of `n` cells it coarsens for real and a cap of 2 does.
        let n = 300;
        let a = chain(n, 2.02);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 * 0.1).collect();

        let mut reference = vec![0.0; n];
        solve(&a, &b, &mut reference, PreconditionerKind::Jacobi).unwrap();

        for ((nx, nl), cap) in [((1, n), 0), ((n, 1), 2)] {
            let prec = Preconditioner::build_gmg(&a, nx, 1, nl).expect("geometry matches");
            let opts = SolverOptions {
                tolerance: 1e-9,
                max_iterations: cap,
                preconditioner: PreconditionerKind::Gmg,
                fallback: true,
            };
            let mut ws = SolverWorkspace::new();
            let mut x = vec![0.0; n];
            let mut report = RecoveryReport::default();
            let stats = solve_cg_resilient(&op(&a), &prec, &b, &mut x, &mut ws, &opts, &mut report)
                .unwrap();
            assert_eq!(report.attempts, 1, "{nx}x1x{nl}: one retry suffices");
            assert_eq!(report.recoveries, 1, "{nx}x1x{nl}");
            let ev = report.events[0];
            assert!(ev.recovered, "{nx}x1x{nl}");
            assert_eq!(ev.rung, PreconditionerKind::Jacobi, "{nx}x1x{nl}");
            assert!(stats.residual <= opts.tolerance);
            for (p, q) in x.iter().zip(&reference) {
                assert!((p - q).abs() < 1e-6, "{nx}x1x{nl}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn resilient_path_is_transparent_when_the_solve_succeeds() {
        let a = chain(120, 2.5);
        let b = vec![1.0; 120];
        let opts = SolverOptions::default();
        let prec = build(&a, opts.preconditioner);
        let mut ws = SolverWorkspace::new();
        let mut report = RecoveryReport::default();
        let mut x = vec![0.0; 120];
        let s = op(&a);
        let s1 = solve_cg_resilient(&s, &prec, &b, &mut x, &mut ws, &opts, &mut report).unwrap();
        let mut y = vec![0.0; 120];
        let s2 = solve_cg(&s, &prec, &b, &mut y, &mut ws, &opts).unwrap();
        assert!(report.is_empty());
        assert_eq!(s1, s2);
        assert_eq!(x, y, "bitwise-identical to the plain path");
    }

    #[test]
    fn ladder_gives_up_when_every_rung_fails() {
        // A poisoned right-hand side (NaN) defeats every preconditioner:
        // the GMG solve fails, its Jacobi retry fails too, and the
        // ladder must surface NoConvergence after that one retry.
        let a = chain(200, 2.0);
        let mut b = vec![1.0; 200];
        b[77] = f64::NAN;
        let opts = SolverOptions {
            tolerance: 1e-9,
            max_iterations: 3,
            preconditioner: PreconditionerKind::Gmg,
            fallback: true,
        };
        let prec = build(&a, opts.preconditioner);
        let mut ws = SolverWorkspace::new();
        let mut report = RecoveryReport::default();
        let mut x = vec![0.0; 200];
        let err = solve_cg_resilient(&op(&a), &prec, &b, &mut x, &mut ws, &opts, &mut report)
            .unwrap_err();
        assert!(matches!(err, ThermalError::NoConvergence { .. }));
        assert_eq!(report.attempts, 1, "one Jacobi retry");
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn recovery_report_merge_respects_the_cap_and_totals() {
        let ev = RecoveryEvent {
            rung: PreconditionerKind::Jacobi,
            relaxed_tolerance: 1e-6,
            iterations: 10,
            residual: 1e-10,
            recovered: true,
        };
        let mut a = RecoveryReport::default();
        for _ in 0..40 {
            a.record(ev);
        }
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.attempts, 80);
        assert_eq!(a.recoveries, 80);
        assert_eq!(a.events.len(), 64, "event detail capped");
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        // A chain large enough that CG takes real iterations.
        let n = 400;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.5));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, &t);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut cold = vec![0.0; n];
        let cold_stats = solve(&a, &b, &mut cold, PreconditionerKind::Jacobi).unwrap();
        // Warm start from the solution itself: ~0 iterations.
        let mut warm = cold.clone();
        let warm_stats = solve(&a, &b, &mut warm, PreconditionerKind::Jacobi).unwrap();
        assert!(warm_stats.iterations < cold_stats.iterations);
        assert!(warm_stats.iterations <= 1, "{}", warm_stats.iterations);
        for (w, c) in warm.iter().zip(&cold) {
            assert!((w - c).abs() < 1e-8);
        }
    }

    #[test]
    fn expired_deadline_aborts_the_plain_solve() {
        // A deadline already in the past when the solve starts: the
        // periodic in-loop check must abort with DeadlineExceeded and
        // leave the initial guess untouched, and the very same solve
        // must complete once the guard is gone.
        let n = 300;
        let a = chain(n, 2.02);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 * 0.1).collect();
        let guard = DeadlineGuard::install(std::time::Instant::now());
        let mut x = vec![0.0; n];
        let err = solve(&a, &b, &mut x, PreconditionerKind::Jacobi).unwrap_err();
        assert!(
            matches!(err, ThermalError::DeadlineExceeded { .. }),
            "{err}"
        );
        assert!(
            x.iter().all(|v| *v == 0.0),
            "abort must restore the initial guess"
        );
        drop(guard);
        solve(&a, &b, &mut x, PreconditionerKind::Jacobi).unwrap();
    }

    #[test]
    fn expired_deadline_aborts_the_resilient_ladder() {
        // The fallback ladder must not climb through its rungs once the
        // deadline has passed — a blown budget surfaces immediately as
        // DeadlineExceeded, never as NoConvergence after N more tries.
        let n = 300;
        let a = chain(n, 2.02);
        let b = vec![1.0; n];
        let opts = SolverOptions {
            tolerance: 1e-9,
            max_iterations: 2,
            preconditioner: PreconditionerKind::Gmg,
            fallback: true,
        };
        let prec = build(&a, opts.preconditioner);
        let mut ws = SolverWorkspace::new();
        let mut report = RecoveryReport::default();
        let mut x = vec![0.0; n];
        let _guard = DeadlineGuard::install(std::time::Instant::now());
        let err = solve_cg_resilient(&op(&a), &prec, &b, &mut x, &mut ws, &opts, &mut report)
            .expect_err("ladder must abort under an expired deadline");
        assert!(
            matches!(err, ThermalError::DeadlineExceeded { .. }),
            "ladder must abort, not climb: {err}"
        );
    }

    #[test]
    fn deadline_guard_nests_and_uninstalls() {
        assert!(!DeadlineGuard::active());
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let outer = DeadlineGuard::install(far);
        assert!(DeadlineGuard::active());
        {
            let _inner = DeadlineGuard::install(far);
            assert!(DeadlineGuard::active());
        }
        assert!(DeadlineGuard::active(), "inner drop restores the outer");
        drop(outer);
        assert!(!DeadlineGuard::active());
    }

    #[test]
    fn bare_matrix_gets_jacobi_and_geometry_gets_gmg() {
        let a = chain(30, 2.2);
        assert_eq!(
            Preconditioner::jacobi(&op(&a)).kind(),
            PreconditionerKind::Jacobi
        );
        // With geometry (a chain is one cell column of 30 layers) the
        // hierarchy builds and solves.
        let p = Preconditioner::build_gmg(&a, 1, 1, 30).expect("geometry matches");
        assert_eq!(p.kind(), PreconditionerKind::Gmg);
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let mut ws = SolverWorkspace::new();
        let opts = SolverOptions::default();
        let stats = solve_cg(&op(&a), &p, &b, &mut x, &mut ws, &opts).unwrap();
        assert!(stats.residual <= opts.tolerance);
        let mut ax = vec![0.0; 30];
        a.matvec_serial(&x, &mut ax);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-7);
        }
    }

    #[test]
    fn stencil_operator_solve_is_bitwise_the_csr_solve() {
        // A chain is a 1-cell-high row of 80 cells, so it is
        // stencil-extractable and coarsens for real. As a `(1, 1, 1)`
        // stencil every row past the first is a tail row, folded by the
        // CSR kernel itself; the CG run and the finest level of its
        // V-cycles through the plane sweeps must match it bitwise.
        let a = chain(80, 2.3);
        let s = StencilOperator::from_csr(&a, 80, 1, 1).expect("structured");
        let prec = Preconditioner::build_gmg(&a, 80, 1, 1).expect("row geometry");
        let opts = SolverOptions::default();
        let b: Vec<f64> = (0..80).map(|i| ((i * 7) % 11) as f64 * 0.2 + 0.1).collect();
        let mut ws = SolverWorkspace::new();
        let mut x_csr = vec![0.0; 80];
        let s1 = solve_cg(&op(&a), &prec, &b, &mut x_csr, &mut ws, &opts).unwrap();
        let mut x_st = vec![0.0; 80];
        let s2 = solve_cg(&s, &prec, &b, &mut x_st, &mut ws, &opts).unwrap();
        assert_eq!(s1, s2);
        assert!(x_csr
            .iter()
            .zip(&x_st)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn chunked_dot_is_chunk_order_invariant() {
        // The deterministic-reduction contract: partials may be produced
        // in any order (any thread interleaving) without changing the
        // result, because each partial's value and the fold tree are
        // fixed by the chunk boundaries alone.
        let n = 3 * ROW_CHUNK + 517;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 * 1e-3 - 0.05)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 53) % 97) as f64 * 1e-3 + 0.01)
            .collect();
        let mut partials = vec![0.0; n.div_ceil(ROW_CHUNK)];
        let forward = dot_chunked(&a, &b, &mut partials, false);

        // Recompute the partials in reverse chunk order, then fold with
        // the same tree: must agree bitwise.
        let mut rev: Vec<f64> = vec![0.0; partials.len()];
        for k in (0..rev.len()).rev() {
            let lo = k * ROW_CHUNK;
            let hi = (lo + ROW_CHUNK).min(n);
            rev[k] = chunk_dot(&a[lo..hi], &b[lo..hi]);
        }
        let backward = reduce_pairwise(&mut rev);
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn csr_solve_meets_the_true_residual() {
        // The convergence test runs on the recurrence residual; the true
        // residual `b - A x` of the returned solution must meet the same
        // relative tolerance.
        let n = 120;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
            if i + 10 < n {
                t.push((i, i + 10, -0.5));
                t.push((i + 10, i, -0.5));
            }
        }
        let a = CsrMatrix::from_triplets(n, &t);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let tol = SolverOptions::default().tolerance;
        for kind in ALL_KINDS {
            let mut x = vec![0.0; n];
            solve(&a, &b, &mut x, kind).unwrap();
            let mut ax = vec![0.0; n];
            a.matvec_serial(&x, &mut ax);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let (norm_r, norm_b) = (pairwise_dot(&r, &r).sqrt(), pairwise_dot(&b, &b).sqrt());
            assert!(norm_r <= tol * norm_b, "{kind:?}: {norm_r} vs {norm_b}");
        }
    }
}

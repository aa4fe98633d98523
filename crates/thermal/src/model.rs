//! The assembled RC network: conductance graph, capacitances, solvers.
//!
//! [`ThermalModel::build`] turns a [`Stack`] + [`GridSpec`] into a node
//! graph:
//!
//! ```text
//! node ids:
//!   [0*C .. 1*C)   heat-sink base, die-sized center region (grid)
//!   [1*C .. 2*C)   IHS (spreader), die-sized center region (grid)
//!   [2*C .. 3*C)   TIM (grid)
//!   [3*C .. (3+L)*C) user layers, top to bottom (grid each)
//!   then 12 extra package nodes:
//!     +0..4   spreader periphery  (W, E, S, N)
//!     +4..8   sink inner periphery (above the spreader ring)
//!     +8..12  sink outer periphery (beyond the spreader)
//! ```
//!
//! where `C = nx*ny` and `L` the number of user layers. The ambient is not
//! a node: convection enters the diagonal and the right-hand side, which
//! keeps the system symmetric positive definite.

use std::sync::{Arc, Mutex, OnceLock};

use xylem_obs::{Counter, Gauge};

use crate::adaptive::AdaptiveController;
use crate::csr::CsrMatrix;
use crate::error::ThermalError;
use crate::grid::{rasterize, GridSpec};
use crate::power::PowerMap;
use crate::solve::{
    debug_check_solution, solve_cg_resilient, Preconditioner, PreconditionerKind, RecoveryReport,
    SolveStats, SolverOptions, SolverWorkspace,
};
use crate::stack::Stack;
use crate::stencil::StencilOperator;
use crate::temperature::TemperatureField;
use crate::units::{Celsius, Watts};

/// Index of the four package periphery sides, in storage order.
const SIDE_W: usize = 0;
const SIDE_E: usize = 1;
const SIDE_S: usize = 2;
const SIDE_N: usize = 3;

/// A discretized, solvable thermal model.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    grid: GridSpec,
    width: f64,
    height: f64,
    n_user_layers: usize,
    user_layer_names: Vec<String>,
    /// Conductance to ambient per node (convection + board path), W/K.
    g_ambient: Vec<f64>,
    /// Lumped heat capacity per node, J/K.
    capacitance: Vec<f64>,
    /// The conductance matrix lowered to flat CSR at build time (the
    /// node graph is assembled as a local adjacency list and dropped);
    /// only preconditioner setup reads it, never a solve.
    csr: CsrMatrix,
    /// Matrix-free structured-grid view of `csr` (coefficient planes, no
    /// column indices in the inner loop), extracted at build time; every
    /// solve multiplies through it.
    stencil: StencilOperator,
    /// Steady-state preconditioner for `csr` per the current solver
    /// options, built by the first steady solve: transient-only users
    /// (DTM loops, serve sessions) never pay for it. A clone taken after
    /// that solve copies the built preconditioner.
    prec: OnceLock<Preconditioner>,
    /// Cached backward-Euler operator `G + C/dt` (+ its preconditioner),
    /// rebuilt only when `dt` or the preconditioner kind changes.
    transient_cache: TransientCache,
    ambient: f64,
    /// Per user layer, per block: `(cell, fraction of block area)`.
    block_weights: Vec<Vec<Vec<(usize, f64)>>>,
    /// Block names per user layer (parallel to `block_weights`).
    block_names: Vec<Vec<String>>,
    solver_options: SolverOptions,
}

/// Lazily built backward-Euler operator for one `dt`: the
/// diagonal-patched clone of the model's stencil, which transient
/// solves, and the finest level of their GMG V-cycles, multiply
/// through, and its preconditioner.
#[derive(Debug)]
struct TransientOp {
    dt: f64,
    kind: PreconditionerKind,
    stencil: StencilOperator,
    prec: Preconditioner,
}

/// Builds the preconditioner for `kind`: the multigrid is set up from
/// the CSR `a` on the grid geometry of `stencil` (the stencil of `a`),
/// and Jacobi reads the diagonal of `stencil`. When `kind` is
/// [`PreconditionerKind::Gmg`] but the hierarchy cannot be built (a
/// coarse level that is not stencil-shaped), builds Jacobi instead;
/// [`Preconditioner::kind`] reports which one it is.
fn build_prec_for(
    a: &CsrMatrix,
    stencil: &StencilOperator,
    kind: PreconditionerKind,
) -> Preconditioner {
    xylem_obs::incr(Counter::PreconditionerBuilds);
    let (nx, ny, nl) = (stencil.nx(), stencil.ny(), stencil.layers());
    match kind {
        PreconditionerKind::Jacobi => Preconditioner::jacobi(stencil),
        PreconditionerKind::Gmg => Preconditioner::build_gmg(a, nx, ny, nl)
            .unwrap_or_else(|| Preconditioner::jacobi(stencil)),
    }
}

/// Slots in the keyed transient-operator cache. Adaptive step-doubling
/// alternates `dt` and `dt/2` every step, and a horizon-clamped
/// remainder step adds one or two more distinct values; four slots hold
/// the working set of any stepping mode without an eviction storm.
const TRANSIENT_CACHE_SLOTS: usize = 4;

/// Interior-mutable keyed LRU cache for [`TransientOp`]s, so transient
/// stepping under `&self` pays the `A + C/dt` assembly (and its
/// preconditioner factorization) once per distinct `dt` instead of once
/// per call. DTM control loops re-solve with the same control period
/// thousands of times, and the adaptive engine cycles through a small
/// set of power-of-two step sizes.
///
/// Slots hold `Arc<TransientOp>` so the mutex guards only lookup,
/// insertion, and eviction — never a solve. Concurrent sessions sharing
/// one model (xylem-serve's shared-stack operator cache) each clone the
/// `Arc` and solve in parallel; an evicted operator stays alive until
/// the last in-flight solve drops its reference.
#[derive(Debug, Default)]
struct TransientCache(Mutex<Vec<Arc<TransientOp>>>);

impl Clone for TransientCache {
    /// Clones start empty: the cache is a pure memoization and rebuilding
    /// it is always correct.
    fn clone(&self) -> Self {
        TransientCache::default()
    }
}

impl ThermalModel {
    /// Builds the RC network for `stack` on `grid`.
    ///
    /// # Errors
    ///
    /// Propagates floorplan/rasterization errors; returns
    /// [`ThermalError::BadStack`] for impossible geometry or a node graph
    /// that is not the 7-point stencil layout.
    pub fn build(stack: &Stack, grid: GridSpec) -> Result<Self, ThermalError> {
        let (w, h) = (stack.width(), stack.height());
        let pkg = stack.package();
        pkg.validate_die(w, h)?;

        let cells = grid.cells();
        let n_user = stack.len();
        let n_solver_layers = 3 + n_user;
        let extra_base = n_solver_layers * cells;
        let n_nodes = extra_base + 12;

        // Per solver layer: thickness and per-cell conductivity/capacity.
        let mut thickness = Vec::with_capacity(n_solver_layers);
        let mut lambda: Vec<Vec<f64>> = Vec::with_capacity(n_solver_layers);
        let mut cap_vol: Vec<Vec<f64>> = Vec::with_capacity(n_solver_layers);

        let sink_m = pkg.sink_material();
        let sp_m = pkg.spreader_material();
        let tim_m = pkg.tim_material();
        thickness.push(pkg.sink_thickness());
        lambda.push(vec![sink_m.conductivity().get(); cells]);
        cap_vol.push(vec![sink_m.volumetric_heat_capacity().get(); cells]);
        thickness.push(pkg.spreader_thickness());
        lambda.push(vec![sp_m.conductivity().get(); cells]);
        cap_vol.push(vec![sp_m.volumetric_heat_capacity().get(); cells]);
        thickness.push(pkg.tim_thickness());
        lambda.push(vec![tim_m.conductivity().get(); cells]);
        cap_vol.push(vec![tim_m.volumetric_heat_capacity().get(); cells]);

        let mut block_weights = Vec::with_capacity(n_user);
        let mut block_names = Vec::with_capacity(n_user);
        let mut user_layer_names = Vec::with_capacity(n_user);
        for layer in stack.layers() {
            let r = rasterize(layer, grid, w, h)?;
            thickness.push(layer.thickness());
            lambda.push(r.lambda);
            cap_vol.push(r.capacity);
            block_weights.push(r.block_weights);
            block_names.push(
                layer
                    .floorplan()
                    .map(|fp| fp.blocks().iter().map(|b| b.name().to_string()).collect())
                    .unwrap_or_default(),
            );
            user_layer_names.push(layer.name().to_string());
        }

        let dx = w / grid.nx() as f64;
        let dy = h / grid.ny() as f64;
        let cell_area = dx * dy;

        let mut neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_nodes];
        let mut g_ambient = vec![0.0_f64; n_nodes];
        let mut capacitance = vec![0.0_f64; n_nodes];

        let add_edge = |nb: &mut Vec<Vec<(u32, f64)>>, a: usize, b: usize, g: f64| {
            debug_assert!(g.is_finite() && g > 0.0, "conductance {g} between {a},{b}");
            nb[a].push((b as u32, g));
            nb[b].push((a as u32, g));
        };

        // --- grid-layer internal (lateral) and inter-layer (vertical) edges.
        for l in 0..n_solver_layers {
            let t = thickness[l];
            let lam = &lambda[l];
            let base = l * cells;
            for iy in 0..grid.ny() {
                for ix in 0..grid.nx() {
                    let i = grid.index(ix, iy);
                    // capacitance
                    capacitance[base + i] = cap_vol[l][i] * cell_area * t;
                    // +x neighbor
                    if ix + 1 < grid.nx() {
                        let j = grid.index(ix + 1, iy);
                        let g = (t * dy) / (dx / (2.0 * lam[i]) + dx / (2.0 * lam[j]));
                        add_edge(&mut neighbors, base + i, base + j, g);
                    }
                    // +y neighbor
                    if iy + 1 < grid.ny() {
                        let j = grid.index(ix, iy + 1);
                        let g = (t * dx) / (dy / (2.0 * lam[i]) + dy / (2.0 * lam[j]));
                        add_edge(&mut neighbors, base + i, base + j, g);
                    }
                    // vertical to the layer below
                    if l + 1 < n_solver_layers {
                        let tb = thickness[l + 1];
                        let lamb = &lambda[l + 1][i];
                        let g = cell_area / (t / (2.0 * lam[i]) + tb / (2.0 * lamb));
                        add_edge(&mut neighbors, base + i, (l + 1) * cells + i, g);
                    }
                }
            }
        }

        // --- package periphery nodes.
        let sp_side = pkg.spreader_side();
        let sk_side = pkg.sink_side();
        let ext_sp_x = (sp_side - w) / 2.0; // spreader overhang beyond die, x
        let ext_sp_y = (sp_side - h) / 2.0;
        let ext_sk = (sk_side - sp_side) / 2.0; // sink overhang beyond spreader

        let sp_ring_area = (sp_side * sp_side - w * h).max(0.0);
        let sk_ring_area = (sk_side * sk_side - sp_side * sp_side).max(0.0);
        let sp_side_area = sp_ring_area / 4.0;
        let sk_in_side_area = sp_ring_area / 4.0; // sink region above the spreader ring
        let sk_out_side_area = sk_ring_area / 4.0;

        let sp_periph = extra_base; // +side
        let sk_inner = extra_base + 4;
        let sk_outer = extra_base + 8;

        let lam_sp = sp_m.conductivity().get();
        let lam_sk = sink_m.conductivity().get();
        let t_sp = pkg.spreader_thickness();
        let t_sk = pkg.sink_thickness();

        // Capacitances of periphery nodes.
        let cap_sp = sp_m.volumetric_heat_capacity().get();
        let cap_sk = sink_m.volumetric_heat_capacity().get();
        for s in 0..4 {
            capacitance[sp_periph + s] = cap_sp * sp_side_area * t_sp;
            capacitance[sk_inner + s] = cap_sk * sk_in_side_area * t_sk;
            capacitance[sk_outer + s] = cap_sk * sk_out_side_area * t_sk;
        }

        // Lateral edges from the die-sized center grids to periphery nodes,
        // plus vertical spreader-periph <-> sink-inner-periph edges.
        if sp_ring_area > 0.0 {
            // Edge cells of the spreader grid (solver layer 1) and sink grid
            // (solver layer 0).
            for iy in 0..grid.ny() {
                for (side, ix) in [(SIDE_W, 0), (SIDE_E, grid.nx() - 1)] {
                    let i = grid.index(ix, iy);
                    let ext = ext_sp_x.max(1e-9);
                    let g_sp = lam_sp * (t_sp * dy) / (dx / 2.0 + ext / 2.0);
                    add_edge(&mut neighbors, cells + i, sp_periph + side, g_sp);
                    let g_sk = lam_sk * (t_sk * dy) / (dx / 2.0 + ext / 2.0);
                    add_edge(&mut neighbors, i, sk_inner + side, g_sk);
                }
            }
            for ix in 0..grid.nx() {
                for (side, iy) in [(SIDE_S, 0), (SIDE_N, grid.ny() - 1)] {
                    let i = grid.index(ix, iy);
                    let ext = ext_sp_y.max(1e-9);
                    let g_sp = lam_sp * (t_sp * dx) / (dy / 2.0 + ext / 2.0);
                    add_edge(&mut neighbors, cells + i, sp_periph + side, g_sp);
                    let g_sk = lam_sk * (t_sk * dx) / (dy / 2.0 + ext / 2.0);
                    add_edge(&mut neighbors, i, sk_inner + side, g_sk);
                }
            }
            // Vertical: spreader periphery <-> sink inner periphery.
            for s in 0..4 {
                let g = sp_side_area / (t_sp / (2.0 * lam_sp) + t_sk / (2.0 * lam_sk));
                add_edge(&mut neighbors, sp_periph + s, sk_inner + s, g);
            }
        }
        if sk_ring_area > 0.0 {
            // Lateral: sink inner periphery <-> sink outer periphery.
            for s in 0..4 {
                let ext_in = ((sp_side - w.min(h)) / 2.0).max(1e-9);
                let g = lam_sk * (t_sk * sp_side) / (ext_in / 2.0 + ext_sk.max(1e-9) / 2.0);
                add_edge(&mut neighbors, sk_inner + s, sk_outer + s, g);
            }
        }

        // --- convection to ambient from every sink node, proportional to
        // its share of the total sink area.
        let sink_area_total = sk_side * sk_side;
        let g_conv_total = 1.0 / pkg.convection_resistance();
        for g in g_ambient.iter_mut().take(cells) {
            *g += g_conv_total * (cell_area / sink_area_total);
        }
        for s in 0..4 {
            g_ambient[sk_inner + s] += g_conv_total * (sk_in_side_area / sink_area_total);
            g_ambient[sk_outer + s] += g_conv_total * (sk_out_side_area / sink_area_total);
        }

        // --- optional secondary path from the bottom layer to ambient.
        if let Some(r_board) = pkg.board_resistance() {
            let g_total = 1.0 / r_board;
            let bottom_base = (n_solver_layers - 1) * cells;
            for i in 0..cells {
                g_ambient[bottom_base + i] += g_total * (cell_area / (w * h));
            }
        }

        // Degenerate packages (spreader/sink exactly die-sized) leave some
        // periphery nodes with no edges at all; pin them to ambient with a
        // unit conductance so the system stays SPD. They carry no heat.
        for i in extra_base..n_nodes {
            if neighbors[i].is_empty() && g_ambient[i] == 0.0 {
                g_ambient[i] = 1.0;
            }
        }

        // --- diagonal.
        let mut diagonal = vec![0.0_f64; n_nodes];
        let mut conductances = Vec::new();
        for (i, d) in diagonal.iter_mut().enumerate() {
            conductances.clear();
            conductances.extend(neighbors[i].iter().map(|&(_, g)| g));
            *d = crate::reduce::pairwise_sum(&conductances) + g_ambient[i];
        }
        if diagonal.iter().any(|&d| d <= 0.0) {
            return Err(ThermalError::BadStack {
                reason: "model has an isolated node (zero diagonal)".into(),
            });
        }

        // Lower the node graph into flat CSR (the adjacency list is
        // dropped here) and extract the structured stencil view; every
        // solve afterwards multiplies through the stencil.
        let csr = CsrMatrix::from_adjacency(&neighbors, &diagonal);
        drop(neighbors);
        let stencil = StencilOperator::from_csr(&csr, grid.nx(), grid.ny(), n_solver_layers)
            .ok_or_else(|| ThermalError::BadStack {
                reason: "node graph is not the 7-point stencil layout".into(),
            })?;

        Ok(ThermalModel {
            grid,
            width: w,
            height: h,
            n_user_layers: n_user,
            user_layer_names,
            g_ambient,
            capacitance,
            csr,
            stencil,
            prec: OnceLock::new(),
            transient_cache: TransientCache::default(),
            ambient: pkg.ambient(),
            block_weights,
            block_names,
            solver_options: SolverOptions::default(),
        })
    }

    /// Grid resolution.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Die outline width, m.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Die outline height, m.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of user (stack) layers, excluding package layers.
    pub fn n_user_layers(&self) -> usize {
        self.n_user_layers
    }

    /// Names of the user layers, top to bottom.
    pub fn user_layer_names(&self) -> &[String] {
        &self.user_layer_names
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient)
    }

    /// Total node count (grid cells of all solver layers + package nodes).
    pub fn node_count(&self) -> usize {
        self.csr.n()
    }

    /// First node index of user layer `layer`.
    pub(crate) fn user_layer_base(&self, layer: usize) -> usize {
        (3 + layer) * self.grid.cells()
    }

    /// Block names of user layer `layer` (empty if the layer has no
    /// floorplan).
    pub fn block_names(&self, layer: usize) -> &[String] {
        &self.block_names[layer]
    }

    /// Power-spreading weights of block `block` in user layer `layer`:
    /// `(cell, fraction of block area)` pairs.
    ///
    /// # Errors
    ///
    /// [`ThermalError::IndexOutOfRange`] if the layer is out of range or
    /// [`ThermalError::BadFloorplan`] if the block name is unknown.
    pub fn block_weights(
        &self,
        layer: usize,
        block: &str,
    ) -> Result<&[(usize, f64)], ThermalError> {
        let names = self
            .block_names
            .get(layer)
            .ok_or(ThermalError::IndexOutOfRange {
                what: "layer",
                index: layer,
                len: self.n_user_layers,
            })?;
        let bi =
            names
                .iter()
                .position(|n| n == block)
                .ok_or_else(|| ThermalError::BadFloorplan {
                    reason: format!("no block '{block}' in layer {layer}"),
                })?;
        Ok(&self.block_weights[layer][bi])
    }

    /// Replaces the solver options used by [`ThermalModel::steady_state`]
    /// and the transient integrator. If the preconditioner kind changed,
    /// drops the steady preconditioner (the next steady solve builds the
    /// new kind) and the cached transient operators.
    pub fn set_solver_options(&mut self, options: SolverOptions) {
        if options.preconditioner != self.solver_options.preconditioner {
            self.prec = OnceLock::new();
            self.transient_cache = TransientCache::default();
        }
        self.solver_options = options;
    }

    /// The conductance matrix in flat CSR form (convection on the
    /// diagonal, as lowered at build time).
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// The matrix-free structured-grid view of the conductance matrix.
    pub fn stencil(&self) -> &StencilOperator {
        &self.stencil
    }

    /// Current solver options.
    pub fn solver_options(&self) -> &SolverOptions {
        &self.solver_options
    }

    /// Right-hand side for the steady-state system: power plus ambient
    /// injection, written into a caller buffer.
    fn assemble_rhs_into(&self, power: &PowerMap, b: &mut Vec<f64>) -> Result<(), ThermalError> {
        let n = self.node_count();
        if power.n_layers() != self.n_user_layers || power.cells() != self.grid.cells() {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: power.n_layers() * power.cells(),
                model_nodes: self.n_user_layers * self.grid.cells(),
            });
        }
        b.clear();
        b.resize(n, 0.0);
        for (i, g) in self.g_ambient.iter().enumerate() {
            b[i] = g * self.ambient;
        }
        let cells = self.grid.cells();
        for l in 0..self.n_user_layers {
            let base = self.user_layer_base(l);
            let lp = power.layer_slice(l);
            for c in 0..cells {
                b[base + c] += lp[c];
            }
        }
        Ok(())
    }

    /// Solves the steady-state system `G T = P` for the given power map,
    /// cold-starting from ambient with a throwaway workspace. Convenience
    /// wrapper over [`ThermalModel::steady_state_from`]; sweeps that solve
    /// repeatedly should hold a [`SolverWorkspace`] and call that instead.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerMapMismatch`] for a mismatched map;
    /// [`ThermalError::NoConvergence`] if CG stalls (raise
    /// [`SolverOptions::max_iterations`]).
    pub fn steady_state(&self, power: &PowerMap) -> Result<TemperatureField, ThermalError> {
        let mut ws = SolverWorkspace::new();
        self.steady_state_from(power, None, &mut ws)
    }

    /// Solves the steady-state system with an optional warm-start guess
    /// and a caller-owned workspace.
    ///
    /// `guess` seeds the CG iteration (a field near the solution — e.g.
    /// the previous solve of a sweep — directly cuts iterations); `None`
    /// cold-starts from uniform ambient. Either way the solve converges
    /// to the same solution within the configured tolerance. Beyond the
    /// returned field itself, repeated solves through one `ws` perform no
    /// per-solve allocation.
    ///
    /// # Errors
    ///
    /// As [`ThermalModel::steady_state`]; additionally rejects a `guess`
    /// whose node count does not match.
    pub fn steady_state_from(
        &self,
        power: &PowerMap,
        guess: Option<&TemperatureField>,
        ws: &mut SolverWorkspace,
    ) -> Result<TemperatureField, ThermalError> {
        let n = self.node_count();
        let mut rhs = std::mem::take(&mut ws.rhs);
        let result = (|| -> Result<_, ThermalError> {
            self.assemble_rhs_into(power, &mut rhs)?;
            let mut x = match guess {
                Some(g) => {
                    if g.node_count() != n {
                        return Err(ThermalError::PowerMapMismatch {
                            map_nodes: g.node_count(),
                            model_nodes: n,
                        });
                    }
                    g.raw().to_vec()
                }
                None => vec![self.ambient; n],
            };
            let mut recovery = RecoveryReport::default();
            let prec = self.prec.get_or_init(|| {
                build_prec_for(&self.csr, &self.stencil, self.solver_options.preconditioner)
            });
            let stats = solve_cg_resilient(
                &self.stencil,
                prec,
                &rhs,
                &mut x,
                ws,
                &self.solver_options,
                &mut recovery,
            )?;
            Ok((x, stats, recovery))
        })();
        ws.rhs = rhs;
        let (x, stats, recovery) = result?;
        let temps = TemperatureField::new(self, x, stats, recovery);
        debug_check_solution(&stats, &self.solver_options, temps.raw());
        #[cfg(debug_assertions)]
        {
            // Energy conservation: at steady state all injected power must
            // leave through the ambient paths.
            let balance = self.ambient_outflow(&temps) - power.total();
            let scale = power.total().get().abs().max(1.0);
            debug_assert!(
                balance.abs() <= 1e-3 * scale,
                "energy imbalance {balance} W for {} injected",
                power.total()
            );
        }
        Ok(temps)
    }

    /// Advances a transient simulation by `steps` backward-Euler steps of
    /// `dt` seconds under constant `power`, starting from `initial`, with
    /// a caller-owned workspace and an explicit CG warm-start policy.
    ///
    /// The `A + C/dt` operator and its preconditioner come from a small
    /// LRU cache keyed on `dt` (bitwise) and preconditioner kind, so
    /// control loops stepping with a fixed period pay assembly and
    /// factorization once, not per call.
    ///
    /// `guess` seeds the **first** step's CG iterate: `None` (the
    /// default) starts from
    /// `initial` — the physically-warm choice, since the previous state
    /// is close to the next solution for any reasonable `dt`. Passing
    /// e.g. a uniform-ambient field instead forces a cold start, which
    /// exists so the warm-start benefit can be measured; the converged
    /// solution is the same either way. Steps after the first always
    /// iterate from the evolving state.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidTimeStep`] for a bad `dt`; a
    /// [`ThermalError::PowerMapMismatch`] for an `initial` or `guess` whose
    /// node count does not match; otherwise as
    /// [`ThermalModel::steady_state`].
    pub fn transient_with(
        &self,
        power: &PowerMap,
        initial: &TemperatureField,
        dt: f64,
        steps: usize,
        guess: Option<&TemperatureField>,
        ws: &mut SolverWorkspace,
    ) -> Result<TemperatureField, ThermalError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::InvalidTimeStep { dt });
        }
        let n = self.node_count();
        if initial.node_count() != n {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: initial.node_count(),
                model_nodes: n,
            });
        }
        if let Some(g) = guess {
            if g.node_count() != n {
                return Err(ThermalError::PowerMapMismatch {
                    map_nodes: g.node_count(),
                    model_nodes: n,
                });
            }
        }

        let mut rhs = std::mem::take(&mut ws.rhs);
        let mut rhs0 = std::mem::take(&mut ws.rhs0);
        let result = self.with_transient_op(dt, |op, prec| -> Result<_, ThermalError> {
            self.assemble_rhs_into(power, &mut rhs0)?;
            rhs.clear();
            rhs.resize(n, 0.0);
            // The state the BE right-hand side is formed from; also the CG
            // iterate, except on the first step when `guess` overrides it.
            let mut x = initial.raw().to_vec();
            let mut stats = SolveStats::default();
            let mut recovery = RecoveryReport::default();
            for step in 0..steps {
                for i in 0..n {
                    rhs[i] = rhs0[i] + self.capacitance[i] / dt * x[i];
                }
                if step == 0 {
                    if let Some(g) = guess {
                        x.copy_from_slice(g.raw());
                    }
                }
                let mut step_recovery = RecoveryReport::default();
                let s = solve_cg_resilient(
                    op,
                    prec,
                    &rhs,
                    &mut x,
                    ws,
                    &self.solver_options,
                    &mut step_recovery,
                )?;
                recovery.merge(&step_recovery);
                stats.iterations += s.iterations;
                stats.residual = s.residual;
            }
            Ok((x, stats, recovery))
        });
        ws.rhs = rhs;
        ws.rhs0 = rhs0;
        let (x, stats, recovery) = result?;
        let temps = TemperatureField::new(self, x, stats, recovery);
        debug_check_solution(&stats, &self.solver_options, temps.raw());
        Ok(temps)
    }

    /// Returns the backward-Euler operator `G + C/dt` (+ preconditioner)
    /// for `dt`, building it on a cache miss. The cache holds
    /// [`TRANSIENT_CACHE_SLOTS`] operators keyed on `dt` (bitwise) and
    /// preconditioner kind, evicting least-recently-used. The lock spans
    /// lookup and (on miss) the build, so hit/miss/eviction counters stay
    /// deterministic for a fixed call sequence; the returned `Arc` lets
    /// callers solve without holding the lock.
    fn transient_op(&self, dt: f64) -> Arc<TransientOp> {
        let kind = self.solver_options.preconditioner;
        let mut slots = self
            .transient_cache
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let hit = slots
            .iter()
            .position(|op| op.dt.to_bits() == dt.to_bits() && op.kind == kind);
        if let Some(i) = hit {
            xylem_obs::incr(Counter::TransientCacheHits);
            let op = slots.remove(i);
            // Most-recently-used lives at the back.
            slots.push(Arc::clone(&op));
            return op;
        }
        xylem_obs::incr(Counter::TransientCacheMisses);
        if slots.len() >= TRANSIENT_CACHE_SLOTS {
            slots.remove(0);
            xylem_obs::incr(Counter::TransientCacheEvictions);
        }
        let patch: Vec<f64> = self.capacitance.iter().map(|c| c / dt).collect();
        let stencil = self.stencil.with_diagonal_added(&patch);
        // The patched CSR is setup input only, dropped with this statement.
        let prec = build_prec_for(&self.csr.with_diagonal_added(&patch), &stencil, kind);
        let op = Arc::new(TransientOp {
            dt,
            kind,
            stencil,
            prec,
        });
        slots.push(Arc::clone(&op));
        op
    }

    /// Runs `f` with the cached backward-Euler operator for `dt`. The
    /// cache lock is *not* held while `f` runs, so concurrent transient
    /// solves over one shared model proceed in parallel.
    fn with_transient_op<R>(
        &self,
        dt: f64,
        f: impl FnOnce(&StencilOperator, &Preconditioner) -> R,
    ) -> R {
        let op = self.transient_op(dt);
        f(&op.stencil, &op.prec)
    }

    /// One backward-Euler step of `dt` seconds, in place: forms the BE
    /// right-hand side from the current content of `x` (into the staging
    /// buffer `rhs`) and warm-starts CG from it. Charges CG iterations to
    /// `iterations` even when the solve fails, and reports a non-finite
    /// solution as [`ThermalError::NonFiniteTemperature`] instead of
    /// letting it propagate into the next step.
    #[allow(clippy::too_many_arguments)]
    fn be_step_inplace(
        &self,
        dt: f64,
        rhs0: &[f64],
        rhs: &mut Vec<f64>,
        x: &mut [f64],
        ws: &mut SolverWorkspace,
        recovery: &mut RecoveryReport,
        iterations: &mut usize,
    ) -> Result<f64, ThermalError> {
        let n = rhs0.len();
        rhs.clear();
        rhs.resize(n, 0.0);
        for i in 0..n {
            rhs[i] = rhs0[i] + self.capacitance[i] / dt * x[i];
        }
        let solved = self.with_transient_op(dt, |op, prec| {
            solve_cg_resilient(op, prec, rhs, x, ws, &self.solver_options, recovery)
        });
        match solved {
            Ok(s) => {
                *iterations += s.iterations;
                match x.iter().position(|v| !v.is_finite()) {
                    None => Ok(s.residual),
                    Some(node) => Err(ThermalError::NonFiniteTemperature { node }),
                }
            }
            Err(e) => {
                if let ThermalError::NoConvergence { iterations: it, .. } = &e {
                    *iterations += *it;
                }
                Err(e)
            }
        }
    }

    /// Error-controlled adaptive transient integration over `horizon_s`
    /// seconds under constant `power`, starting from `initial`.
    ///
    /// Each step solves one full backward-Euler step of `dt` and two
    /// half-steps; their difference yields a weighted-RMS local-error
    /// estimate that `ctrl` (see [`crate::adaptive`]) accepts or rejects,
    /// adapting `dt` through a clamped PI rule over power-of-two rungs.
    /// The accepted state is always the (more accurate) two-half-step
    /// solution. Diverging solves — solver errors or non-finite states —
    /// are rolled back, never propagated: the engine shrinks `dt`, and at
    /// the degradation floor (`dt_min`, or the rejection-streak budget)
    /// it force-accepts a finite over-tolerance state or *holds* the
    /// previous state across an unsolvable interval. Exhausting a CG or
    /// wall-clock budget degrades to plain fixed steps (economy mode).
    /// The returned field is therefore always finite, and every accept,
    /// reject, hold, and budget exhaustion is visible through
    /// [`xylem_obs`] counters, gauges, and JSONL events.
    ///
    /// `ctrl` carries state across calls: a DTM loop calls this once per
    /// control period and the step size, PI history, and budget
    /// accounting persist (and can be checkpointed) between calls.
    ///
    /// # Errors
    ///
    /// Only for invalid *inputs* — a bad `horizon_s`, a mismatched or
    /// non-finite `initial`. Solver failures during stepping degrade as
    /// described instead of erroring.
    pub fn transient_adaptive(
        &self,
        power: &PowerMap,
        initial: &TemperatureField,
        horizon_s: f64,
        ctrl: &mut AdaptiveController,
        ws: &mut SolverWorkspace,
    ) -> Result<TemperatureField, ThermalError> {
        if !(horizon_s.is_finite() && horizon_s > 0.0) {
            return Err(ThermalError::InvalidTimeStep { dt: horizon_s });
        }
        let n = self.node_count();
        if initial.node_count() != n {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: initial.node_count(),
                model_nodes: n,
            });
        }
        if let Some(node) = initial.raw().iter().position(|t| !t.is_finite()) {
            return Err(ThermalError::NonFiniteTemperature { node });
        }

        let mut rhs = std::mem::take(&mut ws.rhs);
        let mut rhs0 = std::mem::take(&mut ws.rhs0);
        let mut x_full = std::mem::take(&mut ws.x_full);
        let mut x_half = std::mem::take(&mut ws.x_half);
        let result = (|| -> Result<_, ThermalError> {
            self.assemble_rhs_into(power, &mut rhs0)?;
            let mut x = initial.raw().to_vec();
            let mut stats = SolveStats::default();
            let mut recovery = RecoveryReport::default();
            let mut t = 0.0_f64;
            // Relative slop so a remainder step within one ULP-scale of
            // the horizon terminates the loop.
            let t_end = horizon_s * (1.0 - 1e-12);
            while t < t_end {
                let dt = ctrl.dt().min(horizon_s - t);
                let started = std::time::Instant::now();
                let mut iters = 0usize;
                let mut attempt_recovery = RecoveryReport::default();

                // Attempt the step. Economy mode: one plain BE step, no
                // error estimate. Normal mode: step-doubling (full +
                // two halves); the half-step state is the candidate.
                let economy = ctrl.in_economy();
                let solves: u64 = if economy { 1 } else { 3 };
                let attempt = if economy {
                    x_full.clear();
                    x_full.extend_from_slice(&x);
                    self.be_step_inplace(
                        dt,
                        &rhs0,
                        &mut rhs,
                        &mut x_full,
                        ws,
                        &mut attempt_recovery,
                        &mut iters,
                    )
                    .map(|residual| (residual, f64::NAN))
                } else {
                    x_full.clear();
                    x_full.extend_from_slice(&x);
                    x_half.clear();
                    x_half.extend_from_slice(&x);
                    let half = dt * 0.5;
                    self.be_step_inplace(
                        dt,
                        &rhs0,
                        &mut rhs,
                        &mut x_full,
                        ws,
                        &mut attempt_recovery,
                        &mut iters,
                    )
                    .and_then(|_| {
                        self.be_step_inplace(
                            half,
                            &rhs0,
                            &mut rhs,
                            &mut x_half,
                            ws,
                            &mut attempt_recovery,
                            &mut iters,
                        )
                    })
                    .and_then(|_| {
                        self.be_step_inplace(
                            half,
                            &rhs0,
                            &mut rhs,
                            &mut x_half,
                            ws,
                            &mut attempt_recovery,
                            &mut iters,
                        )
                    })
                    .map(|residual| (residual, ctrl.error_norm(&x_half, &x_full)))
                };
                ctrl.note_cost(solves, iters as u64, started.elapsed().as_secs_f64());
                stats.iterations += iters;
                recovery.merge(&attempt_recovery);

                // Decide the outcome. `action` doubles as the JSONL label.
                // The streak budget is sampled before the controller
                // mutates it, so the "which budget pushed us to the
                // floor" report is accurate.
                let streak_exhausted = ctrl.reject_streak_exhausted();
                let mut err_for_event = f64::NAN;
                let action = match attempt {
                    Ok((residual, _err)) if economy => {
                        x.copy_from_slice(&x_full);
                        stats.residual = residual;
                        t += dt;
                        ctrl.on_economy_accept();
                        "accept"
                    }
                    Ok((residual, err)) if err.is_finite() && err <= 1.0 => {
                        x.copy_from_slice(&x_half);
                        stats.residual = residual;
                        t += dt;
                        err_for_event = err;
                        ctrl.on_accept(err);
                        "accept"
                    }
                    Ok((residual, err)) if err.is_finite() => {
                        // Error over tolerance: reject and shrink, unless
                        // already at the floor — then keep the finite
                        // half-step state rather than stall.
                        err_for_event = err;
                        if ctrl.at_dt_min() || ctrl.reject_streak_exhausted() {
                            x.copy_from_slice(&x_half);
                            stats.residual = residual;
                            t += dt;
                            ctrl.on_force_accept(err);
                            "force_accept"
                        } else {
                            ctrl.on_reject();
                            "reject"
                        }
                    }
                    // Divergence: a solve failed or produced a non-finite
                    // state (a non-finite error norm means the same).
                    // Roll back; shrink if possible, otherwise hold the
                    // previous state across the interval.
                    _ => {
                        if ctrl.at_dt_min() || ctrl.reject_streak_exhausted() {
                            t += dt;
                            ctrl.on_hold();
                            "hold"
                        } else {
                            ctrl.on_reject();
                            "reject"
                        }
                    }
                };

                match action {
                    "accept" | "force_accept" => xylem_obs::incr(Counter::AdaptiveAccepts),
                    "reject" => xylem_obs::incr(Counter::AdaptiveRejects),
                    _ => xylem_obs::incr(Counter::AdaptiveHolds),
                }
                xylem_obs::set_gauge(Gauge::AdaptiveDtS, ctrl.dt());
                xylem_obs::set_gauge(Gauge::AdaptiveLte, err_for_event);
                if xylem_obs::enabled() {
                    xylem_obs::event("adaptive_step")
                        .f64("t_s", t)
                        .f64("dt_s", dt)
                        .f64("err", err_for_event)
                        .str("action", action)
                        .u64("iters", iters as u64)
                        .bool("economy", economy)
                        .emit();
                }

                // The rejection-streak budget forcing a step through the
                // floor is an exhaustion event too (unlike the dt_min
                // clamp, which is an ordinary part of the ladder).
                if streak_exhausted && matches!(action, "force_accept" | "hold") {
                    xylem_obs::incr(Counter::BudgetExhaustions);
                    if xylem_obs::enabled() {
                        xylem_obs::event("adaptive_budget")
                            .str("which", "reject_streak")
                            .f64("t_s", t)
                            .str("mode", "forced")
                            .emit();
                    }
                }

                // Budgets are checked after the attempt is charged; the
                // transition to economy mode is reported exactly once.
                if let Some(kind) = ctrl.budget_exhausted() {
                    if ctrl.enter_economy() {
                        xylem_obs::incr(Counter::BudgetExhaustions);
                        if xylem_obs::enabled() {
                            xylem_obs::event("adaptive_budget")
                                .str("which", kind.label())
                                .f64("t_s", t)
                                .str("mode", "economy")
                                .emit();
                        }
                    }
                }
            }
            Ok((x, stats, recovery))
        })();
        ws.rhs = rhs;
        ws.rhs0 = rhs0;
        ws.x_full = x_full;
        ws.x_half = x_half;
        let (x, stats, recovery) = result?;
        // No debug_check_solution here: degraded (forced/held) states are
        // legitimately over-tolerance. The engine guarantees finiteness.
        Ok(TemperatureField::new(self, x, stats, recovery))
    }

    /// Total heat leaving through ambient paths (convection + board) for a
    /// temperature field. At steady state this equals the injected
    /// power — the conservation check used by the validation tests.
    pub fn ambient_outflow(&self, temps: &TemperatureField) -> Watts {
        let flows: Vec<f64> = self
            .g_ambient
            .iter()
            .zip(temps.raw())
            .map(|(g, t)| g * (t - self.ambient))
            .collect();
        Watts::new(crate::reduce::pairwise_sum(&flows))
    }

    pub(crate) fn grid_cells(&self) -> usize {
        self.grid.cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::material::{D2D_AVERAGE, SILICON};
    use crate::package::Package;
    use crate::stack::Stack;

    fn model(nx: usize) -> ThermalModel {
        let die = 8e-3;
        let stack = Stack::builder(die, die)
            .package(Package::default_for_die(die, die))
            .layer(Layer::uniform("si", 100e-6, SILICON.clone()))
            .layer(Layer::uniform("d2d", 20e-6, D2D_AVERAGE.clone()))
            .layer(Layer::uniform("proc", 100e-6, SILICON.clone()))
            .build()
            .unwrap();
        stack.discretize(GridSpec::new(nx, nx)).unwrap()
    }

    #[test]
    fn node_count_is_layers_times_cells_plus_extras() {
        let m = model(8);
        assert_eq!(m.node_count(), (3 + 3) * 64 + 12);
        assert_eq!(m.n_user_layers(), 3);
    }

    #[test]
    fn symmetry_of_conductance_matrix() {
        let m = model(6);
        let a = m.csr();
        for i in 0..a.n() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let (back_cols, back_vals) = a.row(j as usize);
                let back = back_cols
                    .iter()
                    .position(|&k| k as usize == i)
                    .map(|p| back_vals[p]);
                assert_eq!(
                    back.map(f64::to_bits),
                    Some(v.to_bits()),
                    "entry ({i},{j}) not symmetric"
                );
            }
        }
    }

    #[test]
    fn steady_state_uniform_power_is_symmetric() {
        let m = model(8);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(10.0));
        let t = m.steady_state(&p).unwrap();
        let s = t.layer_slice(2);
        let g = m.grid();
        // 4-fold symmetry of the temperature field.
        for iy in 0..8 {
            for ix in 0..8 {
                let a = s[g.index(ix, iy)];
                let b = s[g.index(7 - ix, iy)];
                let c = s[g.index(ix, 7 - iy)];
                assert!((a - b).abs() < 1e-6, "x mirror {a} {b}");
                assert!((a - c).abs() < 1e-6, "y mirror {a} {c}");
            }
        }
    }

    #[test]
    fn energy_conservation_at_steady_state() {
        let m = model(8);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(0, Watts::new(4.0));
        p.add_uniform_layer_power(2, Watts::new(16.0));
        let t = m.steady_state(&p).unwrap();
        let out = m.ambient_outflow(&t);
        assert!(
            (out.get() - 20.0).abs() < 0.02,
            "outflow {out}, expected 20 W"
        );
    }

    #[test]
    fn hotter_with_more_power() {
        let m = model(8);
        let mut p1 = PowerMap::zeros(&m);
        p1.add_uniform_layer_power(2, Watts::new(10.0));
        let mut p2 = PowerMap::zeros(&m);
        p2.add_uniform_layer_power(2, Watts::new(20.0));
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        assert!(t2.hotspot_of_layer(2).1 > t1.hotspot_of_layer(2).1);
    }

    #[test]
    fn linearity_superposition() {
        // T(a+b) - Tamb == (T(a)-Tamb) + (T(b)-Tamb) for a linear model.
        let m = model(6);
        let mut pa = PowerMap::zeros(&m);
        pa.add_cell_power(2, 1, 1, Watts::new(3.0));
        let mut pb = PowerMap::zeros(&m);
        pb.add_cell_power(2, 4, 4, Watts::new(5.0));
        let mut pab = PowerMap::zeros(&m);
        pab.add_cell_power(2, 1, 1, Watts::new(3.0));
        pab.add_cell_power(2, 4, 4, Watts::new(5.0));
        let ta = m.steady_state(&pa).unwrap();
        let tb = m.steady_state(&pb).unwrap();
        let tab = m.steady_state(&pab).unwrap();
        let amb = m.ambient().get();
        for i in 0..m.node_count() {
            let lhs = tab.raw()[i] - amb;
            let rhs = (ta.raw()[i] - amb) + (tb.raw()[i] - amb);
            assert!((lhs - rhs).abs() < 1e-5, "node {i}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn transient_approaches_steady_state() {
        let m = model(6);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(12.0));
        let steady = m.steady_state(&p).unwrap();
        let init = TemperatureField::uniform(&m, m.ambient());
        // Long integration: 3000 x 0.1 s = 300 s >> the sink's ~40 s time
        // constant (C_sink ~ 86 J/K times R_conv = 0.45 K/W).
        let t = m
            .transient_with(&p, &init, 0.1, 3000, None, &mut SolverWorkspace::new())
            .unwrap();
        let (_, hot_tr) = t.hotspot_of_layer(2);
        let (_, hot_ss) = steady.hotspot_of_layer(2);
        assert!(
            (hot_tr - hot_ss).abs() < 0.5,
            "transient {hot_tr} vs steady {hot_ss}"
        );
    }

    #[test]
    fn transient_monotone_heating_from_ambient() {
        let m = model(6);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(12.0));
        let t0 = TemperatureField::uniform(&m, m.ambient());
        let t1 = m
            .transient_with(&p, &t0, 1e-3, 10, None, &mut SolverWorkspace::new())
            .unwrap();
        let t2 = m
            .transient_with(&p, &t1, 1e-3, 10, None, &mut SolverWorkspace::new())
            .unwrap();
        assert!(t1.hotspot_of_layer(2).1 > m.ambient());
        assert!(t2.hotspot_of_layer(2).1 > t1.hotspot_of_layer(2).1);
    }

    #[test]
    fn steady_state_meets_the_true_residual() {
        // The solver stops on the recurrence residual; the returned field
        // must satisfy `||b - G T|| <= tol ||b||` against the assembled
        // right-hand side too.
        let m = model(8);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(15.0));
        p.add_cell_power(0, 2, 5, Watts::new(1.5));
        let t = m.steady_state(&p).unwrap();
        let mut b = Vec::new();
        m.assemble_rhs_into(&p, &mut b).unwrap();
        let mut gt = vec![0.0; b.len()];
        m.csr().matvec_serial(t.raw(), &mut gt);
        let r: Vec<f64> = b.iter().zip(&gt).map(|(bi, gi)| bi - gi).collect();
        let norm_r = crate::reduce::pairwise_dot(&r, &r).sqrt();
        let norm_b = crate::reduce::pairwise_dot(&b, &b).sqrt();
        let tol = m.solver_options().tolerance;
        assert!(norm_r <= tol * norm_b, "{norm_r} vs {norm_b}");
    }

    #[test]
    fn warm_started_steady_state_matches_cold() {
        let mut m = model(8);
        // Jacobi: on a model this small the default GMG solve is
        // already near the iteration floor cold, leaving no headroom
        // for the warm start to show up in the count.
        m.set_solver_options(SolverOptions {
            preconditioner: crate::solve::PreconditionerKind::Jacobi,
            ..*m.solver_options()
        });
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(10.0));
        let mut ws = crate::solve::SolverWorkspace::new();
        let cold = m.steady_state_from(&p, None, &mut ws).unwrap();
        // Warm-start a slightly different load from the first solution.
        let mut p2 = PowerMap::zeros(&m);
        p2.add_uniform_layer_power(2, Watts::new(11.0));
        let warm = m.steady_state_from(&p2, Some(&cold), &mut ws).unwrap();
        let scratch = m.steady_state(&p2).unwrap();
        assert!(warm.stats().iterations < cold.stats().iterations);
        for (a, b) in warm.raw().iter().zip(scratch.raw()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_cold_guess_matches_warm_solution() {
        let m = model(6);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(12.0));
        let init = m.steady_state(&p).unwrap();
        let ambient = TemperatureField::uniform(&m, m.ambient());
        let mut ws = crate::solve::SolverWorkspace::new();
        let warm = m.transient_with(&p, &init, 1e-3, 1, None, &mut ws).unwrap();
        let cold = m
            .transient_with(&p, &init, 1e-3, 1, Some(&ambient), &mut ws)
            .unwrap();
        // Same linear system either way; the guess only changes the
        // iteration count, not the converged step. The BE right-hand side
        // carries the large C/dt terms, so the relative CG tolerance is
        // looser in absolute degrees than for steady state.
        assert!(warm.stats().iterations <= cold.stats().iterations);
        for (a, b) in warm.raw().iter().zip(cold.raw()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn preconditioner_choice_does_not_change_solution() {
        use crate::solve::PreconditionerKind;
        let mut m = model(6);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(9.0));
        let mut fields = Vec::new();
        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Gmg] {
            let mut opts = *m.solver_options();
            opts.preconditioner = kind;
            m.set_solver_options(opts);
            fields.push(m.steady_state(&p).unwrap());
        }
        for f in &fields[1..] {
            for (a, b) in f.raw().iter().zip(fields[0].raw()) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn transient_ladder_recovers_from_a_starved_iteration_cap() {
        // An ill-posed solver configuration — an iteration cap far below
        // what backward Euler needs — must not abort the transient: the
        // fallback ladder escalates and the recovered trajectory matches
        // a tight-tolerance reference within 1e-6.
        let mut m = model(6);
        let mut p = PowerMap::zeros(&m);
        p.add_uniform_layer_power(2, Watts::new(12.0));
        let init = TemperatureField::uniform(&m, m.ambient());
        // The BE right-hand side carries large C/dt terms, so a relative
        // CG tolerance is looser in absolute degrees than steady state;
        // tighten it for both runs so 1e-6 agreement is meaningful.
        m.set_solver_options(SolverOptions {
            tolerance: 1e-12,
            ..*m.solver_options()
        });
        let reference = m
            .transient_with(&p, &init, 1e-3, 5, None, &mut SolverWorkspace::new())
            .unwrap();
        assert!(
            reference.recovery().is_empty(),
            "healthy run needs no ladder"
        );

        m.set_solver_options(SolverOptions {
            max_iterations: 2,
            ..*m.solver_options()
        });
        let recovered = m
            .transient_with(&p, &init, 1e-3, 5, None, &mut SolverWorkspace::new())
            .unwrap();
        let report = recovered.recovery();
        assert!(!report.is_empty(), "ladder should have fired");
        assert!(report.recoveries >= 1);
        assert!(report.events.iter().any(|e| e.recovered));
        for (a, b) in recovered.raw().iter().zip(reference.raw()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn from_raw_validates_shape_and_finiteness() {
        let m = model(4);
        let good = TemperatureField::from_raw(&m, vec![m.ambient().get(); m.node_count()]);
        assert!(good.is_ok());
        assert!(TemperatureField::from_raw(&m, vec![0.0; 3]).is_err());
        let mut bad = vec![m.ambient().get(); m.node_count()];
        bad[5] = f64::NAN;
        assert!(matches!(
            TemperatureField::from_raw(&m, bad),
            Err(ThermalError::NonFiniteTemperature { node: 5 })
        ));
    }

    #[test]
    fn mismatched_power_map_rejected() {
        let m1 = model(6);
        let m2 = model(8);
        let p = PowerMap::zeros(&m1);
        assert!(m2.steady_state(&p).is_err());
    }

    #[test]
    fn bad_time_step_rejected() {
        let m = model(4);
        let p = PowerMap::zeros(&m);
        let t0 = TemperatureField::uniform(&m, m.ambient());
        assert!(m
            .transient_with(&p, &t0, 0.0, 1, None, &mut SolverWorkspace::new())
            .is_err());
        assert!(m
            .transient_with(&p, &t0, f64::NAN, 1, None, &mut SolverWorkspace::new())
            .is_err());
    }
}

//! The joint occupation-measure LP: one birth–death CTMDP block per
//! queue, all solved "in one go".
//!
//! Every queue (processor transmit buffer or bridge buffer) becomes a
//! constrained CTMDP over its occupancy `0..=N`:
//!
//! * **birth** — the queue's nominal offered rate λ (Poisson arrivals),
//! * **death** — `e·μ_bus`, where the *action* is the service-effort
//!   level `e ∈ {0, 1/(L−1), …, 1}` the bus arbiter grants this queue,
//! * **objective** — the weighted loss rate `w·λ·P(occupancy = N)`,
//! * **bus rows** — for every bus, the expected granted effort over all
//!   its queues is at most 1 (the bus serves one request at a time),
//! * **budget row** — total expected occupancy is at most
//!   `α · budget` with `α =` [`ALPHA`], the LP-level image of the finite
//!   buffer pool.
//!
//! The split (`socbuf-soc::split`) is what makes the blocks *linear*:
//! bridge buffers decouple adjacent buses, so a block's rates involve
//! only its own variables. Without the split the death rates carry
//! availability factors of *other* buses — products of unknowns; see
//! [`crate::coupled`].

use std::ops::Range;
use std::sync::Arc;

use socbuf_lp::{
    ExecutorHandle, LpEngine, LpError, LpProblem, LpSolution, Relation, RowId, ScalingStats, Sense,
    SimplexOptions, VarId,
};
use socbuf_soc::split::split;
use socbuf_soc::{Architecture, Client};

use crate::translate::QueueCurves;
use crate::CoreError;

/// Budget-row tightness: the LP bounds total expected occupancy by
/// `ALPHA · budget`. On the four templates the row is relaxed, slack,
/// or binding at a zero shadow price at every integer budget, so the
/// value moves no allocation there.
pub const ALPHA: f64 = 0.5;

/// Tuning knobs of the sizing formulation. The budget-row tightness
/// ([`ALPHA`]), the translation's occupancy quantile (0.98) and the
/// per-bus effort limit (1, the physical bus) are fixed.
#[derive(Debug, Clone)]
pub struct SizingConfig {
    /// Per-queue occupancy cap `N` in the CTMDP blocks (states `0..=N`).
    pub state_cap: usize,
    /// Number of effort levels `L ≥ 2` (efforts `0, 1/(L−1), …, 1`).
    pub effort_levels: usize,
    /// LP engine the joint solve runs on. Defaults to the sparse
    /// revised simplex; [`LpEngine::Tableau`] selects the dense oracle
    /// engine (what the golden-artifact cross-checks compare against).
    pub engine: LpEngine,
    /// Whether the LP layer equilibrates badly-scaled instances before
    /// solving (default ON; see [`socbuf_lp::SimplexOptions`]). Rate
    /// data in arbitrary units — service/arrival rates spanning
    /// `1e-3..1e3` — is rescaled to well-conditioned form and un-scaled
    /// at extraction; well-conditioned instances are untouched
    /// bit-for-bit. [`crate::SizingOutcome`]'s `lp_scaling` field
    /// reports what the pass measured and did.
    pub equilibrate: bool,
    /// Where [`LpEngine::Decomposed`] runs its independent per-block
    /// solves. The serial default evaluates blocks in index order on the
    /// calling thread; `socbuf-sweep` attaches its `WorkPool` here so
    /// blocks fan out. Executors change wall time, never results — the
    /// other engines ignore this entirely.
    pub executor: ExecutorHandle,
}

impl Default for SizingConfig {
    fn default() -> Self {
        SizingConfig {
            state_cap: 20,
            effort_levels: 4,
            engine: LpEngine::default(),
            equilibrate: true,
            executor: ExecutorHandle::serial(),
        }
    }
}

impl SizingConfig {
    /// A small configuration for unit tests and doc examples (tiny state
    /// spaces solve in milliseconds even in debug builds).
    pub fn small() -> Self {
        SizingConfig {
            state_cap: 8,
            effort_levels: 3,
            ..SizingConfig::default()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.state_cap < 2 {
            return Err(CoreError::BadConfig("state_cap must be ≥ 2".into()));
        }
        if self.effort_levels < 2 {
            return Err(CoreError::BadConfig("effort_levels must be ≥ 2".into()));
        }
        Ok(())
    }
}

/// The assembled joint LP plus the bookkeeping to interpret its solution.
#[derive(Debug, Clone)]
pub struct SizingLp {
    lp: LpProblem,
    layout: Layout,
    /// What [`SizingLp::solve`] runs (`solve_options`).
    options: SimplexOptions,
}

/// Where each queue's variables and rows sit in the joint LP, and the
/// rates behind them: what reading a solution and retargeting the LP
/// need. A warm chain keeps this and moves the problem itself into its
/// [`socbuf_lp::PreparedLp`]. A clone shares everything but the
/// per-queue λ, the one thing a retarget changes.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    shape: Arc<LayoutShape>,
    /// The λ per queue the LP currently holds.
    lambdas: Vec<f64>,
}

/// The part of a [`Layout`] no retarget changes.
#[derive(Debug)]
struct LayoutShape {
    /// The occupation variables, queue by queue, then state by state,
    /// then action by action ([`LayoutShape::state_vars`]). State 0 has
    /// one action, every other state one per effort level.
    vars: Vec<VarId>,
    efforts: Vec<f64>,
    bus_rows: Vec<RowId>,
    /// Always the LP's last row, so dropping it leaves every other
    /// [`RowId`] valid.
    budget_row: RowId,
    /// `cut_rows[q * state_cap + j]` — the level-crossing row between
    /// states `j` and `j+1` of queue `q`; its birth-side coefficients
    /// carry λ, which is what a load-factor retarget rewrites in place.
    cut_rows: Vec<RowId>,
    weights: Vec<f64>,
    state_cap: usize,
}

/// Variables per queue: one for state 0, one per effort level for each
/// of the states `1..=state_cap`.
fn block_len(state_cap: usize, levels: usize) -> usize {
    1 + state_cap * levels
}

/// Where queue `q`'s variables at occupancy `n` sit in the variable
/// order, in action order.
fn state_span(state_cap: usize, levels: usize, q: usize, n: usize) -> Range<usize> {
    let first = q * block_len(state_cap, levels);
    match n {
        0 => first..first + 1,
        n => {
            let start = first + 1 + (n - 1) * levels;
            start..start + levels
        }
    }
}

impl LayoutShape {
    /// Queue `q`'s variables at occupancy `n`, in action order.
    fn state_vars(&self, q: usize, n: usize) -> &[VarId] {
        &self.vars[state_span(self.state_cap, self.efforts.len(), q, n)]
    }

    /// Number of queues.
    fn num_queues(&self) -> usize {
        self.weights.len()
    }
}

/// A solution of the joint LP read queue by queue into flat arrays:
/// what a [`SizingSolution`] holds, without a `Vec` per queue and
/// state. A warm chain keeps one and overwrites it at every point; the
/// cold path reads into a fresh one and reshapes it
/// ([`Layout::to_solution`]).
#[derive(Debug)]
pub(crate) struct Reading {
    /// Occupation mass per LP variable, in variable order (queue, then
    /// state, then action).
    occupation: Vec<f64>,
    /// Occupancy states per queue (`state_cap + 1`).
    states: usize,
    /// `marginals[q * states + n]`.
    marginals: Vec<f64>,
    /// `efforts[q * states + n]`.
    efforts: Vec<f64>,
    queue_loss_rates: Vec<f64>,
    bus_shadow_prices: Vec<f64>,
    pub(crate) loss_rate: f64,
    pub(crate) budget_shadow_price: f64,
    pub(crate) budget_row_relaxed: bool,
    pub(crate) lp_iterations: usize,
    pub(crate) lp_engine: LpEngine,
    pub(crate) lp_scaling: ScalingStats,
}

impl Default for Reading {
    fn default() -> Reading {
        Reading {
            occupation: Vec::new(),
            states: 0,
            marginals: Vec::new(),
            efforts: Vec::new(),
            queue_loss_rates: Vec::new(),
            bus_shadow_prices: Vec::new(),
            loss_rate: 0.0,
            budget_shadow_price: 0.0,
            budget_row_relaxed: false,
            lp_iterations: 0,
            lp_engine: LpEngine::default(),
            lp_scaling: ScalingStats {
                applied: false,
                condition_before: 1.0,
                condition_after: 1.0,
            },
        }
    }
}

impl QueueCurves for Reading {
    fn num_queues(&self) -> usize {
        self.queue_loss_rates.len()
    }

    fn marginal(&self, q: usize) -> &[f64] {
        &self.marginals[q * self.states..(q + 1) * self.states]
    }

    fn effort(&self, q: usize) -> &[f64] {
        &self.efforts[q * self.states..(q + 1) * self.states]
    }
}

/// Solution of the joint LP in queue-level terms.
#[derive(Debug, Clone)]
pub struct SizingSolution {
    /// `occupation[q][n][a]` (each block sums to 1).
    pub occupation: Vec<Vec<Vec<f64>>>,
    /// Stationary occupancy marginal per queue: `marginals[q][n]`.
    pub marginals: Vec<Vec<f64>>,
    /// Expected service effort per queue and occupancy (the K-switching
    /// policy curve fed to the simulator's arbiter).
    pub efforts: Vec<Vec<f64>>,
    /// Weighted total loss rate at the optimum (the LP objective).
    pub loss_rate: f64,
    /// Per-queue unweighted loss-rate estimates `λ_q · P(full)`.
    pub queue_loss_rates: Vec<f64>,
    /// Shadow price of the global budget row (`∂ loss / ∂ (α·budget)`;
    /// ≤ 0, and 0 when the budget row was dropped or slack).
    pub budget_shadow_price: f64,
    /// Shadow prices of the per-bus effort rows.
    pub bus_shadow_prices: Vec<f64>,
    /// `true` if the budget row had to be dropped to restore feasibility
    /// (the integer budget is still enforced by the translation step).
    pub budget_row_relaxed: bool,
    /// Simplex pivots used.
    pub lp_iterations: usize,
    /// Engine that produced the solution, as reported by the LP layer
    /// itself ([`socbuf_lp::LpSolution::engine`]) — the one source of
    /// truth every outcome field derives from. The pipeline used to
    /// report the *configured* engine in some paths and the solving
    /// LP's engine in others; routing both through the solution keeps
    /// them identical by construction (including across the warm
    /// chain's cold `Infeasible` fallback, which re-solves through a
    /// freshly built LP).
    pub lp_engine: socbuf_lp::LpEngine,
    /// What the LP equilibration pass measured and did (condition
    /// estimate before/after, and whether scaling was applied).
    pub lp_scaling: socbuf_lp::ScalingStats,
}

impl SizingLp {
    /// Builds the joint LP for `arch` with a total buffer budget of
    /// `budget` units.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for invalid configs or a zero budget.
    pub fn build(
        arch: &Architecture,
        budget: usize,
        config: &SizingConfig,
    ) -> Result<SizingLp, CoreError> {
        config.validate()?;
        if budget == 0 {
            return Err(CoreError::BadConfig("budget must be positive".into()));
        }
        // The split certifies the block structure; the LP below relies on
        // it (bridge buffers are independent blocks on their own buses).
        // Only debug builds compute it: release builds never read it.
        debug_assert!(!split(arch).subsystems.is_empty());

        let n = config.state_cap;
        let levels = config.effort_levels;
        let efforts: Vec<f64> = (0..levels)
            .map(|a| a as f64 / (levels - 1) as f64)
            .collect();
        let block_len = block_len(n, levels);
        let nq = arch.num_queues();
        let mut weights = Vec::with_capacity(nq);
        let mut lambdas = Vec::with_capacity(nq);
        for q in arch.queues() {
            weights.push(queue_weight(arch, q.id));
            lambdas.push(q.offered_rate);
        }

        // Variables: state 0 has the single idle action; states 1..=N
        // have all effort levels. Loss cost sits on the full state. They
        // are named `x_q{q}_n{state}_a{action}`, on demand.
        let mut lp = LpProblem::new(Sense::Minimize);
        let costs = (0..nq * block_len).map(|k| {
            let q = k / block_len;
            if k % block_len > (n - 1) * levels {
                weights[q] * lambdas[q]
            } else {
                0.0
            }
        });
        let vars = lp.add_vars(costs, move |k| {
            let (q, k) = (k / block_len, k % block_len);
            let (state, a) = match k {
                0 => (0, 0),
                k => (1 + (k - 1) / levels, (k - 1) % levels),
            };
            format!("x_q{q}_n{state}_a{a}")
        });
        let state_vars = |q: usize, state: usize| &vars[state_span(n, levels, q, state)];

        // Level-crossing (cut) equations: probability flow up across the
        // n|n+1 boundary equals the flow down,
        //   λ·Σ_a x(n,a) = μ·Σ_a e_a·x(n+1,a).
        // For a birth–death block this is equivalent to global balance
        // but the rows are linearly *independent*, which keeps the system
        // consistent under the simplex solver's degeneracy-breaking rhs
        // perturbation.
        //
        // Each block — n cut rows plus the normalization row — goes
        // through the sparse triplet builder in one batch, so LP assembly
        // stays O(nnz) per block and the block-diagonal structure reaches
        // the solver's CSR standard form intact.
        let relations = vec![Relation::Eq; n + 1];
        let mut rhs = vec![0.0; n + 1];
        rhs[n] = 1.0;
        let mut triplets: Vec<(usize, VarId, f64)> = Vec::new();
        let mut cut_rows = Vec::with_capacity(nq * n);
        for (qi, q) in arch.queues().iter().enumerate() {
            let lambda = lambdas[qi];
            let mu = arch.bus(q.bus).service_rate();
            triplets.clear();
            for j in 0..n {
                for &v in state_vars(qi, j) {
                    triplets.push((j, v, lambda));
                }
                for (a, &v) in state_vars(qi, j + 1).iter().enumerate() {
                    if efforts[a] > 0.0 {
                        triplets.push((j, v, -efforts[a] * mu));
                    }
                }
            }
            // Block normalization as row n of the batch.
            for &v in &vars[qi * block_len..(qi + 1) * block_len] {
                triplets.push((n, v, 1.0));
            }
            let ids =
                lp.add_constraints_from_triplets(triplets.iter().copied(), &relations, &rhs)?;
            // Rows 0..n of the batch are the cut rows (row n is the
            // normalization) — remembered for in-place load retargets.
            cut_rows.extend_from_slice(&ids[..n]);
        }

        // Per-bus effort rows: a bus grants at most one unit of effort
        // in expectation.
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut bus_rows = Vec::with_capacity(arch.num_buses());
        for bus in arch.bus_ids() {
            terms.clear();
            for &qid in arch.bus_queue_ids(bus) {
                for state in 1..=n {
                    for (a, &v) in state_vars(qid.index(), state).iter().enumerate() {
                        if efforts[a] > 0.0 {
                            terms.push((v, efforts[a]));
                        }
                    }
                }
            }
            bus_rows.push(lp.add_constraint(terms.iter().copied(), Relation::Le, 1.0)?);
        }

        // Global budget row: Σ E[occupancy] ≤ α·budget. It must stay
        // the last row (see `Layout::solve_relaxed`).
        terms.clear();
        for q in 0..nq {
            for state in 1..=n {
                for &v in state_vars(q, state) {
                    terms.push((v, state as f64));
                }
            }
        }
        let budget_row =
            lp.add_constraint(terms.iter().copied(), Relation::Le, ALPHA * budget as f64)?;

        // One block per bus: its queues' variables, their cut and
        // normalization rows, and the bus row. The budget row links
        // them.
        let queue_bus = |q: usize| arch.queues()[q].bus.index();
        lp.declare_blocks(
            (0..nq).flat_map(|q| std::iter::repeat_n(queue_bus(q), block_len)),
            (0..nq)
                .flat_map(|q| std::iter::repeat_n(Some(queue_bus(q)), n + 1))
                .chain(arch.bus_ids().map(|bus| Some(bus.index())))
                .chain([None]),
        )?;

        let shape = LayoutShape {
            vars,
            efforts,
            bus_rows,
            budget_row,
            cut_rows,
            weights,
            state_cap: n,
        };
        Ok(SizingLp {
            lp,
            layout: Layout {
                shape: Arc::new(shape),
                lambdas,
            },
            options: solve_options(config),
        })
    }

    /// The LP engine [`SizingLp::solve`] will run (from the
    /// [`SizingConfig`] this LP was built with).
    pub fn engine(&self) -> LpEngine {
        self.options.engine
    }

    /// Number of LP variables.
    pub fn num_vars(&self) -> usize {
        self.lp.num_vars()
    }

    /// Number of LP rows.
    pub fn num_rows(&self) -> usize {
        self.lp.num_rows()
    }

    /// The assembled joint LP — exposed so benches and tests can inspect
    /// or re-assemble its standard form (e.g. to compare the sparse and
    /// dense assembly paths on the paper's own problem shapes).
    pub fn problem(&self) -> &LpProblem {
        &self.lp
    }

    /// Splits the LP into its problem and the layout that reads its
    /// solutions, so a warm chain can move the problem into its
    /// prepared form instead of copying it.
    pub(crate) fn into_parts(self) -> (LpProblem, Layout) {
        (self.lp, self.layout)
    }

    /// Solves the joint LP cold, once, with the options every sizing
    /// solve runs (rhs perturbation 1e-6, at most 30,000 pivots). If the
    /// budget row makes the program infeasible (a very small budget
    /// cannot hold the minimum possible expected occupancy), it is
    /// dropped and the solve retried — the translation step still
    /// enforces the exact integer budget.
    ///
    /// # Errors
    ///
    /// Propagates LP failures other than budget infeasibility, as the
    /// engine reports them (an iteration limit or a residual artificial
    /// is not retried).
    pub fn solve(&self) -> Result<SizingSolution, CoreError> {
        self.solve_with_options(&self.options)
    }

    /// [`SizingLp::solve`], read into `out`.
    pub(crate) fn solve_into(&self, out: &mut Reading) -> Result<(), CoreError> {
        self.solve_options_into(&self.options, out)
    }

    /// Solves with explicit simplex options instead of the ones
    /// [`SizingLp::solve`] uses. The same budget-row relaxation
    /// applies.
    ///
    /// # Errors
    ///
    /// Propagates LP failures other than budget infeasibility.
    pub fn solve_with_options(
        &self,
        options: &SimplexOptions,
    ) -> Result<SizingSolution, CoreError> {
        let mut reading = Reading::default();
        self.solve_options_into(options, &mut reading)?;
        Ok(self.layout.to_solution(&reading))
    }

    fn solve_options_into(
        &self,
        options: &SimplexOptions,
        out: &mut Reading,
    ) -> Result<(), CoreError> {
        match self.lp.solve_with(options) {
            Ok(sol) => {
                self.layout.interpret(&sol, false, out);
                Ok(())
            }
            Err(LpError::Infeasible { .. }) => self.layout.solve_relaxed(&self.lp, options, out),
            Err(e) => Err(e.into()),
        }
    }

    /// The loss weight attached to each queue.
    pub fn weights(&self) -> &[f64] {
        &self.layout.shape.weights
    }
}

impl Layout {
    /// Rewrites a [`socbuf_lp::PreparedLp`] built from this layout's
    /// problem so it describes the same architecture at a different
    /// budget and load factor — the in-place alternative to rebuilding
    /// the whole formulation per sweep point:
    ///
    /// * the budget row's rhs moves to [`ALPHA`]` · budget` (RHS-only
    ///   delta);
    /// * each queue's cut-row birth-side coefficients and full-state loss
    ///   cost are rescaled to `λ_nominal · factor` (a pattern-preserving
    ///   coefficient delta). A queue whose λ is bit-equal to the one the
    ///   form already holds is skipped: rewriting it would store the
    ///   same bits. So a budget-only move is a pure rhs delta, and the
    ///   prepared problem keeps its factored basis
    ///   ([`socbuf_lp::PreparedLp::kept_basis`]).
    ///
    /// The coefficients match what [`SizingLp::build`] on
    /// [`socbuf_soc::Architecture::scale_rates`]`(factor, 1.0)` would
    /// assemble up to the last ulp: that sums the scaled flow rates,
    /// `Σ (rate · factor)`, where this scales the nominal sum, and the
    /// loss *weights* of multi-source bridge queues are rate-ratio
    /// weighted.
    ///
    /// `nominal` must be the factor-1 architecture this layout's queue
    /// order came from. The retarget also refreshes the per-queue λ
    /// bookkeeping so a subsequent [`Layout::interpret`] reports
    /// `queue_loss_rates` at the retargeted load, not the load the LP
    /// was first built at. (The loss *weights* need no refresh: they
    /// are rate-ratio weighted, so a common λ factor cancels.)
    ///
    /// # Errors
    ///
    /// Propagates [`socbuf_lp::LpError`] from the delta application
    /// (e.g. a pattern change) — the caller then rebuilds cold.
    pub(crate) fn retarget(
        &mut self,
        prepared: &mut socbuf_lp::PreparedLp,
        nominal: &Architecture,
        budget: usize,
        factor: f64,
    ) -> Result<(), LpError> {
        let shape = &*self.shape;
        prepared.set_rhs(shape.budget_row, ALPHA * budget as f64)?;
        let n = shape.state_cap;
        // One row's terms at a time, in pattern order; allocated only
        // when some queue's λ moved.
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for (q, queue) in nominal.queues().iter().enumerate() {
            let lambda = queue.offered_rate * factor;
            if lambda.to_bits() == self.lambdas[q].to_bits() {
                continue;
            }
            self.lambdas[q] = lambda;
            let mu = nominal.bus(queue.bus).service_rate();
            for j in 0..n {
                terms.clear();
                for &v in shape.state_vars(q, j) {
                    terms.push((v, lambda));
                }
                for (a, &v) in shape.state_vars(q, j + 1).iter().enumerate() {
                    if shape.efforts[a] > 0.0 {
                        terms.push((v, -shape.efforts[a] * mu));
                    }
                }
                prepared.set_row_coeffs(shape.cut_rows[q * n + j], &terms)?;
            }
            for &v in shape.state_vars(q, n) {
                prepared.set_objective_coeff(v, shape.weights[q] * lambda)?;
            }
        }
        Ok(())
    }

    /// Solves `problem`, this layout's LP, with its budget row dropped
    /// and reads the answer into `out`: the row is always the last one,
    /// so popping it leaves every other [`RowId`] in place.
    ///
    /// # Errors
    ///
    /// Propagates the LP failure of the relaxed solve.
    pub(crate) fn solve_relaxed(
        &self,
        problem: &LpProblem,
        options: &SimplexOptions,
        out: &mut Reading,
    ) -> Result<(), CoreError> {
        let mut relaxed = problem.clone();
        relaxed.pop_row();
        let sol = relaxed.solve_with(options)?;
        self.interpret(&sol, true, out);
        Ok(())
    }

    /// Occupation mass below which a state counts as *unreached* when
    /// extracting effort curves. The solve perturbs the rhs at the 1e-6
    /// scale (`solve_options`), which parks that much probability dust in
    /// arbitrary (often zero-effort) actions of states the optimal
    /// policy never visits; dividing dust by dust yields effort curves
    /// with dead zones that the translation step's birth–death
    /// reconstruction then reads as absorbing tails. Every state that
    /// actually matters to sizing carries mass far above this (the
    /// 0.98-quantile requirement is insensitive to sub-1e-4 tails), so
    /// such states take the conservative full-effort fallback instead.
    /// This keeps the translated allocation stable across optimal
    /// vertices — and therefore across LP engines.
    const EFFORT_DUST: f64 = 1e-4;

    /// Reads a solution of this layout's LP into `out`, overwriting it
    /// in place (its buffers are reused); `relaxed` says the budget row
    /// was dropped (its shadow price is then 0).
    pub(crate) fn interpret(&self, sol: &LpSolution, relaxed: bool, out: &mut Reading) {
        let shape = &*self.shape;
        let (nq, states) = (shape.num_queues(), shape.state_cap + 1);
        out.states = states;
        // Cleared, then reserved whole, so a fresh reading allocates
        // each buffer once and a reused one not at all.
        out.occupation.clear();
        out.occupation.reserve(shape.vars.len());
        out.marginals.clear();
        out.marginals.reserve(nq * states);
        out.efforts.clear();
        out.efforts.reserve(nq * states);
        out.queue_loss_rates.clear();
        out.queue_loss_rates.reserve(nq);
        for q in 0..nq {
            let first = out.marginals.len();
            for row in (0..states).map(|n| shape.state_vars(q, n)) {
                let at = out.occupation.len();
                out.occupation
                    .extend(row.iter().map(|&v| sol.value(v).max(0.0)));
                let xs = &out.occupation[at..];
                let total: f64 = xs.iter().sum();
                let expected_effort = if row.len() == 1 {
                    0.0
                } else if total > Self::EFFORT_DUST {
                    xs.iter()
                        .enumerate()
                        .map(|(a, x)| shape.efforts[a] * x)
                        .sum::<f64>()
                        / total
                } else {
                    // States unreached at the optimum (or holding only
                    // perturbation dust): serve at full effort if an
                    // excursion ever lands here.
                    1.0
                };
                out.marginals.push(total);
                out.efforts.push(expected_effort);
            }
            // Normalize marginals exactly (numerical dust).
            let marg = &mut out.marginals[first..];
            let s: f64 = marg.iter().sum();
            if s > 0.0 {
                for m in marg.iter_mut() {
                    *m /= s;
                }
            }
            out.queue_loss_rates
                .push(self.lambdas[q] * marg[shape.state_cap]);
        }
        out.bus_shadow_prices.clear();
        out.bus_shadow_prices
            .extend(shape.bus_rows.iter().map(|&r| sol.dual(r)));
        out.loss_rate = sol.objective();
        out.budget_shadow_price = if relaxed {
            0.0
        } else {
            sol.dual(shape.budget_row)
        };
        out.budget_row_relaxed = relaxed;
        out.lp_iterations = sol.iterations();
        out.lp_engine = sol.engine();
        out.lp_scaling = sol.scaling_stats();
    }

    /// Reshapes a [`Reading`] of this layout's LP into the nested
    /// queue-level [`SizingSolution`].
    pub(crate) fn to_solution(&self, r: &Reading) -> SizingSolution {
        let shape = &*self.shape;
        let mut values = r.occupation.iter().copied();
        let occupation = (0..shape.num_queues())
            .map(|q| {
                (0..r.states)
                    .map(|n| {
                        let row = shape.state_vars(q, n);
                        values.by_ref().take(row.len()).collect()
                    })
                    .collect()
            })
            .collect();
        let per_queue = |flat: &[f64]| flat.chunks(r.states).map(<[f64]>::to_vec).collect();
        SizingSolution {
            occupation,
            marginals: per_queue(&r.marginals),
            efforts: per_queue(&r.efforts),
            loss_rate: r.loss_rate,
            queue_loss_rates: r.queue_loss_rates.clone(),
            budget_shadow_price: r.budget_shadow_price,
            bus_shadow_prices: r.bus_shadow_prices.clone(),
            budget_row_relaxed: r.budget_row_relaxed,
            lp_iterations: r.lp_iterations,
            lp_engine: r.lp_engine,
            lp_scaling: r.lp_scaling,
        }
    }
}

/// The simplex options every sizing solve runs with, cold or warm, on
/// a fresh [`SizingLp`] or a [`crate::SolveContext`] chain: one set, so
/// a point solved either way reports the same error. An iteration limit
/// or a residual artificial is reported by name, not retried.
///
/// Occupation-measure LPs are massively degenerate (hundreds of
/// zero-rhs balance rows), and the rhs perturbation keeps the simplex
/// making strict progress; after 40 degenerate pivots in a row both
/// engines fall back to Bland's rule, which guarantees termination.
/// The reported solution is the optimum of the perturbed problem: its
/// occupation breaks cut rows by up to ~1e-6, which moves the reported
/// loss by up to ~2 % at [`SizingConfig::small`].
pub(crate) fn solve_options(config: &SizingConfig) -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        engine: config.engine,
        equilibrate: config.equilibrate,
        executor: config.executor.clone(),
    }
}

/// Loss weight of a queue: the processor's weight for transmit queues;
/// for bridge buffers, the traffic-weighted mean weight of the source
/// processors routed through it.
fn queue_weight(arch: &Architecture, queue: socbuf_soc::QueueId) -> f64 {
    let q = arch.queue(queue);
    match q.client {
        Client::Processor(p) => arch.processor(p).weight(),
        Client::Bridge(_) => {
            let mut num = 0.0;
            let mut den = 0.0;
            for &f in &q.flows {
                let flow = arch.flow(f);
                num += flow.rate() * arch.processor(flow.src()).weight();
                den += flow.rate();
            }
            if den > 0.0 {
                num / den
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::{ArchitectureBuilder, FlowTarget};

    fn single_queue(lambda: f64, mu: f64) -> Architecture {
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", mu).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn config_validation() {
        let arch = single_queue(0.5, 1.0);
        let mut c = SizingConfig::small();
        c.state_cap = 1;
        assert!(SizingLp::build(&arch, 10, &c).is_err());
        let mut c = SizingConfig::small();
        c.effort_levels = 1;
        assert!(SizingLp::build(&arch, 10, &c).is_err());
        assert!(SizingLp::build(&arch, 0, &SizingConfig::small()).is_err());
    }

    #[test]
    fn single_queue_matches_mm1k_under_loose_budget() {
        // With a loose budget and a single queue per bus, the optimal
        // policy is full effort everywhere; the block then *is* an
        // M/M/1/N queue and the LP loss matches the closed form.
        let (lambda, mu) = (0.7, 1.0);
        let cfg = SizingConfig::small(); // state_cap 8
        let arch = single_queue(lambda, mu);
        let lp = SizingLp::build(&arch, 1000, &cfg).unwrap();
        let sol = lp.solve().unwrap();
        let oracle = socbuf_markov::MM1K::new(lambda, mu, cfg.state_cap).unwrap();
        // Tolerances track the solver's documented degeneracy-breaking
        // perturbation (1e-6 relative wobble on the occupation measure).
        assert!(
            (sol.loss_rate - oracle.loss_rate()).abs() < 1e-4,
            "lp {} vs mm1k {}",
            sol.loss_rate,
            oracle.loss_rate()
        );
        // Effort curve: full service at every positive occupancy.
        for n in 1..=cfg.state_cap {
            assert!(
                sol.efforts[0][n] > 0.999,
                "effort at {n}: {}",
                sol.efforts[0][n]
            );
        }
        // Marginals match the M/M/1/K stationary law.
        let pi = oracle.state_probabilities();
        for (m, p) in sol.marginals[0].iter().zip(&pi) {
            assert!((m - p).abs() < 1e-4, "{m} vs {p}");
        }
    }

    #[test]
    fn tight_budget_increases_loss_and_prices_buffer_space() {
        let arch = single_queue(0.8, 1.0);
        let cfg = SizingConfig::small();
        let loose = SizingLp::build(&arch, 1000, &cfg).unwrap().solve().unwrap();
        let tight = SizingLp::build(&arch, 2, &cfg).unwrap().solve().unwrap();
        assert!(tight.loss_rate >= loose.loss_rate - 1e-9);
        // With E[n] ≤ 1 binding, buffer space has a strictly negative
        // shadow price (more budget ⇒ less loss).
        assert!(
            tight.budget_row_relaxed || tight.budget_shadow_price < 1e-12,
            "{tight:?}"
        );
    }

    #[test]
    fn bus_effort_is_shared_between_queues() {
        // Two processors on one bus, each λ = 0.45, μ = 1: together they
        // need 0.9 expected effort, so both queues must receive service
        // and the bus row must bind within its limit.
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p0 = b.add_processor("p0", &[bus], 1.0).unwrap();
        let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
        b.add_flow(p0, FlowTarget::Bus(bus), 0.45).unwrap();
        b.add_flow(p1, FlowTarget::Bus(bus), 0.45).unwrap();
        let arch = b.build().unwrap();
        let lp = SizingLp::build(&arch, 100, &SizingConfig::small()).unwrap();
        let sol = lp.solve().unwrap();
        // Total expected effort across both queues ≤ 1.
        let mut total_effort = 0.0;
        for q in 0..2 {
            for n in 1..sol.occupation[q].len() {
                for (a, &x) in sol.occupation[q][n].iter().enumerate() {
                    total_effort += x * (a as f64 / 2.0); // small() has 3 levels
                }
            }
        }
        assert!(total_effort <= 1.0 + 1e-6, "{total_effort}");
        // Both queues keep their loss below the no-service level.
        for q in 0..2 {
            assert!(sol.queue_loss_rates[q] < 0.45 * 0.5);
        }
    }

    #[test]
    fn weighted_queue_is_protected() {
        // Same two-queue bus, but p0's losses weigh 10×: the optimum must
        // grant p0 at least as much protection (lower loss).
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p0 = b.add_processor("p0", &[bus], 10.0).unwrap();
        let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
        b.add_flow(p0, FlowTarget::Bus(bus), 0.55).unwrap();
        b.add_flow(p1, FlowTarget::Bus(bus), 0.55).unwrap();
        let arch = b.build().unwrap();
        let sol = SizingLp::build(&arch, 12, &SizingConfig::small())
            .unwrap()
            .solve()
            .unwrap();
        assert!(
            sol.queue_loss_rates[0] <= sol.queue_loss_rates[1] + 1e-9,
            "{:?}",
            sol.queue_loss_rates
        );
    }

    #[test]
    fn retarget_refreshes_queue_loss_rate_bookkeeping() {
        // Regression: `retarget` must update the LP's per-queue λ
        // bookkeeping, or `interpret` reports `queue_loss_rates` at the
        // load the LP was *built* at (here 0.5×) instead of the load it
        // was retargeted to (2×) — a 4× error.
        let arch = single_queue(0.4, 1.0);
        let cfg = SizingConfig::small();
        let built_arch = arch.scale_rates(0.5, 1.0).unwrap();
        let (problem, mut layout) = SizingLp::build(&built_arch, 50, &cfg).unwrap().into_parts();
        let mut prepared = socbuf_lp::PreparedLp::new(problem).unwrap();
        layout.retarget(&mut prepared, &arch, 50, 2.0).unwrap();
        let mut reading = Reading::default();
        let sol = prepared.solve_with(&solve_options(&cfg)).unwrap();
        layout.interpret(&sol, false, &mut reading);
        let warm = layout.to_solution(&reading);
        let cold = SizingLp::build(&arch.scale_rates(2.0, 1.0).unwrap(), 50, &cfg)
            .unwrap()
            .solve()
            .unwrap();
        for (w, c) in warm.queue_loss_rates.iter().zip(&cold.queue_loss_rates) {
            assert!(
                (w - c).abs() <= 1e-5 * (1.0 + c.abs()),
                "queue loss rate drifted: warm {w} vs cold {c}"
            );
        }
    }

    #[test]
    fn budget_only_retarget_is_a_pure_rhs_delta() {
        // At an unchanged load factor the retarget must touch only the
        // budget row: every cut-row term and every cost keeps its bits,
        // so the prepared problem keeps its factored basis. A load move
        // rewrites the coefficients and drops it.
        let arch = socbuf_soc::templates::figure1();
        let cfg = SizingConfig::small();
        let (problem, mut layout) = SizingLp::build(&arch, 22, &cfg).unwrap().into_parts();
        let mut prepared =
            socbuf_lp::PreparedLp::new_with_scaling(problem, cfg.equilibrate).unwrap();
        let basis = prepared
            .solve_with(&solve_options(&cfg))
            .unwrap()
            .basis_snapshot();
        let cut_rows = layout.shape.cut_rows.clone();
        let coefficients = |p: &LpProblem| {
            let terms: Vec<Vec<(usize, u64)>> = cut_rows
                .iter()
                .map(|&r| {
                    let (terms, _, _) = p.row(r);
                    terms
                        .iter()
                        .map(|(v, c)| (v.index(), c.to_bits()))
                        .collect()
                })
                .collect();
            let costs: Vec<u64> = p.vars().map(|v| p.objective_coeff(v).to_bits()).collect();
            (terms, costs)
        };
        let before = coefficients(prepared.problem());

        layout.retarget(&mut prepared, &arch, 31, 1.0).unwrap();
        assert_eq!(coefficients(prepared.problem()), before);
        let (_, _, rhs) = prepared.problem().row(layout.shape.budget_row);
        assert_eq!(rhs, ALPHA * 31.0);
        assert_eq!(prepared.kept_basis(), Some(&basis));

        layout.retarget(&mut prepared, &arch, 31, 1.1).unwrap();
        assert_ne!(coefficients(prepared.problem()), before);
        assert!(prepared.kept_basis().is_none());
    }

    #[test]
    fn infeasible_budget_row_is_relaxed() {
        // Overloaded queue (ρ > 1) with a 1-unit budget: E[n] ≤ α·1 is
        // unattainable, so the solver must drop the budget row and still
        // return a solution.
        let arch = single_queue(3.0, 1.0);
        let sol = SizingLp::build(&arch, 1, &SizingConfig::small())
            .unwrap()
            .solve()
            .unwrap();
        assert!(sol.budget_row_relaxed);
        assert!(sol.loss_rate > 0.0);
    }

    #[test]
    fn figure1_assembly_is_o_nnz() {
        // The joint LP of the paper's Figure 1 example is block diagonal
        // with a handful of coupling rows: its sparse standard form must
        // store a small fraction of the dense footprint, and the entry
        // count per row must stay bounded as the state cap grows.
        let arch = socbuf_soc::templates::figure1();
        for cap in [8usize, 16, 32] {
            let cfg = SizingConfig {
                state_cap: cap,
                ..SizingConfig::default()
            };
            let lp = SizingLp::build(&arch, 22, &cfg).unwrap();
            let stats = socbuf_lp::assembly::stats(lp.problem()).unwrap();
            let dense_footprint = stats.rows * stats.cols;
            assert!(
                stats.nnz * 10 < dense_footprint,
                "cap {cap}: nnz {} vs dense {dense_footprint}",
                stats.nnz
            );
            // Cut rows have ≤ 2·effort_levels entries, coupling rows are
            // O(num_vars): total nnz is linear in the variable count.
            assert!(
                stats.nnz < 8 * lp.num_vars(),
                "cap {cap}: nnz {} vs vars {}",
                stats.nnz,
                lp.num_vars()
            );
        }
    }

    #[test]
    fn variables_are_named_by_queue_state_and_action() {
        let arch = socbuf_soc::templates::figure1();
        let cfg = SizingConfig::small();
        let lp = SizingLp::build(&arch, 22, &cfg).unwrap();
        let shape = &lp.layout.shape;
        let p = lp.problem();
        assert_eq!(p.var_name(shape.state_vars(0, 0)[0]), "x_q0_n0_a0");
        assert_eq!(p.var_name(shape.state_vars(2, 5)[1]), "x_q2_n5_a1");
        let last = arch.num_queues() - 1;
        let full = shape.state_vars(last, cfg.state_cap);
        assert_eq!(
            p.var_name(full[cfg.effort_levels - 1]),
            format!("x_q{last}_n{}_a{}", cfg.state_cap, cfg.effort_levels - 1)
        );
        // The loss cost sits on the full state only.
        let cost = shape.weights[last] * arch.queues()[last].offered_rate;
        assert!(full.iter().all(|&v| p.objective_coeff(v) == cost));
        let below = shape.state_vars(last, cfg.state_cap - 1);
        assert!(below.iter().all(|&v| p.objective_coeff(v) == 0.0));
    }

    #[test]
    fn bridge_buffers_get_their_own_blocks() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.4).unwrap();
        let arch = b.build().unwrap();
        let cfg = SizingConfig::small();
        let lp = SizingLp::build(&arch, 50, &cfg).unwrap();
        // Two blocks: (1 + N·L) vars each.
        let per_block = 1 + cfg.state_cap * cfg.effort_levels;
        assert_eq!(lp.num_vars(), 2 * per_block);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.marginals.len(), 2);
        // Each marginal is a distribution.
        for m in &sol.marginals {
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        }
    }
}

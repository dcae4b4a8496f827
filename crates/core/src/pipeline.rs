//! The end-to-end loop of the paper: size the buffers with the CTMDP
//! LP, re-simulate the architecture with the new buffer lengths, and
//! compare losses against the constant-sizing and timeout baselines.

use std::sync::Arc;

use socbuf_lp::{BasisSnapshot, LpEngine, LpError, PreparedLp, SimplexOptions};
use socbuf_sim::{
    average_reports, replication_config, simulate_with, Arbiter, SimConfig, SimReport, TimeoutSpec,
};
use socbuf_soc::{Architecture, BufferAllocation};

use crate::formulation::{solve_options, Layout, Reading, SizingConfig, SizingLp};
use crate::translate::{queue_keys, translate_with, TranslateScratch, Translation};
use crate::CoreError;

/// Result of the sizing step alone (no simulation).
#[derive(Debug, Clone)]
pub struct SizingOutcome {
    /// The exact-budget integer buffer allocation.
    pub allocation: BufferAllocation,
    /// Effort curves for the K-switching arbiter.
    pub efforts: Vec<Vec<f64>>,
    /// Quantile requirements before apportionment.
    pub requirements: Vec<usize>,
    /// LP-predicted weighted loss rate.
    pub predicted_loss_rate: f64,
    /// Shadow price of the buffer-budget row (≤ 0; see
    /// [`crate::formulation::SizingSolution::budget_shadow_price`]).
    pub budget_shadow_price: f64,
    /// Whether the LP budget row had to be relaxed.
    pub budget_row_relaxed: bool,
    /// Simplex pivots used by the joint LP.
    pub lp_iterations: usize,
    /// Engine that solved the joint LP (pivot counts are only
    /// comparable within one engine).
    pub lp_engine: LpEngine,
    /// What the LP equilibration pass measured and did for the joint
    /// solve: the standard form's nonzero-magnitude spread before and
    /// after scaling, and whether scaling was applied at all (only
    /// badly-scaled instances are touched; see
    /// [`SizingConfig::equilibrate`](crate::SizingConfig)).
    pub lp_scaling: socbuf_lp::ScalingStats,
}

/// Sizes the buffers of `arch` for a total budget of `budget` units.
///
/// This is steps 1–3 of the methodology: split (implicit in the
/// formulation), solve the joint occupation-measure LP, translate via
/// the K-switching policy into integer buffer lengths. A cold solve is
/// the first point of a fresh [`SolveContext`] chain.
///
/// # Errors
///
/// Propagates formulation/LP/translation failures.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub fn size_buffers(
    arch: &Architecture,
    budget: usize,
    config: &SizingConfig,
) -> Result<SizingOutcome, CoreError> {
    SolveContext::new(arch, config).size_buffers(budget)
}

/// Warm-start state for a *chain* of sizing solves over one
/// architecture family — the pipeline hook the sweep campaigns thread
/// through contiguous runs of budget or load points, and the one place
/// the sizing LP is solved ([`size_buffers`] is a one-point chain).
///
/// The context lazily builds the joint LP at the chain's first point,
/// moves it into a [`PreparedLp`] that caches its assembled standard
/// form, and from then on re-targets the cached form **in place**
/// (budget = RHS-only delta on the budget row; load factor =
/// pattern-preserving rescale of the cut rows and loss costs) and
/// re-enters the revised simplex from the previous point's optimal
/// basis. Every solve runs the same simplex options, and a point
/// the warm form reports infeasible is confirmed on its own cold LP, so
/// a warm-started point reports the same status and (to solver
/// precision) the same optimal objective a cold point would — warm
/// starts change pivot counts and wall time, never answers. The first
/// solve of a fresh context *is* the cold [`size_buffers`] answer.
///
/// One solved context can seed other chains: [`SolveContext::seeded`]
/// copies it for a chain that starts elsewhere, and that copy's first
/// solve either answers on the copied basis factor outright or solves
/// cold, never in between.
///
/// # Examples
///
/// ```
/// use socbuf_core::{size_buffers, SizingConfig, SolveContext};
/// use socbuf_soc::templates;
///
/// # fn main() -> Result<(), socbuf_core::CoreError> {
/// let arch = templates::amba();
/// let config = SizingConfig::small();
/// let mut ctx = SolveContext::new(&arch, &config);
/// let mut last = None;
/// for budget in [12, 16, 24] {
///     let warm = ctx.size_buffers(budget)?; // warm after the first
///     let cold = size_buffers(&arch, budget, &config)?;
///     let (w, c) = (warm.predicted_loss_rate, cold.predicted_loss_rate);
///     assert!((w - c).abs() <= 1e-9 * (1.0 + c.abs()));
///     last = Some(warm);
/// }
/// assert_eq!(last.unwrap().allocation.total(), 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolveContext {
    /// What every copy of a chain shares.
    family: Arc<Family>,
    config: SizingConfig,
    state: Option<WarmState>,
    /// The next solve tries only the kept-factor shortcut on `state`
    /// and otherwise starts cold (see [`SolveContext::seeded`]).
    seeded: bool,
    scratch: Scratch,
}

/// The architecture a chain is parameterized over.
#[derive(Debug)]
struct Family {
    /// The factor-1 architecture.
    arch: Architecture,
    /// Its queues' apportionment tie-break keys (a load-scaled variant
    /// keeps the queue names, so they serve every point).
    keys: Vec<String>,
}

/// Per-point working storage: each point overwrites it, so nothing in
/// it carries from one point to the next, and a copy of a context
/// starts with empty buffers instead of copying them.
#[derive(Debug, Default)]
struct Scratch {
    reading: Reading,
    translate: TranslateScratch,
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

#[derive(Debug, Clone)]
struct WarmState {
    layout: Layout,
    prepared: PreparedLp,
    basis: Option<BasisSnapshot>,
}

impl WarmState {
    /// One solve on the cached form: warm from the last basis when
    /// the engine can re-enter from one, cold otherwise. `fresh` says the
    /// form was built for this very point, so a cold infeasible answer
    /// is final and the budget row is relaxed at once.
    fn attempt(
        &mut self,
        options: &SimplexOptions,
        fresh: bool,
        out: &mut Reading,
    ) -> Result<(), CoreError> {
        // A decomposed solve exports a *joint* basis, so the chain
        // warm-starts the joint form from it exactly like the revised
        // engine (the warm path is the engine's own finishing solve).
        let solved = match &self.basis {
            Some(snapshot)
                if matches!(options.engine, LpEngine::Revised | LpEngine::Decomposed) =>
            {
                self.prepared.solve_warm(options, snapshot)
            }
            _ => self.prepared.solve_with(options),
        };
        match solved {
            Ok(sol) => {
                self.basis = Some(sol.basis_snapshot());
                self.layout.interpret(&sol, false, out);
                Ok(())
            }
            Err(LpError::Infeasible { .. }) if fresh => {
                self.layout
                    .solve_relaxed(self.prepared.problem(), options, out)
            }
            Err(e) => Err(e.into()),
        }
    }
}

impl SolveContext {
    /// A fresh (cold) context over `arch`; nothing is assembled until
    /// the first solve.
    pub fn new(arch: &Architecture, config: &SizingConfig) -> SolveContext {
        SolveContext {
            family: Arc::new(Family {
                arch: arch.clone(),
                keys: queue_keys(arch),
            }),
            config: config.clone(),
            state: None,
            seeded: false,
            scratch: Scratch::default(),
        }
    }

    /// A copy of this context for a chain that starts at another point.
    /// The copy's first solve retargets the copied form and tries only
    /// the rhs-only shortcut on the factor this context kept
    /// ([`socbuf_lp::PreparedLp::solve_kept`]). If the shortcut
    /// answers, the point costs one triangular solve and zero pivots.
    /// If it cannot (the basis is infeasible at the new point, or the
    /// retarget was a coefficient delta, which drops the factor), the
    /// copy solves cold exactly as a fresh context would, without
    /// attempting a warm repair. Later solves on the copy warm-start as
    /// usual.
    ///
    /// A context with no kept factor (never solved, last point relaxed,
    /// or an engine that keeps none) yields a fresh context.
    ///
    /// A shortcut answer is an optimal basis of the new point, so its
    /// status and objective are the cold ones; under degeneracy a cold
    /// solve may land on another optimal vertex.
    ///
    /// **What a copy shares.** The copy and this context share
    /// everything no point changes: the architecture, the LP's variable
    /// names, bounds, sparsity pattern and row relations, the
    /// standard form's row bookkeeping and scale factors, the
    /// variable and row maps of the formulation, and the kept basis
    /// factor. It copies only what a point may change: the LP's
    /// objective, coefficients and right-hand sides (in the problem
    /// and in its standard form), the per-queue λ and the last basis.
    /// On `figure1` at [`SizingConfig::small`] that is a few dozen
    /// allocations, against hundreds for a deep copy. A copy starts
    /// with empty per-point buffers; its first point allocates them,
    /// and later points reuse them, so a warm point allocates only the
    /// LP's solution vectors and the [`SizingOutcome`] it returns.
    pub fn seeded(&self) -> SolveContext {
        let state = self
            .state
            .as_ref()
            .filter(|s| s.prepared.kept_basis().is_some())
            .cloned();
        SolveContext {
            family: Arc::clone(&self.family),
            config: self.config.clone(),
            seeded: state.is_some(),
            state,
            scratch: Scratch::default(),
        }
    }

    /// Sizes the nominal architecture at `budget`, warm-starting from
    /// the previous solve in this context when one exists. Semantically
    /// identical to [`size_buffers`]`(arch, budget, config)`.
    ///
    /// # Errors
    ///
    /// Same as [`size_buffers`].
    pub fn size_buffers(&mut self, budget: usize) -> Result<SizingOutcome, CoreError> {
        self.size_point(None, 1.0, budget)
    }

    /// Sizes a load-scaled variant of the nominal architecture:
    /// `scaled` must equal `arch.scale_rates(factor, 1.0)` for this
    /// context's architecture. Semantically identical to
    /// [`size_buffers`]`(scaled, budget, config)` (loss weights of
    /// multi-source bridge queues may differ at the last ulp — they are
    /// rate-*ratio* weighted, which a common λ scale cancels only in
    /// exact arithmetic).
    ///
    /// # Errors
    ///
    /// Same as [`size_buffers`].
    pub fn size_buffers_scaled(
        &mut self,
        scaled: &Architecture,
        factor: f64,
        budget: usize,
    ) -> Result<SizingOutcome, CoreError> {
        self.size_point(Some(scaled), factor, budget)
    }

    /// One sizing point; `scaled = None` means the nominal architecture,
    /// which is then borrowed from the context rather than cloned.
    fn size_point(
        &mut self,
        scaled: Option<&Architecture>,
        factor: f64,
        budget: usize,
    ) -> Result<SizingOutcome, CoreError> {
        self.solve_sizing(scaled, factor, budget)?;
        let reading = &self.scratch.reading;
        let Translation {
            allocation,
            requirements,
            efforts,
        } = translate_with(
            scaled.unwrap_or(&self.family.arch),
            reading,
            budget,
            &self.family.keys,
            &mut self.scratch.translate,
        )?;
        Ok(SizingOutcome {
            allocation,
            efforts,
            requirements,
            predicted_loss_rate: reading.loss_rate,
            budget_shadow_price: reading.budget_shadow_price,
            budget_row_relaxed: reading.budget_row_relaxed,
            lp_iterations: reading.lp_iterations,
            lp_engine: reading.lp_engine,
            lp_scaling: reading.lp_scaling,
        })
    }

    /// Solves one point's LP and reads it into `self.scratch.reading`.
    fn solve_sizing(
        &mut self,
        scaled: Option<&Architecture>,
        factor: f64,
        budget: usize,
    ) -> Result<(), CoreError> {
        // Validate at entry, so a chain's first (cold) solve and every
        // later (warm) solve refuse a bad config or a zero budget with
        // the same error.
        self.config.validate()?;
        if budget == 0 {
            return Err(CoreError::BadConfig("budget must be positive".into()));
        }
        let nominal = &self.family.arch;
        let point_arch = scaled.unwrap_or(nominal);
        let out = &mut self.scratch.reading;
        let options = solve_options(&self.config);
        // Build at the chain's first point, and whenever the structure
        // drifted so the cached form cannot take the retarget (not for
        // budget/load deltas, but e.g. a λ of exactly 0 would). The
        // built problem is moved into the prepared form, whose
        // equilibration decision and scale vectors the whole chain then
        // shares (in-place deltas are rescaled with the cached factors,
        // so warm bases stay meaningful across retargets).
        let mut fresh = match &mut self.state {
            Some(state) => state
                .layout
                .retarget(&mut state.prepared, nominal, budget, factor)
                .is_err(),
            None => true,
        };
        // A seeded chain start: the kept-factor shortcut alone, never a
        // basis repair; cold when it cannot answer.
        if std::mem::take(&mut self.seeded) && !fresh {
            let state = self.state.as_mut().expect("retargeted above");
            if let Some(sol) = state.prepared.solve_kept(&options) {
                state.basis = Some(sol.basis_snapshot());
                state.layout.interpret(&sol, false, out);
                return Ok(());
            }
            fresh = true;
        }
        if fresh {
            // A failed rebuild must not leave a half-retargeted form.
            self.state = None;
            let (problem, layout) = SizingLp::build(point_arch, budget, &self.config)?.into_parts();
            self.state = Some(WarmState {
                layout,
                prepared: PreparedLp::new_with_scaling(problem, self.config.equilibrate)?,
                basis: None,
            });
        }
        let state = self.state.as_mut().expect("built above");
        match state.attempt(&options, fresh, out) {
            // A warm or retargeted form reported the budget row infeasible:
            // confirm on this point's own cold LP, which relaxes the row
            // if it agrees. The cached form and basis stay valid for the
            // next point of the chain.
            Err(CoreError::Lp(LpError::Infeasible { .. })) => {
                SizingLp::build(point_arch, budget, &self.config)?.solve_into(out)
            }
            solved => solved,
        }
    }
}

/// Simulation side of the evaluation loop.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// CTMDP formulation knobs.
    pub sizing: SizingConfig,
    /// Simulated time per replication.
    pub horizon: f64,
    /// Discarded warmup prefix.
    pub warmup: f64,
    /// Base RNG seed (replication `i` derives its own seed via
    /// [`socbuf_sim::replication_seed`]).
    pub seed: u64,
    /// Independent replications to average (the paper uses 10).
    pub replications: usize,
    /// Deprecated and ignored: see [`SimEngine`].
    pub sim_engine: SimEngine,
}

/// Deprecated and ignored. The simulator has one engine, and every
/// replication runs on it whatever this names. The type and
/// [`PipelineConfig::sim_engine`] remain only because the `socbench`
/// harness still names them; they go when it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Ignored.
    #[default]
    Auto,
    /// Ignored.
    Legacy,
    /// Ignored.
    Actors,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            sizing: SizingConfig::default(),
            horizon: 1000.0,
            warmup: 100.0,
            seed: 2005,
            replications: 10,
            sim_engine: SimEngine::Auto,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for unit tests.
    pub fn small() -> Self {
        PipelineConfig {
            sizing: SizingConfig::small(),
            horizon: 400.0,
            warmup: 40.0,
            seed: 7,
            replications: 3,
            sim_engine: SimEngine::Auto,
        }
    }

    /// The replication and window checks every evaluation makes before
    /// it simulates (and, when it sizes too, before it sizes): the
    /// simulator's own contract, which it enforces by panicking.
    fn validate_simulation(&self) -> Result<(), CoreError> {
        if self.replications == 0 {
            return Err(CoreError::BadConfig("replications must be ≥ 1".into()));
        }
        if !(self.horizon > 0.0 && self.horizon.is_finite()) {
            return Err(CoreError::BadConfig(
                "horizon must be positive and finite".into(),
            ));
        }
        if !(self.warmup >= 0.0 && self.warmup < self.horizon) {
            return Err(CoreError::BadConfig(
                "warmup must lie within the horizon".into(),
            ));
        }
        Ok(())
    }
}

/// The three policies of the paper's Figure 3, averaged over
/// replications.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Total budget in units.
    pub budget: usize,
    /// Constant (uniform) buffer sizing, equal-share arbitration — the
    /// "before sizing" bars.
    pub pre: SimReport,
    /// CTMDP-sized buffers + K-switching arbitration — the "after
    /// sizing" bars.
    pub post: SimReport,
    /// Uniform buffers, equal-share arbitration, timeout drops with
    /// threshold = calibrated mean waiting time — the third bars.
    pub timeout: SimReport,
    /// The sizing artifacts that produced `post`.
    pub outcome: SizingOutcome,
}

impl PolicyComparison {
    /// Relative reduction of total loss vs the constant-sizing baseline
    /// (`0.2` = 20 % fewer losses, the paper's headline number).
    pub fn improvement_vs_pre(&self) -> f64 {
        relative_reduction(self.pre.total_lost, self.post.total_lost)
    }

    /// Relative reduction of total loss vs the timeout policy
    /// (the paper reports ≈ 50 %).
    pub fn improvement_vs_timeout(&self) -> f64 {
        relative_reduction(self.timeout.total_lost, self.post.total_lost)
    }
}

fn relative_reduction(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        0.0
    } else {
        (before - after) / before
    }
}

/// Execution strategy for the pipeline's independent simulation
/// replications — the hook `socbuf-sweep`'s work pool plugs into.
///
/// Implementations MUST return results in replication-index order and
/// call `f` exactly once per index; under those rules the pipeline's
/// output is bit-identical no matter how the replications are scheduled
/// (each replication derives its own RNG seed from its index, never
/// from execution order).
pub trait ReplicationPool {
    /// Evaluates `f(0), …, f(n-1)` and returns the results in index
    /// order.
    fn run_replications(&self, n: usize, f: &(dyn Fn(usize) -> SimReport + Sync))
        -> Vec<SimReport>;
}

/// The default [`ReplicationPool`]: runs replications one after another
/// on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialPool;

impl ReplicationPool for SerialPool {
    fn run_replications(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> SimReport + Sync),
    ) -> Vec<SimReport> {
        (0..n).map(f).collect()
    }
}

/// `socbuf_sim::replicate`, routed through a [`ReplicationPool`].
fn replicate_on<P: ReplicationPool + ?Sized>(
    pool: &P,
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
    n: usize,
) -> Vec<SimReport> {
    pool.run_replications(n, &|i| {
        let cfg = replication_config(config, i);
        let mut arb = arbiter.clone();
        simulate_with(arch, alloc, &mut arb, timeout, &cfg)
    })
}

/// Runs the full evaluation: size the buffers, then simulate all three
/// policies with common seeds and average the replications.
///
/// # Errors
///
/// Propagates sizing failures; simulation itself is infallible for a
/// validated architecture.
pub fn evaluate_policies(
    arch: &Architecture,
    budget: usize,
    config: &PipelineConfig,
) -> Result<PolicyComparison, CoreError> {
    evaluate_policies_with(arch, budget, config, &SerialPool)
}

/// [`evaluate_policies`] with the simulation replications executed
/// through `pool` — identical output for every [`ReplicationPool`]
/// implementation (replication seeds derive from indices, averages are
/// reduced in index order).
///
/// # Errors
///
/// Same as [`evaluate_policies`].
pub fn evaluate_policies_with<P: ReplicationPool + ?Sized>(
    arch: &Architecture,
    budget: usize,
    config: &PipelineConfig,
    pool: &P,
) -> Result<PolicyComparison, CoreError> {
    config.validate_simulation()?;
    let outcome = size_buffers(arch, budget, &config.sizing)?;
    evaluate_policies_sized(arch, budget, config, outcome, pool)
}

/// The simulation half of [`evaluate_policies_with`], fed an already
/// computed [`SizingOutcome`] — the entry point for warm-started sweep
/// campaigns, where the sizing comes from a [`SolveContext`] chain
/// instead of a cold [`size_buffers`] call. `config.sizing` is ignored
/// (the outcome already embodies a sizing configuration).
///
/// # Errors
///
/// [`CoreError::BadConfig`] for invalid replication or window settings;
/// simulation itself is infallible for a validated architecture.
pub fn evaluate_policies_sized<P: ReplicationPool + ?Sized>(
    arch: &Architecture,
    budget: usize,
    config: &PipelineConfig,
    outcome: SizingOutcome,
    pool: &P,
) -> Result<PolicyComparison, CoreError> {
    config.validate_simulation()?;
    let sim_cfg = SimConfig {
        horizon: config.horizon,
        warmup: config.warmup,
        seed: config.seed,
    };

    // "Before": constant sizing under the static (TDMA-style) bus
    // controller — slots granted backlog-blind, so hot clients are
    // pinned to a fixed share of the bus.
    let uniform = BufferAllocation::uniform(arch, budget);
    let pre_runs = replicate_on(
        pool,
        arch,
        &uniform,
        &Arbiter::FixedSlot,
        None,
        &sim_cfg,
        config.replications,
    );
    let pre = average_reports(&pre_runs);

    // "After": CTMDP allocation + K-switching arbitration.
    let post_runs = replicate_on(
        pool,
        arch,
        &outcome.allocation,
        &Arbiter::WeightedEffort {
            efforts: outcome.efforts.clone(),
        },
        None,
        &sim_cfg,
        config.replications,
    );
    let post = average_reports(&post_runs);

    // Timeout policy: thresholds calibrated to the baseline's mean waits
    // (the paper: "the average time spent by a request in a buffer").
    let spec = TimeoutSpec::from_calibration(&pre);
    let to_runs = replicate_on(
        pool,
        arch,
        &uniform,
        &Arbiter::FixedSlot,
        Some(&spec),
        &sim_cfg,
        config.replications,
    );
    let timeout = average_reports(&to_runs);

    Ok(PolicyComparison {
        budget,
        pre,
        post,
        timeout,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::{templates, ArchitectureBuilder, FlowTarget};

    #[test]
    fn sizing_respects_budget_on_templates() {
        let cfg = SizingConfig::small();
        for arch in [templates::figure1(), templates::amba()] {
            for budget in [16usize, 48] {
                let out = size_buffers(&arch, budget, &cfg).unwrap();
                assert_eq!(out.allocation.total(), budget);
                assert_eq!(out.efforts.len(), arch.num_queues());
            }
        }
    }

    #[test]
    fn resizing_beats_uniform_on_skewed_load() {
        // One hot and one cold processor on a shared bus: the uniform
        // split starves the hot queue, the CTMDP sizing must cut total
        // loss.
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let hot = b.add_processor("hot", &[bus], 1.0).unwrap();
        let cold = b.add_processor("cold", &[bus], 1.0).unwrap();
        b.add_flow(hot, FlowTarget::Bus(bus), 0.72).unwrap();
        b.add_flow(cold, FlowTarget::Bus(bus), 0.10).unwrap();
        let arch = b.build().unwrap();

        let mut cfg = PipelineConfig::small();
        cfg.horizon = 3000.0;
        cfg.warmup = 300.0;
        let cmp = evaluate_policies(&arch, 10, &cfg).unwrap();
        assert!(
            cmp.post.total_lost < cmp.pre.total_lost,
            "post {} vs pre {}",
            cmp.post.total_lost,
            cmp.pre.total_lost
        );
        assert!(cmp.improvement_vs_pre() > 0.0);
    }

    #[test]
    fn evaluate_runs_all_three_policies_on_figure1() {
        let arch = templates::figure1();
        let cmp = evaluate_policies(&arch, 22, &PipelineConfig::small()).unwrap();
        assert_eq!(cmp.pre.per_proc.len(), arch.num_processors());
        assert_eq!(cmp.post.per_proc.len(), arch.num_processors());
        assert_eq!(cmp.timeout.per_proc.len(), arch.num_processors());
        assert!(cmp.pre.total_offered > 0.0);
        assert!(cmp.post.total_offered > 0.0);
        // The timeout policy actually triggers timeouts under contention.
        let _ = cmp
            .timeout
            .per_queue
            .iter()
            .map(|q| q.lost_timeout)
            .sum::<f64>();
    }

    #[test]
    fn warm_budget_chain_agrees_with_cold_sizing() {
        let arch = templates::figure1();
        let cfg = SizingConfig::small();
        let mut ctx = SolveContext::new(&arch, &cfg);
        for (i, budget) in [14usize, 18, 22, 30, 22, 14].into_iter().enumerate() {
            let warm = ctx.size_buffers(budget).unwrap();
            let cold = size_buffers(&arch, budget, &cfg).unwrap();
            assert_eq!(warm.budget_row_relaxed, cold.budget_row_relaxed);
            assert_eq!(warm.lp_engine, cold.lp_engine, "budget {budget}");
            assert!(
                (warm.predicted_loss_rate - cold.predicted_loss_rate).abs()
                    <= 1e-9 * (1.0 + cold.predicted_loss_rate.abs()),
                "budget {budget}: warm {} vs cold {}",
                warm.predicted_loss_rate,
                cold.predicted_loss_rate
            );
            assert_eq!(warm.allocation.total(), budget);
            if i == 0 {
                // The chain's first point is the cold path verbatim.
                assert_eq!(warm.allocation.as_slice(), cold.allocation.as_slice());
                assert_eq!(warm.lp_iterations, cold.lp_iterations);
            }
        }
    }

    #[test]
    fn seeded_copies_answer_on_the_factor_or_solve_cold() {
        let arch = templates::figure1();
        let cfg = SizingConfig::small();
        let fresh = SolveContext::new(&arch, &cfg);
        assert!(fresh.seeded().state.is_none(), "nothing to seed from");
        let mut anchor = SolveContext::new(&arch, &cfg);
        anchor.size_buffers(10).unwrap();
        for budget in [22usize, 55] {
            let seeded = anchor.seeded().size_buffers(budget).unwrap();
            let cold = size_buffers(&arch, budget, &cfg).unwrap();
            assert_eq!(seeded.lp_iterations, 0, "budget {budget}: not answered");
            assert_eq!(seeded.allocation.as_slice(), cold.allocation.as_slice());
            assert_eq!(
                seeded.predicted_loss_rate.to_bits(),
                cold.predicted_loss_rate.to_bits()
            );
        }
        // A load retarget drops the factor, so the copy solves cold.
        let scaled = arch.scale_rates(1.5, 1.0).unwrap();
        let seeded = anchor
            .seeded()
            .size_buffers_scaled(&scaled, 1.5, 22)
            .unwrap();
        let cold = size_buffers(&scaled, 22, &cfg).unwrap();
        assert_eq!(seeded.lp_iterations, cold.lp_iterations);
        // A relaxed point keeps no factor.
        let mut relaxed = SolveContext::new(&arch, &cfg);
        assert!(relaxed.size_buffers(1).unwrap().budget_row_relaxed);
        assert!(relaxed.seeded().state.is_none());
    }

    /// Every bit of an outcome that a shared buffer could corrupt.
    #[allow(clippy::type_complexity)]
    fn outcome_bits(o: &SizingOutcome) -> (Vec<usize>, Vec<Vec<u64>>, Vec<usize>, [u64; 2], usize) {
        (
            o.allocation.as_slice().to_vec(),
            o.efforts
                .iter()
                .map(|c| c.iter().map(|e| e.to_bits()).collect())
                .collect(),
            o.requirements.clone(),
            [
                o.predicted_loss_rate.to_bits(),
                o.budget_shadow_price.to_bits(),
            ],
            o.lp_iterations,
        )
    }

    /// A problem's rows (coefficients as bits) and variable names.
    #[allow(clippy::type_complexity)]
    fn problem_bits(p: &socbuf_lp::LpProblem) -> (Vec<(Vec<(usize, u64)>, u64)>, Vec<String>) {
        let rows = p
            .row_ids()
            .map(|r| {
                let (terms, _, rhs) = p.row(r);
                let terms = terms
                    .iter()
                    .map(|(v, c)| (v.index(), c.to_bits()))
                    .collect();
                (terms, rhs.to_bits())
            })
            .collect();
        let names = p.vars().map(|v| p.var_name(v).to_string()).collect();
        (rows, names)
    }

    #[test]
    fn seeded_copies_never_see_each_others_points() {
        // Copies share the anchor's names, pattern, maps and factor. A
        // copy that takes a load retarget (a coefficient delta) and a
        // budget point must leave the anchor, its sibling and a cloned
        // problem exactly as a never-shared context would see them.
        let arch = templates::figure1();
        let cfg = SizingConfig::small();
        let solved_at_10 = || {
            let mut ctx = SolveContext::new(&arch, &cfg);
            ctx.size_buffers(10).unwrap();
            ctx
        };
        let mut anchor = solved_at_10();
        let problem = anchor.state.as_ref().unwrap().prepared.problem().clone();
        let mut mover = anchor.seeded();
        let mut sibling = anchor.seeded();

        let scaled = arch.scale_rates(1.3, 1.0).unwrap();
        let moved = mover.size_buffers_scaled(&scaled, 1.3, 22).unwrap();
        mover.size_buffers_scaled(&scaled, 1.3, 31).unwrap();
        let cold = size_buffers(&scaled, 22, &cfg).unwrap();
        assert_eq!(
            moved.lp_iterations, cold.lp_iterations,
            "the copy solved cold"
        );

        let mut lone_anchor = solved_at_10();
        let pristine = lone_anchor
            .state
            .as_ref()
            .unwrap()
            .prepared
            .problem()
            .clone();
        let mut lone_copy = solved_at_10().seeded();
        assert_eq!(problem_bits(&problem), problem_bits(&pristine));
        assert_eq!(
            problem_bits(anchor.state.as_ref().unwrap().prepared.problem()),
            problem_bits(&pristine)
        );
        for budget in [22usize, 40] {
            assert_eq!(
                outcome_bits(&sibling.size_buffers(budget).unwrap()),
                outcome_bits(&lone_copy.size_buffers(budget).unwrap()),
                "sibling at {budget}"
            );
            assert_eq!(
                outcome_bits(&anchor.size_buffers(budget).unwrap()),
                outcome_bits(&lone_anchor.size_buffers(budget).unwrap()),
                "anchor at {budget}"
            );
        }
    }

    #[test]
    fn warm_load_chain_agrees_with_cold_sizing() {
        let arch = templates::amba();
        let cfg = SizingConfig::small();
        let mut ctx = SolveContext::new(&arch, &cfg);
        for factor in [0.5, 0.8, 1.0, 1.3, 0.9] {
            let scaled = arch.scale_rates(factor, 1.0).unwrap();
            let warm = ctx.size_buffers_scaled(&scaled, factor, 16).unwrap();
            let cold = size_buffers(&scaled, 16, &cfg).unwrap();
            assert_eq!(warm.budget_row_relaxed, cold.budget_row_relaxed);
            assert!(
                (warm.predicted_loss_rate - cold.predicted_loss_rate).abs()
                    <= 1e-9 * (1.0 + cold.predicted_loss_rate.abs()),
                "factor {factor}: warm {} vs cold {}",
                warm.predicted_loss_rate,
                cold.predicted_loss_rate
            );
            assert_eq!(warm.allocation.total(), 16);
        }
    }

    #[test]
    fn warm_chain_survives_a_relaxed_budget_point() {
        // An overloaded single queue at budget 1 forces the budget-row
        // relaxation; the chain must answer like the cold path there AND
        // keep warm-starting correctly afterwards.
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Bus(bus), 3.0).unwrap();
        let arch = b.build().unwrap();
        let cfg = SizingConfig::small();
        let mut ctx = SolveContext::new(&arch, &cfg);
        for budget in [40usize, 1, 40] {
            let warm = ctx.size_buffers(budget).unwrap();
            let cold = size_buffers(&arch, budget, &cfg).unwrap();
            assert_eq!(warm.budget_row_relaxed, cold.budget_row_relaxed);
            // The relaxed point routes through the warm chain's cold
            // `Infeasible` fallback; the reported engine must still be
            // the one that actually solved (the solution's own tag).
            assert_eq!(warm.lp_engine, cold.lp_engine, "budget {budget}");
            assert!(
                (warm.predicted_loss_rate - cold.predicted_loss_rate).abs()
                    <= 1e-9 * (1.0 + cold.predicted_loss_rate.abs()),
                "budget {budget}: warm {} vs cold {}",
                warm.predicted_loss_rate,
                cold.predicted_loss_rate
            );
        }
    }

    #[test]
    fn evaluate_policies_sized_matches_the_joint_entry_point() {
        let arch = templates::amba();
        let cfg = PipelineConfig::small();
        let joint = evaluate_policies(&arch, 16, &cfg).unwrap();
        let outcome = size_buffers(&arch, 16, &cfg.sizing).unwrap();
        let split = evaluate_policies_sized(&arch, 16, &cfg, outcome, &SerialPool).unwrap();
        assert_eq!(joint.pre, split.pre);
        assert_eq!(joint.post, split.post);
        assert_eq!(joint.timeout, split.timeout);
    }

    #[test]
    fn budget_zero_is_rejected_identically_cold_and_warm() {
        let arch = templates::amba();
        let cfg = SizingConfig::small();

        // Fresh context: the very first solve must refuse budget 0 with
        // the same error the warm path raises — not fall through to a
        // deeper layer with a different shape.
        let mut fresh = SolveContext::new(&arch, &cfg);
        let cold_err = match fresh.size_buffers(0) {
            Err(CoreError::BadConfig(msg)) => msg,
            other => panic!("fresh context budget 0: expected BadConfig, got {other:?}"),
        };
        // The refusal must not have half-initialized the chain: a valid
        // follow-up solve is still bit-identical to the cold path.
        let after = fresh.size_buffers(16).unwrap();
        let direct = size_buffers(&arch, 16, &cfg).unwrap();
        assert_eq!(after.allocation.as_slice(), direct.allocation.as_slice());
        assert_eq!(after.lp_iterations, direct.lp_iterations);

        // Warmed context (state exists): same error, byte for byte.
        let mut warmed = SolveContext::new(&arch, &cfg);
        warmed.size_buffers(16).unwrap();
        let warm_err = match warmed.size_buffers(0) {
            Err(CoreError::BadConfig(msg)) => msg,
            other => panic!("warm context budget 0: expected BadConfig, got {other:?}"),
        };
        assert_eq!(cold_err, warm_err);

        // And the standalone entry point agrees too.
        match size_buffers(&arch, 0, &cfg) {
            Err(CoreError::BadConfig(msg)) => assert_eq!(msg, cold_err),
            other => panic!("size_buffers budget 0: expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn reported_engine_matches_the_solving_engine_for_all_engines() {
        let arch = templates::figure1();
        for engine in socbuf_lp::LpEngine::ALL {
            let cfg = SizingConfig {
                engine,
                ..SizingConfig::small()
            };
            let cold = size_buffers(&arch, 18, &cfg).unwrap();
            assert_eq!(cold.lp_engine, engine, "cold path must tag {engine}");
            let mut ctx = SolveContext::new(&arch, &cfg);
            for budget in [18usize, 24, 18] {
                let warm = ctx.size_buffers(budget).unwrap();
                assert_eq!(warm.lp_engine, engine, "warm chain must tag {engine}");
            }
        }
    }

    #[test]
    fn pipeline_runs_extended_architectures_through_auto() {
        // Bursty traffic + priority arbitration: the whole sizing loop
        // runs and simulates every policy.
        use socbuf_soc::{BusArbitration, TrafficShape};
        let mut b = ArchitectureBuilder::new();
        let bus = b
            .add_bus_with_arbitration("bus", 1.0, BusArbitration::Priority)
            .unwrap();
        let hot = b.add_processor("hot", &[bus], 1.0).unwrap();
        let cold = b.add_processor("cold", &[bus], 1.0).unwrap();
        b.add_flow_shaped(
            hot,
            FlowTarget::Bus(bus),
            0.6,
            TrafficShape::Burst { batch: 4 },
        )
        .unwrap();
        b.add_flow(cold, FlowTarget::Bus(bus), 0.2).unwrap();
        let arch = b.build().unwrap();
        assert!(arch.uses_extended_semantics());
        let cmp = evaluate_policies(&arch, 12, &PipelineConfig::small()).unwrap();
        assert!(cmp.pre.total_offered > 0.0);
        assert!(cmp.post.total_offered > 0.0);
        assert_eq!(cmp.outcome.allocation.total(), 12);
    }

    #[test]
    fn config_validation() {
        let arch = templates::amba();
        let mut cfg = PipelineConfig::small();
        cfg.replications = 0;
        assert!(evaluate_policies(&arch, 10, &cfg).is_err());
        let mut cfg = PipelineConfig::small();
        cfg.warmup = cfg.horizon;
        assert!(evaluate_policies(&arch, 10, &cfg).is_err());
    }

    #[test]
    fn simulation_windows_the_event_loop_cannot_run_are_refused() {
        // Checked directly: an evaluation that let these through would
        // simulate forever rather than fail.
        let mut cfg = PipelineConfig::small();
        cfg.horizon = f64::INFINITY;
        match cfg.validate_simulation() {
            Err(CoreError::BadConfig(msg)) => assert!(msg.contains("horizon"), "{msg}"),
            other => panic!("infinite horizon: expected BadConfig, got {other:?}"),
        }
        for horizon in [0.0, -1.0, f64::NAN] {
            cfg.horizon = horizon;
            cfg.warmup = 0.0;
            assert!(cfg.validate_simulation().is_err(), "horizon {horizon}");
        }
        let mut cfg = PipelineConfig::small();
        cfg.warmup = -1.0;
        assert!(cfg.validate_simulation().is_err());
        assert!(PipelineConfig::small().validate_simulation().is_ok());
    }

    #[test]
    fn improvement_metrics_are_well_defined() {
        let arch = templates::amba();
        let cmp = evaluate_policies(&arch, 30, &PipelineConfig::small()).unwrap();
        let a = cmp.improvement_vs_pre();
        let b = cmp.improvement_vs_timeout();
        assert!(a.is_finite() && b.is_finite());
        assert!(a <= 1.0 && b <= 1.0);
    }
}

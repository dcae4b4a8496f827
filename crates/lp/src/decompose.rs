//! Block-angular decomposition — the third [`LpEngine`] backend.
//!
//! The occupation-measure LPs this workspace exists for are
//! block-diagonal per bus: a bus's queues have their own cut and
//! normalization rows and share the bus's effort row, and exactly
//! **one** global budget row couples the buses. This module exploits
//! that structure the textbook way — dualize the coupling row and let
//! the blocks separate:
//!
//! 1. **Read** the structure the problem declares
//!    ([`LpProblem::declare_blocks`]; the sizing formulation declares
//!    one block per bus and its budget row as the coupling row). Blocks
//!    are numbered by their smallest variable. A problem without a
//!    coupling row is separable and skips the multiplier search. A
//!    problem that declares nothing, fewer than two blocks, or a row
//!    reaching outside its block runs the monolithic revised path
//!    (tagged [`LpEngine::Decomposed`]), so the engine is **total** over
//!    arbitrary LPs and the cross-engine oracle corpora apply to it
//!    unchanged.
//! 2. **Search** the budget multiplier `t ≥ 0`. Each block solves
//!    `min cᵦ·xᵦ + t·gᵦ·xᵦ` (sign flipped for maximization) with the
//!    existing revised simplex through its own [`PreparedLp`] —
//!    objective deltas in place, warm-started from the block's previous
//!    basis across multiplier iterations. The aggregate coupling usage
//!    `Φ(t) = Σ g·x(t)` is monotone non-increasing in `t`, so a
//!    doubling bracket plus bisection finds the smallest multiplier at
//!    which the blocks' independent optima respect the budget. Before
//!    bracketing, one probe sweep prices each block by its coupling
//!    usage alone: if even the least usage the blocks can reach exceeds
//!    the budget, the joint problem is infeasible and the monolithic
//!    path reports it at once. Block solves within one sweep are
//!    independent; an attached [`SolveExecutor`] (see
//!    [`ExecutorHandle`]) fans them out.
//! 3. **Finish exactly.** The search is *strictly an accelerator*: the
//!    per-block optimal bases are stitched into one joint
//!    [`BasisSnapshot`] (block columns map to joint columns, the
//!    coupling row gets its own slack) and a single warm-started
//!    revised solve on the **original joint standard form** produces
//!    the status, objective, duals — including the recovered budget
//!    shadow price — and certificate of the joint problem. A stale or
//!    unusable stitched basis falls back to the cold joint path inside
//!    [`run_revised_warm`], so decomposition never changes *what* is
//!    solved, only how fast the optimal basis is reached.
//!
//! # Determinism
//!
//! Everything is index-deterministic: blocks are ordered by their
//! smallest variable, each multiplier iteration writes per-block state
//! behind that block's own lock, and the aggregate Φ is reduced in
//! block-index order on the calling thread. Executors change wall time,
//! never bytes — the property the sweep determinism suite pins with the
//! decomposed engine selected.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::prepared::PreparedLp;
use crate::problem::{LpProblem, Relation, RowId, Sense, VarId};
use crate::revised::{run_revised, run_revised_warm, BasisSnapshot, LpEngine};
use crate::simplex::SimplexOptions;
use crate::solution::LpSolution;
use crate::standard_form::build_standard_form;
use crate::LpError;

/// Where the decomposed engine runs the independent block solves of one
/// multiplier iteration. Implementations must call `job(i)` exactly
/// once for every `i in 0..n` (in any order, on any threads) and return
/// only when all calls have finished. `socbuf-sweep`'s `WorkPool`
/// implements this; the serial default runs `0..n` in order on the
/// calling thread.
pub trait SolveExecutor: Send + Sync {
    /// Runs `job(0), …, job(n-1)`, returning after all complete.
    fn run_indexed(&self, n: usize, job: &(dyn Fn(usize) + Sync));
}

/// A cloneable, optional handle to a [`SolveExecutor`], carried by
/// [`SimplexOptions::executor`]. The default ([`ExecutorHandle::serial`])
/// holds no executor and evaluates jobs serially in index order.
#[derive(Clone, Default)]
pub struct ExecutorHandle(Option<Arc<dyn SolveExecutor>>);

impl ExecutorHandle {
    /// The serial handle: jobs run in index order on the calling thread.
    pub fn serial() -> ExecutorHandle {
        ExecutorHandle(None)
    }

    /// Wraps a shared executor.
    pub fn new(executor: Arc<dyn SolveExecutor>) -> ExecutorHandle {
        ExecutorHandle(Some(executor))
    }

    /// Whether a real executor (vs the serial default) is attached.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    pub(crate) fn run(&self, n: usize, job: &(dyn Fn(usize) + Sync)) {
        match &self.0 {
            Some(executor) => executor.run_indexed(n, job),
            None => {
                for i in 0..n {
                    job(i);
                }
            }
        }
    }
}

impl std::fmt::Debug for ExecutorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ExecutorHandle(pool)"
        } else {
            "ExecutorHandle(serial)"
        })
    }
}

/// How a decomposed solve went — the machine-readable half of what
/// `decomp_probe` records.
#[derive(Debug, Clone)]
pub struct DecompReport {
    /// Number of independent blocks the problem declared (1 when it did
    /// not decompose and the monolithic fallback ran).
    pub blocks: usize,
    /// Creation-order index of the declared coupling row, if any.
    pub coupling_row: Option<usize>,
    /// Final budget multiplier the search settled on.
    pub multiplier: f64,
    /// Number of multiplier iterations (full sweeps of block solves;
    /// the least-usage probe is not one).
    pub multiplier_iterations: usize,
    /// Whether the solve fell back to the monolithic revised path (no
    /// usable declared structure, or persistent block-level failure).
    pub fell_back: bool,
}

/// The declared block-angular structure of a problem, blocks numbered
/// by their smallest variable.
struct Structure {
    /// Creation-order index of the one row linking the blocks; `None`
    /// when the problem is separable as it stands.
    coupling: Option<usize>,
    blocks: Vec<BlockShape>,
}

/// One block: which joint variables and user rows it owns.
#[derive(Default, Clone)]
struct BlockShape {
    /// Joint variable indices, ascending.
    vars: Vec<usize>,
    /// Joint user-row indices, ascending (creation order).
    rows: Vec<usize>,
}

/// The structure `p` declares ([`LpProblem::declare_blocks`]). `None`
/// when it declares none, fewer than two blocks, no rows, a row in a
/// block that owns no variable, or a linking row that is not the one
/// `≤` row.
fn declared(p: &LpProblem) -> Option<Structure> {
    let (var_block, row_block) = p.declared_blocks()?;
    let mut number = HashMap::new();
    let mut blocks: Vec<BlockShape> = Vec::new();
    for (j, label) in var_block.iter().enumerate() {
        let b = *number.entry(label).or_insert_with(|| {
            blocks.push(BlockShape::default());
            blocks.len() - 1
        });
        blocks[b].vars.push(j);
    }
    if blocks.len() < 2 || row_block.is_empty() {
        return None;
    }
    let mut coupling = None;
    for (i, label) in row_block.iter().enumerate() {
        match label {
            Some(label) => blocks[*number.get(label)?].rows.push(i),
            None if coupling.is_none() && p.row_relation(i) == Relation::Le => coupling = Some(i),
            None => return None,
        }
    }
    Some(Structure { coupling, blocks })
}

/// Outcome of one block's latest solve.
#[derive(Clone, Copy, PartialEq)]
enum BlockStatus {
    Optimal,
    Unbounded,
    Failed,
}

/// Mutable per-block solver state. Each multiplier iteration locks each
/// block's state exactly once from the job that owns its index, so an
/// executor cannot introduce contention or ordering effects.
#[derive(Clone)]
struct BlockState {
    prepared: PreparedLp,
    shape: BlockShape,
    /// Original objective coefficient per block variable.
    base_obj: Vec<f64>,
    /// Coupling-row coefficient per block variable (0 where absent).
    couple: Vec<f64>,
    snapshot: Option<BasisSnapshot>,
    /// `gᵦ · xᵦ` at the last optimal solve.
    usage: f64,
    /// Accumulated pivot count across multiplier iterations.
    pivots: usize,
    status: BlockStatus,
}

/// Builds the per-block problems. `None` when a row reaches outside
/// its block or any block fails to assemble (the monolithic path then
/// judges the joint problem).
fn build_blocks(
    p: &LpProblem,
    structure: Structure,
    equilibrate: bool,
) -> Option<(Vec<Mutex<BlockState>>, f64)> {
    // Coupling coefficients and rhs in joint variable indexing.
    let mut g = vec![0.0f64; p.num_vars()];
    let mut budget = f64::INFINITY;
    if let Some(ci) = structure.coupling {
        let (terms, _, rhs) = p.row(RowId(ci));
        for (v, c) in terms {
            g[v.index()] = c;
        }
        budget = rhs;
    }
    let mut local = vec![usize::MAX; p.num_vars()];
    let mut states = Vec::with_capacity(structure.blocks.len());
    for shape in structure.blocks {
        let mut bp = LpProblem::new(p.sense());
        for (k, &j) in shape.vars.iter().enumerate() {
            let v = VarId(j);
            let (lo, up) = p.bounds(v);
            bp.add_var_bounded(p.var_name(v).to_string(), p.objective_coeff(v), lo, up);
            local[j] = k;
        }
        for &ri in &shape.rows {
            let (terms, rel, rhs) = p.row(RowId(ri));
            let bt: Vec<(VarId, f64)> = terms
                .iter()
                .map(|&(v, c)| {
                    (local[v.index()] != usize::MAX).then(|| (VarId(local[v.index()]), c))
                })
                .collect::<Option<_>>()?;
            bp.add_constraint(bt, rel, rhs).ok()?;
        }
        for &j in &shape.vars {
            local[j] = usize::MAX;
        }
        let base_obj: Vec<f64> = shape
            .vars
            .iter()
            .map(|&j| p.objective_coeff(VarId(j)))
            .collect();
        let couple: Vec<f64> = shape.vars.iter().map(|&j| g[j]).collect();
        let prepared = PreparedLp::new_with_scaling(bp, equilibrate).ok()?;
        states.push(Mutex::new(BlockState {
            prepared,
            shape,
            base_obj,
            couple,
            snapshot: None,
            usage: 0.0,
            pivots: 0,
            status: BlockStatus::Optimal,
        }));
    }
    Some((states, budget))
}

/// Re-prices one block for multiplier `t` and re-solves it (warm when a
/// previous basis exists).
fn solve_block(state: &mut BlockState, t: f64, sign: f64, opts: &SimplexOptions) {
    for k in 0..state.base_obj.len() {
        if state.couple[k] != 0.0 {
            let priced = state.base_obj[k] + sign * t * state.couple[k];
            state
                .prepared
                .set_objective_coeff(VarId(k), priced)
                .expect("block variable and finite coefficient by construction");
        }
    }
    let attempt = match &state.snapshot {
        Some(snapshot) => state.prepared.solve_warm(opts, snapshot),
        None => state.prepared.solve_with(opts),
    };
    match attempt {
        Ok(sol) => {
            state.usage = state
                .couple
                .iter()
                .enumerate()
                .map(|(k, &gk)| gk * sol.value(VarId(k)))
                .sum();
            state.pivots += sol.iterations();
            state.snapshot = Some(sol.basis_snapshot());
            state.status = BlockStatus::Optimal;
        }
        Err(LpError::Unbounded { .. }) => {
            // Φ(t) = ∞: the block's priced objective still rides a ray —
            // a larger multiplier (or the joint coupling row) may bound
            // it. The stale basis is dropped so the next evaluation
            // starts clean.
            state.usage = f64::INFINITY;
            state.snapshot = None;
            state.status = BlockStatus::Unbounded;
        }
        Err(_) => {
            // Infeasible blocks stay infeasible for every t (the
            // multiplier only re-prices the objective); numerical
            // failures likewise route to the monolithic path, which
            // reproduces the joint problem's exact status.
            state.status = BlockStatus::Failed;
        }
    }
}

/// Aggregate of one multiplier iteration.
struct Sweep {
    phi: f64,
    unbounded: bool,
    failed: bool,
}

fn sweep_blocks(
    states: &[Mutex<BlockState>],
    t: f64,
    sign: f64,
    opts: &SimplexOptions,
    executor: &ExecutorHandle,
) -> Sweep {
    // One job per block: each is a whole LP, so batching blocks would
    // only serialize independent heavy solves.
    executor.run(states.len(), &|i| {
        let mut state = states[i].lock().expect("block state poisoned");
        solve_block(&mut state, t, sign, opts);
    });
    let mut agg = Sweep {
        phi: 0.0,
        unbounded: false,
        failed: false,
    };
    for slot in states {
        let state = slot.lock().expect("block state poisoned");
        match state.status {
            BlockStatus::Optimal => agg.phi += state.usage,
            BlockStatus::Unbounded => agg.unbounded = true,
            BlockStatus::Failed => agg.failed = true,
        }
    }
    agg
}

/// The least coupling usage the blocks can reach, and the pivots it
/// took to find: every block minimizes its usage `gᵦ·xᵦ` alone, warm
/// from its latest basis, on a copy of its state, so the multiplier
/// search's own bases stay as they were.
fn least_usage(
    states: &[Mutex<BlockState>],
    sign: f64,
    opts: &SimplexOptions,
    executor: &ExecutorHandle,
) -> (Sweep, usize) {
    let probes: Vec<Mutex<BlockState>> = states
        .iter()
        .map(|slot| {
            let mut probe = slot.lock().expect("block state poisoned").clone();
            // Priced at t = 1 from a zero base, each block's objective
            // is its coupling usage alone.
            for k in 0..probe.base_obj.len() {
                if probe.couple[k] == 0.0 && probe.base_obj[k] != 0.0 {
                    probe
                        .prepared
                        .set_objective_coeff(VarId(k), 0.0)
                        .expect("block variable by construction");
                }
                probe.base_obj[k] = 0.0;
            }
            probe.pivots = 0;
            Mutex::new(probe)
        })
        .collect();
    let sweep = sweep_blocks(&probes, 1.0, sign, opts, executor);
    let pivots = probes
        .iter()
        .map(|slot| slot.lock().expect("block state poisoned").pivots)
        .sum();
    (sweep, pivots)
}

/// Stitches the blocks' optimal bases into a joint [`BasisSnapshot`].
///
/// Layout facts this relies on (see `standard_form::orient_rows`): user
/// rows occupy standard-form rows `0..num_rows()` in creation order,
/// followed by one upper-bound row per upper-bounded variable in
/// variable order; structural columns are `0..n`; each slack-bearing row
/// records its column in `slack_col`. Identical rows produce identical
/// orientation in block and joint forms (the lower-bound shift is a
/// per-variable quantity), so a block's slack row maps to a joint slack
/// row. Returns `None` if any expected mapping is missing — the caller
/// then lets the warm import's own cold fallback decide.
fn combine_basis(
    p: &LpProblem,
    joint_rows: usize,
    joint_cols: usize,
    joint_slack: &[Option<usize>],
    states: &[Mutex<BlockState>],
    coupling: Option<usize>,
) -> Option<BasisSnapshot> {
    let mut ub_rank = vec![usize::MAX; p.num_vars()];
    let mut rank = 0;
    for j in 0..p.num_vars() {
        if p.bounds(VarId(j)).1.is_some() {
            ub_rank[j] = rank;
            rank += 1;
        }
    }
    let mut basis = vec![usize::MAX; joint_rows];
    for slot in states {
        let state = slot.lock().expect("block state poisoned");
        let snapshot = state.snapshot.as_ref()?;
        let bsf = state.prepared.sf();
        let nb = state.shape.vars.len();
        if snapshot.num_rows() != bsf.slack_col.len() {
            return None;
        }
        // Block upper-bound rows follow block user rows, one per
        // upper-bounded block variable in block-variable order.
        let block_ub: Vec<usize> = state
            .shape
            .vars
            .iter()
            .copied()
            .filter(|&j| p.bounds(VarId(j)).1.is_some())
            .collect();
        let joint_row_of = |rb: usize| -> Option<usize> {
            if rb < state.shape.rows.len() {
                Some(state.shape.rows[rb])
            } else {
                let j = *block_ub.get(rb - state.shape.rows.len())?;
                Some(p.num_rows() + ub_rank[j])
            }
        };
        // Invert the block's slack-column assignment.
        let mut slack_owner = vec![usize::MAX; bsf.a.cols()];
        for (rb, sc) in bsf.slack_col.iter().enumerate() {
            if let Some(c) = sc {
                slack_owner[*c] = rb;
            }
        }
        for (rb, &col) in snapshot.rows().iter().enumerate() {
            let jr = joint_row_of(rb)?;
            if jr >= joint_rows {
                return None;
            }
            if col == usize::MAX {
                continue; // row inactive at the block optimum
            }
            let jc = if col < nb {
                state.shape.vars[col]
            } else {
                let owner = *slack_owner.get(col)?;
                if owner == usize::MAX {
                    return None; // an artificial was basic: unusable seed
                }
                (*joint_slack.get(joint_row_of(owner)?)?)?
            };
            basis[jr] = jc;
        }
    }
    if let Some(ci) = coupling {
        basis[ci] = (*joint_slack.get(ci)?)?;
    }
    Some(BasisSnapshot::new(basis, joint_cols, LpEngine::Decomposed))
}

/// Monolithic fallback: the joint problem through the plain revised
/// path, tagged [`LpEngine::Decomposed`] so callers see which engine
/// they selected.
fn solve_monolithic(
    p: &LpProblem,
    options: &SimplexOptions,
    mut report: DecompReport,
) -> Result<(LpSolution, DecompReport), LpError> {
    report.fell_back = true;
    let mut sf = build_standard_form(p)?;
    sf.prepare_scaling(options.equilibrate);
    let basic = run_revised(&sf, options)?;
    let sol = LpSolution::from_basic(p, &sf, &basic, LpEngine::Decomposed)?;
    Ok((sol, report))
}

/// Maximum doubling steps while bracketing the multiplier, and maximum
/// bisection refinements afterwards. The search only needs to land the
/// block bases *near* the joint optimum — the warm joint finish supplies
/// exactness — so both budgets are modest.
const BRACKET_STEPS: usize = 60;
const BISECT_STEPS: usize = 32;

/// Solves `p` with the block-angular decomposition. See the module docs
/// for the algorithm; the returned [`DecompReport`] records how the
/// solve went (block count, multiplier trajectory, fallback).
///
/// Status, objective, duals and certificate are always exactly those of
/// the joint problem — agreement with the monolithic revised engine to
/// solver precision is what the cross-engine oracle suites pin.
///
/// # Errors
///
/// Exactly the statuses the monolithic revised engine would report for
/// the joint problem: [`LpError::Infeasible`], [`LpError::Unbounded`],
/// iteration limits and numerical failures, or
/// [`LpError::EmptyProblem`] for a variable-free problem.
pub fn solve_decomposed(
    p: &LpProblem,
    options: &SimplexOptions,
) -> Result<(LpSolution, DecompReport), LpError> {
    if p.num_vars() == 0 {
        return Err(LpError::EmptyProblem);
    }
    let report = DecompReport {
        blocks: 1,
        coupling_row: None,
        multiplier: 0.0,
        multiplier_iterations: 0,
        fell_back: false,
    };
    let Some(structure) = declared(p) else {
        return solve_monolithic(p, options, report);
    };
    let coupling = structure.coupling;
    let Some((states, budget)) = build_blocks(p, structure, options.equilibrate) else {
        return solve_monolithic(p, options, report);
    };
    let mut report = DecompReport {
        blocks: states.len(),
        coupling_row: coupling,
        ..report
    };

    let sign = match p.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let block_opts = SimplexOptions {
        engine: LpEngine::Revised,
        executor: ExecutorHandle::serial(),
        ..options.clone()
    };
    let executor = &options.executor;
    let eval = |t: f64, report: &mut DecompReport| -> Sweep {
        report.multiplier_iterations += 1;
        report.multiplier = t;
        sweep_blocks(&states, t, sign, &block_opts, executor)
    };

    // Budget-respect tolerance: generous on purpose — the warm joint
    // finish repairs small violations, so the search only brackets.
    let cpl_tol = 1e-7 * (1.0 + budget.abs());
    let first = eval(0.0, &mut report);
    if first.failed {
        return solve_monolithic(p, options, report);
    }
    let satisfied = |s: &Sweep| !s.unbounded && s.phi <= budget + cpl_tol;
    // Pivots of the probe below, which is not a multiplier iteration.
    let mut probe_pivots = 0;
    if coupling.is_some() && !satisfied(&first) {
        // No multiplier brings the usage below the least the blocks can
        // reach: past the budget, the joint problem is infeasible.
        let (least, pivots) = least_usage(&states, sign, &block_opts, executor);
        if least.failed || (!least.unbounded && least.phi > budget + cpl_tol) {
            return solve_monolithic(p, options, report);
        }
        probe_pivots = pivots;
        // Bracket: double until the blocks' optima respect the budget.
        let mut t_lo = 0.0f64;
        let mut t_hi = 1.0f64;
        let mut bracketed = false;
        for _ in 0..BRACKET_STEPS {
            let s = eval(t_hi, &mut report);
            if s.failed {
                return solve_monolithic(p, options, report);
            }
            if satisfied(&s) {
                bracketed = true;
                break;
            }
            t_lo = t_hi;
            t_hi *= 2.0;
        }
        if !bracketed {
            return solve_monolithic(p, options, report);
        }
        // Bisect: shrink towards the smallest budget-respecting t.
        let mut last_feasible_at = t_hi;
        for _ in 0..BISECT_STEPS {
            if t_hi - t_lo <= 1e-9 * (1.0 + t_hi) {
                break;
            }
            let mid = 0.5 * (t_lo + t_hi);
            let s = eval(mid, &mut report);
            if s.failed {
                return solve_monolithic(p, options, report);
            }
            if satisfied(&s) {
                t_hi = mid;
                last_feasible_at = mid;
                if budget - s.phi <= cpl_tol {
                    break; // coupling tight: this is the optimum region
                }
            } else {
                t_lo = mid;
            }
        }
        // Prefer stitching from a budget-respecting sweep. At a
        // degenerate breakpoint the re-evaluation can land on a
        // different optimal vertex and miss the budget again — that is
        // fine: the stitched basis is only a seed, and the joint warm
        // finish repairs primal infeasibility (or falls back cold)
        // internally. Only a hard block failure forces the monolithic
        // path here.
        if last_feasible_at != report.multiplier {
            let s = eval(t_hi, &mut report);
            if s.failed {
                return solve_monolithic(p, options, report);
            }
            if s.unbounded {
                // An unbounded block leaves no snapshot to stitch;
                // re-anchor at the last known budget-respecting sweep.
                let s = eval(last_feasible_at, &mut report);
                if s.failed || s.unbounded {
                    return solve_monolithic(p, options, report);
                }
            }
        }
    } else if first.unbounded {
        // Separable (or budget-slack) with an unbounded block: the joint
        // problem shares the ray; the monolithic path reports it exactly.
        return solve_monolithic(p, options, report);
    }

    // Exact joint finish from the stitched basis.
    let mut joint_sf = build_standard_form(p)?;
    joint_sf.prepare_scaling(options.equilibrate);
    let joint_rows = joint_sf.slack_col.len();
    let Some(snapshot) = combine_basis(
        p,
        joint_rows,
        joint_sf.a.cols(),
        &joint_sf.slack_col,
        &states,
        coupling,
    ) else {
        return solve_monolithic(p, options, report);
    };
    let finish_opts = SimplexOptions {
        engine: LpEngine::Revised,
        executor: ExecutorHandle::serial(),
        ..options.clone()
    };
    let mut basic = run_revised_warm(&joint_sf, &finish_opts, &snapshot)?;
    basic.iterations += probe_pivots;
    for slot in &states {
        basic.iterations += slot.lock().expect("block state poisoned").pivots;
    }
    let sol = LpSolution::from_basic(p, &joint_sf, &basic, LpEngine::Decomposed)?;
    Ok((sol, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_optimality;
    use crate::Relation;

    const TOL: f64 = 1e-6;

    /// `blocks` independent 2-variable blocks under one budget row:
    /// max Σ (3x_k + 5y_k) s.t. x_k + y_k ≤ 4, Σ (x_k + 2 y_k) ≤ B,
    /// declared so.
    fn block_angular(blocks: usize, budget: f64) -> LpProblem {
        let mut p = LpProblem::new(Sense::Maximize);
        let mut coupling = Vec::new();
        for k in 0..blocks {
            let x = p.add_var(format!("x{k}"), 3.0);
            let y = p.add_var(format!("y{k}"), 5.0);
            p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
                .unwrap();
            coupling.push((x, 1.0));
            coupling.push((y, 2.0));
        }
        p.add_constraint(coupling, Relation::Le, budget).unwrap();
        p.declare_blocks(
            (0..blocks).flat_map(|k| [k, k]),
            (0..blocks).map(Some).chain([None]),
        )
        .unwrap();
        p
    }

    fn assert_agrees(p: &LpProblem) -> DecompReport {
        let opts = SimplexOptions::default();
        let mono = p.solve().expect("monolithic optimal");
        let (sol, report) = solve_decomposed(p, &opts).expect("decomposed optimal");
        assert_eq!(sol.engine(), LpEngine::Decomposed);
        assert!(
            (sol.objective() - mono.objective()).abs() <= 1e-9 * (1.0 + mono.objective().abs()),
            "decomposed {} vs monolithic {}",
            sol.objective(),
            mono.objective()
        );
        let cert = verify_optimality(p, &sol, TOL);
        assert!(cert.is_optimal(), "certificate failed: {cert:?}");
        report
    }

    #[test]
    fn tight_budget_decomposes_and_agrees() {
        let p = block_angular(3, 6.0);
        let report = assert_agrees(&p);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.coupling_row, Some(3));
        assert!(!report.fell_back, "structure must be exploited");
        assert!(report.multiplier > 0.0, "tight budget needs a price");
    }

    #[test]
    fn slack_budget_settles_at_zero_multiplier() {
        // B = 1000 ≫ anything the blocks can use: Φ(0) ≤ B, one sweep.
        let p = block_angular(3, 1000.0);
        let report = assert_agrees(&p);
        assert!(!report.fell_back);
        assert_eq!(report.multiplier_iterations, 1);
        assert_eq!(report.multiplier, 0.0);
    }

    #[test]
    fn recovered_shadow_price_matches_the_joint_dual() {
        let p = block_angular(4, 8.0);
        let opts = SimplexOptions::default();
        let mono = p.solve().unwrap();
        let (sol, report) = solve_decomposed(&p, &opts).unwrap();
        let row = RowId(report.coupling_row.expect("coupling row declared"));
        assert!(
            (sol.dual(row) - mono.dual(row)).abs() <= 1e-6 * (1.0 + mono.dual(row).abs()),
            "decomposed dual {} vs monolithic {}",
            sol.dual(row),
            mono.dual(row)
        );
        // And the search's multiplier approximates that same price.
        assert!(
            (report.multiplier - mono.dual(row).abs()).abs() <= 1e-3 * (1.0 + mono.dual(row).abs()),
            "multiplier {} far from dual {}",
            report.multiplier,
            mono.dual(row)
        );
    }

    #[test]
    fn separable_problem_skips_the_search() {
        // Two blocks, no coupling row at all.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var_bounded("x", -1.0, 0.0, Some(3.0));
        let y = p.add_var_bounded("y", -2.0, 0.0, Some(5.0));
        p.add_constraint([(x, 1.0)], Relation::Le, 2.0).unwrap();
        p.add_constraint([(y, 1.0)], Relation::Le, 4.0).unwrap();
        p.declare_blocks([0, 1], [Some(0), Some(1)]).unwrap();
        let report = assert_agrees(&p);
        assert_eq!(report.blocks, 2);
        assert_eq!(report.coupling_row, None);
        assert_eq!(report.multiplier_iterations, 1);
        assert!(!report.fell_back);
    }

    #[test]
    fn popping_the_coupling_row_leaves_separable_blocks() {
        let mut p = block_angular(3, 6.0);
        p.pop_row().unwrap();
        let report = assert_agrees(&p);
        assert_eq!((report.blocks, report.coupling_row), (3, None));
        assert!(!report.fell_back);
    }

    #[test]
    fn misdeclared_blocks_fall_back() {
        let declare = |vars: [usize; 6], rows: [Option<usize>; 4]| {
            let mut p = block_angular(3, 6.0);
            p.declare_blocks(vars, rows).unwrap();
            p
        };
        for (label, p) in [
            (
                "one block",
                declare([0; 6], [Some(0), Some(0), Some(0), None]),
            ),
            // x1 is declared in block 0, but block 1's row reaches it.
            (
                "a row outside its block",
                declare([0, 0, 0, 1, 2, 2], [Some(0), Some(1), Some(2), None]),
            ),
            // A row in a block that owns no variable.
            (
                "a row-only block",
                declare([0, 0, 1, 1, 2, 2], [Some(0), Some(1), Some(3), None]),
            ),
            (
                "two linking rows",
                declare([0, 0, 1, 1, 2, 2], [Some(0), Some(1), None, None]),
            ),
        ] {
            let report = assert_agrees(&p);
            assert!(report.fell_back, "{label}");
            assert_eq!(report.blocks, 1, "{label}");
        }
    }

    #[test]
    fn dense_problem_falls_back_to_monolithic() {
        // Every row touches every variable and no blocks are declared:
        // the problem is solved whole.
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 3.0);
        let y = p.add_var("y", 5.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let report = assert_agrees(&p);
        assert!(report.fell_back);
        assert_eq!(report.blocks, 1);
    }

    #[test]
    fn single_variable_problem_falls_back() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let report = assert_agrees(&p);
        assert!(report.fell_back);
    }

    #[test]
    fn statuses_match_the_monolithic_engine() {
        let opts = SimplexOptions::default();
        // Infeasible inside one block.
        let mut p = block_angular(2, 100.0);
        let x0 = VarId(0);
        p.add_constraint([(x0, 1.0)], Relation::Ge, 10.0).unwrap();
        p.declare_blocks([0, 0, 1, 1], [Some(0), Some(1), None, Some(0)])
            .unwrap();
        assert!(matches!(p.solve(), Err(LpError::Infeasible { .. })));
        assert!(matches!(
            solve_decomposed(&p, &opts),
            Err(LpError::Infeasible { .. })
        ));

        // Unbounded: two unbounded blocks, coupling can't price both out
        // (negative coupling coefficient keeps the ray free).
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 0.0).unwrap();
        p.add_constraint([(y, 1.0)], Relation::Ge, 0.0).unwrap();
        p.add_constraint([(x, -1.0), (y, -1.0)], Relation::Le, 5.0)
            .unwrap();
        p.declare_blocks([0, 1], [Some(0), Some(1), None]).unwrap();
        assert!(matches!(p.solve(), Err(LpError::Unbounded { .. })));
        assert!(matches!(
            solve_decomposed(&p, &opts),
            Err(LpError::Unbounded { .. })
        ));
    }

    #[test]
    fn unbounded_blocks_bounded_by_the_coupling_row_still_agree() {
        // Each block alone is unbounded (no upper bounds, profitable
        // ray); only the budget row bounds the joint problem. The search
        // must ride Φ(t)=∞ to a large-enough multiplier.
        let mut p = LpProblem::new(Sense::Maximize);
        let mut coupling = Vec::new();
        for k in 0..3 {
            let x = p.add_var(format!("x{k}"), 1.0 + k as f64);
            let y = p.add_var(format!("y{k}"), 1.0);
            p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 1.0)
                .unwrap();
            coupling.push((x, 2.0));
            coupling.push((y, 1.0));
        }
        p.add_constraint(coupling, Relation::Le, 9.0).unwrap();
        p.declare_blocks(
            (0..3).flat_map(|k| [k, k]),
            [Some(0), Some(1), Some(2), None],
        )
        .unwrap();
        let report = assert_agrees(&p);
        assert_eq!(report.blocks, 3);
        assert!(!report.fell_back);
    }

    #[test]
    fn mixed_bounded_and_singleton_blocks_agree() {
        // A variable that appears only in the coupling row is its own
        // single-variable block with zero rows.
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", 2.0, 0.0, Some(3.0));
        let y = p.add_var_bounded("y", 1.0, 0.0, Some(4.0));
        let lone = p.add_var_bounded("lone", 4.0, 0.0, Some(2.0));
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 5.0)
            .unwrap();
        p.add_constraint([(x, 1.0), (y, 2.0), (lone, 3.0)], Relation::Le, 6.0)
            .unwrap();
        p.declare_blocks([0, 0, 1], [Some(0), None]).unwrap();
        let report = assert_agrees(&p);
        assert_eq!(report.blocks, 2);
        assert!(!report.fell_back);
    }

    #[test]
    fn warm_resolve_from_a_decomposed_snapshot_matches() {
        let p = block_angular(3, 6.0);
        let opts = SimplexOptions::default();
        let (sol, _) = solve_decomposed(&p, &opts).unwrap();
        let snapshot = sol.basis_snapshot();
        assert_eq!(snapshot.engine(), LpEngine::Decomposed);
        let mut prepared = PreparedLp::new(p).unwrap();
        let warm = prepared
            .solve_warm(&opts.with_engine(LpEngine::Decomposed), &snapshot)
            .unwrap();
        assert!((warm.objective() - sol.objective()).abs() <= 1e-9 * (1.0 + sol.objective().abs()));
        assert_eq!(warm.engine(), LpEngine::Decomposed);
    }

    /// A scoped-thread executor covering the fan-out path without
    /// depending on the sweep crate.
    struct ThreadExecutor;
    impl SolveExecutor for ThreadExecutor {
        fn run_indexed(&self, n: usize, job: &(dyn Fn(usize) + Sync)) {
            std::thread::scope(|scope| {
                for i in 0..n {
                    scope.spawn(move || job(i));
                }
            });
        }
    }

    #[test]
    fn executor_changes_wall_time_never_results() {
        let p = block_angular(5, 11.0);
        let serial_opts = SimplexOptions::default();
        let parallel_opts = SimplexOptions {
            executor: ExecutorHandle::new(Arc::new(ThreadExecutor)),
            ..SimplexOptions::default()
        };
        let (a, ra) = solve_decomposed(&p, &serial_opts).unwrap();
        let (b, rb) = solve_decomposed(&p, &parallel_opts).unwrap();
        assert_eq!(a.objective(), b.objective(), "executor leaked into results");
        assert_eq!(a.values(), b.values());
        assert_eq!(ra.multiplier_iterations, rb.multiplier_iterations);
        assert_eq!(ra.multiplier, rb.multiplier);
    }
}

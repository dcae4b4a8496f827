use std::sync::Arc;

use socbuf_linalg::{solve_transpose_resumed, Columns, SparseLu};

use crate::problem::{LpProblem, RowId, VarId};
use crate::revised::{BasisSnapshot, LpEngine, PricingCounts};
use crate::simplex::BasicSolution;
use crate::standard_form::{ScalingStats, StandardForm};
use crate::LpError;

/// An optimal basic solution of an [`LpProblem`].
///
/// Besides the primal values and objective, the solution carries the dual
/// prices and reduced costs recovered from the final basis — these are
/// the sensitivity quantities the buffer-sizing pipeline reports (e.g.
/// the shadow price of the global buffer-budget constraint), and the
/// basic/nonbasic split that the K-switching structure analysis inspects.
///
/// The duals solve `Bᵀ y = c_B` on the final basis `B`, bit for bit as
/// the dense LU of `B` would: the same pivots, the same summation order
/// and the same signed zeros
/// ([`socbuf_linalg::solve_transpose_resumed`]). A basis that kernel
/// finds singular fails here too, at the same pivot column. The dense
/// kernel's pivot rule differs from the engine's only in how it breaks
/// exact ties, so when every row is active the elimination resumes
/// after the pivots the engine's own final factor shares with it
/// ([`socbuf_linalg::SparseLu::dense_prefix`]); in most solves that is
/// the whole factor and no second elimination runs. Only the columns
/// after the shared prefix are gathered from the original constraint
/// matrix. Without a factor (the tableau engine, a redundant row, a
/// solve that did not end on a fresh factor) the prefix is empty and
/// the whole basis is gathered and eliminated. Cost and memory grow
/// with the basis's nonzeros, not with `m²`.
///
/// Sign conventions:
/// * [`LpSolution::dual`] is `∂ objective / ∂ rhs` in the problem's own
///   sense (for a `Maximize` problem a binding `≤` row has a
///   non-negative dual).
/// * [`LpSolution::reduced_cost`] is non-negative at optimum for
///   `Minimize` problems (and non-positive for `Maximize`) for variables
///   sitting at their lower bound, with upper-bound shadow prices folded
///   out (so variables at their *upper* bound show the opposite sign).
#[derive(Debug, Clone)]
pub struct LpSolution {
    values: Vec<f64>,
    objective: f64,
    /// Shared with [`crate::PreparedLp`]'s factor cache, which hands the
    /// same half to every re-solve that ends on this basis.
    dual: Arc<DualHalf>,
    iterations: usize,
    pricing: PricingCounts,
    engine: LpEngine,
    scaling: ScalingStats,
}

/// The part of a solution fixed by the final basis, `A` and `c` alone:
/// a right-hand-side change that keeps the basis optimal leaves all of it
/// unchanged, so [`crate::PreparedLp`] reuses it instead of recomputing.
#[derive(Debug)]
pub(crate) struct DualHalf {
    duals: Vec<f64>,
    reduced: Vec<f64>,
    basic: Vec<bool>,
    snapshot: BasisSnapshot,
}

impl LpSolution {
    pub(crate) fn from_basic(
        p: &LpProblem,
        sf: &StandardForm,
        basic: &BasicSolution,
        engine: LpEngine,
    ) -> Result<LpSolution, LpError> {
        let dual = Arc::new(DualHalf::from_basic(
            p,
            sf,
            basic,
            engine,
            basic.factor.as_ref(),
        )?);
        Ok(LpSolution::from_primal(p, sf, basic, engine, dual))
    }

    /// Completes a solution whose basis-only half is already known: only
    /// the primal values and the objective are computed from `basic`.
    pub(crate) fn from_primal(
        p: &LpProblem,
        sf: &StandardForm,
        basic: &BasicSolution,
        engine: LpEngine,
        dual: Arc<DualHalf>,
    ) -> LpSolution {
        // Unscaling contract (see `standard_form`'s module docs): the
        // engines solved the equilibrated form, so primal values are
        // `x = C·x̃` (then shifted), duals `y = R·ỹ` and reduced costs
        // `d = d̃ / c_j` — all exact, the factors being powers of two.
        let n = p.num_vars();
        let mut values = vec![0.0; n];
        for j in 0..n {
            values[j] = sf.shift[j] + sf.col_scale(j) * basic.x[j];
        }
        let objective: f64 = p.obj_vec().iter().zip(&values).map(|(c, x)| c * x).sum();
        LpSolution {
            values,
            objective,
            dual,
            iterations: basic.iterations,
            pricing: basic.pricing,
            engine,
            scaling: sf.scaling_stats,
        }
    }

    /// The basis-only half, for [`crate::PreparedLp`] to keep.
    pub(crate) fn dual_half(&self) -> &Arc<DualHalf> {
        &self.dual
    }
}

impl DualHalf {
    /// Recovers the basis-only half of `basic`'s solution, resuming the
    /// dual solve after the prefix `factor`, the engine's factor of the
    /// final basis, shares with it (see [`LpSolution`]).
    pub(crate) fn from_basic(
        p: &LpProblem,
        sf: &StandardForm,
        basic: &BasicSolution,
        engine: LpEngine,
        factor: Option<&SparseLu>,
    ) -> Result<DualHalf, LpError> {
        let n = p.num_vars();
        // --- Recover duals from the final basis: solve Bᵀ y = c_B. ----
        let active_rows: Vec<usize> = (0..sf.a.rows()).filter(|&i| basic.row_active[i]).collect();
        let m_act = active_rows.len();
        let mut y_by_row = vec![0.0; sf.a.rows()];
        if m_act > 0 {
            // Map standard-form column -> position of the basic column in
            // the (active) basis matrix.
            let mut col_pos = vec![usize::MAX; sf.a.cols()];
            let mut cb = vec![0.0; m_act];
            for (pos_col, &i) in active_rows.iter().enumerate() {
                let col = basic.basis[i];
                debug_assert!(col < sf.a.cols(), "artificial left in active basis");
                col_pos[col] = pos_col;
                cb[pos_col] = sf.c[col];
            }
            let resume = shared_prefix(basic, factor);
            let shared = resume.map_or(0, |(_, shared)| shared);
            let (start, entries) = gather_tail(sf, &active_rows, &col_pos, shared);
            let tail = Columns::new(&start, &entries);
            let y = solve_transpose_resumed(m_act, resume, tail, &cb).map_err(|e| {
                LpError::InvalidModel(format!("final basis is numerically singular: {e}"))
            })?;
            for (pos, &i) in active_rows.iter().enumerate() {
                y_by_row[i] = y[pos];
            }
        }

        // User-row duals (min-form), then flip for Maximize. `y_by_row`
        // itself stays in scaled units — the reduced-cost accumulation
        // below runs against the scaled matrix and needs the scaled ỹ.
        let obj_sign = if sf.negated_obj { -1.0 } else { 1.0 };
        let mut duals = vec![0.0; p.num_rows()];
        for i in 0..sf.a.rows() {
            if let Some(ri) = sf.row_origin[i] {
                duals[ri] = obj_sign * sf.row_sign[i] * sf.row_scale(i) * y_by_row[i];
            }
        }

        // Reduced costs w.r.t. user rows only (upper-bound shadow prices
        // folded out): d_j = c_j − Σ_{user rows} y_i a_ij, accumulated by
        // scattering each CSR row once — O(nnz).
        let mut reduced: Vec<f64> = sf.c[..n].to_vec();
        for i in 0..sf.a.rows() {
            let y = y_by_row[i];
            if sf.row_origin[i].is_none() || y == 0.0 {
                continue;
            }
            for (j, v) in sf.a.iter_row(i) {
                if j < n {
                    reduced[j] -= y * v;
                }
            }
        }
        for (j, d) in reduced.iter_mut().enumerate() {
            *d *= obj_sign / sf.col_scale(j);
        }

        let mut basic_flags = vec![false; n];
        for (i, &col) in basic.basis.iter().enumerate() {
            if basic.row_active[i] && col < n {
                basic_flags[col] = true;
            }
        }

        // Snapshot normalization: inactive (redundant) rows carry the
        // canonical `usize::MAX` marker whatever the engine left in its
        // raw basis vector, so either engine's snapshot can seed a warm
        // revised solve.
        let snapshot_basis: Vec<usize> = basic
            .basis
            .iter()
            .zip(&basic.row_active)
            .map(|(&col, &active)| {
                if active && col < sf.a.cols() {
                    col
                } else {
                    usize::MAX
                }
            })
            .collect();

        Ok(DualHalf {
            duals,
            reduced,
            basic: basic_flags,
            snapshot: BasisSnapshot::new(snapshot_basis, sf.a.cols(), engine),
        })
    }

    /// The basis this half belongs to.
    pub(crate) fn snapshot(&self) -> &BasisSnapshot {
        &self.snapshot
    }

    /// The row duals and reduced costs.
    pub(crate) fn into_sensitivities(self) -> (Vec<f64>, Vec<f64>) {
        (self.duals, self.reduced)
    }
}

/// The engine's factor of the final basis and how many of its leading
/// pivots the dual solve shares: all the factor agrees on when every
/// row is active (the factor's columns are then the basis matrix's, in
/// order), none otherwise.
pub(crate) fn shared_prefix<'f>(
    basic: &BasicSolution,
    factor: Option<&'f SparseLu>,
) -> Option<(&'f SparseLu, usize)> {
    let lu = factor?;
    let whole = basic.row_active.iter().all(|&active| active) && lu.dim() == basic.basis.len();
    whole.then(|| (lu, lu.dense_prefix()))
}

/// Gathers the basis columns from position `shared` on, in
/// [`Columns`] storage, by two sweeps over the CSR rows (count, then
/// scatter), so each column lists its rows in increasing order, as the
/// engine's factor read them. Nothing is swept when the prefix covers
/// the whole basis.
fn gather_tail(
    sf: &StandardForm,
    active_rows: &[usize],
    col_pos: &[usize],
    shared: usize,
) -> (Vec<usize>, Vec<(usize, f64)>) {
    let cols = active_rows.len() - shared;
    let mut start = vec![0usize; cols + 1];
    if cols == 0 {
        return (start, Vec::new());
    }
    let tail_col = |col: usize| col_pos[col].checked_sub(shared).filter(|&k| k < cols);
    for &r in active_rows {
        for (col, _) in sf.a.iter_row(r) {
            if let Some(k) = tail_col(col) {
                start[k + 1] += 1;
            }
        }
    }
    for k in 0..cols {
        start[k + 1] += start[k];
    }
    // `start[k]` serves as column k's insertion cursor, which leaves it
    // at column k + 1's start; shifting back restores the offsets.
    let mut entries = vec![(0, 0.0); start[cols]];
    for (pos_row, &r) in active_rows.iter().enumerate() {
        for (col, v) in sf.a.iter_row(r) {
            if let Some(k) = tail_col(col) {
                entries[start[k]] = (pos_row, v);
                start[k] += 1;
            }
        }
    }
    start.copy_within(0..cols, 1);
    start[0] = 0;
    (start, entries)
}

impl LpSolution {
    /// Optimal objective value, in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// All variable values, in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual price (`∂ objective / ∂ rhs`) of a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to the solved problem.
    pub fn dual(&self, r: RowId) -> f64 {
        self.dual.duals[r.index()]
    }

    /// All row duals, in creation order.
    pub fn duals(&self) -> &[f64] {
        &self.dual.duals
    }

    /// Reduced cost of a variable (see the type-level docs for the sign
    /// convention).
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn reduced_cost(&self, v: VarId) -> f64 {
        self.dual.reduced[v.index()]
    }

    /// Whether the variable is basic in the final simplex basis.
    ///
    /// Basic solutions are what Feinberg's K-switching theorem speaks
    /// about: at a basic optimum of a constrained-CTMDP LP at most K
    /// states carry more than one action with positive probability.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn is_basic(&self, v: VarId) -> bool {
        self.dual.basic[v.index()]
    }

    /// Total simplex pivots used across both phases.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// What the revised engine's pricing did over the solve: pricings,
    /// how many ran in full, and the reduced costs recomputed. A
    /// trace-only record, as [`LpSolution::iterations`] is: probes gate
    /// it, nothing renders it.
    pub fn pricing_counts(&self) -> PricingCounts {
        self.pricing
    }

    /// Which engine produced this solution (both satisfy the same
    /// [`crate::verify_optimality`] certificate; the tag matters when
    /// interpreting pivot counts or reproducing a run).
    pub fn engine(&self) -> LpEngine {
        self.engine
    }

    /// What the equilibration pass measured and did for this solve —
    /// the nonzero-magnitude spread of the standard form before and
    /// after scaling, and whether scaling was applied at all (it only
    /// is when the spread exceeds the trigger and
    /// [`crate::SimplexOptions::equilibrate`] is set). The solution
    /// itself is always reported in original units regardless.
    pub fn scaling_stats(&self) -> ScalingStats {
        self.scaling
    }

    /// The optimal basis this solution sits at, exported for
    /// warm-starting a re-solve of a nearby problem through
    /// [`crate::PreparedLp::solve_warm`]. The snapshot is standalone
    /// data (row → basic standard-form column) — it stays valid however
    /// the problem is subsequently mutated, and a solver that finds it
    /// stale simply falls back to a cold solve.
    pub fn basis_snapshot(&self) -> BasisSnapshot {
        self.dual.snapshot.clone()
    }
}

//! Standard-form conversion: `min c·x  s.t.  A x = b, x ≥ 0, b ≥ 0`.
//!
//! The constraint matrix of the buffer-sizing occupation-measure LP is
//! block diagonal (one birth–death block per queue) with a handful of
//! coupling rows, so **conversion must never densify**: the sparse path
//! assembles `A` directly into [`Csr`] storage in `O(nnz)` time and
//! memory. A dense twin ([`build_dense_constraint_matrix`]) replicating
//! the historical `Matrix`-based assembly is kept exclusively so the
//! benches can measure what the refactor bought.
//!
//! # Equilibration and the unscaling contract
//!
//! After assembly the form may be **equilibrated**
//! ([`StandardForm::prepare_scaling`]): geometric-mean row/column
//! scaling with exact power-of-two factors replaces `(A, b, c)` by
//! `(R·A·C, R·b, C·c)`, an exactly equivalent problem in better units
//! (slack columns are pinned to `c_sc = 1/r_i` so slack coefficients
//! stay `±1` and the engines' all-slack starting basis remains the
//! identity). Both engines then solve the *scaled* data; everything
//! user-visible is mapped back to **original units** at extraction by
//! `LpSolution::from_basic`:
//!
//! * primal values: `x_j = c_j · x̃_j` (then the lower-bound shift),
//! * row duals: `y_i = r_i · ỹ_i`,
//! * reduced costs: `d_j = d̃_j / c_j`.
//!
//! Scaling never touches the combinatorial structure — the sparsity
//! pattern, the slack/artificial layout and therefore every
//! `BasisSnapshot` stay valid verbatim — and in-place parametric deltas
//! ([`StandardForm::set_rhs_in_place`],
//! [`StandardForm::update_row_values_in_place`],
//! [`StandardForm::set_cost_in_place`]) rescale their inputs with the
//! cached factors, so the warm-start path composes with equilibration
//! transparently.

use socbuf_linalg::scaling::{
    geometric_mean_scaling, log_deviation, scaled_log_deviation, value_spread,
};
use socbuf_linalg::{Csr, CsrBuilder, Equilibration, Matrix};

use crate::problem::{LpProblem, Relation};
use crate::{LpError, Sense};

/// Value-spread threshold above which [`StandardForm::prepare_scaling`]
/// actually applies the equilibration it computed. Below it the data is
/// already well within what the solver tolerances absorb, and skipping
/// keeps well-conditioned solves — including every golden-artifact
/// corpus — bit-identical to the pre-equilibration solver.
pub(crate) const EQUILIBRATION_TRIGGER: f64 = 1e4;

/// Maximum geometric-mean sweeps per equilibration (each is `O(nnz)`;
/// convergence to inside one octave typically takes 2–4).
const EQUILIBRATION_SWEEPS: usize = 8;

/// What the equilibration pass measured and did — recorded on every
/// [`crate::LpSolution`] so callers can see the conditioning their
/// instance actually presented to the engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingStats {
    /// `true` when scale factors were applied — decided by the
    /// worst-case nonzero-magnitude ratio exceeding the trigger
    /// (`1e4`) with equilibration enabled.
    pub applied: bool,
    /// Condition estimate of the standard-form matrix before scaling:
    /// `2^rms(log2|a_ij|)`, the least-squares deviation of magnitudes
    /// from 1 that geometric-mean equilibration minimizes (see
    /// [`socbuf_linalg::scaling::log_deviation`]). `1.0` when
    /// conditioning was never measured (equilibration disabled).
    pub condition_before: f64,
    /// The same estimate after scaling (equal to `condition_before`
    /// when nothing was applied).
    pub condition_after: f64,
}

impl ScalingStats {
    /// Stats for a form whose conditioning was never measured.
    pub(crate) fn unmeasured() -> ScalingStats {
        ScalingStats {
            applied: false,
            condition_before: 1.0,
            condition_after: 1.0,
        }
    }
}

/// The problem rewritten as `min c·x  s.t.  A x = b, x ≥ 0, b ≥ 0`,
/// including slack/surplus columns but *not* artificial columns, together
/// with the bookkeeping needed to map a basic solution back to the user's
/// variables, rows and duals. `a` is CSR — `O(nnz)`, never `O(m·n)`.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    pub a: Csr,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    /// `+1.0` if the standard-form row kept the user's orientation,
    /// `-1.0` if it was negated to make `b ≥ 0`.
    pub row_sign: Vec<f64>,
    /// For each standard-form row, the user row it came from, or `None`
    /// for an upper-bound row.
    pub row_origin: Vec<Option<usize>>,
    /// Lower-bound shift applied to each structural variable.
    pub shift: Vec<f64>,
    /// `true` if the user's sense was `Maximize` (objective was negated).
    pub negated_obj: bool,
    /// Rows that need an artificial variable (Eq, or Ge after sign fix).
    pub needs_artificial: Vec<bool>,
    /// Column index of the slack/surplus for each row, if any.
    pub slack_col: Vec<Option<usize>>,
    /// Equilibration factors currently applied to `a`, `b` and `c`
    /// (`None` = original units). See the module docs for the
    /// unscaling contract.
    pub scale: Option<Equilibration>,
    /// Conditioning measured by the last [`StandardForm::prepare_scaling`].
    pub scaling_stats: ScalingStats,
}

impl StandardForm {
    /// Rows that carry an artificial column, in the order the engines
    /// number those columns (`a.cols() + k` sits in `artificial_rows()[k]`).
    /// Shared by both engines so their phase-1 bases coincide exactly.
    pub(crate) fn artificial_rows(&self) -> Vec<usize> {
        self.needs_artificial
            .iter()
            .enumerate()
            .filter_map(|(i, &need)| need.then_some(i))
            .collect()
    }

    /// Measures the form's conditioning and, when `equilibrate` is set
    /// and the nonzero-magnitude spread exceeds
    /// [`EQUILIBRATION_TRIGGER`], rescales `(a, b, c)` in place to
    /// `(R·A·C, R·b, R·c…C·c)` with power-of-two geometric-mean factors
    /// — see the module docs for the exact transformation and the
    /// unscaling contract. Slack columns are pinned to `c_sc = 1/r_i`
    /// so every slack coefficient stays exactly `±1` (the engines'
    /// all-slack/all-artificial starting basis must remain the
    /// identity). Row factors are positive, so `b ≥ 0` — and with it
    /// the whole slack/artificial layout — is preserved.
    ///
    /// Idempotent per form: intended to be called exactly once, right
    /// after assembly, before any solve.
    pub(crate) fn prepare_scaling(&mut self, equilibrate: bool) {
        debug_assert!(self.scale.is_none(), "form already equilibrated");
        if !equilibrate {
            self.scaling_stats = ScalingStats::unmeasured();
            return;
        }
        let spread = value_spread(&self.a);
        let before = log_deviation(&self.a);
        // An overflowed (infinite) spread is the *most* ill-conditioned
        // case, not a reason to skip: only a spread measured at or
        // below the trigger opts out.
        if spread <= EQUILIBRATION_TRIGGER {
            self.scaling_stats = ScalingStats {
                applied: false,
                condition_before: before,
                condition_after: before,
            };
            return;
        }
        let mut eq = geometric_mean_scaling(&self.a, EQUILIBRATION_SWEEPS);
        for (i, sc) in self.slack_col.iter().enumerate() {
            if let Some(sc) = sc {
                // Power-of-two reciprocal: exact, keeps slack entries ±1.
                eq.col[*sc] = 1.0 / eq.row[i];
            }
        }
        let after = scaled_log_deviation(&self.a, &eq.row, &eq.col);
        self.a
            .scale_rows_cols(&eq.row, &eq.col)
            .expect("factor vectors match the form's shape");
        for (bi, ri) in self.b.iter_mut().zip(&eq.row) {
            *bi *= ri;
        }
        for (cj, sj) in self.c.iter_mut().zip(&eq.col) {
            *cj *= sj;
        }
        self.scaling_stats = ScalingStats {
            applied: true,
            condition_before: before,
            condition_after: after,
        };
        self.scale = Some(eq);
    }

    /// Row scale factor currently applied to row `i` (1 when unscaled).
    pub(crate) fn row_scale(&self, i: usize) -> f64 {
        self.scale.as_ref().map_or(1.0, |s| s.row[i])
    }

    /// Column scale factor currently applied to column `j` (1 when
    /// unscaled).
    pub(crate) fn col_scale(&self, j: usize) -> f64 {
        self.scale.as_ref().map_or(1.0, |s| s.col[j])
    }

    /// Re-targets the right-hand side of one standard-form row in place
    /// — the RHS-only delta of a parametric re-solve (e.g. moving the
    /// buffer-budget row along a budget sweep). `shifted_rhs` is the
    /// user rhs *after* the lower-bound shift, in **original units**:
    /// the stored value keeps the row's original orientation and picks
    /// up the row's equilibration factor.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if the new value would flip the row's
    /// orientation (the oriented rhs must stay ≥ 0): that changes the
    /// slack/artificial structure, so the form must be rebuilt instead.
    pub(crate) fn set_rhs_in_place(&mut self, row: usize, shifted_rhs: f64) -> Result<(), LpError> {
        let oriented = self.row_sign[row] * shifted_rhs;
        if oriented < 0.0 {
            return Err(LpError::InvalidModel(format!(
                "rhs delta flips the orientation of standard-form row {row}; \
                 the standard form must be rebuilt"
            )));
        }
        self.b[row] = oriented * self.row_scale(row);
        Ok(())
    }

    /// Rewrites one cost coefficient in place. `cost` is the min-form
    /// cost in **original units**; the stored value picks up the
    /// column's equilibration factor.
    pub(crate) fn set_cost_in_place(&mut self, col: usize, cost: f64) {
        self.c[col] = cost * self.col_scale(col);
    }

    /// Rewrites the structural coefficients of one standard-form row in
    /// place — the rate-scaling delta of a parametric re-solve (e.g.
    /// rescaling the λ coefficients of the cut rows along a load
    /// sweep). `terms` must be sorted by column, stated in **original
    /// units** (equilibration factors are applied here), and cover
    /// *exactly* the row's existing structural pattern; the
    /// slack/surplus entry (if any) is untouched.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if the pattern differs — a structural
    /// change requires a rebuild.
    pub(crate) fn update_row_values_in_place(
        &mut self,
        row: usize,
        terms: &[(usize, f64)],
    ) -> Result<(), LpError> {
        let sign = self.row_sign[row];
        let scale = &self.scale;
        let (cols, vals) = self.a.row_mut(row);
        let slack = self.slack_col[row];
        let structural = match slack {
            // The slack column is always the row's last entry (its index
            // is past every structural column).
            Some(_) => cols.len() - 1,
            None => cols.len(),
        };
        if structural != terms.len()
            || cols[..structural]
                .iter()
                .zip(terms)
                .any(|(&c, &(tc, _))| c != tc)
        {
            return Err(LpError::InvalidModel(format!(
                "coefficient delta changes the sparsity pattern of standard-form row {row}; \
                 the standard form must be rebuilt"
            )));
        }
        for ((v, &c), &(_, coeff)) in vals[..structural]
            .iter_mut()
            .zip(&cols[..structural])
            .zip(terms)
        {
            let factor = scale.as_ref().map_or(1.0, |s| s.row[row] * s.col[c]);
            *v = sign * coeff * factor;
        }
        Ok(())
    }

    /// The right-hand side with the deterministic degeneracy-breaking
    /// perturbation applied (Knuth multiplicative hashing per row; a
    /// no-op when `perturbation == 0`). Lives here — not in either
    /// engine — because byte-identical perturbation is what makes the
    /// two engines solve the *same* problem, which the cross-engine
    /// oracle tests rely on; an engine-local copy of this formula
    /// would let the two drift apart silently.
    ///
    /// The noise magnitude is computed against the **original-unit**
    /// rhs and then carried through the row's equilibration factor: a
    /// perturbation sized in scaled units would map back amplified by
    /// `1/r_i` on rows that were scaled down, violating the promise
    /// that callers tolerate `O(perturbation)` wobble *in their own
    /// units*. On an unscaled form the formula reduces bit-for-bit to
    /// the historical one.
    pub(crate) fn perturbed_b(&self, perturbation: f64) -> Vec<f64> {
        let mut b = self.b.clone();
        if perturbation > 0.0 {
            for (i, bi) in b.iter_mut().enumerate() {
                let r = ((i.wrapping_mul(2654435761) >> 8) % 1000 + 1) as f64 / 1000.0;
                let rs = self.row_scale(i);
                let original = *bi / rs;
                *bi += perturbation * (1.0 + original.abs()) * r * rs;
            }
        }
        b
    }
}

/// One row of the intermediate representation shared by the sparse and
/// dense assembly paths: the user's constraints plus one
/// `x ≤ upper − lower` row per upper-bounded variable, shifted by the
/// lower bounds and oriented so the right-hand side is non-negative.
struct RawRow {
    /// Sorted, deduplicated `(col, coeff)` terms.
    terms: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
    origin: Option<usize>,
}

struct Oriented {
    raw: Vec<RawRow>,
    row_sign: Vec<f64>,
    needs_artificial: Vec<bool>,
    slack_col: Vec<Option<usize>>,
    /// Structural variables + slack/surplus columns.
    ncols: usize,
}

fn orient_rows(p: &LpProblem) -> Oriented {
    let n = p.num_vars();
    let shift = p.lower_vec();

    let mut raw: Vec<RawRow> = Vec::with_capacity(p.rows.len());
    for (ri, row) in p.rows.iter().enumerate() {
        // Shift rhs by the lower bounds: sum a_j (l_j + x'_j) rel rhs.
        let mut rhs = row.rhs;
        for &(j, cj) in &row.terms {
            rhs -= cj * shift[j];
        }
        raw.push(RawRow {
            terms: row.terms.clone(),
            relation: row.relation,
            rhs,
            origin: Some(ri),
        });
    }
    for (j, ub) in p.upper_vec().iter().enumerate() {
        if let Some(u) = ub {
            raw.push(RawRow {
                terms: vec![(j, 1.0)],
                relation: Relation::Le,
                rhs: u - shift[j],
                origin: None,
            });
        }
    }

    let m = raw.len();
    let mut slack_col = vec![None; m];
    let mut ncols = n;
    let mut row_sign = vec![1.0; m];
    let mut needs_artificial = vec![false; m];

    // Orient rows so b >= 0, decide slack/surplus/artificial.
    for (i, r) in raw.iter_mut().enumerate() {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for t in r.terms.iter_mut() {
                t.1 = -t.1;
            }
            r.relation = match r.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            row_sign[i] = -1.0;
        }
        match r.relation {
            Relation::Le => {
                slack_col[i] = Some(ncols);
                ncols += 1;
            }
            Relation::Ge => {
                slack_col[i] = Some(ncols);
                ncols += 1;
                needs_artificial[i] = true;
            }
            Relation::Eq => {
                needs_artificial[i] = true;
            }
        }
    }

    Oriented {
        raw,
        row_sign,
        needs_artificial,
        slack_col,
        ncols,
    }
}

/// Sparse standard-form assembly — the solver's path. `O(nnz)` in both
/// time and memory.
pub(crate) fn build_standard_form(p: &LpProblem) -> Result<StandardForm, LpError> {
    let o = orient_rows(p);
    let m = o.raw.len();

    let nnz_estimate: usize = o.raw.iter().map(|r| r.terms.len() + 1).sum();
    let mut builder = CsrBuilder::with_capacity(o.ncols, m, nnz_estimate);
    let mut b = vec![0.0; m];
    for (i, r) in o.raw.iter().enumerate() {
        // Terms are sorted by variable index; the slack column index is
        // past every structural column, so chaining it keeps the row
        // sorted for the CSR builder — no intermediate allocation.
        let slack = o.slack_col[i].map(|sc| {
            (
                sc,
                match r.relation {
                    Relation::Le => 1.0,
                    Relation::Ge => -1.0,
                    Relation::Eq => unreachable!("eq rows have no slack"),
                },
            )
        });
        builder
            .push_row_iter(r.terms.iter().copied().chain(slack))
            .map_err(|e| LpError::InvalidModel(format!("standard-form row {i}: {e}")))?;
        b[i] = r.rhs;
    }

    let negated_obj = p.sense() == Sense::Maximize;
    let mut c = vec![0.0; o.ncols];
    for (j, &cj) in p.obj_vec().iter().enumerate() {
        c[j] = if negated_obj { -cj } else { cj };
    }

    Ok(StandardForm {
        a: builder.finish(),
        b,
        c,
        row_sign: o.row_sign,
        row_origin: o.raw.iter().map(|r| r.origin).collect(),
        shift: p.lower_vec().to_vec(),
        negated_obj,
        needs_artificial: o.needs_artificial,
        slack_col: o.slack_col,
        scale: None,
        scaling_stats: ScalingStats::unmeasured(),
    })
}

/// Dense standard-form constraint matrix — the historical assembly path,
/// kept for the `lp_solver` bench so the sparse/dense cost difference
/// stays measurable. Allocates the full `m × (n + slacks)` matrix.
pub(crate) fn build_dense_constraint_matrix(p: &LpProblem) -> Result<Matrix, LpError> {
    let o = orient_rows(p);
    let m = o.raw.len();
    let mut a = Matrix::zeros(m, o.ncols);
    for (i, r) in o.raw.iter().enumerate() {
        for &(j, cj) in &r.terms {
            a[(i, j)] += cj;
        }
        if let Some(sc) = o.slack_col[i] {
            a[(i, sc)] = match r.relation {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => unreachable!("eq rows have no slack"),
            };
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, Relation, Sense};

    #[test]
    fn standard_form_orients_negative_rhs() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        p.add_constraint([(x, 1.0)], Relation::Le, -2.0).unwrap();
        let sf = build_standard_form(&p).unwrap();
        assert_eq!(sf.b, vec![2.0]);
        assert_eq!(sf.row_sign, vec![-1.0]);
        // Negated Le becomes Ge: surplus plus artificial.
        assert!(sf.needs_artificial[0]);
        assert_eq!(sf.a.get(0, 0), -1.0);
        assert_eq!(sf.a.get(0, 1), -1.0); // Ge rows carry a surplus column (−1)
    }

    #[test]
    fn standard_form_adds_upper_bound_rows() {
        let mut p = LpProblem::new(Sense::Minimize);
        let _x = p.add_var_bounded("x", 1.0, 1.0, Some(4.0));
        let sf = build_standard_form(&p).unwrap();
        assert_eq!(sf.a.rows(), 1);
        assert_eq!(sf.row_origin[0], None);
        assert_eq!(sf.b[0], 3.0); // 4 - lower bound 1
        assert_eq!(sf.shift, vec![1.0]);
    }

    #[test]
    fn maximization_negates_costs() {
        let mut p = LpProblem::new(Sense::Maximize);
        let _x = p.add_var("x", 5.0);
        let sf = build_standard_form(&p).unwrap();
        assert!(sf.negated_obj);
        assert_eq!(sf.c[0], -5.0);
    }

    #[test]
    fn sparse_and_dense_assembly_agree() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var_bounded("x", 1.0, 0.5, Some(4.0));
        let y = p.add_var("y", -2.0);
        let z = p.add_var("z", 0.0);
        p.add_constraint([(x, 1.0), (y, 2.0)], Relation::Le, 7.0)
            .unwrap();
        p.add_constraint([(y, -1.0), (z, 3.0)], Relation::Ge, -1.0)
            .unwrap();
        p.add_constraint([(x, 1.0), (z, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        let sparse = build_standard_form(&p).unwrap().a;
        let dense = build_dense_constraint_matrix(&p).unwrap();
        assert_eq!(sparse.to_dense(), dense);
        // Block structure is preserved: far fewer stored entries than
        // the dense footprint.
        assert!(sparse.nnz() < dense.rows() * dense.cols());
    }

    #[test]
    fn equilibration_triggers_and_keeps_slack_columns_unit() {
        // Coefficients spanning 1e-4..1e4: the trigger must fire, every
        // factor must be a positive power of two, slack entries must
        // stay exactly ±1 (the engines' starting basis is the
        // identity), and b must stay non-negative.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1e4);
        p.add_constraint([(x, 1e-4), (y, 2e-4)], Relation::Le, 3e-4)
            .unwrap();
        p.add_constraint([(x, 5e3), (y, -1e4)], Relation::Ge, 2e3)
            .unwrap();
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let mut sf = build_standard_form(&p).unwrap();
        sf.prepare_scaling(true);
        let stats = sf.scaling_stats;
        assert!(stats.applied, "{stats:?}");
        assert!(stats.condition_after < stats.condition_before, "{stats:?}");
        let scale = sf.scale.as_ref().expect("factors recorded");
        for f in scale.row.iter().chain(&scale.col) {
            assert!(*f > 0.0 && f.is_finite());
            assert_eq!(*f, socbuf_linalg::scaling::nearest_pow2(*f));
        }
        for (i, sc) in sf.slack_col.iter().enumerate() {
            if let Some(sc) = sc {
                assert_eq!(sf.a.get(i, *sc).abs(), 1.0, "slack of row {i} not unit");
            }
        }
        assert!(sf.b.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn well_conditioned_forms_are_bit_identical_under_equilibration() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 2.0);
        p.add_constraint([(x, 1.0), (y, 3.0)], Relation::Le, 4.0)
            .unwrap();
        let reference = build_standard_form(&p).unwrap();
        let mut sf = build_standard_form(&p).unwrap();
        sf.prepare_scaling(true);
        assert!(!sf.scaling_stats.applied);
        assert!(sf.scale.is_none());
        assert_eq!(sf.a, reference.a);
        assert_eq!(sf.b, reference.b);
        assert_eq!(sf.c, reference.c);
        // …and the conditioning was still measured.
        assert!(sf.scaling_stats.condition_before > 1.0);
    }

    #[test]
    fn in_place_deltas_rescale_with_the_cached_factors() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint([(x, 1e-4), (y, 2e4)], Relation::Le, 5.0)
            .unwrap();
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let mut sf = build_standard_form(&p).unwrap();
        sf.prepare_scaling(true);
        assert!(sf.scaling_stats.applied);
        let (r0, c0, c1) = (sf.row_scale(0), sf.col_scale(0), sf.col_scale(1));
        sf.set_rhs_in_place(0, 7.0).unwrap();
        assert_eq!(sf.b[0], 7.0 * r0);
        sf.update_row_values_in_place(0, &[(0, 2e-4), (1, 4e4)])
            .unwrap();
        assert_eq!(sf.a.get(0, 0), 2e-4 * r0 * c0);
        assert_eq!(sf.a.get(0, 1), 4e4 * r0 * c1);
        sf.set_cost_in_place(1, 3.0);
        assert_eq!(sf.c[1], 3.0 * c1);
    }

    #[test]
    fn perturbation_magnitude_is_stated_in_original_units() {
        // A row scaled down by 2^k must not see its perturbation
        // amplified by 2^k when mapped back — the noise is sized
        // against the ORIGINAL rhs and carried through the row factor.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint([(x, 1e4), (y, 2e4)], Relation::Le, 3e4)
            .unwrap();
        p.add_constraint([(x, 1e-4), (y, -2e-4)], Relation::Eq, 0.0)
            .unwrap();
        let mut sf = build_standard_form(&p).unwrap();
        sf.prepare_scaling(true);
        assert!(sf.scaling_stats.applied);
        let eps = 1e-6;
        let b = sf.perturbed_b(eps);
        for i in 0..sf.a.rows() {
            let rs = sf.row_scale(i);
            let noise_original_units = (b[i] - sf.b[i]) / rs;
            let original_rhs = sf.b[i] / rs;
            assert!(
                noise_original_units > 0.0
                    && noise_original_units <= eps * (1.0 + original_rhs.abs()),
                "row {i}: perturbation {noise_original_units:.3e} out of scale"
            );
        }
    }

    #[test]
    fn assembly_is_o_nnz_for_block_diagonal_programs() {
        // 40 independent 2-var blocks: nnz grows linearly, not with m·n.
        let mut p = LpProblem::new(Sense::Minimize);
        for b in 0..40 {
            let x = p.add_var(format!("x{b}"), 1.0);
            let y = p.add_var(format!("y{b}"), 1.0);
            p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
                .unwrap();
        }
        let sf = build_standard_form(&p).unwrap();
        assert_eq!(sf.a.rows(), 40);
        assert_eq!(sf.a.cols(), 80);
        assert_eq!(sf.a.nnz(), 80); // 2 entries per row — not 40 × 80
    }
}

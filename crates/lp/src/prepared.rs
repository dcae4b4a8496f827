//! A prepared (cached-assembly) linear program for parametric re-solves.
//!
//! Sweep campaigns solve *families* of nearly identical LPs: a budget
//! sweep moves only the right-hand side of one row, a load sweep
//! rescales a known set of coefficients. Rebuilding the standard form
//! from scratch at every point throws away both the `O(nnz)` assembly
//! work and — far more importantly — the optimal basis of the
//! neighboring point. [`PreparedLp`] keeps the [`StandardForm`] alive
//! across solves, applies RHS-only and pattern-preserving coefficient
//! deltas *in place*, and accepts a [`BasisSnapshot`] to warm-start the
//! revised simplex from the previous optimum.
//!
//! The warm path is strictly an accelerator: a snapshot that is stale,
//! singular or simply wrong routes to the ordinary cold two-phase
//! solve, so [`PreparedLp::solve_warm`] always returns what
//! [`PreparedLp::solve_with`] would have (same status; the optimal
//! objective of an LP is unique even when the vertex is not).
//!
//! **Equilibration composes with all of this.** The scale vectors are
//! computed once at construction ([`PreparedLp::new_with_scaling`]) and
//! cached alongside the assembled form; every in-place delta rescales
//! its input with the cached factors, a [`BasisSnapshot`] stays valid
//! across scaling (it never changes the basis's combinatorial
//! structure), and solutions — values, duals, reduced costs — come back
//! in original units. See `crate::standard_form`'s module docs for the
//! exact unscaling contract.
//!
//! **A revised solve's final basis is kept.** The revised engine ends
//! an optimal solve on a fresh LU factor of its basis. [`PreparedLp`]
//! keeps that factor, together with the part of the solution that
//! depends only on the basis, `A` and `c`: duals, reduced costs, the
//! basic flags and the snapshot. [`PreparedLp::set_rhs`] keeps them;
//! [`PreparedLp::set_row_coeffs`] and [`PreparedLp::set_objective_coeff`]
//! drop them. A warm solve from the kept basis first tries the rhs-only
//! shortcut: one triangular solve for `x_B = B⁻¹ b` and the warm path's
//! feasibility checks. If they pass, the basis is still optimal (reduced
//! costs do not depend on `b`) and the answer is bitwise the one the
//! full warm path gives in zero pivots. If not, the full warm path runs.
//! [`PreparedLp::solve_kept`] runs the shortcut on its own, for a caller
//! that would rather solve cold than repair a basis (a clone of a
//! prepared problem keeps its factor, so one solved form can seed many).
//!
//! **A clone copies only numbers.** The variable names, bounds,
//! sparsity pattern and row relations of the problem, the row
//! bookkeeping and scale factors of the standard form, and the kept
//! factor never change under a delta, so clones share them; a clone
//! copies the objective, the coefficients and the right-hand sides. A
//! pattern-preserving [`PreparedLp::set_row_coeffs`] writes its values
//! in place.
//!
//! # Examples
//!
//! ```
//! use socbuf_lp::{LpProblem, PreparedLp, Relation, Sense, SimplexOptions};
//!
//! # fn main() -> Result<(), socbuf_lp::LpError> {
//! // min x + 2y  s.t.  x + y ≥ b, for a family of b's.
//! let mut p = LpProblem::new(Sense::Minimize);
//! let x = p.add_var("x", 1.0);
//! let y = p.add_var("y", 2.0);
//! let row = p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0)?;
//! let mut prepared = PreparedLp::new(p)?;
//!
//! let opts = SimplexOptions::default();
//! let first = prepared.solve_with(&opts)?;
//! assert!((first.objective() - 1.0).abs() < 1e-9);
//!
//! // Move the rhs and re-solve from the previous basis.
//! prepared.set_rhs(row, 3.0)?;
//! let second = prepared.solve_warm(&opts, &first.basis_snapshot())?;
//! assert!((second.objective() - 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use socbuf_linalg::SparseLu;

use crate::problem::{LpProblem, RowId, VarId};
use crate::revised::{resolve_on_factor, run_revised, run_revised_warm, BasisSnapshot, LpEngine};
use crate::simplex::{run_simplex, BasicSolution, SimplexOptions};
use crate::solution::{DualHalf, LpSolution};
use crate::standard_form::{build_standard_form, StandardForm};
use crate::LpError;

/// A problem plus its cached standard form, mutable in place for
/// parametric deltas and solvable warm from an exported basis. See the
/// module-level documentation for the motivation and an example.
#[derive(Debug, Clone)]
pub struct PreparedLp {
    problem: LpProblem,
    sf: StandardForm,
    /// User row → standard-form row (user rows map one-to-one; the
    /// extra standard-form rows are variable upper bounds).
    sf_row_of: Arc<[usize]>,
    /// The last revised solve's final basis, while only right-hand sides
    /// have changed since (see the module docs).
    kept: Option<KeptBasis>,
}

/// A basis priced optimal for the current `A` and `c`: its fresh factor
/// and the basis-only half of its solution. Neither changes once kept,
/// so clones share both.
#[derive(Debug, Clone)]
struct KeptBasis {
    lu: Arc<SparseLu>,
    dual: Arc<DualHalf>,
    /// The tolerance the basis was priced under.
    tolerance: f64,
}

impl PreparedLp {
    /// Builds the standard form once and takes ownership of the
    /// problem (the two must stay in lock-step under deltas, so outside
    /// mutation is ruled out by construction). Equilibration is ON (the
    /// [`crate::SimplexOptions`] default) — use
    /// [`PreparedLp::new_with_scaling`] to opt out.
    ///
    /// # Errors
    ///
    /// [`LpError::EmptyProblem`] for a variable-free problem, or any
    /// standard-form assembly failure.
    pub fn new(problem: LpProblem) -> Result<PreparedLp, LpError> {
        PreparedLp::new_with_scaling(problem, true)
    }

    /// [`PreparedLp::new`] with the equilibration decision made
    /// explicit. The decision is taken **once, here**: the scale
    /// vectors are computed on the initial coefficients, cached
    /// alongside the assembled form, and reused verbatim by every
    /// subsequent in-place delta ([`PreparedLp::set_rhs`],
    /// [`PreparedLp::set_row_coeffs`],
    /// [`PreparedLp::set_objective_coeff`] rescale their inputs with
    /// the cached factors) — so a [`BasisSnapshot`] taken at any point
    /// of a chain keeps meaning the same basis. The `equilibrate` field
    /// of the [`SimplexOptions`] later passed to a solve is ignored
    /// here in favor of this construction-time choice.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedLp::new`].
    pub fn new_with_scaling(problem: LpProblem, equilibrate: bool) -> Result<PreparedLp, LpError> {
        if problem.num_vars() == 0 {
            return Err(LpError::EmptyProblem);
        }
        let mut sf = build_standard_form(&problem)?;
        sf.prepare_scaling(equilibrate);
        let mut sf_row_of = vec![usize::MAX; problem.num_rows()];
        for (i, origin) in sf.row_origin.iter().enumerate() {
            if let Some(r) = origin {
                sf_row_of[*r] = i;
            }
        }
        Ok(PreparedLp {
            problem,
            sf,
            sf_row_of: sf_row_of.into(),
            kept: None,
        })
    }

    /// The (current) problem — what [`crate::verify_optimality`]
    /// certifies solutions against.
    pub fn problem(&self) -> &LpProblem {
        &self.problem
    }

    /// The basis whose factor this problem keeps: the last revised
    /// solve's optimal basis, as long as only right-hand sides changed
    /// since. A [`PreparedLp::solve_warm`] from this snapshot skips
    /// factorization and pricing while the basis stays feasible.
    pub fn kept_basis(&self) -> Option<&BasisSnapshot> {
        self.kept.as_ref().map(|k| k.dual.snapshot())
    }

    /// Re-targets one constraint's right-hand side in place — the
    /// budget-style delta. `O(row nnz)`. The kept basis stays.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if `rhs` is not finite or the change
    /// would flip the row's standard-form orientation (rebuild via
    /// [`PreparedLp::new`] in that case).
    ///
    /// # Panics
    ///
    /// Panics if `row` does not belong to this problem.
    pub fn set_rhs(&mut self, row: RowId, rhs: f64) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::InvalidModel(format!(
                "right-hand side {rhs} is not finite"
            )));
        }
        let i = self.sf_row_of[row.index()];
        let (cols, coeffs) = self.problem.row_terms(row.index());
        let shifted = rhs
            - cols
                .iter()
                .zip(coeffs)
                .map(|(&j, &c)| c * self.sf.shift[j])
                .sum::<f64>();
        self.sf.set_rhs_in_place(i, shifted)?;
        self.problem.set_row_rhs(row.index(), rhs);
        Ok(())
    }

    /// Rewrites one constraint's coefficients in place — the
    /// rate-scaling delta. The terms must cover exactly the row's
    /// existing variables (after accumulating duplicates and dropping
    /// zeros), in any order; only the numeric values may change.
    /// `O(row nnz · log)`. Drops the kept basis.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] for non-finite coefficients, a changed
    /// sparsity pattern, or a coefficient change that flips the row's
    /// orientation through the lower-bound shift (rebuild in those
    /// cases).
    ///
    /// # Panics
    ///
    /// Panics if `row` does not belong to this problem.
    pub fn set_row_coeffs(&mut self, row: RowId, terms: &[(VarId, f64)]) -> Result<(), LpError> {
        let n = self.problem.num_vars();
        for &(v, c) in terms {
            if v.index() >= n {
                return Err(LpError::InvalidModel(format!(
                    "variable id {} does not belong to this problem",
                    v.index()
                )));
            }
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "coefficient {c} is not finite"
                )));
            }
        }
        // Terms already sorted, distinct and non-zero are their own
        // normal form, and are used as given: a retarget that restates
        // a row in pattern order allocates nothing.
        let normal = terms.windows(2).all(|w| w[0].0 < w[1].0) && terms.iter().all(|t| t.1 != 0.0);
        let normalized: Cow<'_, [(VarId, f64)]> = if normal {
            Cow::Borrowed(terms)
        } else {
            let mut dense = terms.to_vec();
            dense.sort_by_key(|&(j, _)| j);
            let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(dense.len());
            for (j, c) in dense {
                match merged.last_mut() {
                    Some((k, acc)) if *k == j => *acc += c,
                    _ => merged.push((j, c)),
                }
            }
            merged.retain(|&(_, c)| c != 0.0);
            Cow::Owned(merged)
        };

        let i = self.sf_row_of[row.index()];
        // The lower-bound shift couples coefficients to the stored rhs;
        // re-derive it from the (unchanged) user rhs and pre-check the
        // orientation BEFORE any mutation, so a rejected delta leaves
        // the problem, matrix and rhs untouched and mutually consistent
        // (update_row_values_in_place likewise validates its pattern
        // before writing).
        let rhs = self.problem.row_rhs(row.index());
        let shifted = rhs
            - normalized
                .iter()
                .map(|&(j, c)| c * self.sf.shift[j.index()])
                .sum::<f64>();
        if self.sf.row_sign[i] * shifted < 0.0 {
            return Err(LpError::InvalidModel(format!(
                "coefficient delta flips the orientation of standard-form row {i}; \
                 the standard form must be rebuilt"
            )));
        }
        self.kept = None;
        self.sf.update_row_values_in_place(i, &normalized)?;
        self.sf
            .set_rhs_in_place(i, shifted)
            .expect("orientation pre-checked above");
        self.problem.set_row_values(row.index(), &normalized);
        Ok(())
    }

    /// Rewrites one objective coefficient in place. Drops the kept
    /// basis.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] for a non-finite coefficient or an
    /// unknown variable.
    pub fn set_objective_coeff(&mut self, v: VarId, coeff: f64) -> Result<(), LpError> {
        if v.index() >= self.problem.num_vars() {
            return Err(LpError::InvalidModel(format!(
                "variable id {} does not belong to this problem",
                v.index()
            )));
        }
        if !coeff.is_finite() {
            return Err(LpError::InvalidModel(format!(
                "objective coefficient {coeff} is not finite"
            )));
        }
        let min_form = if self.sf.negated_obj { -coeff } else { coeff };
        self.kept = None;
        self.sf.set_cost_in_place(v.index(), min_form);
        self.problem.set_obj_coeff(v.index(), coeff);
        Ok(())
    }

    /// Cold solve on the cached standard form — bitwise identical to
    /// [`LpProblem::solve_with`] on the current problem (the form is
    /// the same; only the rebuild is skipped). A revised solve keeps its
    /// final basis (see [`PreparedLp::kept_basis`]).
    ///
    /// # Errors
    ///
    /// Same as [`LpProblem::solve_with`].
    pub fn solve_with(&mut self, options: &SimplexOptions) -> Result<LpSolution, LpError> {
        let basic = match options.engine {
            LpEngine::Revised => run_revised(&self.sf, options)?,
            LpEngine::Tableau => run_simplex(&self.sf, options)?,
            LpEngine::Decomposed => {
                // Full decomposition of the (current, delta-updated)
                // problem; the cached joint form is bypassed because the
                // block solves build their own per-block forms.
                return crate::decompose::solve_decomposed(&self.problem, options)
                    .map(|(sol, _)| sol);
            }
        };
        self.finish(basic, options)
    }

    /// Warm solve from an exported basis (revised and decomposed
    /// engines — a decomposed solve's snapshot *is* a joint basis, so
    /// the warm re-solve runs the joint revised path directly; with
    /// [`LpEngine::Tableau`] selected the snapshot is ignored and the
    /// cold tableau runs, keeping the oracle engine bit-reproducible).
    /// Status and objective always match a cold solve; only the pivot
    /// count (and wall time) differ. See
    /// [`crate::LpSolution::basis_snapshot`].
    ///
    /// A snapshot equal to [`PreparedLp::kept_basis`] (solved under the
    /// same tolerance and engine) first takes the rhs-only shortcut
    /// described in the module docs; its answer is bitwise the full warm
    /// path's.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedLp::solve_with`].
    pub fn solve_warm(
        &mut self,
        options: &SimplexOptions,
        snapshot: &BasisSnapshot,
    ) -> Result<LpSolution, LpError> {
        let basic = match options.engine {
            LpEngine::Revised | LpEngine::Decomposed => {
                let from_kept = self.kept_basis().is_some_and(|ours| {
                    ours.rows() == snapshot.rows() && ours.num_cols() == snapshot.num_cols()
                });
                if from_kept {
                    if let Some(sol) = self.solve_kept(options) {
                        return Ok(sol);
                    }
                }
                run_revised_warm(&self.sf, options, snapshot)?
            }
            LpEngine::Tableau => run_simplex(&self.sf, options)?,
        };
        self.finish(basic, options)
    }

    /// The rhs-only shortcut on its own: re-solves on the factor of
    /// [`PreparedLp::kept_basis`] with one triangular solve and the warm
    /// path's feasibility checks, and pivots never. An answer is
    /// bitwise the one [`PreparedLp::solve_warm`] from the kept basis
    /// gives. Nothing is kept or dropped by the call.
    ///
    /// `None` when no basis is kept, when it was priced under another
    /// engine or tolerance than `options`, or when it is no longer
    /// primal feasible for the current right-hand sides. The caller
    /// then solves some other way; this never repairs a basis.
    pub fn solve_kept(&self, options: &SimplexOptions) -> Option<LpSolution> {
        let kept = self.kept.as_ref()?;
        let basis = kept.dual.snapshot();
        if basis.engine() != options.engine
            || kept.tolerance.to_bits() != options.tolerance.to_bits()
        {
            return None;
        }
        let basic = resolve_on_factor(&self.sf, options, basis.rows(), &kept.lu)?;
        Some(LpSolution::from_primal(
            &self.problem,
            &self.sf,
            &basic,
            options.engine,
            Arc::clone(&kept.dual),
        ))
    }

    /// Builds the solution and keeps the factor the engine ended on.
    fn finish(
        &mut self,
        mut basic: BasicSolution,
        options: &SimplexOptions,
    ) -> Result<LpSolution, LpError> {
        let sol = LpSolution::from_basic(&self.problem, &self.sf, &basic, options.engine)?;
        if let Some(lu) = basic.factor.take() {
            self.kept = Some(KeptBasis {
                lu: Arc::new(lu),
                dual: Arc::clone(sol.dual_half()),
                tolerance: options.tolerance,
            });
        }
        Ok(sol)
    }

    /// Crate-internal view of the cached standard form (the decomposed
    /// engine reads block slack layouts through this).
    pub(crate) fn sf(&self) -> &StandardForm {
        &self.sf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_optimality, LpEngine, Relation, Sense};

    fn wyndor() -> (LpProblem, Vec<VarId>, Vec<RowId>) {
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 3.0);
        let y = p.add_var("y", 5.0);
        let r0 = p.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
        let r1 = p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
        let r2 = p
            .add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        (p, vec![x, y], vec![r0, r1, r2])
    }

    #[test]
    fn prepared_cold_solve_matches_problem_solve() {
        let (p, _, _) = wyndor();
        let direct = p.solve().unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        let cached = prepared.solve_with(&SimplexOptions::default()).unwrap();
        assert_eq!(direct.values(), cached.values());
        assert_eq!(direct.objective(), cached.objective());
    }

    #[test]
    fn rhs_delta_matches_a_rebuild() {
        let (p, _, rows) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        prepared.set_rhs(rows[2], 24.0).unwrap();

        // The same change built from scratch for comparison.
        let mut rebuilt = LpProblem::new(Sense::Maximize);
        let x = rebuilt.add_var("x", 3.0);
        let y = rebuilt.add_var("y", 5.0);
        rebuilt
            .add_constraint([(x, 1.0)], Relation::Le, 4.0)
            .unwrap();
        rebuilt
            .add_constraint([(y, 2.0)], Relation::Le, 12.0)
            .unwrap();
        rebuilt
            .add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 24.0)
            .unwrap();
        let a = prepared.solve_with(&SimplexOptions::default()).unwrap();
        let b = rebuilt.solve().unwrap();
        assert_eq!(a.values(), b.values());
        assert_eq!(a.objective(), b.objective());
        // The mutated problem itself reports the new rhs.
        let (_, _, rhs) = prepared.problem().row(rows[2]);
        assert_eq!(rhs, 24.0);
    }

    #[test]
    fn coeff_delta_requires_same_pattern() {
        let (p, vars, rows) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        // Same pattern, new values: fine.
        prepared
            .set_row_coeffs(rows[2], &[(vars[0], 6.0), (vars[1], 4.0)])
            .unwrap();
        let sol = prepared.solve_with(&SimplexOptions::default()).unwrap();
        let report = verify_optimality(prepared.problem(), &sol, 1e-6);
        assert!(report.is_optimal(), "{report:?}");
        // Dropping a variable changes the pattern: rejected.
        assert!(prepared.set_row_coeffs(rows[2], &[(vars[0], 6.0)]).is_err());
        // So does introducing one on a single-variable row.
        assert!(prepared
            .set_row_coeffs(rows[0], &[(vars[0], 1.0), (vars[1], 1.0)])
            .is_err());
    }

    #[test]
    fn coeff_deltas_in_any_order_land_on_the_pattern() {
        // Unsorted terms with a duplicate normalize to the row's own
        // pattern; the result matches the same values given in order.
        let (p, vars, rows) = wyndor();
        let (x, y) = (vars[0], vars[1]);
        let mut ordered = PreparedLp::new(p.clone()).unwrap();
        ordered
            .set_row_coeffs(rows[2], &[(x, 6.0), (y, 2.0)])
            .unwrap();
        let mut shuffled = PreparedLp::new(p).unwrap();
        shuffled
            .set_row_coeffs(rows[2], &[(y, 1.5), (x, 6.0), (y, 0.5)])
            .unwrap();
        assert_eq!(
            ordered.problem().row(rows[2]),
            shuffled.problem().row(rows[2])
        );
        let opts = SimplexOptions::default();
        let (a, b) = (
            ordered.solve_with(&opts).unwrap(),
            shuffled.solve_with(&opts).unwrap(),
        );
        assert_eq!(a.values(), b.values());
        assert_eq!(a.objective().to_bits(), b.objective().to_bits());
    }

    #[test]
    fn orientation_flip_is_rejected() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let r = p.add_constraint([(x, 1.0)], Relation::Le, 2.0).unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        assert!(prepared.set_rhs(r, -1.0).is_err());
        // The positive direction is still fine afterwards.
        prepared.set_rhs(r, 5.0).unwrap();
        let sol = prepared.solve_with(&SimplexOptions::default()).unwrap();
        assert!(sol.objective().abs() < 1e-12);
    }

    #[test]
    fn objective_delta_respects_sense() {
        let (p, vars, _) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        prepared.set_objective_coeff(vars[1], 0.0).unwrap();
        let sol = prepared.solve_with(&SimplexOptions::default()).unwrap();
        // With y worthless, max 3x under x ≤ 4 → 12.
        assert!((sol.objective() - 12.0).abs() < 1e-9, "{}", sol.objective());
        assert!(prepared.set_objective_coeff(vars[0], f64::NAN).is_err());
    }

    #[test]
    fn rejected_coeff_delta_leaves_the_problem_untouched() {
        // Orientation flip through the lower-bound shift: x has shift 1,
        // so coefficient 5 turns the stored rhs 3 − 5·1 negative. The
        // delta must be rejected BEFORE anything mutates — problem,
        // matrix and rhs stay consistent and further solves are sound.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var_bounded("x", -1.0, 1.0, None);
        let r = p.add_constraint([(x, 1.0)], Relation::Le, 3.0).unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        let before = prepared.solve_with(&SimplexOptions::default()).unwrap();
        assert!(prepared.set_row_coeffs(r, &[(x, 5.0)]).is_err());
        let after = prepared.solve_with(&SimplexOptions::default()).unwrap();
        assert_eq!(before.objective(), after.objective());
        assert_eq!(before.values(), after.values());
        let (terms, _, rhs) = prepared.problem().row(r);
        assert_eq!(terms, vec![(x, 1.0)]);
        assert_eq!(rhs, 3.0);
    }

    #[test]
    fn tableau_snapshot_seeds_a_warm_revised_solve() {
        // A redundant equality makes the tableau deactivate a row; its
        // exported snapshot must still import cleanly into the revised
        // warm path (canonical MAX marker, not a raw artificial index)
        // and re-solve the unchanged problem in zero pivots.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let tableau = prepared
            .solve_with(&opts.with_engine(LpEngine::Tableau))
            .unwrap();
        let snapshot = tableau.basis_snapshot();
        assert_eq!(snapshot.engine(), LpEngine::Tableau);
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        assert_eq!(warm.iterations(), 0, "tableau basis should import warm");
        assert!((warm.objective() - tableau.objective()).abs() <= 1e-9);
    }

    #[test]
    fn warm_solve_from_optimal_basis_takes_zero_pivots() {
        let (p, _, _) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        let warm = prepared.solve_warm(&opts, &cold.basis_snapshot()).unwrap();
        assert_eq!(warm.iterations(), 0, "re-solve should not pivot");
        assert_eq!(warm.objective(), cold.objective());
        assert_eq!(warm.values(), cold.values());
    }

    #[test]
    fn solve_kept_answers_only_while_the_kept_basis_stays_feasible() {
        let (p, vars, rows) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        assert!(prepared.solve_kept(&opts).is_none(), "nothing kept yet");
        let snapshot = prepared.solve_with(&opts).unwrap().basis_snapshot();

        // Moving 3x + 2y ≤ 18 to 19 keeps the basis {x, y, s0} feasible:
        // a clone answers on the copied factor, bitwise as the warm path.
        prepared.set_rhs(rows[2], 19.0).unwrap();
        let copy = prepared.clone();
        let kept = copy.solve_kept(&opts).expect("basis still feasible");
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        assert_eq!(kept.iterations(), 0);
        assert_eq!(kept.values(), warm.values());
        assert_eq!(kept.objective().to_bits(), warm.objective().to_bits());
        assert_eq!(kept.duals(), warm.duals());
        assert!(copy
            .solve_kept(&opts.with_engine(LpEngine::Tableau))
            .is_none());

        // At 6 the basis would need x < 0: no answer, and no repair.
        prepared.set_rhs(rows[2], 6.0).unwrap();
        assert!(prepared.solve_kept(&opts).is_none());
        // A coefficient delta drops the factor.
        prepared.set_rhs(rows[2], 19.0).unwrap();
        assert!(prepared.solve_kept(&opts).is_some());
        prepared
            .set_row_coeffs(rows[2], &[(vars[0], 3.0), (vars[1], 2.0)])
            .unwrap();
        assert!(prepared.solve_kept(&opts).is_none());
    }

    #[test]
    fn warm_solve_after_rhs_delta_agrees_with_cold() {
        let (p, _, rows) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let mut snapshot = prepared.solve_with(&opts).unwrap().basis_snapshot();
        // Chain both directions: tightening needs a dual repair step,
        // loosening re-opens the slack.
        for rhs in [10.0, 30.0, 18.0, 6.0] {
            prepared.set_rhs(rows[2], rhs).unwrap();
            let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
            let cold = prepared.solve_with(&opts).unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs()
                    <= 1e-9 * (1.0 + cold.objective().abs()),
                "rhs {rhs}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
            let report = verify_optimality(prepared.problem(), &warm, 1e-6);
            assert!(report.is_optimal(), "rhs {rhs}: {report:?}");
            snapshot = warm.basis_snapshot();
        }
    }

    #[test]
    fn scaled_prepared_deltas_match_rebuilds() {
        // A badly-scaled family: coefficients spanning 1e-4..1e4 make
        // the equilibration trigger fire at construction; every
        // in-place delta afterwards must land exactly where a
        // from-scratch rebuild (with its own scaling decision) lands,
        // and warm solves must keep answering like cold ones.
        let build = |rhs: f64, cy: f64| {
            let mut p = LpProblem::new(Sense::Minimize);
            let x = p.add_var("x", 1.0);
            let y = p.add_var("y", 2.0);
            let r = p
                .add_constraint([(x, 1e-4), (y, cy)], Relation::Ge, rhs)
                .unwrap();
            (p, x, y, r)
        };
        let (p, x, y, r) = build(2e-4, 3e4);
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let first = prepared.solve_with(&opts).unwrap();
        assert!(first.scaling_stats().applied, "trigger must fire");
        let mut snapshot = first.basis_snapshot();

        for (rhs, cy) in [(5e-4, 3e4), (5e-4, 1e4), (1e-4, 2e4)] {
            prepared.set_rhs(r, rhs).unwrap();
            prepared.set_row_coeffs(r, &[(x, 1e-4), (y, cy)]).unwrap();
            let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
            let cold = prepared.solve_with(&opts).unwrap();
            let (rebuilt, ..) = build(rhs, cy);
            let fresh = rebuilt.solve().unwrap();
            for (name, sol) in [("warm", &warm), ("cold", &cold)] {
                assert!(
                    (sol.objective() - fresh.objective()).abs()
                        <= 1e-9 * (1.0 + fresh.objective().abs()),
                    "({rhs}, {cy}) {name}: {} vs rebuild {}",
                    sol.objective(),
                    fresh.objective()
                );
                let report = verify_optimality(prepared.problem(), sol, 1e-6);
                assert!(report.is_optimal(), "({rhs}, {cy}) {name}: {report:?}");
            }
            snapshot = warm.basis_snapshot();
        }
    }

    #[test]
    fn opting_out_of_scaling_at_construction_is_respected() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        p.add_constraint([(x, 1e6)], Relation::Ge, 1e-4).unwrap();
        let mut prepared = PreparedLp::new_with_scaling(p, false).unwrap();
        let sol = prepared.solve_with(&SimplexOptions::default()).unwrap();
        assert!(!sol.scaling_stats().applied);
        // Unmeasured: the conditioning probe never ran.
        assert_eq!(sol.scaling_stats().condition_before, 1.0);
    }

    #[test]
    fn garbage_snapshot_falls_back_to_cold() {
        let (p, _, _) = wyndor();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        for snapshot in [
            // Wrong shape.
            BasisSnapshot::new(vec![0], 1, LpEngine::Revised),
            // Duplicate columns.
            BasisSnapshot::new(vec![2, 2, 2], 5, LpEngine::Revised),
            // Out of range.
            BasisSnapshot::new(vec![90, 91, 92], 5, LpEngine::Revised),
            // All rows "redundant" — wildly stale.
            BasisSnapshot::new(vec![usize::MAX; 3], 5, LpEngine::Revised),
        ] {
            let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs() <= 1e-9,
                "snapshot {snapshot:?}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
        }
    }

    #[test]
    fn warm_statuses_match_cold_on_infeasible_and_unbounded() {
        // Infeasible after an rhs delta.
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var_bounded("x", 1.0, 0.0, Some(1.0));
        let r = p.add_constraint([(x, 1.0)], Relation::Ge, 0.5).unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let snap = prepared.solve_with(&opts).unwrap().basis_snapshot();
        prepared.set_rhs(r, 2.0).unwrap(); // x ≤ 1 makes x ≥ 2 impossible
        assert!(matches!(
            prepared.solve_warm(&opts, &snap),
            Err(LpError::Infeasible { .. })
        ));

        // Unbounded under a flipped objective.
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0);
        let y = p.add_var("y", 0.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 5.0)
            .unwrap();
        let mut prepared = PreparedLp::new(p).unwrap();
        let snap = prepared.solve_with(&opts).unwrap().basis_snapshot();
        prepared.set_objective_coeff(x, 1.0).unwrap();
        assert!(matches!(
            prepared.solve_warm(&opts, &snap),
            Err(LpError::Unbounded { .. })
        ));
    }
}

use std::fmt;
use std::sync::Arc;

use socbuf_linalg::Csr;

use crate::revised::LpEngine;
use crate::simplex::{solve_standard, SimplexOptions};
use crate::solution::LpSolution;
use crate::LpError;

/// Handle to a decision variable of an [`LpProblem`].
///
/// `VarId`s are only meaningful for the problem that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Position of the variable in the problem's creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint row of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// Position of the row in the problem's creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Le => write!(f, "<="),
            Relation::Ge => write!(f, ">="),
            Relation::Eq => write!(f, "="),
        }
    }
}

/// The per-variable data no delta changes: names and bounds. Shared
/// between clones of a problem.
#[derive(Debug, Clone, Default)]
struct Vars {
    names: Vec<String>,
    lower: Vec<f64>,
    upper: Vec<Option<f64>>,
}

/// The constraint sparsity pattern and row relations, which no delta
/// changes either. Row `r`'s variables are
/// `cols[row_start[r]..row_start[r + 1]]`, sorted and deduplicated.
/// Shared between clones of a problem.
#[derive(Debug, Clone)]
struct Pattern {
    row_start: Vec<usize>,
    cols: Vec<usize>,
    relations: Vec<Relation>,
}

impl Default for Pattern {
    fn default() -> Pattern {
        Pattern {
            row_start: vec![0],
            cols: Vec::new(),
            relations: Vec::new(),
        }
    }
}

/// A linear program under construction.
///
/// Variables carry a lower bound (default `0`) and an optional upper
/// bound; constraints are sparse rows. Call [`LpProblem::solve`] to run
/// the two-phase simplex.
///
/// A clone shares what the in-place deltas of [`crate::PreparedLp`]
/// never change — variable names, bounds, the constraint sparsity
/// pattern and the row relations — and copies only the numeric arrays:
/// objective, coefficients and right-hand sides. Growing or shrinking a
/// shared problem copies the shared part first, so clones never see
/// each other's edits.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    vars: Arc<Vars>,
    pattern: Arc<Pattern>,
    obj: Vec<f64>,
    /// Row coefficients, parallel to `pattern.cols`.
    coeffs: Vec<f64>,
    rhs: Vec<f64>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            vars: Arc::default(),
            pattern: Arc::default(),
            obj: Vec::new(),
            coeffs: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Adds a variable with bounds `[0, +∞)` and the given objective
    /// coefficient. Returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var_bounded(name, objective, 0.0, None)
    }

    /// Adds a variable with bounds `[lower, upper]` (upper `None` means
    /// `+∞`).
    ///
    /// # Panics
    ///
    /// Panics if `lower` or `objective` is not finite, or if
    /// `upper < lower`.
    pub fn add_var_bounded(
        &mut self,
        name: impl Into<String>,
        objective: f64,
        lower: f64,
        upper: Option<f64>,
    ) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(
            objective.is_finite(),
            "objective coefficient must be finite"
        );
        if let Some(u) = upper {
            assert!(
                u.is_finite() && u >= lower,
                "upper bound must be finite and >= lower"
            );
        }
        let id = VarId(self.num_vars());
        let vars = Arc::make_mut(&mut self.vars);
        vars.names.push(name.into());
        vars.lower.push(lower);
        vars.upper.push(upper);
        self.obj.push(objective);
        id
    }

    /// Adds a constraint `Σ coeff·var  relation  rhs`. Duplicate variable
    /// terms are accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] if a term references an unknown
    /// variable or any coefficient or the right-hand side is non-finite.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<RowId, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::InvalidModel(format!(
                "right-hand side {rhs} is not finite"
            )));
        }
        let mut dense: Vec<(usize, f64)> = Vec::new();
        for (v, c) in terms {
            if v.0 >= self.num_vars() {
                return Err(LpError::InvalidModel(format!(
                    "variable id {} does not belong to this problem",
                    v.0
                )));
            }
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "coefficient {c} of variable '{}' is not finite",
                    self.vars.names[v.0]
                )));
            }
            dense.push((v.0, c));
        }
        Ok(self.push_row_sorted(&mut dense, relation, rhs))
    }

    /// Adds a batch of `relations.len()` constraint rows from
    /// `(row, var, coeff)` triplets — the sparse assembly path used by
    /// the occupation-measure formulations. Row indices are relative to
    /// this batch (`0..relations.len()`); triplets may arrive in any
    /// order and duplicates accumulate. Rows with no triplets become
    /// empty constraints (`0 relation rhs`).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] if `relations` and `rhs` have
    /// different lengths, a triplet indexes an unknown variable or an
    /// out-of-range row, or any coefficient or right-hand side is
    /// non-finite.
    pub fn add_constraints_from_triplets(
        &mut self,
        triplets: impl IntoIterator<Item = (usize, VarId, f64)>,
        relations: &[Relation],
        rhs: &[f64],
    ) -> Result<Vec<RowId>, LpError> {
        if relations.len() != rhs.len() {
            return Err(LpError::InvalidModel(format!(
                "{} relations but {} right-hand sides",
                relations.len(),
                rhs.len()
            )));
        }
        let num_rows = relations.len();
        for &r in rhs {
            if !r.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "right-hand side {r} is not finite"
                )));
            }
        }
        let mut buckets: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_rows];
        for (row, v, c) in triplets {
            if row >= num_rows {
                return Err(LpError::InvalidModel(format!(
                    "triplet row {row} out of range (batch has {num_rows} rows)"
                )));
            }
            if v.0 >= self.num_vars() {
                return Err(LpError::InvalidModel(format!(
                    "variable id {} does not belong to this problem",
                    v.0
                )));
            }
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "coefficient {c} of variable '{}' is not finite",
                    self.vars.names[v.0]
                )));
            }
            buckets[row].push((v.0, c));
        }
        let mut ids = Vec::with_capacity(num_rows);
        for ((mut bucket, &relation), &r) in buckets.into_iter().zip(relations).zip(rhs) {
            ids.push(self.push_row_sorted(&mut bucket, relation, r));
        }
        Ok(ids)
    }

    /// Adds one constraint row per CSR row: row `i` of `a` becomes
    /// `Σ_j a[i, j]·x_j  relations[i]  rhs[i]`, where CSR columns index
    /// variables in creation order. This is the zero-copy end of the
    /// sparse assembly path: CSR rows are already sorted and
    /// deduplicated, so no per-row normalization work is done.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] if the shapes disagree
    /// (`a.rows() == relations.len() == rhs.len()` is required), `a` has
    /// more columns than the problem has variables, or any stored value
    /// or right-hand side is non-finite.
    pub fn add_constraints_csr(
        &mut self,
        a: &Csr,
        relations: &[Relation],
        rhs: &[f64],
    ) -> Result<Vec<RowId>, LpError> {
        if a.rows() != relations.len() || a.rows() != rhs.len() {
            return Err(LpError::InvalidModel(format!(
                "CSR has {} rows but {} relations and {} right-hand sides",
                a.rows(),
                relations.len(),
                rhs.len()
            )));
        }
        if a.cols() > self.num_vars() {
            return Err(LpError::InvalidModel(format!(
                "CSR has {} columns but the problem has {} variables",
                a.cols(),
                self.num_vars()
            )));
        }
        for &r in rhs {
            if !r.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "right-hand side {r} is not finite"
                )));
            }
        }
        if !a.is_finite() {
            return Err(LpError::InvalidModel(
                "CSR constraint matrix has non-finite entries".into(),
            ));
        }
        let mut ids = Vec::with_capacity(a.rows());
        let pattern = Arc::make_mut(&mut self.pattern);
        for ((i, &relation), &r) in (0..a.rows()).zip(relations).zip(rhs) {
            ids.push(RowId(self.rhs.len()));
            for (j, c) in a.iter_row(i) {
                pattern.cols.push(j);
                self.coeffs.push(c);
            }
            pattern.row_start.push(pattern.cols.len());
            pattern.relations.push(relation);
            self.rhs.push(r);
        }
        Ok(ids)
    }

    /// Sorts, accumulates duplicates and drops zeros, then stores the row.
    fn push_row_sorted(
        &mut self,
        dense: &mut [(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> RowId {
        dense.sort_by_key(|&(i, _)| i);
        let pattern = Arc::make_mut(&mut self.pattern);
        let start = pattern.cols.len();
        for &(i, c) in dense.iter() {
            if pattern.cols.len() > start && pattern.cols.last() == Some(&i) {
                *self.coeffs.last_mut().expect("parallel to cols") += c;
            } else {
                pattern.cols.push(i);
                self.coeffs.push(c);
            }
        }
        // Drop the terms that accumulated to zero, keeping the order.
        let mut kept = start;
        for k in start..pattern.cols.len() {
            if self.coeffs[k] != 0.0 {
                pattern.cols[kept] = pattern.cols[k];
                self.coeffs[kept] = self.coeffs[k];
                kept += 1;
            }
        }
        pattern.cols.truncate(kept);
        self.coeffs.truncate(kept);
        pattern.row_start.push(kept);
        pattern.relations.push(relation);
        self.rhs.push(rhs);
        RowId(self.rhs.len() - 1)
    }

    /// Removes the most recently added constraint row, returning its
    /// handle (`None` when there are no rows). Every other [`RowId`]
    /// keeps meaning the same row.
    pub fn pop_row(&mut self) -> Option<RowId> {
        self.rhs.pop()?;
        let pattern = Arc::make_mut(&mut self.pattern);
        pattern.row_start.pop();
        pattern.relations.pop();
        let end = *pattern.row_start.last().expect("row_start starts at 0");
        pattern.cols.truncate(end);
        self.coeffs.truncate(end);
        Some(RowId(self.rhs.len()))
    }

    /// Optimization sense of this problem.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Iterates over all variable handles in creation order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.num_vars()).map(VarId)
    }

    /// Iterates over all row handles in creation order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.num_rows()).map(RowId)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this problem.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars.names[v.0]
    }

    /// Objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this problem.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.obj[v.0]
    }

    /// Bounds `(lower, upper)` of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this problem.
    pub fn bounds(&self, v: VarId) -> (f64, Option<f64>) {
        (self.vars.lower[v.0], self.vars.upper[v.0])
    }

    /// The terms, relation and right-hand side of a row.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to this problem.
    pub fn row(&self, r: RowId) -> (Vec<(VarId, f64)>, Relation, f64) {
        let (cols, coeffs) = self.row_terms(r.0);
        (
            cols.iter()
                .zip(coeffs)
                .map(|(&i, &c)| (VarId(i), c))
                .collect(),
            self.pattern.relations[r.0],
            self.rhs[r.0],
        )
    }

    /// Row `row`'s variable indices and coefficients, borrowed in place.
    pub(crate) fn row_terms(&self, row: usize) -> (&[usize], &[f64]) {
        let span = self.pattern.row_start[row]..self.pattern.row_start[row + 1];
        (&self.pattern.cols[span.clone()], &self.coeffs[span])
    }

    pub(crate) fn row_relation(&self, row: usize) -> Relation {
        self.pattern.relations[row]
    }

    pub(crate) fn row_rhs(&self, row: usize) -> f64 {
        self.rhs[row]
    }

    pub(crate) fn obj_vec(&self) -> &[f64] {
        &self.obj
    }

    /// In-place mutators used by [`crate::PreparedLp`] to keep the
    /// problem consistent with its cached standard form. Validation
    /// (finiteness, pattern preservation) happens at the `PreparedLp`
    /// layer, which is the only caller.
    pub(crate) fn set_row_rhs(&mut self, row: usize, rhs: f64) {
        self.rhs[row] = rhs;
    }

    /// Writes new values over row `row`'s terms; `terms` has the row's
    /// own pattern, in order.
    pub(crate) fn set_row_values(&mut self, row: usize, terms: &[(VarId, f64)]) {
        let span = self.pattern.row_start[row]..self.pattern.row_start[row + 1];
        debug_assert!(self.pattern.cols[span.clone()]
            .iter()
            .eq(terms.iter().map(|(v, _)| &v.0)));
        for (slot, &(_, c)) in self.coeffs[span].iter_mut().zip(terms) {
            *slot = c;
        }
    }

    pub(crate) fn set_obj_coeff(&mut self, var: usize, coeff: f64) {
        self.obj[var] = coeff;
    }

    pub(crate) fn lower_vec(&self) -> &[f64] {
        &self.vars.lower
    }

    pub(crate) fn upper_vec(&self) -> &[Option<f64>] {
        &self.vars.upper
    }

    /// Solves the problem with default [`SimplexOptions`] — the sparse
    /// revised simplex engine ([`LpEngine::Revised`]).
    ///
    /// # Errors
    ///
    /// * [`LpError::EmptyProblem`] — no variables.
    /// * [`LpError::Infeasible`] — no feasible point exists.
    /// * [`LpError::Unbounded`] — the objective is unbounded.
    /// * [`LpError::IterationLimit`] — the pivot budget ran out.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves with the dense-tableau engine ([`LpEngine::Tableau`]) at
    /// otherwise default options — the cross-check oracle the
    /// `engine_oracle` test suite compares [`LpProblem::solve`] against.
    ///
    /// # Errors
    ///
    /// Same as [`LpProblem::solve`].
    pub fn solve_tableau(&self) -> Result<LpSolution, LpError> {
        self.solve_with(&SimplexOptions::default().with_engine(LpEngine::Tableau))
    }

    /// Solves the problem with explicit solver options.
    ///
    /// # Errors
    ///
    /// Same as [`LpProblem::solve`].
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<LpSolution, LpError> {
        if self.num_vars() == 0 {
            return Err(LpError::EmptyProblem);
        }
        solve_standard(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_and_row_bookkeeping() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var_bounded("y", -2.0, 1.0, Some(5.0));
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.objective_coeff(y), -2.0);
        assert_eq!(p.bounds(y), (1.0, Some(5.0)));
        assert_eq!(p.bounds(x), (0.0, None));

        let r = p
            .add_constraint([(x, 1.0), (y, 2.0), (x, 3.0)], Relation::Le, 7.0)
            .unwrap();
        let (terms, rel, rhs) = p.row(r);
        assert_eq!(rel, Relation::Le);
        assert_eq!(rhs, 7.0);
        // duplicate x terms accumulate: 1 + 3 = 4
        assert_eq!(terms, vec![(x, 4.0), (y, 2.0)]);
    }

    #[test]
    fn pop_row_removes_only_the_last_row() {
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", 1.0, 0.0, Some(4.0));
        let first = p.add_constraint([(x, 1.0)], Relation::Le, 3.0).unwrap();
        let last = p.add_constraint([(x, 1.0)], Relation::Le, 1.0).unwrap();
        assert!((p.solve().unwrap().objective() - 1.0).abs() < 1e-9);
        assert_eq!(p.pop_row(), Some(last));
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.row(first), (vec![(x, 1.0)], Relation::Le, 3.0));
        assert!((p.solve().unwrap().objective() - 3.0).abs() < 1e-9);
        assert_eq!(p.pop_row(), Some(first));
        assert_eq!(p.pop_row(), None);
    }

    #[test]
    fn a_clone_that_grows_or_shrinks_leaves_the_original_alone() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var_bounded("y", 2.0, 0.5, Some(3.0));
        let r = p
            .add_constraint([(x, 1.0), (y, -1.0)], Relation::Ge, 1.0)
            .unwrap();
        let before = p.row(r);

        let mut shrunk = p.clone();
        assert_eq!(shrunk.pop_row(), Some(r));
        let mut grown = p.clone();
        let z = grown.add_var("z", 0.0);
        grown
            .add_constraint([(z, 4.0), (x, 1.0)], Relation::Le, 9.0)
            .unwrap();

        assert_eq!((shrunk.num_rows(), grown.num_rows()), (0, 2));
        assert_eq!((p.num_vars(), p.num_rows()), (2, 1));
        assert_eq!(p.row(r), before);
        assert_eq!(grown.row(r), before);
        assert_eq!(p.var_name(y), "y");
        assert_eq!(p.bounds(y), (0.5, Some(3.0)));
        assert_eq!(grown.row(RowId(1)).0, vec![(x, 1.0), (z, 4.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        let r = p
            .add_constraint([(x, 0.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let (terms, _, _) = p.row(r);
        assert_eq!(terms, vec![(y, 1.0)]);
    }

    #[test]
    fn rejects_foreign_var_and_nonfinite() {
        let mut p = LpProblem::new(Sense::Minimize);
        let _x = p.add_var("x", 1.0);
        let mut q = LpProblem::new(Sense::Minimize);
        let qx = q.add_var("qx", 1.0);
        let foreign = VarId(qx.0 + 10);
        assert!(p
            .add_constraint([(foreign, 1.0)], Relation::Le, 1.0)
            .is_err());
        let x = VarId(0);
        assert!(p
            .add_constraint([(x, f64::NAN)], Relation::Le, 1.0)
            .is_err());
        assert!(p
            .add_constraint([(x, 1.0)], Relation::Le, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn empty_problem_errors() {
        let p = LpProblem::new(Sense::Minimize);
        assert!(matches!(p.solve(), Err(LpError::EmptyProblem)));
    }

    #[test]
    #[should_panic(expected = "upper bound")]
    fn bad_bounds_panic() {
        let mut p = LpProblem::new(Sense::Minimize);
        p.add_var_bounded("x", 0.0, 2.0, Some(1.0));
    }

    #[test]
    fn triplet_batches_build_sorted_rows() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        // Two rows at once, triplets out of order, one duplicate.
        let ids = p
            .add_constraints_from_triplets(
                [
                    (1, y, 2.0),
                    (0, y, 1.0),
                    (0, x, 3.0),
                    (1, y, -1.0),
                    (1, x, 4.0),
                ],
                &[Relation::Eq, Relation::Le],
                &[1.0, 5.0],
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        let (terms, rel, rhs) = p.row(ids[0]);
        assert_eq!((rel, rhs), (Relation::Eq, 1.0));
        assert_eq!(terms, vec![(x, 3.0), (y, 1.0)]);
        let (terms, rel, rhs) = p.row(ids[1]);
        assert_eq!((rel, rhs), (Relation::Le, 5.0));
        assert_eq!(terms, vec![(x, 4.0), (y, 1.0)]); // 2 − 1 accumulated
    }

    #[test]
    fn triplet_batches_validate() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        // Shape mismatch.
        assert!(p
            .add_constraints_from_triplets([(0, x, 1.0)], &[Relation::Le], &[])
            .is_err());
        // Row out of range.
        assert!(p
            .add_constraints_from_triplets([(1, x, 1.0)], &[Relation::Le], &[1.0])
            .is_err());
        // Foreign variable.
        assert!(p
            .add_constraints_from_triplets([(0, VarId(9), 1.0)], &[Relation::Le], &[1.0])
            .is_err());
        // Non-finite data.
        assert!(p
            .add_constraints_from_triplets([(0, x, f64::NAN)], &[Relation::Le], &[1.0])
            .is_err());
        assert!(p
            .add_constraints_from_triplets([(0, x, 1.0)], &[Relation::Le], &[f64::INFINITY])
            .is_err());
        assert_eq!(p.num_rows(), 0, "failed batches must not add rows");
    }

    #[test]
    fn csr_rows_become_constraints() {
        let mut p = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -2.0), (1, 1, 3.0)]).unwrap();
        let ids = p
            .add_constraints_csr(&a, &[Relation::Eq, Relation::Ge], &[0.0, 6.0])
            .unwrap();
        let (terms, rel, _) = p.row(ids[0]);
        assert_eq!(rel, Relation::Eq);
        assert_eq!(terms, vec![(x, 1.0), (y, -2.0)]);
        let (terms, _, rhs) = p.row(ids[1]);
        assert_eq!(rhs, 6.0);
        assert_eq!(terms, vec![(y, 3.0)]);

        // Shape and bounds validation.
        assert!(p.add_constraints_csr(&a, &[Relation::Eq], &[0.0]).is_err());
        let wide = Csr::zeros(1, 5);
        assert!(p
            .add_constraints_csr(&wide, &[Relation::Eq], &[0.0])
            .is_err());
    }

    #[test]
    fn csr_and_term_constraints_solve_identically() {
        // The same LP through both input paths must give the same optimum.
        let build_terms = || {
            let mut p = LpProblem::new(Sense::Maximize);
            let x = p.add_var("x", 3.0);
            let y = p.add_var("y", 5.0);
            p.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
            p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
            p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
                .unwrap();
            p
        };
        let mut via_csr = LpProblem::new(Sense::Maximize);
        via_csr.add_var("x", 3.0);
        via_csr.add_var("y", 5.0);
        let a = Csr::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (2, 1, 2.0)])
            .unwrap();
        via_csr
            .add_constraints_csr(&a, &[Relation::Le; 3], &[4.0, 12.0, 18.0])
            .unwrap();
        let s1 = build_terms().solve().unwrap();
        let s2 = via_csr.solve().unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-9);
        assert_eq!(s1.values(), s2.values());
    }

    #[test]
    fn relation_display() {
        assert_eq!(Relation::Le.to_string(), "<=");
        assert_eq!(Relation::Ge.to_string(), ">=");
        assert_eq!(Relation::Eq.to_string(), "=");
    }
}

//! Public entry points to the standard-form assembly paths.
//!
//! The solver itself always assembles sparsely; this module exposes both
//! the sparse (CSR) and the historical dense assembly so tests can check
//! the two paths agree entry for entry, the dense one serving as the
//! reference.

use socbuf_linalg::{Csr, Matrix};

use crate::standard_form::{build_dense_constraint_matrix, build_standard_form};
use crate::{LpError, LpProblem};

/// Shape summary of an assembled standard form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Standard-form rows (user constraints + upper-bound rows).
    pub rows: usize,
    /// Standard-form columns (structural variables + slack/surplus).
    pub cols: usize,
    /// Stored nonzero entries.
    pub nnz: usize,
}

/// Assembles the standard-form constraint matrix sparsely — `O(nnz)`
/// time and memory. This is exactly the matrix the simplex solver runs
/// on.
///
/// # Errors
///
/// Propagates standard-form conversion failures.
pub fn assemble_sparse(p: &LpProblem) -> Result<Csr, LpError> {
    build_standard_form(p).map(|sf| sf.a)
}

/// Assembles the same constraint matrix densely — the pre-refactor code
/// path, allocating the full `rows × cols` matrix. Kept as the agreement
/// tests' reference; the solver never calls this.
///
/// # Errors
///
/// Propagates standard-form conversion failures.
pub fn assemble_dense(p: &LpProblem) -> Result<Matrix, LpError> {
    build_dense_constraint_matrix(p)
}

/// Shape and sparsity of the standard form without keeping the matrix.
///
/// # Errors
///
/// Propagates standard-form conversion failures.
pub fn stats(p: &LpProblem) -> Result<AssemblyStats, LpError> {
    let a = assemble_sparse(p)?;
    Ok(AssemblyStats {
        rows: a.rows(),
        cols: a.cols(),
        nnz: a.nnz(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Sense};

    #[test]
    fn paths_agree_and_stats_match() {
        let mut p = LpProblem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", 3.0, 0.0, Some(4.0));
        let y = p.add_var("y", 5.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Ge, 6.0)
            .unwrap();
        let sparse = assemble_sparse(&p).unwrap();
        let dense = assemble_dense(&p).unwrap();
        assert_eq!(sparse.to_dense(), dense);
        let s = stats(&p).unwrap();
        assert_eq!((s.rows, s.cols), (dense.rows(), dense.cols()));
        assert_eq!(s.nnz, sparse.nnz());
        assert!(s.nnz < s.rows * s.cols);
    }
}

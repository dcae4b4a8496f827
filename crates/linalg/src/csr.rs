use std::fmt;

use crate::{LinalgError, Matrix};

/// A sparse matrix in compressed-sparse-row (CSR) storage.
///
/// The workspace's structurally sparse objects — birth–death CTMC
/// generators (tridiagonal), CTMDP balance matrices (a handful of entries
/// per state–action column) and the block-diagonal occupation-measure LP
/// constraint matrix — all live here. Storage is the classic triple
/// `row_ptr` / `col_idx` / `vals`: row `r`'s nonzeros occupy
/// `col_idx[row_ptr[r]..row_ptr[r+1]]` (column indices, strictly
/// increasing) and `vals[..]` (the matching values). Memory is
/// `O(rows + nnz)` — never `O(rows × cols)`.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::Csr;
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// // [ 2 0 1 ]
/// // [ 0 3 0 ]
/// let a = Csr::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)])?;
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.matvec(&[1.0, 1.0, 1.0])?, vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// The empty `rows × cols` matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates accumulate; entries that cancel to exactly zero are
    /// dropped. Triplets may arrive in any order.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::IndexOutOfRange`] if a triplet indexes outside
    ///   `rows × cols`.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        // Two-pass counting sort by row: O(rows + nnz) and stable enough
        // that the per-row column sort below usually sees presorted data.
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::IndexOutOfRange {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            entries[cursor[r]] = (c, v);
            cursor[r] += 1;
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut vals = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for r in 0..rows {
            let seg = &mut entries[counts[r]..counts[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let c = seg[i].0;
                let mut acc = 0.0;
                while i < seg.len() && seg[i].0 == c {
                    acc += seg[i].1;
                    i += 1;
                }
                if acc != 0.0 {
                    col_idx.push(c);
                    vals.push(acc);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Materializes the matrix densely (small kernels and tests only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The raw row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array (`nnz` entries, sorted within rows).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The raw value array (`nnz` entries, parallel to `col_idx`).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// The stored columns and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// The stored columns (shared) and values (mutable) of row `r` —
    /// the pattern-preserving update entry: callers may rewrite the
    /// numeric values of a row in place but never its sparsity pattern,
    /// which is what keeps incremental re-assembly (e.g. rescaling the
    /// rate coefficients of a cached LP standard form) `O(row nnz)`
    /// without invalidating anything built on the structure.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> (&[usize], &mut [f64]) {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &mut self.vals[span])
    }

    /// Iterates the `(col, value)` pairs of row `r` in column order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row(r);
        cols.iter().copied().zip(vals.iter().copied())
    }

    /// Entry `(r, c)` (zero if not stored). Binary search within the row.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `A x` in `O(nnz)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// Vector–matrix product `xᵀ A` in `O(nnz)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                y[*c] += xr * v;
            }
        }
        Ok(y)
    }

    /// Returns the transpose in `O(rows + cols + nnz)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                let dst = cursor[c];
                col_idx[dst] = r;
                vals[dst] = v;
                cursor[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// `true` if every stored entry sits on the main, sub- or
    /// super-diagonal — i.e. the matrix is tridiagonal. Birth–death
    /// generators always are; [`crate::Tridiag::from_csr`] uses this to
    /// route stationary solves through the Thomas algorithm.
    pub fn is_tridiagonal(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            let (cols, _) = self.row(r);
            for &c in cols {
                if r.abs_diff(c) > 1 {
                    return false;
                }
            }
        }
        true
    }

    /// Rescales the matrix in place to `diag(row) · A · diag(col)` —
    /// the equilibration kernel. The sparsity pattern is untouched (a
    /// scale factor of zero would break that contract and is rejected).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `row`/`col` lengths do not
    /// match the matrix shape.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a non-positive or non-finite factor.
    pub fn scale_rows_cols(&mut self, row: &[f64], col: &[f64]) -> Result<(), LinalgError> {
        if row.len() != self.rows || col.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.cols),
                found: (row.len(), col.len()),
            });
        }
        debug_assert!(
            row.iter().chain(col).all(|f| *f > 0.0 && f.is_finite()),
            "scale factors must be positive and finite"
        );
        for r in 0..self.rows {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            for (v, &c) in self.vals[span.clone()].iter_mut().zip(&self.col_idx[span]) {
                *v *= row[r] * col[c];
            }
        }
        Ok(())
    }

    /// Maximum absolute stored entry.
    pub fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if every stored entry is finite.
    pub fn is_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Csr {}x{} ({} nnz) [", self.rows, self.cols, self.nnz())?;
        for r in 0..self.rows.min(8) {
            write!(f, "  {r}:")?;
            for (c, v) in self.iter_row(r).take(8) {
                write!(f, " ({c}, {v:.4})")?;
            }
            if self.row(r).0.len() > 8 {
                write!(f, " …")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Incremental row-by-row CSR assembly — the natural fit for LP
/// standard-form construction, where rows are produced in order with
/// already-sorted terms.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrBuilder {
    /// Starts an empty matrix with `cols` columns and no rows.
    pub fn new(cols: usize) -> Self {
        CsrBuilder {
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Hints the expected total entry count.
    pub fn with_capacity(cols: usize, rows: usize, nnz: usize) -> Self {
        let mut b = CsrBuilder::new(cols);
        b.row_ptr.reserve(rows);
        b.col_idx.reserve(nnz);
        b.vals.reserve(nnz);
        b
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Appends one row given `(col, value)` terms with strictly
    /// increasing columns. Zero values are skipped.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::IndexOutOfRange`] for an out-of-range column.
    /// * [`LinalgError::UnsortedColumns`] if columns are not strictly
    ///   increasing.
    pub fn push_row(&mut self, terms: &[(usize, f64)]) -> Result<(), LinalgError> {
        self.push_row_iter(terms.iter().copied())
    }

    /// Like [`CsrBuilder::push_row`] but consumes any `(col, value)`
    /// iterator — lets callers chain term sources (e.g. structural
    /// coefficients plus a slack column) without an intermediate `Vec`.
    ///
    /// # Errors
    ///
    /// Same as [`CsrBuilder::push_row`]; a failed push leaves the
    /// builder unchanged.
    pub fn push_row_iter(
        &mut self,
        terms: impl IntoIterator<Item = (usize, f64)>,
    ) -> Result<(), LinalgError> {
        let start = self.col_idx.len();
        let mut last: Option<usize> = None;
        for (c, v) in terms {
            if c >= self.cols || last.is_some_and(|l| c <= l) {
                // Roll back the partially committed row.
                self.col_idx.truncate(start);
                self.vals.truncate(start);
                return if c >= self.cols {
                    Err(LinalgError::IndexOutOfRange {
                        row: self.rows(),
                        col: c,
                        rows: self.rows() + 1,
                        cols: self.cols,
                    })
                } else {
                    Err(LinalgError::UnsortedColumns {
                        row: self.rows(),
                        col: c,
                    })
                };
            }
            last = Some(c);
            if v != 0.0 {
                self.col_idx.push(c);
                self.vals.push(v);
            }
        }
        self.row_ptr.push(self.col_idx.len());
        Ok(())
    }

    /// Finalizes the matrix.
    pub fn finish(self) -> Csr {
        Csr {
            rows: self.row_ptr.len() - 1,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            vals: self.vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_triplets(3, 3, &[(2, 1, 4.0), (0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)]).unwrap()
    }

    #[test]
    fn triplets_sort_accumulate_and_drop_zeros() {
        let a = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0), (1, 0, -5.0)])
            .unwrap();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn triplets_reject_out_of_range() {
        assert!(Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(Csr::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn row_mut_rewrites_values_in_place() {
        let mut a = example();
        {
            let (cols, vals) = a.row_mut(2);
            assert_eq!(cols, &[0, 1]);
            vals[0] = -3.0;
            vals[1] = 8.0;
        }
        assert_eq!(a.get(2, 0), -3.0);
        assert_eq!(a.get(2, 1), 8.0);
        // The pattern (and every other row) is untouched.
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_rejects_bad_row() {
        let mut a = example();
        let _ = a.row_mut(3);
    }

    #[test]
    fn dense_roundtrip() {
        let a = example();
        let d = a.to_dense();
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(1, 1)], 0.0);
        let back = Csr::from_dense(&d);
        assert_eq!(back, a);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(a.matvec(&x).unwrap(), a.to_dense().matvec(&x).unwrap());
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn vecmat_matches_dense() {
        let a = example();
        let x = [2.0, 1.0, -1.0];
        assert_eq!(a.vecmat(&x).unwrap(), a.to_dense().vecmat(&x).unwrap());
        assert!(a.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip_and_matches_dense() {
        let a = example();
        let t = a.transpose();
        assert_eq!(t.to_dense(), a.to_dense().transpose());
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn row_access_is_sorted() {
        let a = example();
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3.0, 4.0]);
        assert_eq!(a.row(1).0.len(), 0);
    }

    #[test]
    fn tridiagonal_detection() {
        let tri = Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, -1.0),
                (0, 1, 1.0),
                (1, 0, 2.0),
                (1, 2, 1.0),
                (2, 1, 3.0),
            ],
        )
        .unwrap();
        assert!(tri.is_tridiagonal());
        let not = Csr::from_triplets(3, 3, &[(0, 2, 1.0)]).unwrap();
        assert!(!not.is_tridiagonal());
        let rect = Csr::zeros(2, 3);
        assert!(!rect.is_tridiagonal());
    }

    #[test]
    fn builder_enforces_sorted_columns() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(0, 1.0), (2, 2.0)]).unwrap();
        assert!(matches!(
            b.push_row(&[(1, 1.0), (1, 2.0)]),
            Err(LinalgError::UnsortedColumns { row: 1, col: 1 })
        ));
        assert!(matches!(
            b.push_row(&[(5, 1.0)]),
            Err(LinalgError::IndexOutOfRange { col: 5, .. })
        ));
        b.push_row(&[]).unwrap();
        let a = b.finish();
        // The two failed pushes must not have committed partial rows.
        assert_eq!(a.rows(), 2);
        assert_eq!(a.get(0, 2), 2.0);
    }

    #[test]
    fn norms_and_finiteness() {
        let a = example();
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
    }

    #[test]
    fn empty_matrix_behaves() {
        let z = Csr::zeros(2, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0, 1.0]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(z.transpose().nnz(), 0);
    }

    #[test]
    fn debug_output_nonempty() {
        let s = format!("{:?}", example());
        assert!(s.contains("Csr 3x3"));
    }
}

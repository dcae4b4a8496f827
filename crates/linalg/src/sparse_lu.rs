//! Sparse LU factorization for simplex basis matrices.
//!
//! The revised simplex refactorizes its basis every few dozen pivots;
//! with the dense [`crate::Lu`] kernel that refresh costs `O(m³)` no
//! matter how sparse the basis is — and simplex bases of the
//! occupation-measure LPs carry only 2–6 nonzeros per column. This
//! left-looking, column-at-a-time factorization with partial pivoting
//! (the classic Gilbert–Peierls shape, minus the symbolic DFS) costs
//! `O(n²/64 + flops)` — microseconds where the dense kernel needs tens
//! of milliseconds.
//!
//! Column `j` is eliminated by every earlier column `k` whose pivot row
//! it holds, in increasing `k` (an update from column `k` can light up
//! the pivot row of a later column `k′`, never of an earlier one). The
//! positions of those pivot rows sit in a bitset, which the elimination
//! reads lowest bit first while each update sets the bits it uncovers:
//! a word scan per 64 positions replaces a scan over all `j` earlier
//! columns.
//!
//! Input is a set of sparse *columns* (exactly how a simplex basis is
//! gathered); `L` and `U` are stored in flat compressed-column arrays,
//! and both [`SparseLu::solve`] and [`SparseLu::solve_transpose`] run in
//! `O(n + nnz(L) + nnz(U))`.
//!
//! The same elimination serves [`solve_transpose_cols`], which picks
//! the dense kernel's pivots and sums in its order, so its answer is
//! bitwise the dense [`crate::Lu`]'s.

use crate::LinalgError;

/// Sparse LU with partial pivoting: `P A = L U`, built from sparse
/// columns.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::SparseLu;
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// // [ 2 1 ]      columns: [(0,2),(1,1)] and [(0,1),(1,3)]
/// // [ 1 3 ]
/// let cols = vec![vec![(0, 2.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]];
/// let lu = SparseLu::factor_cols(2, &cols)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `L` by elimination column: column `k` holds the entries
    /// `(l_row[p], l_val[p])` for `p` in `l_start[k]..l_start[k + 1]`,
    /// keyed by original row, strictly below the diagonal in position
    /// space; unit diagonal implicit.
    l_start: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// `U` by column, the same layout: `(position, u_value)` entries
    /// strictly above the diagonal, in increasing position.
    u_start: Vec<usize>,
    u_pos: Vec<usize>,
    u_val: Vec<f64>,
    /// Diagonal of `U` per elimination position.
    u_diag: Vec<f64>,
    /// `pivot_row[k]` — original row pivoting elimination position `k`.
    pivot_row: Vec<usize>,
    /// Inverse map: original row → elimination position (or `MAX`).
    position: Vec<usize>,
}

/// Pivots smaller than this in absolute value are refused; a column
/// with no usable pivot marks the matrix singular. The dense
/// [`crate::Lu`] kernel refuses at the same bound.
const PIVOT_TOL: f64 = 1e-12;

/// How the elimination picks each column's pivot among the rows it
/// holds that no earlier column pivoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pivoting {
    /// The first row of largest magnitude in the order the column
    /// touched its rows: the engine's rule.
    FirstMax,
    /// The largest magnitude, ties to the row the dense [`crate::Lu`]
    /// holds at the lowest position after its row swaps so far.
    Dense,
}

/// The pattern of the column being eliminated.
struct Pattern {
    /// `seen[r] == j`: row `r` is in column `j`'s pattern.
    seen: Vec<usize>,
    /// The pattern's rows that no earlier column pivoted, in the order
    /// the column first touched them.
    touched: Vec<usize>,
    /// Bitset of the positions whose pivot rows are in the pattern.
    pivoted: Vec<u64>,
}

impl Pattern {
    /// Adds row `r` to column `j`'s pattern.
    fn mark(&mut self, j: usize, r: usize, position: &[usize]) {
        if self.seen[r] == j {
            return;
        }
        self.seen[r] = j;
        match position[r] {
            usize::MAX => self.touched.push(r),
            k => self.pivoted[k / 64] |= 1 << (k % 64),
        }
    }
}

impl SparseLu {
    /// Factors the `n × n` matrix whose `j`-th column holds the sparse
    /// entries `cols[j]` as `(row, value)` pairs (any order, no
    /// duplicates).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `n == 0`.
    /// * [`LinalgError::DimensionMismatch`] if `cols.len() != n`.
    /// * [`LinalgError::IndexOutOfRange`] if an entry's row is `≥ n`.
    /// * [`LinalgError::Singular`] if a column has no usable pivot.
    pub fn factor_cols(n: usize, cols: &[Vec<(usize, f64)>]) -> Result<Self, LinalgError> {
        SparseLu::eliminate(n, cols, Pivoting::FirstMax)
    }

    fn eliminate(
        n: usize,
        cols: &[Vec<(usize, f64)>],
        pivoting: Pivoting,
    ) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if cols.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, n),
                found: (n, cols.len()),
            });
        }
        let mut lu = SparseLu {
            n,
            l_start: Vec::with_capacity(n + 1),
            l_row: Vec::new(),
            l_val: Vec::new(),
            u_start: Vec::with_capacity(n + 1),
            u_pos: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::with_capacity(n),
            pivot_row: Vec::with_capacity(n),
            position: vec![usize::MAX; n],
        };
        lu.l_start.push(0);
        lu.u_start.push(0);
        let mut work = vec![0.0f64; n];
        let mut pattern = Pattern {
            seen: vec![usize::MAX; n],
            touched: Vec::with_capacity(64),
            pivoted: vec![0; n.div_ceil(64)],
        };
        // The dense kernel's row order, for its tie-break: row at each
        // position, and position of each row.
        let (mut dense_row, mut dense_pos): (Vec<usize>, Vec<usize>) = match pivoting {
            Pivoting::Dense => ((0..n).collect(), (0..n).collect()),
            Pivoting::FirstMax => (Vec::new(), Vec::new()),
        };

        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if r >= n {
                    return Err(LinalgError::IndexOutOfRange {
                        row: r,
                        col: j,
                        rows: n,
                        cols: n,
                    });
                }
                pattern.mark(j, r, &lu.position);
                work[r] += v;
            }
            // Left-looking elimination: apply every earlier column whose
            // pivot row holds a nonzero, lowest position first. An
            // update only marks positions above the one applying it, so
            // rereading the current word picks them up in order.
            for w in 0..j.div_ceil(64) {
                while pattern.pivoted[w] != 0 {
                    let k = w * 64 + pattern.pivoted[w].trailing_zeros() as usize;
                    pattern.pivoted[w] &= pattern.pivoted[w] - 1;
                    let prow = lu.pivot_row[k];
                    let ukj = work[prow];
                    work[prow] = 0.0;
                    if ukj == 0.0 {
                        continue;
                    }
                    for p in lu.l_start[k]..lu.l_start[k + 1] {
                        let r = lu.l_row[p];
                        pattern.mark(j, r, &lu.position);
                        work[r] -= lu.l_val[p] * ukj;
                    }
                    lu.u_pos.push(k);
                    lu.u_val.push(ukj);
                }
            }
            // Partial pivoting among rows not yet assigned a position.
            let mut pivot: Option<(usize, f64)> = None;
            for &r in &pattern.touched {
                let mag = work[r].abs();
                let better = match pivot {
                    None => mag > 0.0,
                    Some((best_row, best)) => {
                        mag > best
                            || (pivoting == Pivoting::Dense
                                && mag == best
                                && dense_pos[r] < dense_pos[best_row])
                    }
                };
                if better {
                    pivot = Some((r, mag));
                }
            }
            let Some((prow, pmag)) = pivot else {
                return Err(LinalgError::Singular { pivot: j });
            };
            if pmag < PIVOT_TOL {
                return Err(LinalgError::Singular { pivot: j });
            }
            if pivoting == Pivoting::Dense {
                let (p, q) = (dense_pos[prow], dense_row[j]);
                dense_row.swap(j, p);
                dense_pos[q] = p;
                dense_pos[prow] = j;
            }
            let pval = work[prow];
            for &r in &pattern.touched {
                let v = work[r];
                work[r] = 0.0; // clear as we gather
                if v != 0.0 && r != prow {
                    lu.l_row.push(r);
                    lu.l_val.push(v / pval);
                }
            }
            pattern.touched.clear();
            lu.position[prow] = j;
            lu.pivot_row.push(prow);
            lu.u_diag.push(pval);
            lu.l_start.push(lu.l_row.len());
            lu.u_start.push(lu.u_pos.len());
        }
        if pivoting == Pivoting::Dense {
            // The dense kernel's transposed solve sums each column of
            // `L` by final row position.
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for k in 0..n {
                let range = lu.l_start[k]..lu.l_start[k + 1];
                entries.clear();
                entries.extend(range.clone().map(|p| (lu.l_row[p], lu.l_val[p])));
                entries.sort_unstable_by_key(|&(r, _)| lu.position[r]);
                for (p, (r, v)) in range.zip(entries.iter().copied()) {
                    lu.l_row[p] = r;
                    lu.l_val[p] = v;
                }
            }
        }
        Ok(lu)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` and `U` combined (fill-in diagnostics).
    pub fn nnz(&self) -> usize {
        self.n + self.l_row.len() + self.u_pos.len()
    }

    fn check_rhs(&self, b: &[f64]) -> Result<(), LinalgError> {
        if b.len() == self.n {
            return Ok(());
        }
        Err(LinalgError::DimensionMismatch {
            expected: (self.n, 1),
            found: (b.len(), 1),
        })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_rhs(b)?;
        let n = self.n;
        // Forward: L z = P b, in original-row coordinates.
        let mut z = b.to_vec();
        for k in 0..n {
            let zk = z[self.pivot_row[k]];
            if zk == 0.0 {
                continue;
            }
            for p in self.l_start[k]..self.l_start[k + 1] {
                z[self.l_row[p]] -= self.l_val[p] * zk;
            }
        }
        // Backward: U x = z, reading z through the pivot order.
        let mut zpos: Vec<f64> = self.pivot_row.iter().map(|&r| z[r]).collect();
        let mut x = vec![0.0; n];
        for j in (0..n).rev() {
            let xj = zpos[j] / self.u_diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for p in self.u_start[j]..self.u_start[j + 1] {
                zpos[self.u_pos[p]] -= self.u_val[p] * xj;
            }
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_rhs(b)?;
        Ok(self.transpose_sweeps(b, false))
    }

    /// `Aᵀ = Uᵀ Lᵀ P`: a forward sweep `Uᵀ w = b` over the columns of
    /// `U`, a backward sweep `Lᵀ v = w` in position space (the entries
    /// of `L`'s column `k` sit at strictly later positions), then
    /// `x = Pᵀ v`. Each sum runs over a column's stored entries in
    /// storage order.
    ///
    /// With `dense_zeros`, the sums also take the sign the dense
    /// kernel's zero terms give them. That kernel subtracts a product
    /// for every position, the structural zeros of `L` and `U`
    /// included. Such a product is a signed zero: it leaves a nonzero or
    /// `+0` accumulator alone, but turns a `−0` one into `+0` when it is
    /// itself `−0`. So a sum the stored entries leave at `−0` becomes
    /// `+0` if any skipped product is `−0`. A skipped `U` entry is `+0`,
    /// so its product is `−0` when the entry of `w` it meets has its
    /// sign bit set. A skipped `L` entry is `+0 / u_kk`, so its product
    /// is `−0` when that sign bit differs from the pivot's.
    fn transpose_sweeps(&self, b: &[f64], dense_zeros: bool) -> Vec<f64> {
        let n = self.n;
        let neg_zero = |x: f64| dense_zeros && x == 0.0 && x.is_sign_negative();
        // Forward, counting the earlier entries of w whose sign bit is
        // set.
        let mut w = vec![0.0; n];
        let mut negative = 0;
        for j in 0..n {
            let range = self.u_start[j]..self.u_start[j + 1];
            let mut acc = b[j];
            for p in range.clone() {
                acc -= self.u_val[p] * w[self.u_pos[p]];
            }
            if neg_zero(acc) {
                let stored = range
                    .filter(|&p| w[self.u_pos[p]].is_sign_negative())
                    .count();
                if negative > stored {
                    acc = 0.0;
                }
            }
            w[j] = acc / self.u_diag[j];
            negative += usize::from(w[j].is_sign_negative());
        }
        // Backward, counting the later entries of v whose sign bit is
        // set.
        let mut negative = 0;
        for k in (0..n).rev() {
            let range = self.l_start[k]..self.l_start[k + 1];
            let mut acc = w[k];
            for p in range.clone() {
                acc -= self.l_val[p] * w[self.position[self.l_row[p]]];
            }
            if neg_zero(acc) {
                let pivot_negative = self.u_diag[k].is_sign_negative();
                let differing = if pivot_negative {
                    n - 1 - k - negative
                } else {
                    negative
                };
                let stored = range
                    .filter(|&p| {
                        w[self.position[self.l_row[p]]].is_sign_negative() != pivot_negative
                    })
                    .count();
                if differing > stored {
                    acc = 0.0;
                }
            }
            w[k] = acc;
            negative += usize::from(acc.is_sign_negative());
        }
        let mut x = vec![0.0; n];
        for (k, &r) in self.pivot_row.iter().enumerate() {
            x[r] = w[k];
        }
        x
    }
}

/// Solves `Bᵀ x = b` for the `n × n` matrix `B` whose `j`-th column
/// holds the sparse entries `cols[j]` (any order, no duplicates), bit
/// for bit as `Lu::factor(&B)?.solve_transpose(b)` on the dense `B`.
///
/// The factorization picks the dense kernel's pivots: the largest
/// magnitude, ties to the lowest row position after its row swaps, with
/// the same absolute refusal bound. Each sum runs in the dense kernel's
/// order, `Uᵀ` by elimination step and `Lᵀ` by final row position, and
/// takes the sign a zero result gets from the terms the dense loops
/// multiply by an implicit zero. Cost and memory grow with the nonzeros
/// of the factors, not with `n²`.
///
/// Absent entries of `B` are `+0`. An entry given with the value `−0`
/// reads as `+0`; the dense kernel would carry its sign.
///
/// # Errors
///
/// * [`LinalgError::Empty`] if `n == 0`.
/// * [`LinalgError::DimensionMismatch`] if `cols.len() != n` or
///   `b.len() != n`.
/// * [`LinalgError::IndexOutOfRange`] if an entry's row is `≥ n`.
/// * [`LinalgError::Singular`] at the pivot column where the dense
///   kernel gives up.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::{solve_transpose_cols, Lu, Matrix};
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// let cols = vec![vec![(0, 2.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]];
/// let dense = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let b = [1.0, -0.0];
/// let x = solve_transpose_cols(2, &cols, &b)?;
/// let want = Lu::factor(&dense)?.solve_transpose(&b)?;
/// assert_eq!(x[0].to_bits(), want[0].to_bits());
/// assert_eq!(x[1].to_bits(), want[1].to_bits());
/// # Ok(())
/// # }
/// ```
pub fn solve_transpose_cols(
    n: usize,
    cols: &[Vec<(usize, f64)>],
    b: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    let lu = SparseLu::eliminate(n, cols, Pivoting::Dense)?;
    lu.check_rhs(b)?;
    Ok(lu.transpose_sweeps(b, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_abs_diff, Lu, Matrix};

    fn cols_of(m: &Matrix) -> Vec<Vec<(usize, f64)>> {
        (0..m.cols())
            .map(|j| {
                (0..m.rows())
                    .filter(|&i| m[(i, j)] != 0.0)
                    .map(|i| (i, m[(i, j)]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_dense_lu_on_small_systems() {
        let cases = [
            Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap(),
            Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap(), // needs pivoting
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[&[1e-8, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 3.0, 1.0]]).unwrap(),
        ];
        for a in &cases {
            let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + i as f64).collect();
            let dense = Lu::factor(a).unwrap();
            let sparse = SparseLu::factor_cols(a.rows(), &cols_of(a)).unwrap();
            assert!(max_abs_diff(&dense.solve(&b).unwrap(), &sparse.solve(&b).unwrap()) < 1e-9);
            assert!(
                max_abs_diff(
                    &dense.solve_transpose(&b).unwrap(),
                    &sparse.solve_transpose(&b).unwrap()
                ) < 1e-9
            );
        }
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::factor_cols(2, &cols_of(&a)),
            Err(LinalgError::Singular { .. })
        ));
        // Structurally singular: an empty column.
        assert!(matches!(
            SparseLu::factor_cols(2, &[vec![(0, 1.0)], vec![]]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            SparseLu::factor_cols(0, &[]),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            SparseLu::factor_cols(2, &[vec![(0, 1.0)]]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            SparseLu::factor_cols(1, &[vec![(3, 1.0)]]),
            Err(LinalgError::IndexOutOfRange { .. })
        ));
        let lu = SparseLu::factor_cols(1, &[vec![(0, 2.0)]]).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_transpose(&[]).is_err());
    }

    #[test]
    fn near_triangular_basis_has_no_fill() {
        // A birth–death-style bidiagonal basis: fill-in must be zero
        // (nnz of the factors equals nnz of the matrix).
        let n = 50;
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                let mut c = vec![(j, 2.0)];
                if j + 1 < n {
                    c.push((j + 1, -1.0));
                }
                c
            })
            .collect();
        let nnz_in: usize = cols.iter().map(Vec::len).sum();
        let lu = SparseLu::factor_cols(n, &cols).unwrap();
        assert_eq!(lu.nnz(), nnz_in);
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        // Residual check.
        let mut r = vec![0.0; n];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                r[i] += v * x[j];
            }
        }
        assert!(max_abs_diff(&r, &b) < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{max_abs_diff, Lu, Matrix};
    use proptest::prelude::*;

    /// Random sparse diagonally dominant systems (non-singular) with a
    /// known solution.
    fn dd_sparse_system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        (2usize..=12).prop_flat_map(|n| {
            (
                proptest::collection::vec(-1.0f64..1.0, n * n),
                proptest::collection::vec(0.0f64..1.0, n * n),
                proptest::collection::vec(-10.0f64..10.0, n),
            )
                .prop_map(move |(entries, keep, x)| {
                    let mut a = Matrix::zeros(n, n);
                    for i in 0..n {
                        for j in 0..n {
                            // ~40% fill keeps the matrices genuinely sparse.
                            if keep[i * n + j] < 0.4 {
                                a[(i, j)] = entries[i * n + j];
                            }
                        }
                    }
                    for i in 0..n {
                        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
                        a[(i, i)] = off + 1.0;
                    }
                    (a, x)
                })
        })
    }

    fn cols_of(m: &Matrix) -> Vec<Vec<(usize, f64)>> {
        (0..m.cols())
            .map(|j| {
                (0..m.rows())
                    .filter(|&i| m[(i, j)] != 0.0)
                    .map(|i| (i, m[(i, j)]))
                    .collect()
            })
            .collect()
    }

    /// Entries with many exact ties, so the pivot tie-break decides.
    const ENTRIES: [f64; 7] = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0];
    /// Right-hand-side values, zeros of both signs over-represented so
    /// zero results are common.
    const RHS: [f64; 6] = [0.0, -0.0, 0.0, -0.0, 1.0, -2.0];

    /// Random sparse square matrices over [`ENTRIES`] (about half the
    /// slots empty, so singular ones are common) and right-hand sides
    /// over [`RHS`].
    fn tied_sparse_system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        (2usize..=12).prop_flat_map(|n| {
            (
                proptest::collection::vec(0usize..2 * ENTRIES.len(), n * n),
                proptest::collection::vec(0usize..RHS.len(), n),
            )
                .prop_map(move |(slots, rhs)| {
                    let mut a = Matrix::zeros(n, n);
                    for (i, &s) in slots.iter().enumerate() {
                        if let Some(&v) = ENTRIES.get(s) {
                            a[(i / n, i % n)] = v;
                        }
                    }
                    (a, rhs.iter().map(|&k| RHS[k]).collect())
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn solve_transpose_cols_is_bitwise_dense_lu((a, b) in tied_sparse_system()) {
            let dense = Lu::factor(&a).and_then(|lu| lu.solve_transpose(&b));
            let sparse = solve_transpose_cols(a.rows(), &cols_of(&a), &b);
            match (dense, sparse) {
                (Ok(want), Ok(got)) => {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?}", got, want);
                }
                (want, got) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    proptest! {
        #[test]
        fn sparse_lu_recovers_solutions((a, x_true) in dd_sparse_system()) {
            let b = a.matvec(&x_true).unwrap();
            let lu = SparseLu::factor_cols(a.rows(), &cols_of(&a)).unwrap();
            let x = lu.solve(&b).unwrap();
            prop_assert!(max_abs_diff(&x, &x_true) < 1e-6);
        }

        #[test]
        fn sparse_lu_transpose_consistent((a, x_true) in dd_sparse_system()) {
            let bt = a.vecmat(&x_true).unwrap();
            let lu = SparseLu::factor_cols(a.rows(), &cols_of(&a)).unwrap();
            let x = lu.solve_transpose(&bt).unwrap();
            prop_assert!(max_abs_diff(&x, &x_true) < 1e-6);
        }
    }
}

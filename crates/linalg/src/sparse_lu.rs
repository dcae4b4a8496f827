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
//! Input is a set of sparse *columns* in flat storage ([`Columns`]:
//! one offset array and one entry array, exactly how a simplex basis is
//! gathered); `L` and `U` are stored in flat compressed-column arrays,
//! with each `L` entry's elimination position stored beside its row.
//! [`SparseLu::solve_in_place`] and
//! [`SparseLu::solve_transpose_in_place`] run in
//! `O(n + nnz(L) + nnz(U))` in caller buffers and allocate nothing;
//! [`SparseLu::solve`] and [`SparseLu::solve_transpose`] wrap them.
//!
//! A simplex FTRANs one sparse column per pivot, and its answer is
//! sparse too. [`SparseLu::solve_reached`] applies only the columns of
//! `L` and `U` the solve reaches from the column's rows (Gilbert &
//! Peierls, "Sparse partial pivoting in time proportional to arithmetic
//! operations", 1988), finds the forward sweep's reach through byte
//! flags as the elimination finds its pattern, and flags the nonzeros
//! of its answer in a [`Reach`]. It applies each column exactly when,
//! and in the order, the in-place solve does, so every nonzero of its
//! answer is bitwise the in-place solve's.
//!
//! A simplex prices with one transposed solve per pivot, and between two
//! pricings only a few entries of the right-hand side change bits.
//! [`SparseLu::solve_transpose_cached`] keeps the last input and both
//! sweeps' results in a [`TransposeCache`]. Told which inputs may have
//! moved, it compares only those, re-runs only the entries whose input
//! changed bits or that read an entry which did, and writes only the
//! entries of the answer whose bits change. So its answer is bitwise
//! [`SparseLu::solve_transpose_in_place`]'s at the cost of what moved
//! (Hall & McKinnon's hyper-sparsity, without reordering a single sum).
//!
//! The same elimination serves the dense kernel's pivot rule
//! ([`solve_transpose_cols`], [`solve_transpose_resumed`]), which
//! picks the dense kernel's pivots and sums in its order, so its answer
//! is bitwise the dense [`crate::Lu`]'s. The two rules differ only in
//! how they break exact ties between candidate pivots, so a factor
//! records how many of its leading pivots the dense rule picks the same
//! way ([`SparseLu::dense_prefix`]). A dense-rule elimination resumes
//! after any such prefix with the same arithmetic it would have done
//! from scratch; [`solve_transpose_cols`] is the resume after an empty
//! prefix.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::LinalgError;

/// The id the next factor gets; 0 is no factor's. Ids only have to be
/// unique and publish no other data, so the counter is `Relaxed`.
static NEXT_FACTOR_ID: AtomicU64 = AtomicU64::new(1);

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
    /// space; unit diagonal implicit. `l_pos[p]` is the elimination
    /// position of `l_row[p]`, stored once the factor is complete.
    l_start: Vec<usize>,
    l_row: Vec<usize>,
    l_pos: Vec<usize>,
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
    /// How many leading pivots the dense kernel's rule picks the same
    /// way (see [`SparseLu::dense_prefix`]).
    dense_prefix: usize,
    /// Unique per elimination (a clone, holding the same factor, shares
    /// it): what tells a [`TransposeCache`] its factor was replaced.
    id: u64,
}

/// Sparse columns in flat storage: column `j` holds the `(row, value)`
/// pairs `entries[start[j]..start[j + 1]]` (any order, no duplicate
/// rows). A basis gathered into two reused buffers costs no allocation
/// per column.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::{Columns, SparseLu};
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// let start = [0, 2, 4];
/// let entries = [(0, 2.0), (1, 1.0), (0, 1.0), (1, 3.0)];
/// let lu = SparseLu::factor(2, Columns::new(&start, &entries))?;
/// let mut x = [3.0, 5.0];
/// let mut work = [0.0; 2];
/// lu.solve_in_place(&mut x, &mut work)?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    start: &'a [usize],
    entries: &'a [(usize, f64)],
}

impl<'a> Columns<'a> {
    /// Columns over `start` (one more offset than columns,
    /// non-decreasing, the last at most `entries.len()`) and `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is empty; an offset past `entries` panics when
    /// its column is read.
    pub fn new(start: &'a [usize], entries: &'a [(usize, f64)]) -> Columns<'a> {
        assert!(!start.is_empty(), "column offsets need a leading 0");
        Columns { start, entries }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether there are no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `j`'s entries.
    fn col(&self, j: usize) -> &'a [(usize, f64)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }
}

/// Flattens per-column vectors into [`Columns`] storage.
fn flatten(cols: &[Vec<(usize, f64)>]) -> (Vec<usize>, Vec<(usize, f64)>) {
    let mut start = Vec::with_capacity(cols.len() + 1);
    start.push(0);
    let mut entries = Vec::with_capacity(cols.iter().map(Vec::len).sum());
    for col in cols {
        entries.extend_from_slice(col);
        start.push(entries.len());
    }
    (start, entries)
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
    /// Adds row `r` to column `j`'s pattern. Returns the position of a
    /// row new to the pattern that an earlier column pivoted, for the
    /// caller to add to `pivoted`.
    fn mark(&mut self, j: usize, r: usize, position: &[usize]) -> Option<usize> {
        if self.seen[r] == j {
            return None;
        }
        self.seen[r] = j;
        match position[r] {
            usize::MAX => {
                self.touched.push(r);
                None
            }
            k => Some(k),
        }
    }
}

/// The dense kernel's row order after its row swaps so far: the row at
/// each position, and the position of each row.
struct DenseOrder {
    row: Vec<usize>,
    pos: Vec<usize>,
}

impl DenseOrder {
    fn new(n: usize) -> DenseOrder {
        DenseOrder {
            row: (0..n).collect(),
            pos: (0..n).collect(),
        }
    }

    /// The dense kernel's swap when row `prow` pivots step `j`.
    fn pivot(&mut self, j: usize, prow: usize) {
        let (p, q) = (self.pos[prow], self.row[j]);
        self.row.swap(j, p);
        self.pos[q] = p;
        self.pos[prow] = j;
    }
}

impl SparseLu {
    /// Factors the `n × n` matrix whose `j`-th column holds the sparse
    /// entries `cols[j]` as `(row, value)` pairs (any order, no
    /// duplicates). A wrapper over [`SparseLu::factor`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `n == 0`.
    /// * [`LinalgError::DimensionMismatch`] if `cols.len() != n`.
    /// * [`LinalgError::IndexOutOfRange`] if an entry's row is `≥ n`.
    /// * [`LinalgError::Singular`] if a column has no usable pivot.
    pub fn factor_cols(n: usize, cols: &[Vec<(usize, f64)>]) -> Result<Self, LinalgError> {
        let (start, entries) = flatten(cols);
        SparseLu::factor(n, Columns::new(&start, &entries))
    }

    /// Factors the `n × n` matrix whose columns are `cols`.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factor_cols`].
    pub fn factor(n: usize, cols: Columns<'_>) -> Result<Self, LinalgError> {
        SparseLu::eliminate(n, None, cols, Pivoting::FirstMax)
    }

    /// How many leading pivots of this factor the dense [`crate::Lu`]
    /// kernel's rule picks the same way: the factor's first
    /// `dense_prefix()` columns of `L` and `U` are, entry for entry,
    /// those of a dense-rule elimination of the same columns, which
    /// [`solve_transpose_resumed`] can resume after. `dim()` when the
    /// rules agree throughout.
    pub fn dense_prefix(&self) -> usize {
        self.dense_prefix
    }

    /// A factor of an `n × n` matrix with no elimination step yet, with
    /// room for `l_cap` entries of `L` and `u_cap` of `U`.
    fn with_capacity(n: usize, l_cap: usize, u_cap: usize) -> SparseLu {
        let mut l_start = Vec::with_capacity(n + 1);
        l_start.push(0);
        let mut u_start = Vec::with_capacity(n + 1);
        u_start.push(0);
        SparseLu {
            n,
            l_start,
            l_row: Vec::with_capacity(l_cap),
            l_pos: Vec::new(),
            l_val: Vec::with_capacity(l_cap),
            u_start,
            u_pos: Vec::with_capacity(u_cap),
            u_val: Vec::with_capacity(u_cap),
            u_diag: Vec::with_capacity(n),
            pivot_row: Vec::with_capacity(n),
            position: vec![usize::MAX; n],
            dense_prefix: n,
            id: NEXT_FACTOR_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A factor holding the first `shared` elimination steps of `from`
    /// and nothing after them, with the dense kernel's row order as
    /// those steps leave it.
    fn prefix_of(from: &SparseLu, shared: usize) -> (SparseLu, DenseOrder) {
        let n = from.n;
        let mut lu = SparseLu::with_capacity(n, from.l_row.len(), from.u_pos.len());
        let (l_end, u_end) = (from.l_start[shared], from.u_start[shared]);
        lu.l_start.extend_from_slice(&from.l_start[1..=shared]);
        lu.l_row.extend_from_slice(&from.l_row[..l_end]);
        lu.l_val.extend_from_slice(&from.l_val[..l_end]);
        lu.u_start.extend_from_slice(&from.u_start[1..=shared]);
        lu.u_pos.extend_from_slice(&from.u_pos[..u_end]);
        lu.u_val.extend_from_slice(&from.u_val[..u_end]);
        lu.u_diag.extend_from_slice(&from.u_diag[..shared]);
        lu.pivot_row.extend_from_slice(&from.pivot_row[..shared]);
        let mut dense = DenseOrder::new(n);
        for (k, &r) in lu.pivot_row.iter().enumerate() {
            lu.position[r] = k;
            dense.pivot(k, r);
        }
        (lu, dense)
    }

    /// The one elimination. Starts after the first `resume.1` steps of
    /// `resume.0` (from scratch without one) and eliminates `cols`,
    /// which hold the columns after those steps, under `pivoting`.
    fn eliminate(
        n: usize,
        resume: Option<(&SparseLu, usize)>,
        cols: Columns<'_>,
        pivoting: Pivoting,
    ) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let shared = resume.map_or(0, |(_, shared)| shared);
        if cols.len() + shared != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, n),
                found: (n, cols.len() + shared),
            });
        }
        // The dense row order is tracked for the dense rule, and for the
        // engine's rule while it still agrees with the dense one.
        let (mut lu, dense) = match resume {
            Some((from, shared)) => SparseLu::prefix_of(from, shared),
            // Room for as many entries in each of `L` and `U` as the
            // columns hold; fill past that grows the buffers.
            None => {
                let nnz = cols.entries.len();
                (SparseLu::with_capacity(n, nnz, nnz), DenseOrder::new(n))
            }
        };
        let mut dense = Some(dense);
        let mut work = vec![0.0f64; n];
        let mut pattern = Pattern {
            seen: vec![usize::MAX; n],
            touched: Vec::with_capacity(64),
            pivoted: vec![0; n.div_ceil(64)],
        };

        for j in shared..n {
            for &(r, v) in cols.col(j - shared) {
                if r >= n {
                    return Err(LinalgError::IndexOutOfRange {
                        row: r,
                        col: j,
                        rows: n,
                        cols: n,
                    });
                }
                if let Some(k) = pattern.mark(j, r, &lu.position) {
                    mark(&mut pattern.pivoted, k);
                }
                work[r] += v;
            }
            // Left-looking elimination: apply every earlier column whose
            // pivot row holds a nonzero, lowest position first. An
            // update only marks positions above the one applying it, so
            // scanning the current word from a copy in a register, which
            // takes the marks that fall in it, keeps the order (and
            // spares each mark a wait on the store before it).
            for w in 0..j.div_ceil(64) {
                let mut word = std::mem::take(&mut pattern.pivoted[w]);
                while word != 0 {
                    let k = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let prow = lu.pivot_row[k];
                    let ukj = work[prow];
                    work[prow] = 0.0;
                    if ukj == 0.0 {
                        continue;
                    }
                    for p in lu.l_start[k]..lu.l_start[k + 1] {
                        let r = lu.l_row[p];
                        match pattern.mark(j, r, &lu.position) {
                            Some(q) if q / 64 == w => word |= 1 << (q % 64),
                            Some(q) => mark(&mut pattern.pivoted, q),
                            None => {}
                        }
                        work[r] -= lu.l_val[p] * ukj;
                    }
                    lu.u_pos.push(k);
                    lu.u_val.push(ukj);
                }
            }
            // Partial pivoting among rows not yet assigned a position:
            // the first row of largest magnitude and, while the dense
            // order is tracked, the one of those the dense rule takes.
            let mut first: Option<(usize, f64)> = None;
            let mut tied = usize::MAX;
            for &r in &pattern.touched {
                let mag = work[r].abs();
                let larger = match first {
                    None => mag > 0.0,
                    Some((_, best)) => mag > best,
                };
                if larger {
                    first = Some((r, mag));
                    tied = r;
                } else if first.is_some_and(|(_, best)| mag == best)
                    && dense.as_ref().is_some_and(|d| d.pos[r] < d.pos[tied])
                {
                    tied = r;
                }
            }
            let Some((first_row, pmag)) = first else {
                return Err(LinalgError::Singular { pivot: j });
            };
            if pmag < PIVOT_TOL {
                return Err(LinalgError::Singular { pivot: j });
            }
            let prow = match pivoting {
                Pivoting::FirstMax => first_row,
                Pivoting::Dense => tied,
            };
            if let Some(order) = &mut dense {
                if tied == prow {
                    order.pivot(j, prow);
                } else {
                    lu.dense_prefix = j;
                    dense = None;
                }
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
        lu.l_pos = lu.l_row.iter().map(|&r| lu.position[r]).collect();
        if pivoting == Pivoting::Dense {
            // The dense kernel's transposed solve sums each column of
            // `L` by final row position.
            let mut entries: Vec<(usize, usize, f64)> = Vec::new();
            for k in 0..n {
                let range = lu.l_start[k]..lu.l_start[k + 1];
                entries.clear();
                entries.extend(
                    range
                        .clone()
                        .map(|p| (lu.l_pos[p], lu.l_row[p], lu.l_val[p])),
                );
                entries.sort_unstable_by_key(|&(pos, _, _)| pos);
                for (p, (pos, r, v)) in range.zip(entries.iter().copied()) {
                    lu.l_pos[p] = pos;
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

    fn check_len(&self, v: &[f64]) -> Result<(), LinalgError> {
        if v.len() == self.n {
            return Ok(());
        }
        Err(LinalgError::DimensionMismatch {
            expected: (self.n, 1),
            found: (v.len(), 1),
        })
    }

    /// Solves `A x = b`. A wrapper over [`SparseLu::solve_in_place`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, &mut vec![0.0; self.n])?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the
    /// solution on return. `work` is scratch of the same length, its
    /// contents ignored and overwritten. Allocates nothing.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x` or `work` is not
    /// `self.dim()` long.
    pub fn solve_in_place(&self, x: &mut [f64], work: &mut [f64]) -> Result<(), LinalgError> {
        self.check_len(x)?;
        self.check_len(work)?;
        let n = self.n;
        // Forward: L z = P b, in original-row coordinates.
        for k in 0..n {
            let zk = x[self.pivot_row[k]];
            if zk == 0.0 {
                continue;
            }
            for p in self.l_start[k]..self.l_start[k + 1] {
                x[self.l_row[p]] -= self.l_val[p] * zk;
            }
        }
        // Backward: U x = z, reading z through the pivot order.
        for (zk, &r) in work.iter_mut().zip(&self.pivot_row) {
            *zk = x[r];
        }
        for j in (0..n).rev() {
            let xj = work[j] / self.u_diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for p in self.u_start[j]..self.u_start[j + 1] {
                work[self.u_pos[p]] -= self.u_val[p] * xj;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` in place for a sparse `b`, visiting only the
    /// positions the solve reaches from `b`'s rows: the reached-set
    /// solve of Gilbert & Peierls (1988), with the reach found as it
    /// goes. `rows` names every row where `b` may be nonzero (any
    /// order, repeats allowed), and `x` must be zero at every other row.
    ///
    /// On return `x` holds the solution and `reach` flags every position
    /// where it is nonzero ([`Reach::drain_nonzeros`] lists them). Each
    /// nonzero is bitwise [`SparseLu::solve_in_place`]'s answer, and
    /// every other entry is zero: the forward sweep applies column `k`
    /// of `L` to the positions it reaches, lowest first, exactly when
    /// the in-place solve would (`z_k ≠ 0`), and the backward sweep
    /// applies column `j` of `U`, highest first, exactly when `x_j ≠ 0`,
    /// so each entry gets the in-place solve's operations in its order.
    /// A position neither sweep reaches is zero in both solves; only the
    /// sign of such a zero may differ, as the in-place solve divides it
    /// by the position's pivot.
    ///
    /// The forward sweep queues positions as one byte each in `reach`
    /// and scans them eight at a time, lowest first, as the elimination
    /// reads its pattern: an update only queues positions after the one
    /// applying it, so the scan keeps the order. It moves each `z_k ≠ 0`
    /// into `reach`'s own accumulator, which every solve leaves zero.
    /// The backward sweep then reads that accumulator down from the
    /// last position the forward sweep left nonzero, dividing only at
    /// the nonzeros. It queues nothing: its `U` updates are most of a
    /// solve's work (a simplex basis's `U` carries the fill of its dense
    /// rows), and a queue mark per update cost more than the scan it
    /// saves. The cost is the stored entries of the columns applied, a
    /// byte scan of `n / 8` words and one compare per position below
    /// the last the forward sweep reached; the in-place solve also
    /// gathers and divides at all `n` positions and tests all `n` of
    /// the forward sweep.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x` is not `self.dim()`
    /// long; [`LinalgError::IndexOutOfRange`] for a row `≥ self.dim()`.
    pub fn solve_reached(
        &self,
        x: &mut [f64],
        rows: impl IntoIterator<Item = usize>,
        reach: &mut Reach,
    ) -> Result<(), LinalgError> {
        self.check_len(x)?;
        let n = self.n;
        reach.size(n);
        let Reach { flags, acc } = reach;
        for r in rows {
            if r >= n {
                flags.fill(0);
                return Err(LinalgError::IndexOutOfRange {
                    row: r,
                    col: 0,
                    rows: n,
                    cols: 1,
                });
            }
            flags[self.position[r]] = 1;
        }
        // Forward: L z = P b. Row `pivot_row[k]` is final once position
        // `k` is reached (later columns only touch later positions), so
        // its `z_k` moves to the accumulator and the row is cleared for
        // the answer. Behind the scan, a flag queues `k` for the
        // backward sweep.
        let mut last = None;
        for w in 0..n.div_ceil(8) {
            let mut word = flag_word(flags, w);
            while word != 0 {
                let b = word.trailing_zeros() as usize / 8;
                word &= !(0xff << (8 * b));
                let k = 8 * w + b;
                let r = self.pivot_row[k];
                let zk = x[r];
                x[r] = 0.0;
                flags[k] = 0;
                if zk == 0.0 {
                    continue;
                }
                acc[k] = zk;
                last = Some(k);
                let col = self.l_start[k]..self.l_start[k + 1];
                let l_col = self.l_row[col.clone()].iter().zip(&self.l_pos[col.clone()]);
                for ((&r, &i), &l) in l_col.zip(&self.l_val[col]) {
                    x[r] -= l * zk;
                    queue(flags, &mut word, w, i);
                }
            }
        }
        // Backward: U x = z, down from the last position the forward
        // sweep left nonzero (`U` only reaches earlier ones). A position
        // whose sum is zero is skipped, as the in-place solve skips its
        // zero `x_j`; a flag now marks a nonzero of the answer.
        let Some(last) = last else {
            return Ok(());
        };
        for j in (0..=last).rev() {
            let a = acc[j];
            if a == 0.0 {
                continue;
            }
            acc[j] = 0.0;
            let xj = a / self.u_diag[j];
            if xj == 0.0 {
                continue;
            }
            x[j] = xj;
            flags[j] = 1;
            let col = self.u_start[j]..self.u_start[j + 1];
            for (&i, &u) in self.u_pos[col.clone()].iter().zip(&self.u_val[col]) {
                acc[i] -= u * xj;
            }
        }
        Ok(())
    }

    /// Solves `Aᵀ x = b`. A wrapper over
    /// [`SparseLu::solve_transpose_in_place`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        let mut x = b.to_vec();
        self.solve_transpose_in_place(&mut x, &mut vec![0.0; self.n])?;
        Ok(x)
    }

    /// Solves `Aᵀ x = b` in place, as [`SparseLu::solve_in_place`]
    /// does `A x = b`. Allocates nothing.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x` or `work` is not
    /// `self.dim()` long.
    pub fn solve_transpose_in_place(
        &self,
        x: &mut [f64],
        work: &mut [f64],
    ) -> Result<(), LinalgError> {
        self.check_len(x)?;
        self.check_len(work)?;
        self.transpose_sweeps(x, work, false);
        Ok(())
    }

    /// Solves `Aᵀ x = b` into `x`, bitwise as
    /// [`SparseLu::solve_transpose_in_place`] does, re-running only what
    /// changed since the last solve `cache` saw.
    ///
    /// The cache holds the last input `b` and, per elimination position,
    /// the results of the forward sweep (`Uᵀ w = b`) and of the backward
    /// sweep (`Lᵀ v = w`). An entry is a fixed sequence of float
    /// operations on its own input and on the entries it reads, so if
    /// none of those changed bits, neither did it. The forward sweep
    /// re-runs entry `j` when `b_j` changed bits or a `w_k` that column
    /// `j` of `U` reads did, lowest position first; the backward sweep
    /// re-runs entry `k` when `w_k` changed bits or a `v_q` that column
    /// `k` of `L` reads did, highest first. A re-run entry does the
    /// in-place solve's sum over the same stored entries in the same
    /// order, and an entry whose result keeps its bits wakes no reader.
    /// The first solve on a factor runs every entry, in the in-place
    /// solve's loops. A cache last used with another factor (a
    /// refactorization, say) starts over the same way, so a cache never
    /// needs resetting. Who reads each position comes from a reverse
    /// index of `U` and `L`, which the first solve on a factor builds
    /// as it reads their entries.
    ///
    /// `moved` names the positions where `b` may differ from the last
    /// input (any order, repeats allowed): only those are compared, and
    /// `b` must keep the last input's bits everywhere else. `None`
    /// compares every position. The first solve on a factor reads all of
    /// `b` whatever `moved` says.
    ///
    /// `x` holds an earlier answer on entry, and the solve writes only
    /// the entries whose bits differ from it; [`TransposeCache::changed`]
    /// names them. The first solve on a factor compares every entry with
    /// what `x` holds, so `x` may be any vector then, the last answer on
    /// another factor say. After that `x` must hold the answer of the
    /// cache's last solve: an entry that does not re-run is not read.
    ///
    /// The first solve on a factor costs what the in-place solve does,
    /// plus a store per stored entry for the index. After that the cost
    /// is the `moved` positions, the stored entries of the
    /// columns that re-run, and a scan of three bitsets of `n / 64`
    /// words. The cache's buffers keep their capacity, so only a factor
    /// with more entries than any before it makes the solve allocate.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b` or `x` is not
    /// `self.dim()` long; [`LinalgError::IndexOutOfRange`] for a moved
    /// position `≥ self.dim()`, after which the cache starts over.
    pub fn solve_transpose_cached(
        &self,
        b: &[f64],
        moved: Option<&[usize]>,
        x: &mut [f64],
        cache: &mut TransposeCache,
    ) -> Result<(), LinalgError> {
        self.check_len(b)?;
        self.check_len(x)?;
        let n = self.n;
        let full = cache.factor != self.id;
        if full {
            cache.reset(self);
        }
        let words = n.div_ceil(64);
        let TransposeCache {
            last,
            head,
            links,
            marks,
            ..
        } = cache;
        let (forward, rest) = marks.split_at_mut(words);
        let (backward, changed) = rest.split_at_mut(words);
        changed.fill(0);
        if full {
            // Both sweeps of the in-place solve, keeping every result,
            // and putting each entry they read at the front of its
            // position's reader list: the reverse index, at the cost of
            // a store beside each product. Stored entry `p` of `U` is
            // link `p`, of `L` link `nnz(U) + p`.
            let (u_links, l_links) = links.split_at_mut(self.u_pos.len());
            for j in 0..n {
                let mut acc = b[j];
                for p in self.u_start[j]..self.u_start[j + 1] {
                    let k = self.u_pos[p];
                    acc -= self.u_val[p] * last[k][1];
                    u_links[p] = (j as u32, head[k]);
                    head[k] = p as u32;
                }
                last[j] = [b[j], acc / self.u_diag[j], 0.0];
            }
            let offset = self.u_pos.len();
            for k in (0..n).rev() {
                let mut acc = last[k][1];
                for p in self.l_start[k]..self.l_start[k + 1] {
                    let q = self.l_pos[p];
                    acc -= self.l_val[p] * last[q][2];
                    l_links[p] = (k as u32, head[n + q]);
                    head[n + q] = (offset + p) as u32;
                }
                last[k][2] = acc;
                let r = self.pivot_row[k];
                if acc.to_bits() != x[r].to_bits() {
                    x[r] = acc;
                    mark(changed, r);
                }
            }
            return Ok(());
        }
        match moved {
            Some(moved) => {
                for &j in moved {
                    let Some(last) = last.get_mut(j) else {
                        forward.fill(0);
                        cache.factor = 0;
                        return Err(LinalgError::IndexOutOfRange {
                            row: j,
                            col: 0,
                            rows: n,
                            cols: 1,
                        });
                    };
                    if b[j].to_bits() != last[0].to_bits() {
                        last[0] = b[j];
                        mark(forward, j);
                    }
                }
            }
            None => {
                for (j, (&b, last)) in b.iter().zip(last.iter_mut()).enumerate() {
                    if b.to_bits() != last[0].to_bits() {
                        last[0] = b;
                        mark(forward, j);
                    }
                }
            }
        }
        // Forward: an update only wakes later positions, which the scan
        // reaches by rereading the current word.
        for w in 0..words {
            while forward[w] != 0 {
                let j = w * 64 + forward[w].trailing_zeros() as usize;
                forward[w] &= forward[w] - 1;
                let mut acc = last[j][0];
                for p in self.u_start[j]..self.u_start[j + 1] {
                    acc -= self.u_val[p] * last[self.u_pos[p]][1];
                }
                let wj = acc / self.u_diag[j];
                if wj.to_bits() != last[j][1].to_bits() {
                    last[j][1] = wj;
                    mark(backward, j);
                    for r in readers(head, links, j) {
                        mark(forward, r);
                    }
                }
            }
        }
        // Backward: an update only wakes earlier positions, which the
        // scan reaches the same way, highest bit first. An entry whose
        // bits change is written to the answer.
        for w in (0..words).rev() {
            while backward[w] != 0 {
                let bit = 63 - backward[w].leading_zeros() as usize;
                backward[w] &= !(1 << bit);
                let k = w * 64 + bit;
                let mut acc = last[k][1];
                for p in self.l_start[k]..self.l_start[k + 1] {
                    acc -= self.l_val[p] * last[self.l_pos[p]][2];
                }
                if acc.to_bits() != last[k][2].to_bits() {
                    last[k][2] = acc;
                    let r = self.pivot_row[k];
                    x[r] = acc;
                    mark(changed, r);
                    for r in readers(head, links, n + k) {
                        mark(backward, r);
                    }
                }
            }
        }
        Ok(())
    }

    /// `Aᵀ = Uᵀ Lᵀ P`: a forward sweep `Uᵀ w = b` over the columns of
    /// `U`, a backward sweep `Lᵀ v = w` in position space (the entries
    /// of `L`'s column `k` sit at strictly later positions), then
    /// `x = Pᵀ v`. Each sum runs over a column's stored entries in
    /// storage order. `x` holds `b` on entry and the answer on return;
    /// `w` is scratch.
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
    fn transpose_sweeps(&self, x: &mut [f64], w: &mut [f64], dense_zeros: bool) {
        let n = self.n;
        let neg_zero = |v: f64| dense_zeros && v == 0.0 && v.is_sign_negative();
        // Forward, counting the earlier entries of w whose sign bit is
        // set.
        let mut negative = 0;
        for j in 0..n {
            let range = self.u_start[j]..self.u_start[j + 1];
            let mut acc = x[j];
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
                acc -= self.l_val[p] * w[self.l_pos[p]];
            }
            if neg_zero(acc) {
                let pivot_negative = self.u_diag[k].is_sign_negative();
                let differing = if pivot_negative {
                    n - 1 - k - negative
                } else {
                    negative
                };
                let stored = range
                    .filter(|&p| w[self.l_pos[p]].is_sign_negative() != pivot_negative)
                    .count();
                if differing > stored {
                    acc = 0.0;
                }
            }
            w[k] = acc;
            negative += usize::from(acc.is_sign_negative());
        }
        for (k, &r) in self.pivot_row.iter().enumerate() {
            x[r] = w[k];
        }
    }
}

/// What [`SparseLu::solve_transpose_cached`] keeps between solves: the
/// last input and both sweeps' results, the reverse index of the factor
/// they belong to, and which entries of the last answer changed bits.
/// One cache serves one sequence of solves; it allocates on its first
/// solve and keeps its buffers after that.
#[derive(Debug, Clone, Default)]
pub struct TransposeCache {
    /// The id of the factor the state belongs to; 0 before any solve.
    factor: u64,
    /// Per elimination position `j`: the last input `b_j`, the forward
    /// result `w_j` and the backward result `v_j`.
    last: Vec<[f64; 3]>,
    /// Who reads each position, as lists: for `k < n`, the list from
    /// `head[k]` holds the columns of `U` holding position `k`; for
    /// `k = n + q`, the columns of `L` holding position `q`. Link `p` is
    /// `links[p] = (column, next link)`, [`NO_LINK`] ending a list.
    head: Vec<u32>,
    links: Vec<(u32, u32)>,
    /// Three bitsets of `n.div_ceil(64)` words: the positions the
    /// forward sweep must re-run, those the backward sweep must re-run,
    /// and the entries of the last answer that changed bits.
    marks: Vec<u64>,
}

impl TransposeCache {
    /// An empty cache; its first solve runs in full.
    pub fn new() -> TransposeCache {
        TransposeCache::default()
    }

    /// The entries of `x` whose bits the last solve changed, in
    /// increasing order.
    pub fn changed(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.last.len().div_ceil(64);
        ones(&self.marks[2 * words..])
    }

    /// Sizes the state for `lu`, whose first solve runs in full and
    /// indexes it.
    fn reset(&mut self, lu: &SparseLu) {
        assert!(
            lu.n.max(lu.u_pos.len() + lu.l_pos.len()) < NO_LINK as usize,
            "a reader list numbers columns and links in 32 bits"
        );
        self.factor = lu.id;
        self.last.resize(lu.n, [0.0; 3]);
        self.head.clear();
        self.head.resize(2 * lu.n, NO_LINK);
        self.links.clear();
        self.links
            .resize(lu.u_pos.len() + lu.l_pos.len(), (NO_LINK, NO_LINK));
        self.marks.clear();
        self.marks.resize(3 * lu.n.div_ceil(64), 0);
    }
}

/// Ends a reader list of a [`TransposeCache`].
const NO_LINK: u32 = u32::MAX;

/// The columns on the reader list of position `k` (see
/// [`TransposeCache`]'s `head`).
fn readers<'a>(
    head: &[u32],
    links: &'a [(u32, u32)],
    k: usize,
) -> impl Iterator<Item = usize> + 'a {
    let mut link = head[k];
    std::iter::from_fn(move || {
        let (column, next) = *links.get(link as usize)?;
        link = next;
        Some(column as usize)
    })
}

/// The positions a [`SparseLu::solve_reached`] reached, one byte each,
/// and the accumulator of its backward sweep. Between solves the
/// accumulator is zero and a flag marks a nonzero of the last answer;
/// a caller that updates the answer further flags what it writes
/// ([`Reach::mark`]) and lists the nonzeros with
/// [`Reach::drain_nonzeros`], which clears the flags for the next
/// solve. One serves any sequence of solves; it grows to the largest
/// dimension it has seen and keeps its buffers.
#[derive(Debug, Clone, Default)]
pub struct Reach {
    /// One byte per position, rounded up to whole 8-byte words.
    flags: Vec<u8>,
    acc: Vec<f64>,
}

impl Reach {
    /// An empty reach.
    pub fn new() -> Reach {
        Reach::default()
    }

    /// Room for `n` positions, the new ones unflagged and zero.
    fn size(&mut self, n: usize) {
        if self.acc.len() < n {
            self.flags.resize(n.div_ceil(8) * 8, 0);
            self.acc.resize(n, 0.0);
        }
    }

    /// Flags position `i` of the answer, which must be below the last
    /// solve's dimension.
    pub fn mark(&mut self, i: usize) {
        self.flags[i] = 1;
    }

    /// Appends to `out` the flagged positions where `x` is nonzero, in
    /// increasing order, and clears every flag.
    pub fn drain_nonzeros(&mut self, x: &[f64], out: &mut Vec<usize>) {
        for w in 0..x.len().div_ceil(8) {
            let mut word = flag_word(&self.flags, w);
            if word == 0 {
                continue;
            }
            self.flags[8 * w..8 * w + 8].fill(0);
            while word != 0 {
                let b = word.trailing_zeros() as usize / 8;
                word &= !(0xff << (8 * b));
                if x[8 * w + b] != 0.0 {
                    out.push(8 * w + b);
                }
            }
        }
    }
}

/// The flags of 8-byte word `w` as one integer, flag `b` of the word in
/// byte `b`. A sweep scans a word from a copy in a register: rereading
/// it after a one-byte store would wait on the store.
fn flag_word(flags: &[u8], w: usize) -> u64 {
    let bytes: [u8; 8] = flags[8 * w..8 * w + 8]
        .try_into()
        .expect("flags come in whole words");
    u64::from_le_bytes(bytes)
}

/// Flags position `i` for the sweep scanning word `w` from `word`:
/// stored, and added to `word` too when it falls in that word. A plain
/// store, so a run of updates never waits on the one before it.
fn queue(flags: &mut [u8], word: &mut u64, w: usize, i: usize) {
    flags[i] = 1;
    *word |= u64::from(i / 8 == w) << (8 * (i % 8));
}

/// Sets bit `i` of a bitset.
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// The set bits of a bitset, in increasing order.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&b| {
            let rest = b & (b - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

/// Solves `Bᵀ x = b` for the `n × n` matrix `B` whose `j`-th column
/// holds the sparse entries `cols[j]` (any order, no duplicates), bit
/// for bit as `Lu::factor(&B)?.solve_transpose(b)` on the dense `B`.
/// The resume of [`solve_transpose_resumed`] after an empty prefix.
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
    let (start, entries) = flatten(cols);
    solve_transpose_resumed(n, None, Columns::new(&start, &entries), b)
}

/// [`solve_transpose_cols`]'s dense-rule solve of `Bᵀ x = b`, resumed
/// after a prefix of an existing factor of `B`: with
/// `Some((lu, shared))`, `B`'s first `shared` columns are the ones `lu`
/// factored and are not read again, and `tail` holds columns
/// `shared..n`; with `None`, `tail` holds all `n`. The answer, error
/// included, is bitwise the one [`solve_transpose_cols`] gives on all
/// `n` columns, because the dense rule's first `shared` elimination
/// steps are, entry for entry, `lu`'s own. With `shared == n` no
/// elimination runs at all.
///
/// # Panics
///
/// Panics if `shared` exceeds `lu.dense_prefix()`.
///
/// # Errors
///
/// As [`solve_transpose_cols`]; [`LinalgError::DimensionMismatch`] also
/// when `lu.dim() != n`.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::{solve_transpose_cols, solve_transpose_resumed, Columns, SparseLu};
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// let cols = vec![vec![(0, 2.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]];
/// let lu = SparseLu::factor_cols(2, &cols)?;
/// assert_eq!(lu.dense_prefix(), 2);
/// let b = [1.0, -2.0];
/// let x = solve_transpose_resumed(2, Some((&lu, 2)), Columns::new(&[0], &[]), &b)?;
/// let want = solve_transpose_cols(2, &cols, &b)?;
/// assert_eq!(x[0].to_bits(), want[0].to_bits());
/// assert_eq!(x[1].to_bits(), want[1].to_bits());
/// # Ok(())
/// # }
/// ```
pub fn solve_transpose_resumed(
    n: usize,
    resume: Option<(&SparseLu, usize)>,
    tail: Columns<'_>,
    b: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    if let Some((lu, shared)) = resume {
        assert!(
            shared <= lu.dense_prefix,
            "a dense-rule elimination resumes only inside the agreeing prefix"
        );
        if lu.n != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, n),
                found: (lu.n, lu.n),
            });
        }
    }
    let lu = SparseLu::eliminate(n, resume, tail, Pivoting::Dense)?;
    lu.check_len(b)?;
    let mut x = b.to_vec();
    lu.transpose_sweeps(&mut x, &mut vec![0.0; n], true);
    Ok(x)
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
    fn the_rules_disagree_on_a_tie_and_resume_from_the_shared_prefix() {
        // Column 0 pivots row 2 under both rules, which moves row 0 to
        // the dense kernel's position 2. Column 1 then ties rows 0 and
        // 1: the engine takes row 0, touched first, and the dense rule
        // row 1, now at the lower position.
        let cols = vec![
            vec![(2, 3.0)],
            vec![(0, 1.0), (1, -1.0)],
            vec![(0, 1.0), (1, 2.0), (2, 1.0)],
        ];
        let lu = SparseLu::factor_cols(3, &cols).unwrap();
        assert_eq!(lu.dense_prefix(), 1);
        let dense =
            Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[0.0, -1.0, 2.0], &[3.0, 0.0, 1.0]]).unwrap();
        let b = [1.0, -0.0, 2.0];
        let want = Lu::factor(&dense).unwrap().solve_transpose(&b).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&solve_transpose_cols(3, &cols, &b).unwrap()),
            bits(&want)
        );
        for shared in 0..=1 {
            let (start, entries) = flatten(&cols[shared..]);
            let tail = Columns::new(&start, &entries);
            let got = solve_transpose_resumed(3, Some((&lu, shared)), tail, &b).unwrap();
            assert_eq!(bits(&got), bits(&want), "shared {shared}");
        }
    }

    /// A column-diagonally-dominant `n × n` matrix with fill: column
    /// `j` holds `diag` at row `j` and smaller entries at rows `j + 1`,
    /// `j + 7` and `3j + 2` (mod `n`).
    fn banded(n: usize, diag: f64) -> Vec<Vec<(usize, f64)>> {
        (0..n)
            .map(|j| {
                let mut col = vec![(j, diag)];
                for (r, v) in [
                    ((j + 1) % n, -1.0),
                    ((j + 7) % n, 0.5),
                    ((3 * j + 2) % n, 0.25),
                ] {
                    if col.iter().all(|&(q, _)| q != r) {
                        col.push((r, v));
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn cached_transpose_solves_are_bitwise_the_in_place_ones() {
        let n = 70; // two bitset words
        let lus = [
            SparseLu::factor_cols(n, &banded(n, 4.0)).unwrap(),
            SparseLu::factor_cols(n, &banded(n, 3.0)).unwrap(),
        ];
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // (factor, edits to the input before the solve): no change, a
        // zero of either sign, a sign flip of zero, a refactorization
        // and a return to the first factor.
        let steps: [(usize, &[(usize, f64)]); 9] = [
            (0, &[]),
            (0, &[(5, 2.0)]),
            (0, &[]),
            (0, &[(3, -0.0), (66, 0.0)]),
            (0, &[(3, 0.0)]),
            (0, &[(0, 7.0), (69, -1.5), (40, 1e-300)]),
            (1, &[]),
            (1, &[(69, -3.5)]),
            (0, &[]),
        ];
        let mut cache = TransposeCache::new();
        let mut b = vec![1.0; n];
        // The answer persists between solves, each writing only the
        // entries whose bits change.
        let mut got = vec![f64::NAN; n];
        let mut previous = got.clone();
        for (step, &(f, edits)) in steps.iter().enumerate() {
            for &(i, v) in edits {
                b[i] = v;
            }
            let mut want = b.clone();
            lus[f]
                .solve_transpose_in_place(&mut want, &mut vec![0.0; n])
                .unwrap();
            // Name the edited positions (a full solve ignores them),
            // every other one too.
            let moved: Vec<usize> = edits.iter().map(|&(i, _)| i).collect();
            let moved = (step % 3 != 2).then_some(&moved[..]);
            lus[f]
                .solve_transpose_cached(&b, moved, &mut got, &mut cache)
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "step {step}");
            // Whether the factor is new or not, the changed entries are
            // those whose bits differ from the answer before.
            let moved: Vec<usize> = (0..n)
                .filter(|&i| got[i].to_bits() != previous[i].to_bits())
                .collect();
            assert_eq!(cache.changed().collect::<Vec<_>>(), moved, "step {step}");
            previous.clone_from(&got);
        }
        assert!(
            lus[0]
                .solve_transpose_cached(&b, Some(&[n]), &mut got, &mut cache)
                .is_err(),
            "a moved position out of range"
        );
        // The cache starts over: the next solve reads all of `b`, even a
        // position no list names.
        b[1] = -2.0;
        let mut want = b.clone();
        lus[0]
            .solve_transpose_in_place(&mut want, &mut vec![0.0; n])
            .unwrap();
        lus[0]
            .solve_transpose_cached(&b, Some(&[]), &mut got, &mut cache)
            .unwrap();
        assert_eq!(bits(&got), bits(&want), "an error starts the cache over");
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

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `A x = b` as the factor solved it with a fresh `Vec` per call,
    /// kept as the oracle of the buffer-writing solve.
    fn allocating_solve(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.n;
        let mut z = b.to_vec();
        for k in 0..n {
            let zk = z[lu.pivot_row[k]];
            if zk == 0.0 {
                continue;
            }
            for p in lu.l_start[k]..lu.l_start[k + 1] {
                z[lu.l_row[p]] -= lu.l_val[p] * zk;
            }
        }
        let mut zpos: Vec<f64> = lu.pivot_row.iter().map(|&r| z[r]).collect();
        let mut x = vec![0.0; n];
        for j in (0..n).rev() {
            let xj = zpos[j] / lu.u_diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for p in lu.u_start[j]..lu.u_start[j + 1] {
                zpos[lu.u_pos[p]] -= lu.u_val[p] * xj;
            }
        }
        x
    }

    /// `Aᵀ x = b` as the factor solved it with a fresh `Vec` per call,
    /// reading each `L` entry's position through `position`.
    fn allocating_solve_transpose(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.n;
        let mut w = vec![0.0; n];
        for j in 0..n {
            let mut acc = b[j];
            for p in lu.u_start[j]..lu.u_start[j + 1] {
                acc -= lu.u_val[p] * w[lu.u_pos[p]];
            }
            w[j] = acc / lu.u_diag[j];
        }
        for k in (0..n).rev() {
            let mut acc = w[k];
            for p in lu.l_start[k]..lu.l_start[k + 1] {
                acc -= lu.l_val[p] * w[lu.position[lu.l_row[p]]];
            }
            w[k] = acc;
        }
        let mut x = vec![0.0; n];
        for (k, &r) in lu.pivot_row.iter().enumerate() {
            x[r] = w[k];
        }
        x
    }

    /// The buffer-writing solves against the allocating oracles and the
    /// wrappers, bit for bit, with junk in the scratch buffer.
    fn check_buffer_solves(a: &Matrix, b: &[f64]) {
        let Ok(lu) = SparseLu::factor_cols(a.rows(), &cols_of(a)) else {
            return;
        };
        let junk = || vec![f64::NAN; a.rows()];
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x, &mut junk()).unwrap();
        prop_assert_eq!(bits(&x), bits(&allocating_solve(&lu, b)));
        prop_assert_eq!(bits(&x), bits(&lu.solve(b).unwrap()));
        let mut x = b.to_vec();
        lu.solve_transpose_in_place(&mut x, &mut junk()).unwrap();
        prop_assert_eq!(bits(&x), bits(&allocating_solve_transpose(&lu, b)));
        prop_assert_eq!(bits(&x), bits(&lu.solve_transpose(b).unwrap()));
    }

    /// Two reached-set solves through one [`Reach`], against the
    /// in-place solve with NaN-filled scratch: `b` keeps the entries
    /// whose `keep` is 0 (a quarter, on average) and zeroes the rest,
    /// and the rows passed name the kept entries twice and some zeros
    /// once. The second solve keeps what the first zeroed and starts
    /// from the reach the first left. Every nonzero of the in-place
    /// answer must come back bitwise, every other entry zero, and the
    /// reach must list exactly the nonzeros, ascending.
    fn check_reached(a: &Matrix, b: &[f64], keep: &[usize]) {
        let n = a.rows();
        let Ok(lu) = SparseLu::factor_cols(n, &cols_of(a)) else {
            return;
        };
        let mut reach = Reach::new();
        for kept in [0, 1] {
            let on = |i: usize| (keep[i] == 0) == (kept == 0);
            let sparse: Vec<f64> = (0..n).map(|i| if on(i) { b[i] } else { 0.0 }).collect();
            let rows = (0..n)
                .filter(|&i| on(i))
                .chain((0..n).filter(|&i| on(i) || keep[i] == 1));
            let mut want = sparse.clone();
            lu.solve_in_place(&mut want, &mut vec![f64::NAN; n])
                .unwrap();
            let mut got = sparse.clone();
            lu.solve_reached(&mut got, rows, &mut reach).unwrap();
            for i in 0..n {
                if want[i] == 0.0 {
                    prop_assert_eq!(got[i], 0.0, "entry {} of solve {}", i, kept);
                } else {
                    prop_assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "entry {} of solve {}",
                        i,
                        kept
                    );
                }
            }
            let mut nonzeros = Vec::new();
            reach.drain_nonzeros(&got, &mut nonzeros);
            let want_nonzeros: Vec<usize> = (0..n).filter(|&i| want[i] != 0.0).collect();
            prop_assert_eq!(nonzeros, want_nonzeros, "solve {}", kept);
        }
    }

    /// Every resume of the dense-rule solve from an agreeing prefix of
    /// the engine's factor against the solve from scratch, bit for bit,
    /// errors included.
    fn check_resumes(a: &Matrix, b: &[f64]) {
        let n = a.rows();
        let cols = cols_of(a);
        let Ok(lu) = SparseLu::factor_cols(n, &cols) else {
            return;
        };
        let want = solve_transpose_cols(n, &cols, b);
        for shared in 0..=lu.dense_prefix() {
            let (start, entries) = flatten(&cols[shared..]);
            let got =
                solve_transpose_resumed(n, Some((&lu, shared)), Columns::new(&start, &entries), b);
            match (&got, &want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(bits(got), bits(want), "shared {}", shared),
                _ => prop_assert_eq!(got.err(), want.clone().err(), "shared {}", shared),
            }
        }
    }

    /// A sequence of cached transposed solves, the input edited between
    /// them (`b[i mod n] = RHS[v]` per `(i, v)`), against the in-place
    /// solve, bit for bit.
    fn check_cached(a: &Matrix, mut b: Vec<f64>, edits: &[(usize, usize)]) {
        let n = a.rows();
        let Ok(lu) = SparseLu::factor_cols(n, &cols_of(a)) else {
            return;
        };
        let mut cache = TransposeCache::new();
        let mut got = vec![f64::NAN; n];
        for step in 0..=edits.len() {
            if let Some(&(i, v)) = step.checked_sub(1).map(|e| &edits[e]) {
                b[i % n] = RHS[v];
            }
            let mut want = b.clone();
            lu.solve_transpose_in_place(&mut want, &mut vec![0.0; n])
                .unwrap();
            // Odd steps name the edited position, even ones compare all.
            let moved = step.checked_sub(1).map(|e| [edits[e].0 % n]);
            let moved = moved.as_ref().filter(|_| step % 2 == 1);
            lu.solve_transpose_cached(&b, moved.map(|m| &m[..]), &mut got, &mut cache)
                .unwrap();
            prop_assert_eq!(bits(&got), bits(&want), "step {}", step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn buffer_solves_are_bitwise_the_allocating_ones_on_ties((a, b) in tied_sparse_system()) {
            check_buffer_solves(&a, &b);
        }

        #[test]
        fn resumed_dense_solves_are_bitwise_from_scratch_on_ties((a, b) in tied_sparse_system()) {
            check_resumes(&a, &b);
        }

        #[test]
        fn reached_solves_are_bitwise_in_place_on_ties(
            (a, b) in tied_sparse_system(),
            keep in proptest::collection::vec(0usize..4, 12),
        ) {
            check_reached(&a, &b, &keep);
        }

        #[test]
        fn cached_transpose_solves_are_bitwise_in_place_on_ties(
            (a, b) in tied_sparse_system(),
            edits in proptest::collection::vec((0usize..12, 0usize..RHS.len()), 6),
        ) {
            check_cached(&a, b, &edits);
        }
    }

    proptest! {
        #[test]
        fn buffer_solves_are_bitwise_the_allocating_ones((a, x) in dd_sparse_system()) {
            check_buffer_solves(&a, &x);
        }

        #[test]
        fn resumed_dense_solves_are_bitwise_from_scratch((a, x) in dd_sparse_system()) {
            check_resumes(&a, &x);
        }

        #[test]
        fn reached_solves_are_bitwise_in_place(
            (a, x) in dd_sparse_system(),
            keep in proptest::collection::vec(0usize..4, 12),
        ) {
            check_reached(&a, &x, &keep);
        }

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

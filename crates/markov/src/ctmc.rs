use socbuf_linalg::{Csr, Lu, Matrix, Tridiag};

use crate::MarkovError;

/// A finite continuous-time Markov chain given by its generator matrix,
/// stored sparsely (CSR).
///
/// The generator `Q` has non-negative off-diagonal rates and rows summing
/// to zero (`q_ii = −Σ_{j≠i} q_ij`). Construction validates both
/// properties. Memory is `O(n + nnz)`, and [`Ctmc::stationary`] solves
/// tridiagonal generators — every birth–death queue block — with the
/// `O(n)` Thomas algorithm, falling back to a dense pivoted LU only for
/// general generators.
///
/// # Examples
///
/// ```
/// use socbuf_markov::Ctmc;
///
/// # fn main() -> Result<(), socbuf_markov::MarkovError> {
/// // Two-state chain: 0 → 1 at rate 2, 1 → 0 at rate 1.
/// let c = Ctmc::from_rates(2, &[(0, 1, 2.0), (1, 0, 1.0)])?;
/// let pi = c.stationary()?;
/// assert!((pi[0] - 1.0 / 3.0).abs() < 1e-12);
/// assert!((pi[1] - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    q: Csr,
}

const ROW_SUM_TOL: f64 = 1e-8;

impl Ctmc {
    /// Builds a chain from an explicit dense generator matrix. Use
    /// [`Ctmc::from_rates`] to stay `O(nnz)` end to end; this
    /// constructor exists for small, explicitly tabulated generators.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NegativeRate`] for negative off-diagonal entries.
    /// * [`MarkovError::BadGeneratorRow`] for rows not summing to zero.
    /// * [`MarkovError::Linalg`] if the matrix is not square or empty.
    pub fn from_generator(q: Matrix) -> Result<Self, MarkovError> {
        if !q.is_square() {
            return Err(MarkovError::Linalg(socbuf_linalg::LinalgError::NotSquare {
                rows: q.rows(),
                cols: q.cols(),
            }));
        }
        if q.rows() == 0 {
            return Err(MarkovError::Linalg(socbuf_linalg::LinalgError::Empty));
        }
        let n = q.rows();
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                let v = q[(i, j)];
                if i != j && v < 0.0 {
                    return Err(MarkovError::NegativeRate {
                        from: i,
                        to: j,
                        rate: v,
                    });
                }
                sum += v;
            }
            if sum.abs() > ROW_SUM_TOL * (1.0 + q.row(i).iter().map(|v| v.abs()).sum::<f64>()) {
                return Err(MarkovError::BadGeneratorRow { row: i, sum });
            }
        }
        Ok(Ctmc {
            q: Csr::from_dense(&q),
        })
    }

    /// Builds a chain on `n` states from sparse `(from, to, rate)`
    /// triples; the diagonal is filled in automatically. Duplicate
    /// triples accumulate. This is the `O(nnz)` construction path.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NegativeRate`] for a negative rate.
    /// * [`MarkovError::NonPositiveParameter`] if `n == 0` or an index is
    ///   out of range.
    pub fn from_rates(n: usize, rates: &[(usize, usize, f64)]) -> Result<Self, MarkovError> {
        if n == 0 {
            return Err(MarkovError::NonPositiveParameter {
                name: "n",
                value: 0.0,
            });
        }
        let mut exit = vec![0.0_f64; n];
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(rates.len() + n);
        for &(i, j, r) in rates {
            if i >= n || j >= n {
                return Err(MarkovError::NonPositiveParameter {
                    name: "state index",
                    value: i.max(j) as f64,
                });
            }
            if r < 0.0 {
                return Err(MarkovError::NegativeRate {
                    from: i,
                    to: j,
                    rate: r,
                });
            }
            if i != j {
                triplets.push((i, j, r));
                exit[i] += r;
            }
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                triplets.push((i, i, -e));
            }
        }
        let q = Csr::from_triplets(n, n, &triplets).expect("indices validated against n");
        Ok(Ctmc { q })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.q.rows()
    }

    /// The sparse generator matrix.
    pub fn generator(&self) -> &Csr {
        &self.q
    }

    /// The generator materialized densely (small kernels and tests).
    pub fn generator_dense(&self) -> Matrix {
        self.q.to_dense()
    }

    /// Transition rate from `i` to `j` (`i ≠ j`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.q.get(i, j)
    }

    /// Total exit rate of state `i` (`−q_ii`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn exit_rate(&self, i: usize) -> f64 {
        -self.q.get(i, i)
    }

    /// `true` if every state can reach every other through positive-rate
    /// transitions (strong connectivity of the rate graph). Runs two
    /// sparse reachability sweeps — `O(n + nnz)`.
    pub fn is_irreducible(&self) -> bool {
        let n = self.num_states();
        if n == 1 {
            return true;
        }
        let reach = |m: &Csr| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(i) = stack.pop() {
                for (j, r) in m.iter_row(i) {
                    if i != j && r > 0.0 && !seen[j] {
                        seen[j] = true;
                        count += 1;
                        stack.push(j);
                    }
                }
            }
            count
        };
        reach(&self.q) == n && reach(&self.q.transpose()) == n
    }

    /// Stationary distribution `π` with `π Q = 0`, `Σ π = 1`.
    ///
    /// Tridiagonal generators (birth–death chains) are solved with the
    /// `O(n)` Thomas algorithm; general generators fall back to
    /// [`Ctmc::stationary_dense`]. A Thomas breakdown (which a valid
    /// irreducible generator does not produce, but pathological scaling
    /// might) also falls back to the pivoted dense path.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::Reducible`] if the chain has no unique stationary
    ///   distribution.
    pub fn stationary(&self) -> Result<Vec<f64>, MarkovError> {
        if !self.is_irreducible() {
            return Err(MarkovError::Reducible);
        }
        if self.q.is_tridiagonal() {
            if let Some(pi) = self.stationary_tridiagonal() {
                return Ok(pi);
            }
        }
        self.stationary_dense_unchecked()
    }

    /// Stationary distribution computed through the dense LU path
    /// regardless of generator structure — the cross-check oracle for
    /// the sparse tridiagonal solver.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::Reducible`] if the chain has no unique stationary
    ///   distribution.
    pub fn stationary_dense(&self) -> Result<Vec<f64>, MarkovError> {
        if !self.is_irreducible() {
            return Err(MarkovError::Reducible);
        }
        self.stationary_dense_unchecked()
    }

    /// `π Qᵀ` system via the Thomas algorithm: replace the (redundant)
    /// balance equation of state 0 with `π_0 = 1`, solve the still
    /// tridiagonal system, then normalize. Returns `None` on a numerical
    /// breakdown so the caller can fall back to the pivoted dense path.
    fn stationary_tridiagonal(&self) -> Option<Vec<f64>> {
        let n = self.num_states();
        // Qᵀ has sub(i) = q_{i+1,i}ᵀ = q_{i,i+1}… spelled out: the
        // transpose swaps the generator's sub- and super-diagonals.
        let mut sub = vec![0.0; n.saturating_sub(1)];
        let mut diag = vec![0.0; n];
        let mut sup = vec![0.0; n.saturating_sub(1)];
        for i in 0..n {
            for (j, v) in self.q.iter_row(i) {
                if j == i {
                    diag[i] = v;
                } else if j == i + 1 {
                    // Q entry (i, i+1) lands in Qᵀ at (i+1, i): sub.
                    sub[i] = v;
                } else {
                    // Q entry (i, i-1) lands in Qᵀ at (i-1, i): sup.
                    sup[j] = v;
                }
            }
        }
        // Overwrite row 0 of Qᵀ with  π_0 = 1.
        diag[0] = 1.0;
        if n > 1 {
            sup[0] = 0.0;
        }
        let mut rhs = vec![0.0; n];
        rhs[0] = 1.0;
        let t = Tridiag::new(sub, diag, sup).ok()?;
        let mut pi = t.solve(&rhs).ok()?;
        normalize_stationary(&mut pi)?;
        Some(pi)
    }

    fn stationary_dense_unchecked(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        // Solve Qᵀ π = 0 with the last equation replaced by Σ π = 1.
        let mut a = self.q.to_dense().transpose();
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let lu = Lu::factor(&a)?;
        let mut pi = lu.solve(&b)?;
        match normalize_stationary(&mut pi) {
            Some(()) => Ok(pi),
            None => Err(MarkovError::Reducible),
        }
    }
}

/// Clamps numerical dust, rejects genuinely negative entries, and scales
/// to a probability distribution. Returns `None` if the vector is not a
/// (nonnegative, nonzero) measure.
fn normalize_stationary(pi: &mut [f64]) -> Option<()> {
    let scale = pi.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if scale <= 0.0 || !scale.is_finite() {
        return None;
    }
    // Dust threshold: the dense path arrives already normalized
    // (scale ≤ 1), where the historical absolute 1e-8 applies; the
    // Thomas path arrives unnormalized with π₀ = 1 (scale ≥ 1), where
    // the tolerance must grow with the solution's magnitude.
    let dust = -1e-8 * scale.max(1.0);
    let mut sum = 0.0;
    for p in pi.iter_mut() {
        if *p < 0.0 {
            if *p < dust {
                return None;
            }
            *p = 0.0;
        }
        sum += *p;
    }
    if sum <= 0.0 {
        return None;
    }
    for p in pi.iter_mut() {
        *p /= sum;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_stationary() {
        let c = Ctmc::from_rates(2, &[(0, 1, 3.0), (1, 0, 1.0)]).unwrap();
        let pi = c.stationary().unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-12);
        assert!((pi[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn validates_generator() {
        let bad = Matrix::from_rows(&[&[-1.0, 0.5], &[1.0, -1.0]]).unwrap();
        assert!(matches!(
            Ctmc::from_generator(bad),
            Err(MarkovError::BadGeneratorRow { row: 0, .. })
        ));
        let neg = Matrix::from_rows(&[&[1.0, -1.0], &[1.0, -1.0]]).unwrap();
        assert!(matches!(
            Ctmc::from_generator(neg),
            Err(MarkovError::NegativeRate { .. })
        ));
    }

    #[test]
    fn from_rates_accumulates_and_fills_diagonal() {
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(c.rate(0, 1), 3.0);
        assert_eq!(c.exit_rate(0), 3.0);
        assert_eq!(c.rate(0, 0), -3.0);
    }

    #[test]
    fn generator_is_sparse() {
        // A 100-state birth-death chain stores O(n) entries, not n².
        let n = 100usize;
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0));
            rates.push((i + 1, i, 2.0));
        }
        let c = Ctmc::from_rates(n, &rates).unwrap();
        assert!(c.generator().nnz() <= 3 * n);
        assert!(c.generator().is_tridiagonal());
        assert_eq!(c.generator_dense().rows(), n);
    }

    #[test]
    fn reducible_chain_is_detected() {
        // Two absorbing components.
        let c = Ctmc::from_rates(4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]).unwrap();
        assert!(!c.is_irreducible());
        assert!(matches!(c.stationary(), Err(MarkovError::Reducible)));
    }

    #[test]
    fn absorbing_state_is_reducible() {
        let c = Ctmc::from_rates(2, &[(0, 1, 1.0)]).unwrap();
        assert!(!c.is_irreducible());
    }

    #[test]
    fn tridiagonal_path_matches_dense_path() {
        // Birth-death chain: stationary() takes the Thomas route,
        // stationary_dense() the LU route; they must agree to 1e-12.
        let mut rates = Vec::new();
        let births = [1.0, 2.5, 0.7, 3.0, 1.1];
        let deaths = [2.0, 1.0, 3.0, 0.9, 2.2];
        for i in 0..5 {
            rates.push((i, i + 1, births[i]));
            rates.push((i + 1, i, deaths[i]));
        }
        let c = Ctmc::from_rates(6, &rates).unwrap();
        assert!(c.generator().is_tridiagonal());
        let fast = c.stationary().unwrap();
        let dense = c.stationary_dense().unwrap();
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-12, "{fast:?} vs {dense:?}");
        }
    }

    #[test]
    fn general_chain_uses_dense_fallback() {
        // A 3-cycle is not tridiagonal: 0→1→2→0.
        let c = Ctmc::from_rates(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        assert!(!c.generator().is_tridiagonal());
        let pi = c.stationary().unwrap();
        // π_i ∝ 1/exit_i for a cycle.
        let expect = [1.0 / 1.0, 1.0 / 2.0, 1.0 / 3.0];
        let z: f64 = expect.iter().sum();
        for (p, e) in pi.iter().zip(&expect) {
            assert!((p - e / z).abs() < 1e-12);
        }
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::from_rates(1, &[]).unwrap();
        assert!(c.is_irreducible());
        let pi = c.stationary().unwrap();
        assert_eq!(pi, vec![1.0]);
    }

    #[test]
    fn rejects_out_of_range_and_empty() {
        assert!(Ctmc::from_rates(0, &[]).is_err());
        assert!(Ctmc::from_rates(2, &[(0, 5, 1.0)]).is_err());
        assert!(Ctmc::from_rates(2, &[(0, 1, -1.0)]).is_err());
    }
}

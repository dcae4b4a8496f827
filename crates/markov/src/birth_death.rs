use crate::{Ctmc, MarkovError};

/// A birth–death chain on states `0..=n` with per-level birth and death
/// rates.
///
/// Every single-queue CTMDP block in the buffer-sizing formulation is a
/// birth–death chain (arrivals move the occupancy up, bus service moves
/// it down), so this type gets both a closed-form stationary solution
/// and a conversion to a general [`Ctmc`] for cross-checking.
///
/// `birth[i]` is the rate from state `i` to `i + 1` (defined for
/// `i = 0..n`); `death[i]` is the rate from state `i + 1` to `i`.
///
/// # Examples
///
/// ```
/// use socbuf_markov::BirthDeath;
///
/// # fn main() -> Result<(), socbuf_markov::MarkovError> {
/// // M/M/1/3 with λ = 1, μ = 2.
/// let bd = BirthDeath::uniform(1.0, 2.0, 3)?;
/// let pi = bd.stationary()?;
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(pi[0] > pi[3]); // underloaded queue is usually near empty
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeath {
    birth: Vec<f64>,
    death: Vec<f64>,
}

impl BirthDeath {
    /// Builds a chain from per-level rates. `birth.len()` must equal
    /// `death.len()`; the chain then lives on `0..=birth.len()`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NonPositiveParameter`] if the vectors are empty,
    ///   have different lengths, or any *death* rate is non-positive
    ///   (birth rates may be zero, which truncates the chain).
    pub fn new(birth: Vec<f64>, death: Vec<f64>) -> Result<Self, MarkovError> {
        validate(&birth, &death)?;
        Ok(BirthDeath { birth, death })
    }

    /// Constant-rate chain: `λ` up, `μ` down, capacity `k` (states
    /// `0..=k`) — the M/M/1/K queue.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NonPositiveParameter`] if `lambda < 0`, `mu ≤ 0`
    ///   or `k == 0`.
    pub fn uniform(lambda: f64, mu: f64, k: usize) -> Result<Self, MarkovError> {
        if k == 0 {
            return Err(MarkovError::NonPositiveParameter {
                name: "capacity",
                value: 0.0,
            });
        }
        if lambda < 0.0 {
            return Err(MarkovError::NonPositiveParameter {
                name: "lambda",
                value: lambda,
            });
        }
        if mu <= 0.0 {
            return Err(MarkovError::NonPositiveParameter {
                name: "mu",
                value: mu,
            });
        }
        BirthDeath::new(vec![lambda; k], vec![mu; k])
    }

    /// Number of states (`capacity + 1`).
    pub fn num_states(&self) -> usize {
        self.birth.len() + 1
    }

    /// Birth rate out of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_states() - 1`.
    pub fn birth_rate(&self, i: usize) -> f64 {
        self.birth[i]
    }

    /// Death rate out of state `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_states() - 1`.
    pub fn death_rate(&self, i: usize) -> f64 {
        self.death[i]
    }

    /// Closed-form stationary distribution:
    /// `π_{i+1} = π_i · birth_i / death_i`, normalized.
    ///
    /// # Errors
    ///
    /// This method cannot fail for a validated chain; the `Result` keeps
    /// the signature aligned with [`Ctmc::stationary`].
    pub fn stationary(&self) -> Result<Vec<f64>, MarkovError> {
        let mut pi = Vec::new();
        stationary_of(&self.birth, &self.death, &mut pi);
        Ok(pi)
    }

    /// The stationary distribution of the chain with these rates,
    /// written into `pi` (resized to the state count) without building
    /// the chain: bit for bit what [`BirthDeath::new`] followed by
    /// [`BirthDeath::stationary`] returns, for a caller that solves many
    /// chains and keeps one buffer.
    ///
    /// # Errors
    ///
    /// The rate errors of [`BirthDeath::new`]; `pi` is then unchanged.
    pub fn stationary_into(
        birth: &[f64],
        death: &[f64],
        pi: &mut Vec<f64>,
    ) -> Result<(), MarkovError> {
        validate(birth, death)?;
        stationary_of(birth, death, pi);
        Ok(())
    }

    /// Converts to a general CTMC (for cross-checks).
    pub fn to_ctmc(&self) -> Ctmc {
        let n = self.num_states();
        let mut rates = Vec::with_capacity(2 * (n - 1));
        for i in 0..n - 1 {
            if self.birth[i] > 0.0 {
                rates.push((i, i + 1, self.birth[i]));
            }
            rates.push((i + 1, i, self.death[i]));
        }
        Ctmc::from_rates(n, &rates).expect("validated birth-death rates form a generator")
    }

    /// Expected state (mean queue occupancy) under the stationary law.
    pub fn mean_state(&self) -> f64 {
        let pi = self
            .stationary()
            .expect("birth-death stationary always exists");
        pi.iter().enumerate().map(|(i, p)| i as f64 * p).sum()
    }
}

/// The rate checks of [`BirthDeath::new`].
fn validate(birth: &[f64], death: &[f64]) -> Result<(), MarkovError> {
    if birth.is_empty() || birth.len() != death.len() {
        return Err(MarkovError::NonPositiveParameter {
            name: "rate vector length",
            value: birth.len() as f64,
        });
    }
    for &b in birth {
        if b < 0.0 || !b.is_finite() {
            return Err(MarkovError::NonPositiveParameter {
                name: "birth rate",
                value: b,
            });
        }
    }
    for &d in death {
        if d <= 0.0 || !d.is_finite() {
            return Err(MarkovError::NonPositiveParameter {
                name: "death rate",
                value: d,
            });
        }
    }
    Ok(())
}

/// The closed form of [`BirthDeath::stationary`] on validated rates.
fn stationary_of(birth: &[f64], death: &[f64], pi: &mut Vec<f64>) {
    let n = birth.len() + 1;
    pi.clear();
    pi.resize(n, 0.0);
    // Work with running products; rescale on the fly to avoid overflow
    // for strongly drifting chains.
    pi[0] = 1.0;
    let mut max = 1.0_f64;
    for i in 0..n - 1 {
        pi[i + 1] = pi[i] * birth[i] / death[i];
        max = max.max(pi[i + 1]);
        if max > 1e250 {
            for p in pi.iter_mut().take(i + 2) {
                *p /= max;
            }
            max = 1.0;
        }
    }
    let sum: f64 = pi.iter().sum();
    for p in pi.iter_mut() {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_ctmc_stationary() {
        let bd = BirthDeath::new(vec![1.0, 2.0, 0.5], vec![2.0, 1.0, 3.0]).unwrap();
        let pi_bd = bd.stationary().unwrap();
        let pi_ctmc = bd.to_ctmc().stationary().unwrap();
        for (a, b) in pi_bd.iter().zip(&pi_ctmc) {
            assert!((a - b).abs() < 1e-10, "{pi_bd:?} vs {pi_ctmc:?}");
        }
    }

    #[test]
    fn uniform_is_mm1k() {
        let bd = BirthDeath::uniform(0.5, 1.0, 2).unwrap();
        let pi = bd.stationary().unwrap();
        // π ∝ (1, ρ, ρ²) with ρ = 0.5 → (4/7, 2/7, 1/7).
        assert!((pi[0] - 4.0 / 7.0).abs() < 1e-12);
        assert!((pi[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((pi[2] - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_birth_rate_truncates() {
        let bd = BirthDeath::new(vec![1.0, 0.0], vec![1.0, 1.0]).unwrap();
        let pi = bd.stationary().unwrap();
        assert!(pi[2].abs() < 1e-15);
    }

    #[test]
    fn validation() {
        assert!(BirthDeath::new(vec![], vec![]).is_err());
        assert!(BirthDeath::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(BirthDeath::new(vec![-1.0], vec![1.0]).is_err());
        assert!(BirthDeath::new(vec![1.0], vec![0.0]).is_err());
        assert!(BirthDeath::uniform(1.0, 1.0, 0).is_err());
        assert!(BirthDeath::uniform(-0.1, 1.0, 2).is_err());
        assert!(BirthDeath::uniform(1.0, 0.0, 2).is_err());
    }

    #[test]
    fn heavy_drift_does_not_overflow() {
        let bd = BirthDeath::uniform(1000.0, 0.001, 200).unwrap();
        let pi = bd.stationary().unwrap();
        assert!(pi.iter().all(|p| p.is_finite()));
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass concentrates at the top.
        assert!(pi[200] > 0.99);
    }

    #[test]
    fn mean_state_of_symmetric_chain_is_center() {
        let bd = BirthDeath::uniform(1.0, 1.0, 4).unwrap();
        assert!((bd.mean_state() - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn rates() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (1usize..=12).prop_flat_map(|n| {
            (
                proptest::collection::vec(0.01f64..10.0, n),
                proptest::collection::vec(0.01f64..10.0, n),
            )
        })
    }

    proptest! {
        #[test]
        fn stationary_is_distribution((b, d) in rates()) {
            let bd = BirthDeath::new(b, d).unwrap();
            let pi = bd.stationary().unwrap();
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(pi.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }

        #[test]
        fn closed_form_matches_linear_solve((b, d) in rates()) {
            let bd = BirthDeath::new(b, d).unwrap();
            let pi_bd = bd.stationary().unwrap();
            let pi_ctmc = bd.to_ctmc().stationary().unwrap();
            for (x, y) in pi_bd.iter().zip(&pi_ctmc) {
                prop_assert!((x - y).abs() < 1e-8);
            }
        }

        #[test]
        fn detailed_balance_holds((b, d) in rates()) {
            let bd = BirthDeath::new(b.clone(), d.clone()).unwrap();
            let pi = bd.stationary().unwrap();
            for i in 0..b.len() {
                // π_i λ_i = π_{i+1} μ_i (birth-death detailed balance).
                prop_assert!((pi[i] * b[i] - pi[i + 1] * d[i]).abs() < 1e-9);
            }
        }
    }
}

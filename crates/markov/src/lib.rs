//! Continuous-time Markov chains and queueing analytics for `socbuf`.
//!
//! The DATE 2005 buffer-sizing paper models every processor–bus buffer as
//! a continuous-time queue (Poisson arrivals, exponential bus service,
//! finite capacity). This crate supplies the chain-level machinery that
//! both the CTMDP solver (`socbuf-ctmdp`) and the validation suite of the
//! discrete-event simulator (`socbuf-sim`) rely on:
//!
//! * [`Ctmc`] — finite continuous-time Markov chains with validated
//!   **sparse (CSR) generators**, stationary distributions (an `O(n)`
//!   Thomas solve for tridiagonal/birth–death generators, pivoted dense
//!   LU as the general fallback) and irreducibility checks,
//! * [`BirthDeath`] — birth–death chains with closed-form stationary
//!   distributions (every single-queue CTMDP block has this shape),
//! * [`MM1K`] — closed-form M/M/1/K loss-queue formulas (blocking
//!   probability, loss rate, mean occupancy); these are the *analytic
//!   oracles* the simulator is tested against.
//!
//! # Examples
//!
//! ```
//! use socbuf_markov::MM1K;
//!
//! # fn main() -> Result<(), socbuf_markov::MarkovError> {
//! let q = MM1K::new(0.8, 1.0, 4)?;
//! // Blocking probability for ρ = 0.8, K = 4 is ρ⁴(1−ρ)/(1−ρ⁵) ≈ 0.1218.
//! assert!((q.blocking_probability() - 0.1218).abs() < 1e-3);
//! assert!(q.loss_rate() < q.arrival_rate());
//! # Ok(())
//! # }
//! ```

mod birth_death;
mod ctmc;
mod error;
mod queueing;

pub use birth_death::BirthDeath;
pub use ctmc::Ctmc;
pub use error::MarkovError;
pub use queueing::MM1K;

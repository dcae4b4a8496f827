use std::error::Error;
use std::fmt;

use socbuf_linalg::LinalgError;

/// Errors produced by Markov-chain construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// A generator matrix row does not sum to zero (within tolerance).
    BadGeneratorRow {
        /// Offending row.
        row: usize,
        /// Its sum.
        sum: f64,
    },
    /// An off-diagonal generator entry is negative.
    NegativeRate {
        /// Row of the offending entry.
        from: usize,
        /// Column of the offending entry.
        to: usize,
        /// The negative value found.
        rate: f64,
    },
    /// The chain is reducible, so the requested quantity (for example a
    /// unique stationary distribution) does not exist.
    Reducible,
    /// A parameter that must be positive (rate, state count) was not.
    NonPositiveParameter {
        /// Human-readable parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An underlying linear solve failed.
    Linalg(LinalgError),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::BadGeneratorRow { row, sum } => {
                write!(f, "generator row {row} sums to {sum:.3e}, expected 0")
            }
            MarkovError::NegativeRate { from, to, rate } => {
                write!(
                    f,
                    "negative transition rate {rate} from state {from} to {to}"
                )
            }
            MarkovError::Reducible => write!(f, "chain is reducible"),
            MarkovError::NonPositiveParameter { name, value } => {
                write!(f, "parameter {name} must be positive, got {value}")
            }
            MarkovError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for MarkovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarkovError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MarkovError {
    fn from(e: LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MarkovError::Reducible;
        assert_eq!(e.to_string(), "chain is reducible");
        let e = MarkovError::Linalg(LinalgError::Empty);
        assert!(e.source().is_some());
        let e = MarkovError::NonPositiveParameter {
            name: "mu",
            value: 0.0,
        };
        assert!(e.to_string().contains("mu"));
    }
}

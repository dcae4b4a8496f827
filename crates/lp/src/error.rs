use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// The constraint set admits no feasible point. Carries the residual
    /// infeasibility left at the end of phase 1.
    Infeasible {
        /// Sum of artificial variables at the phase-1 optimum.
        residual: f64,
    },
    /// The objective is unbounded in the direction of optimization.
    /// Carries the index of the column proving unboundedness.
    Unbounded {
        /// Entering column (standard-form index) with no blocking row.
        column: usize,
    },
    /// The pivot-count limit was exceeded before reaching optimality.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The solve ended with residual mass on artificial variables
    /// beyond the documented redundancy bound — phase 1 certified
    /// feasibility within tolerance, but the final basis's
    /// artificial-owned rows no longer look like mere round-off of
    /// dependent rows. This is numerical breakdown (distinct from
    /// proven infeasibility), reported as is: no engine retries with
    /// other options.
    ResidualArtificial {
        /// Total artificial mass left on the final basis.
        residual: f64,
        /// The bound it was required to stay under.
        bound: f64,
    },
    /// The model itself is malformed (unknown variable, non-finite
    /// coefficient, …).
    InvalidModel(String),
    /// The problem has no variables or no constraints where at least one
    /// is required.
    EmptyProblem,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible { residual } => {
                write!(
                    f,
                    "linear program is infeasible (phase-1 residual {residual:.3e})"
                )
            }
            LpError::Unbounded { column } => {
                write!(f, "linear program is unbounded along column {column}")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} pivots exceeded")
            }
            LpError::ResidualArtificial { residual, bound } => {
                write!(
                    f,
                    "final basis retains artificial mass {residual:.3e} beyond the \
                     redundancy bound {bound:.3e} (numerical breakdown)"
                )
            }
            LpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            LpError::EmptyProblem => write!(f, "problem has no variables"),
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(LpError::Infeasible { residual: 1e-3 }
            .to_string()
            .contains("infeasible"));
        assert!(LpError::Unbounded { column: 2 }.to_string().contains("2"));
        assert!(LpError::IterationLimit { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(LpError::InvalidModel("bad".into())
            .to_string()
            .contains("bad"));
        let residual = LpError::ResidualArtificial {
            residual: 2.0e-3,
            bound: 1.0e-6,
        }
        .to_string();
        assert!(residual.contains("artificial") && residual.contains("2.000e-3"));
        assert!(!LpError::EmptyProblem.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}

use std::error::Error;
use std::fmt;

use socbuf_lp::LpError;
use socbuf_soc::SocError;

/// Errors produced by the buffer-sizing pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Architecture-level failure (bad handle, unroutable flow, …).
    Soc(SocError),
    /// The sizing LP failed (most prominently: the budget or bus-effort
    /// constraints admit no stationary policy).
    Lp(LpError),
    /// Configuration rejected before solving.
    BadConfig(String),
    /// The coupled (unsplit, nonlinear) system did not converge.
    CoupledDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual (max |Δ| between successive iterates).
        residual: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Soc(e) => write!(f, "architecture error: {e}"),
            CoreError::Lp(e) => write!(f, "sizing lp failed: {e}"),
            CoreError::BadConfig(msg) => write!(f, "bad sizing config: {msg}"),
            CoreError::CoupledDiverged {
                iterations,
                residual,
            } => write!(
                f,
                "coupled nonlinear system did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Soc(e) => Some(e),
            CoreError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SocError> for CoreError {
    fn from(e: SocError) -> Self {
        CoreError::Soc(e)
    }
}

impl From<LpError> for CoreError {
    fn from(e: LpError) -> Self {
        CoreError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = SocError::Empty("buses".into()).into();
        assert!(e.to_string().contains("buses"));
        assert!(e.source().is_some());
        let e: CoreError = LpError::EmptyProblem.into();
        assert!(matches!(e, CoreError::Lp(_)));
        let e = CoreError::CoupledDiverged {
            iterations: 50,
            residual: 0.3,
        };
        assert!(e.to_string().contains("50"));
    }
}

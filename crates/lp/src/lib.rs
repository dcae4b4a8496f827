//! A self-contained linear-programming solver for the `socbuf` workspace.
//!
//! The DATE 2005 buffer-sizing methodology reproduced by this workspace
//! rests on the linear-programming characterization of constrained
//! average-cost continuous-time Markov decision processes (Feinberg 2002).
//! The paper's authors used Matlab 6.1; since this reproduction has no EDA
//! or numerical ecosystem available, this crate implements the solver from
//! scratch:
//!
//! * [`LpProblem`] — a small modelling API: variables with bounds, linear
//!   constraints (`≤`, `≥`, `=`) added one at a time, as `(row, var,
//!   coeff)` triplet batches, or as whole CSR matrices
//!   ([`LpProblem::add_constraints_csr`]), minimize or maximize,
//! * **sparse standard-form assembly** ([`assembly`]): conversion to
//!   `min c·x, Ax = b, x ≥ 0` builds `A` in CSR storage — `O(nnz)`, so
//!   the block-diagonal occupation-measure constraints are never
//!   densified (a dense assembly twin survives for benchmarking),
//! * **two interchangeable simplex engines** ([`LpEngine`], selected
//!   through [`SimplexOptions`]): the default **sparse revised simplex**
//!   (basis inverse as a sparse LU plus a product-form eta file, `O(nnz)`
//!   pricing — the CSR standard form is never densified) and the
//!   **dense-tableau** two-phase simplex kept as its cross-check oracle
//!   ([`LpProblem::solve_tableau`]). Both use Dantzig pricing with an
//!   automatic switch to Bland's rule on stalls (anti-cycling) and solve
//!   the same standard form under the same deterministic perturbation —
//!   the cross-engine oracle suite holds their objectives to 1e-9
//!   agreement,
//! * **scale-invariant numerics** — before either engine runs, the
//!   standard form is **equilibrated** (geometric-mean row/column
//!   scaling with exact power-of-two factors, applied only when the
//!   data's nonzero-magnitude spread exceeds a trigger) and un-scaled
//!   at extraction, so rate data stated in arbitrary units (spanning
//!   `1e-3..1e3` and beyond) reaches the engines well conditioned;
//!   [`LpSolution::scaling_stats`] reports the measured spread before
//!   and after, and [`SimplexOptions::equilibrate`] turns the layer off,
//! * [`LpSolution`] — primal values, objective, dual prices and reduced
//!   costs recovered from the final basis (via a sparse transposed LU
//!   solve against the original constraint matrix, not solver-internal
//!   state, bit for bit what a dense LU of the basis returns), always in
//!   the problem's original units,
//! * [`verify_optimality`] — an independent optimality certificate checker
//!   (primal feasibility + dual feasibility + complementary slackness +
//!   primal–dual objective gap) used heavily by the test-suite and
//!   property tests to certify both engines,
//! * **warm-started parametric re-solves** — [`LpSolution`] exports its
//!   optimal basis as a [`BasisSnapshot`], and [`PreparedLp`] caches the
//!   standard form across solves, mutates it in place for RHS-only and
//!   rate-scaling deltas, and re-enters the revised simplex from the
//!   previous basis (bounded dual-simplex repair, cold fallback when the
//!   basis is stale) — how the sweep campaigns make families of nearly
//!   identical LPs cheap. Across RHS-only deltas it keeps the last
//!   optimal basis factored, so a re-solve that stays on that basis
//!   costs one triangular solve.
//!
//! * **block-angular decomposition** ([`LpEngine::Decomposed`], entry
//!   point [`solve_decomposed`]) — reads the block structure a problem
//!   declares ([`LpProblem::declare_blocks`]; the sizing LP declares one
//!   block per bus behind its single budget row), prices the coupling
//!   out with a deterministic monotone multiplier search over
//!   warm-started per-block revised solves (optionally fanned out over a
//!   [`SolveExecutor`]), then certifies exactness with one warm-started
//!   revised solve on the original joint standard form; problems that
//!   declare no usable structure fall back to the monolithic path, so
//!   the engine is total over arbitrary LPs.
//!
//! Simplex (rather than an interior-point method) matters here: the
//! K-switching structure theorem the paper leans on speaks about *basic*
//! optimal solutions, and simplex returns exactly those.
//!
//! # Examples
//!
//! ```
//! use socbuf_lp::{LpProblem, Relation, Sense};
//!
//! # fn main() -> Result<(), socbuf_lp::LpError> {
//! // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
//! let mut p = LpProblem::new(Sense::Maximize);
//! let x = p.add_var("x", 3.0);
//! let y = p.add_var("y", 5.0);
//! p.add_constraint([(x, 1.0)], Relation::Le, 4.0)?;
//! p.add_constraint([(y, 2.0)], Relation::Le, 12.0)?;
//! p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)?;
//! let sol = p.solve()?;
//! assert!((sol.objective() - 36.0).abs() < 1e-9);
//! assert!((sol.value(x) - 2.0).abs() < 1e-9);
//! assert!((sol.value(y) - 6.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod assembly;
mod decompose;
mod error;
mod prepared;
mod problem;
mod revised;
mod sched;
mod simplex;
mod solution;
mod standard_form;
mod verify;

pub use decompose::{solve_decomposed, DecompReport, ExecutorHandle, SolveExecutor};
pub use error::LpError;
pub use prepared::{DualRecoveryAudit, PreparedLp};
pub use problem::{LpProblem, Relation, RowId, Sense, VarId};
pub use revised::{BasisSnapshot, LpEngine, PricingCounts};
pub use sched::ChunkPolicy;
pub use simplex::SimplexOptions;
pub use solution::LpSolution;
pub use standard_form::ScalingStats;
pub use verify::{verify_optimality, OptimalityReport};

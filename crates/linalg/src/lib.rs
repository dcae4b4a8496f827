//! Dense **and sparse** linear algebra substrate for the `socbuf`
//! workspace.
//!
//! Everything downstream of this crate — the simplex solver in
//! [`socbuf-lp`](../socbuf_lp/index.html), the Markov-chain stationary
//! solvers in `socbuf-markov`, and ultimately the CTMDP buffer-sizing
//! pipeline — reduces to linear systems. The paper's systems are
//! structurally sparse (tridiagonal birth–death generators,
//! block-diagonal occupation-measure constraints), so the crate carries
//! two tiers of kernels:
//!
//! * **Sparse, for the hot path** —
//!   [`Csr`] (compressed-sparse-row storage with `O(nnz)` matvec /
//!   vecmat / transpose and triplet / row-builder assembly),
//!   [`Tridiag`] (the Thomas algorithm: `O(n)` tridiagonal solves), and
//!   the [`scaling`] kernels (geometric-mean equilibration with exact
//!   power-of-two factors plus the [`value_spread`] conditioning probe
//!   the LP solve path uses to decide when to scale), and [`SparseLu`]
//!   (left-looking sparse LU for simplex bases over flat [`Columns`],
//!   solving in caller buffers) with [`solve_transpose_resumed`], its
//!   transposed solve that answers bit for bit as the dense [`Lu`] (the
//!   LP's dual recovery), resumed after the pivots an existing factor
//!   shares with the dense kernel's rule; [`solve_transpose_cols`] is
//!   its resume after none.
//! * **Dense, for small kernels and fallbacks** —
//!   [`Matrix`] (row-major `f64`) and [`Lu`] (LU with partial pivoting,
//!   used for general-generator stationary solves, determinants and as
//!   the oracle of the sparse kernels),
//! * free functions over `&[f64]` slices ([`dot`], [`axpy`], norms).
//!
//! # Examples
//!
//! ```
//! use socbuf_linalg::{Csr, Matrix, Lu};
//!
//! # fn main() -> Result<(), socbuf_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//!
//! // The same matrix as CSR: products agree with the dense path.
//! let s = Csr::from_dense(&a);
//! assert_eq!(s.matvec(&x)?, a.matvec(&x)?);
//! # Ok(())
//! # }
//! ```

mod csr;
mod error;
mod lu;
mod matrix;
pub mod scaling;
mod sparse_lu;
mod tridiag;
mod vector;

pub use csr::{Csr, CsrBuilder};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use scaling::{
    geometric_mean_scaling, log_deviation, scaled_log_deviation, scaled_value_spread, value_spread,
    Equilibration,
};
pub use sparse_lu::{
    solve_transpose_cols, solve_transpose_resumed, Columns, Reach, SparseLu, TransposeCache,
};
pub use tridiag::Tridiag;
pub use vector::{axpy, dot, inf_norm, max_abs_diff, one_norm, scale, two_norm};

/// Default absolute tolerance used throughout the workspace when comparing
/// floating-point quantities that should be exact in infinite precision.
pub const DEFAULT_TOL: f64 = 1e-9;

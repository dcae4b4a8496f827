//! Optimal buffer sizing and bridge buffer insertion for SoC
//! communication subsystems — the primary contribution of
//! *Kallakuri, Doboli, Feinberg: "Buffer Insertion for Bridges and
//! Optimal Buffer Sizing for Communication Sub-System of
//! Systems-on-Chip"* (DATE 2005), reimplemented end to end.
//!
//! # The methodology
//!
//! 1. **Split** the architecture at its bridges
//!    ([`socbuf_soc::split::split`]): bridge buffers decouple adjacent
//!    buses, so each remaining subsystem has *linear* steady-state
//!    equations. The [`coupled`] module constructs the *unsplit*
//!    equations explicitly — their bridge products are quadratic, which
//!    is exactly why the authors' Matlab attempt failed — and solves
//!    them with a fixed-point iteration for comparison.
//! 2. **Formulate** one constrained CTMDP per queue (a birth–death
//!    block over buffer occupancy whose actions are bus service-effort
//!    levels), and assemble *all* blocks into a single occupation-measure
//!    LP — the paper insists the subsystems be solved "in one go and not
//!    sequentially" — coupled by per-bus effort rows and one global
//!    buffer-budget row ([`formulation`]).
//! 3. **Translate** the optimal occupation measure through the
//!    K-switching policy into integer buffer lengths: per-queue
//!    occupancy quantiles, apportioned to the exact budget
//!    ([`translate`]).
//! 4. **Re-simulate** the architecture with the new buffer lengths and
//!    the CTMDP arbitration policy, and compare losses against the
//!    constant-sizing and timeout baselines ([`pipeline`]).
//!
//! # Examples
//!
//! ```
//! use socbuf_core::{size_buffers, SizingConfig};
//! use socbuf_soc::templates;
//!
//! # fn main() -> Result<(), socbuf_core::CoreError> {
//! let arch = templates::amba();
//! let outcome = size_buffers(&arch, 24, &SizingConfig::small())?;
//! assert_eq!(outcome.allocation.total(), 24);
//! // The CTMDP allocation is a genuine redistribution, not an even split.
//! let units = outcome.allocation.as_slice();
//! assert!(units.iter().max() > units.iter().min());
//! # Ok(())
//! # }
//! ```

pub mod coupled;
mod error;
pub mod formulation;
pub mod pipeline;
pub mod report;
pub mod translate;
pub mod wire;

pub use error::CoreError;
pub use formulation::{SizingConfig, SizingLp, SizingSolution};
pub use pipeline::{
    evaluate_policies, evaluate_policies_sized, evaluate_policies_with, size_buffers,
    PipelineConfig, PolicyComparison, ReplicationPool, SerialPool, SimEngine, SizingOutcome,
    SolveContext,
};
pub use report::SizingReport;
pub use translate::Translation;

// LP-layer types that appear in this crate's public API (engine
// selection, the decomposed engine's block executor, warm-start basis
// export/import, and the workspace chunk-scheduling policy),
// re-exported so downstream crates — `socbuf-sweep` in particular —
// need no direct `socbuf-lp` dependency.
pub use socbuf_lp::{BasisSnapshot, ChunkPolicy, ExecutorHandle, LpEngine, SolveExecutor};

//! **socbuf** — buffer insertion for bridges and optimal buffer sizing
//! for SoC communication subsystems.
//!
//! A full, from-scratch Rust reproduction of *Kallakuri, Doboli,
//! Feinberg, "Buffer Insertion for Bridges and Optimal Buffer Sizing for
//! Communication Sub-System of Systems-on-Chip"* (DATE 2005).
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! stable module names. See the individual crates for deep dives:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`soc`] | `socbuf-soc` | architectures, bridges, routing, splitting |
//! | [`sizing`] | `socbuf-core` | the paper's CTMDP sizing methodology |
//! | [`sim`] | `socbuf-sim` | discrete-event simulator |
//! | [`sweep`] | `socbuf-sweep` | deterministic parallel sweep campaigns |
//! | [`serve`] | `socbuf-serve` | sizing-as-a-service socket front end |
//! | [`markov`] | `socbuf-markov` | CTMCs, M/M/1/K analytics |
//! | [`lp`] | `socbuf-lp` | two-phase simplex |
//! | [`linalg`] | `socbuf-linalg` | dense linear algebra |
//!
//! The generic constrained-CTMDP solver, `socbuf-ctmdp`, is not
//! re-exported: the sizing pipeline never calls it, and it serves only
//! as a test oracle. Code that used `socbuf::ctmdp` depends on
//! `socbuf-ctmdp` directly.
//!
//! # Quickstart
//!
//! ```
//! use socbuf::sizing::{evaluate_policies, PipelineConfig};
//! use socbuf::soc::templates;
//!
//! # fn main() -> Result<(), socbuf::sizing::CoreError> {
//! let arch = templates::figure1();
//! let cmp = evaluate_policies(&arch, 22, &PipelineConfig::small())?;
//! println!(
//!     "loss before sizing: {:.1}, after: {:.1}",
//!     cmp.pre.total_lost, cmp.post.total_lost
//! );
//! # Ok(())
//! # }
//! ```

pub use socbuf_core as sizing;
pub use socbuf_linalg as linalg;
pub use socbuf_lp as lp;
pub use socbuf_markov as markov;
pub use socbuf_serve as serve;
pub use socbuf_sim as sim;
pub use socbuf_soc as soc;
pub use socbuf_sweep as sweep;

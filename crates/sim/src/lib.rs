//! Deterministic discrete-event simulation of bused/bridged SoC
//! queueing networks.
//!
//! This crate is the measurement instrument of the reproduction: the
//! paper sizes buffers with a CTMDP model and then *"the system is
//! resimulated with the new buffer lengths and the losses are
//! compared"*. The simulator executes exactly the stochastic semantics
//! the CTMDP models:
//!
//! * every flow generates Poisson arrivals,
//! * every request waits in its (client, bus) queue — the processor's
//!   transmit buffer or a bridge buffer,
//! * each bus serves one request at a time with exponential service
//!   times, choosing the next queue with a pluggable [`Arbiter`]
//!   (uniform = the paper's constant-sizing baseline, longest-queue,
//!   round-robin, or the CTMDP-derived occupancy-dependent
//!   [`Arbiter::WeightedEffort`] K-switching policy),
//! * arrivals into a full buffer are lost; requests crossing a bridge
//!   into a full bridge buffer are lost; an optional [`TimeoutSpec`]
//!   reproduces the paper's third policy (drop requests whose waiting
//!   time exceeds a threshold),
//! * losses are attributed to the *originating* processor, which is how
//!   the paper's Figure 3 reports them.
//!
//! Runs are deterministic per seed; [`replicate`] averages independent
//! seeds (the paper repeats its experiment 10 times).
//!
//! One engine executes every architecture the builder accepts:
//! component actors (sources, queues, buses, bridges) sequenced by a
//! `(time, seq)`-ordered event queue. Beyond the paper's model it runs
//! declared bus arbitration (strict priority, locked transfers), bursty
//! and on-off traffic, and bridge forwarding latency. Its output on the
//! paper's model is pinned bit for bit (`tests/legacy_pins.rs`), as it
//! is on the extended scenarios (`tests/actor_pins.rs`).
//! [`simulate_counted`] also returns the envelopes a run sent, a
//! host-independent measure of the work it did.
//!
//! # Examples
//!
//! ```
//! use socbuf_sim::{simulate, Arbiter, SimConfig};
//! use socbuf_soc::{templates, BufferAllocation};
//!
//! let arch = templates::amba();
//! let alloc = BufferAllocation::uniform(&arch, 24);
//! let report = simulate(&arch, &alloc, Arbiter::RandomNonempty, &SimConfig::new(500.0, 42));
//! assert!(report.total_offered > 0.0);
//! let balance = report.total_delivered + report.total_lost + report.in_flight;
//! assert!((report.total_offered - balance).abs() < 1e-9);
//! ```

mod actors;
mod arbiter;
mod engine;
mod error;
mod request;
mod stats;

pub use arbiter::{Arbiter, QueueView};
pub use engine::{simulate, simulate_counted, simulate_with, SimConfig, TimeoutSpec};
pub use error::SimError;
pub use stats::{
    average_reports, replicate, replication_config, replication_seed, ProcStats, QueueStats,
    SimReport,
};

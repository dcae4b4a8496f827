//! Deterministic parallel sweep engine for `socbuf` campaigns.
//!
//! The DATE 2005 methodology answers one question at a time — size one
//! architecture at one budget. Serving sweep-scale workloads (Pareto
//! frontiers of loss vs. budget, load scalings, random-architecture
//! campaigns) means solving *grids* of independent sizing problems, and
//! after the sparse-simplex work a single solve is fast enough that the
//! serial loop around it is the bottleneck. This crate supplies that
//! loop: a std-only scoped-thread [`WorkPool`] plus three campaign
//! shapes over `socbuf_core::pipeline` —
//!
//! * [`BudgetSweep`] — loss/allocation/shadow-price per budget point,
//! * [`LoadSweep`] — all λ scaled by a factor grid at one budget,
//! * [`RandomCampaign`] — fan-out over
//!   [`socbuf_soc::templates::random_architecture`] seeds,
//!
//! each returning a structured [`SweepReport`] with Pareto-frontier
//! extraction and CSV / JSON-lines rendering. The pool also plugs into
//! the pipeline's replication hook
//! ([`socbuf_core::ReplicationPool`]), so a single policy comparison
//! can spread its simulation replications over workers
//! ([`socbuf_core::evaluate_policies_with`] on a [`WorkPool`]).
//!
//! # The determinism contract
//!
//! Campaign results are **bit-identical for every worker count**, and
//! the serializations built from them are **byte-identical**. This is
//! load-bearing (regression pins, cross-run diffs, caching) and rests
//! on three rules, enforced by construction and pinned by
//! `tests/determinism.rs`:
//!
//! 1. every work item is identified by its index in the campaign's
//!    work list, and anything pseudo-random inside it (simulation
//!    replication seeds, architecture seeds) derives from that index —
//!    never from thread identity, timing, or completion order;
//! 2. the pool reduces results **by slot** (worker threads return
//!    `(index, result)` pairs that are reassembled into index order),
//!    so skewed item costs and work stealing cannot reorder anything;
//! 3. aggregation downstream of the pool (Pareto extraction, error
//!    selection, rendering) is a pure function of the index-ordered
//!    records, with ties broken by index.
//!
//! Floating-point reductions happen *inside* one work item, on one
//! thread, in a fixed order — the pool never sums across items — so
//! there is no "parallel summation" nondeterminism to tolerate.
//!
//! # Examples
//!
//! ```
//! use socbuf_sweep::{BudgetSweep, WorkPool};
//! use socbuf_core::SizingConfig;
//! use socbuf_soc::templates;
//!
//! let arch = templates::amba();
//! let mut sweep = BudgetSweep::new(&arch, vec![12, 16, 20, 24]);
//! sweep.sizing = SizingConfig::small();
//! let report = sweep.run(&WorkPool::available()).unwrap();
//! assert_eq!(report.points.len(), 4);
//! // More budget never predicts more loss:
//! let frontier = report.pareto_frontier();
//! assert!(!frontier.is_empty());
//! println!("{}", report.frontier_table());
//! ```

//! # Sharding
//!
//! Every campaign is described by one
//! [`socbuf_core::wire::ManifestShape`] and planned from it into a
//! [`CampaignPlan`] — an index-ordered work list partitioned by the
//! shape's [`socbuf_core::ChunkPolicy`] plus one chunk-execution
//! closure. A sizing-only campaign's shape also renders, with its
//! config, to a [`socbuf_core::wire::CampaignManifest`], the wire
//! contract a coordinator ships to shard workers. [`plan_manifest`]
//! plans a manifest the same way and then executes its declared chunk
//! partition, re-checked with
//! [`CampaignManifest::validate_chunks`](socbuf_core::wire::CampaignManifest::validate_chunks)
//! because a manifest's fields are public. A shard runs any subset of a
//! manifest's chunks through [`CampaignPlan::run_chunks`] and renders
//! each with [`chunk_report_json`]; a coordinator decodes each frame
//! once into a typed [`ChunkReport`], and [`merge_chunk_reports`] (or
//! the streaming [`StreamingReducer`]) verifies coverage and reassembles —
//! byte-identical to the serial run for any shard partition, because
//! chunk boundaries are part of the campaign's meaning, not the
//! executor's choice.
//!
//! # Streaming
//!
//! The whole result path also runs without ever materializing a
//! campaign: chunks execute under the pool's ordered consumer
//! ([`WorkPool::run_ranges_ordered`]) and emit points into a
//! [`PointSink`] as they complete; the incremental renderers
//! ([`stream::ReportStream`]) and the bounded-memory fleet reducer
//! ([`shard::StreamingReducer`]) are sinks. The batch APIs are thin
//! wrappers over these, so streamed bytes ≡ batch bytes by
//! construction — for every campaign shape, worker count, and chunk
//! arrival order. A manifest may also declare a coarser partition
//! ([`socbuf_core::wire::CampaignManifest::with_chunks`], each chunk a
//! union of consecutive [`WARM_CHUNK`]-point chains), as `scale_probe`
//! does with 256-item chunks; the same contract covers it.

mod campaign;
mod pool;
mod report;
pub mod shard;
pub mod stream;

pub use campaign::{
    BudgetSweep, CampaignPlan, LoadSweep, RandomCampaign, SinkRun, SweepError, WARM_CHUNK,
};
pub use pool::{OrderedRun, WorkPool};
pub use report::{SimSummary, SweepKind, SweepPoint, SweepReport};
pub use shard::{
    chunk_report_json, execute_manifest_chunk_traced, merge_chunk_reports, plan_manifest,
    run_manifest, run_manifest_sink, ChunkReport, MergeError, ReduceStats, StreamingReducer,
};
pub use stream::{
    FileSpool, FrontierIndex, FrontierTracker, MemSpool, PointSink, ReportStream, Spool,
    StreamSummary, VecSink,
};

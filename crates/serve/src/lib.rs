//! Sizing-as-a-service: a warm-cache socket front end over the socbuf
//! sizing pipeline.
//!
//! The paper's methodology answers a question an SoC designer asks
//! *interactively* — "what loss do I get for this budget at this
//! load?" — and the pipeline already has everything a long-running
//! answerer needs: [`socbuf_core::SolveContext`] warm chains re-solve a
//! repeated or nearby query in ~0 simplex pivots, renderings are
//! byte-deterministic, and [`socbuf_sweep::WorkPool`] bounds
//! parallelism. This crate is the std-only network front for those
//! pieces:
//!
//! * [`protocol`] — the versioned, length-prefixed JSON protocol (v2:
//!   `size`, `sweep_stream`, `health`, `drain`), documented in full on
//!   the module;
//! * [`cache`] — the keyed LRU of warm contexts with hit/miss/pivot
//!   counters;
//! * [`server`] — TCP/Unix listeners, per-connection handlers,
//!   in-flight backpressure (`busy` + `retry_after_ms`), graceful
//!   draining, and the [`shard_worker_main`] entry point for spawned
//!   shard processes;
//! * [`client`] — the blocking client the tests and the bench bins
//!   share, plus [`ShardFleet`], the coordinator-side fan-out that
//!   round-robins manifest chunks over shard connections and streams
//!   their frames straight into a bounded-memory merge reducer
//!   ([`ShardFleet::run_manifest_to_sink`]).
//!
//! # Campaigns
//!
//! Every campaign is a [`socbuf_core::wire::CampaignManifest`] run
//! through one path. In process, `socbuf_sweep::run_manifest_sink`
//! executes it on a `WorkPool`. Over the wire, a `sweep_stream` request
//! carries the manifest (and optionally a subset of its chunks); the
//! server runs the chunks on its own pool with the same ordered
//! scheduler and writes each chunk-report frame as soon as it is next
//! in the requested order. A coordinator streams each shard's share and
//! merges the frames through `socbuf_sweep::StreamingReducer` — the
//! merged bytes are identical to a serial single-host run for **any**
//! partition of chunks over shards, because chunks follow the
//! campaign's own [`socbuf_core::ChunkPolicy`] warm-chain boundaries,
//! and memory stays bounded. The `shard_probe --smoke` and
//! `scale_probe --smoke` bench bins pin all of this end to end over
//! real sockets.
//!
//! # The byte-parity contract
//!
//! The server's `size` answers are **byte-identical** to what a local
//! [`socbuf_core::size_buffers`] call renders through
//! [`socbuf_core::wire::sizing_outcome_semantic_json`] — whether the
//! answer came from a cold solve, a warm cache hit, or a context that
//! survived eviction pressure. Everything path-dependent (pivots,
//! timings, warm/cold) is quarantined in a per-request trace record.
//! The lifecycle tests and the CI smoke gate (`serve_probe --smoke`)
//! hold this line.
//!
//! # Example
//!
//! ```no_run
//! use socbuf_serve::{Client, Server, ServerConfig};
//! use socbuf_core::SizingConfig;
//! use socbuf_soc::templates;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect_tcp(server.tcp_addr().unwrap())?;
//! let arch = templates::amba();
//! let reply = client.size(&arch, &SizingConfig::small(), 24)?;
//! assert_eq!(reply.outcome.allocation.total(), 24);
//! let again = client.size(&arch, &SizingConfig::small(), 24)?;
//! assert_eq!(again.result_json, reply.result_json); // byte-identical
//! assert!(again.trace.warm);                        // …and warm
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{cache_key, CacheLookup, CacheStats, ContextCache, RawKey};
pub use client::{
    ChunkReply, Client, ClientConfig, ClientError, RetryPolicy, ShardFleet, SizeReply,
    StreamEndReply, StreamMergeError,
};
pub use protocol::{
    Health, Request, Response, StreamGauges, Trace, VerbCounts, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use server::{shard_worker_main, Server, ServerConfig};

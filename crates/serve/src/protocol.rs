//! The wire protocol: length-prefixed frames carrying versioned JSON
//! requests and responses.
//!
//! # Framing
//!
//! Every message — both directions — is one **frame**:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload: `length` bytes   |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is UTF-8 JSON in the canonical form of
//! [`socbuf_core::wire`] (no insignificant whitespace, floats through
//! the shared writer, `null` for non-finite). Frames above
//! [`MAX_FRAME_BYTES`] are rejected before any allocation, so a hostile
//! length prefix cannot balloon memory. A connection carries any number
//! of request/response pairs in strict alternation; either side closes
//! by shutting the stream down at a frame boundary.
//!
//! # Requests
//!
//! Every request is an object with `"v": 2` (the protocol version —
//! other values are rejected by name) and a `"req"` discriminator:
//!
//! | `req`          | extra fields                        | answer |
//! |----------------|-------------------------------------|--------|
//! | `size`         | `arch`, `config`, `budget`          | one sizing outcome + trace |
//! | `sweep_stream` | `manifest`, optional `chunks` (array) | one chunk frame per chunk, then a `stream_end` frame |
//! | `health`       | —                                   | cache/backpressure/verb counters |
//! | `drain`        | —                                   | drain acknowledgement |
//!
//! `arch` and `config` use the [`socbuf_core::wire`] schemas
//! ([`architecture_to_json`], [`sizing_config_to_json`]); `config` may
//! be `{}` for the defaults. `manifest` is a
//! [`socbuf_core::wire::CampaignManifest`] document: every campaign —
//! a budget sweep, a frontier, one shard's share of a fleet — is a
//! manifest streamed with `sweep_stream`.
//!
//! Each verb allows only its own top-level keys (the table's plus `v`
//! and `req`); any other key is refused by name. That check runs after
//! the version and verb checks and before any field is decoded.
//!
//! A server parses each request frame once into a tape
//! ([`socbuf_core::wire::JsonDocument`]), which keeps each value's byte
//! span. For `size` it first looks its warm cache up under the raw
//! `arch` and `config` bytes, and decodes them from the tape only when
//! that misses (see [`crate::cache`]). Either way a malformed frame gets the same
//! error a full decode reports, checked in the order `arch`, `config`,
//! `budget`, before the server considers draining or backpressure.
//!
//! Protocol v1 also had `sweep`, `frontier`, `sweep_chunk`,
//! `snapshot_export` and `snapshot_import`. Each was a special case of
//! `sweep_stream` or existed only to move warm bases between shards;
//! v2 refuses them by name, and refuses any `"v": 1` frame with the
//! version error.
//!
//! # Responses
//!
//! Every response is an object with `"v": 2` and `"ok"`:
//!
//! * `size` → `{"v":2,"ok":true,"result":<outcome>,"trace":<trace>}`,
//!   where `result` is the **semantic** outcome rendering
//!   ([`sizing_outcome_semantic_json`]) — a pure function of
//!   (architecture, config, budget), byte-identical whether the server
//!   answered from a cold solve or a warm cache hit. Path-dependent
//!   data (pivot count, timings, warm/cold) lives in `trace`.
//! * `health` → `{"v":2,"ok":true,"health":{…}}` (see [`Health`]).
//! * `drain` → `{"v":2,"ok":true,"draining":true}`.
//! * `sweep_stream` → the one verb that answers with **more than one
//!   frame**: each selected chunk arrives as its own
//!   `{"v":2,"ok":true,"chunk_report":<report>,"trace":<trace>}` frame
//!   (`report` as [`socbuf_sweep::ChunkReport::to_json`]) in the
//!   requested order, as soon as it is next, followed by a terminal
//!   `{"v":2,"ok":true,"stream_end":{"config_hash":"…","frames":N,"points":N}}`
//!   summary the client checks against what it consumed. A failure
//!   mid-stream arrives as an ordinary error frame in the same
//!   position and ends the stream. The optional `chunks` request field
//!   selects a subset of manifest chunks, in any order (a fleet
//!   coordinator gives each shard its share); omitted means all
//!   chunks, in order.
//! * failures → `{"v":2,"ok":false,"error":"…"}`; when the server
//!   refused for backpressure the error is `"busy"` and a
//!   `"retry_after_ms"` hint is attached.
//!
//! # Traces
//!
//! Each served solve carries a trace record:
//! `{"warm":bool,"pivots":N,"queue_wait_us":N,"solve_us":N}` — whether
//! the answer came from a warm cached context, the simplex pivots this
//! request actually spent, microseconds between frame receipt and
//! solve start, and microseconds inside the solve. Rendered by the same
//! canonical writer as everything else; the two timing fields are the
//! only nondeterministic bytes in the protocol, which is why they are
//! quarantined here and never in `result`.

use std::io::{self, Read, Write};
use std::time::Instant;

#[cfg(test)]
use socbuf_core::wire::JsonValue;
use socbuf_core::wire::{
    architecture_from_json, architecture_to_json, config_hash_from_hex, config_hash_to_hex,
    push_usize, sizing_config_from_json, sizing_config_to_json, sizing_outcome_semantic_json,
    CampaignManifest, Fields, JsonDocument, JsonRead, JsonRef, ObjWriter, WireError,
};
use socbuf_core::{SizingConfig, SizingOutcome};
use socbuf_soc::Architecture;

use crate::cache::RawKey;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 2;

/// Verbs protocol v1 had and v2 refuses by name, each with the hint its
/// refusal carries.
const REMOVED_VERBS: [(&str, &str); 5] = [
    ("sweep", "stream a manifest with sweep_stream"),
    ("frontier", "stream a manifest with sweep_stream"),
    ("sweep_chunk", "stream one chunk with sweep_stream"),
    ("snapshot_export", "warm chains live inside manifest chunks"),
    ("snapshot_import", "warm chains live inside manifest chunks"),
];

/// Renders one canonical protocol object: `"v"`, then the fields
/// `body` writes.
fn frame(body: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    ObjWriter::render(|w| {
        w.usize("v", PROTOCOL_VERSION as usize);
        body(w);
    })
}

/// Upper bound on a frame payload (16 MiB). Chosen far above any real
/// request (architectures are a few KiB) so the only thing it rejects
/// is a corrupt or hostile length prefix.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the payload bytes.
///
/// # Errors
///
/// Propagates I/O errors; payloads above [`MAX_FRAME_BYTES`] are
/// rejected with `InvalidInput` before anything is written.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    // One write for header + payload: two small writes would interact
    // badly with Nagle's algorithm on TCP (the payload write stalls
    // behind a delayed ACK, adding ~40 ms per frame).
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean close (EOF exactly at
/// a frame boundary); EOF inside a frame is an error.
///
/// The reader's own read timeout slices the wait into polls, and
/// `deadline` says what a poll that times out (`WouldBlock`/`TimedOut`)
/// means:
///
/// * `None` — the server's read. A timeout before the frame's first
///   byte is returned, so the caller can poll its own state; one
///   mid-frame keeps waiting, since the peer is mid-write.
/// * `Some(at)` — the client's read. Every timeout polls again until
///   `at` has passed, then fails with `TimedOut` — **including
///   mid-frame** — so a stalled server costs at most the deadline plus
///   one poll interval, never an unbounded hang. The read timeout must
///   be set, or reads block indefinitely.
///
/// # Errors
///
/// Propagates I/O errors and the timeouts above; oversized lengths and
/// non-UTF-8 payloads are `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R, deadline: Option<Instant>) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    if !fill(r, &mut len, false, deadline)? {
        return Ok(None);
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; n];
    fill(r, &mut buf, true, deadline)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// Fills `buf` for [`read_frame`]: the header when `payload` is false,
/// else the payload. Returns `Ok(false)` on EOF before the header's
/// first byte.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    payload: bool,
    deadline: Option<Instant>,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        let started = payload || got > 0;
        match r.read(&mut buf[got..]) {
            Ok(0) if !started => return Ok(false),
            Ok(0) => {
                let part = if payload { "payload" } else { "header" };
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed inside a frame {part}"),
                ));
            }
            Ok(k) => got += k,
            Err(e)
                if !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(e)
            }
            Err(e) => match deadline {
                None if !started => return Err(e),
                Some(at) if Instant::now() >= at => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "read deadline exceeded waiting for a reply frame",
                    ))
                }
                _ => {} // poll again
            },
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Solve one sizing problem.
    Size {
        /// The architecture to size.
        arch: Architecture,
        /// Pipeline configuration (`{}` on the wire = defaults).
        config: SizingConfig,
        /// Total buffer budget.
        budget: usize,
    },
    /// Stream a campaign's chunk reports: one chunk frame per selected
    /// chunk, in the order selected, then a terminal
    /// [`Response::StreamEnd`] summary — one request, a pipelined
    /// sequence of answers, no whole-campaign materialization on
    /// either side.
    SweepStream {
        /// The campaign manifest — verified on parse.
        manifest: CampaignManifest,
        /// The manifest chunks to stream, in the order given (`None`
        /// = every chunk, in manifest order). A fleet coordinator
        /// passes each shard its assigned subset; a single chunk is
        /// `Some(vec![k])`.
        chunks: Option<Vec<usize>>,
    },
    /// Report server counters.
    Health,
    /// Begin draining: finish in-flight work, refuse new solves.
    Drain,
}

impl Request {
    /// Renders this request as canonical protocol JSON.
    pub fn to_json(&self) -> String {
        match self {
            Request::Size {
                arch,
                config,
                budget,
            } => Request::size_json(arch, config, *budget),
            Request::SweepStream { manifest, chunks } => {
                Request::sweep_stream_json(manifest, chunks.as_deref())
            }
            Request::Health => Request::verb_json("health"),
            Request::Drain => Request::verb_json("drain"),
        }
    }

    /// The canonical `size` request for borrowed values: the bytes
    /// [`Request::to_json`] renders for the same owned request.
    pub(crate) fn size_json(arch: &Architecture, config: &SizingConfig, budget: usize) -> String {
        frame(|w| {
            w.str("req", "size")
                .raw("arch", &architecture_to_json(arch))
                .raw("config", &sizing_config_to_json(config))
                .usize("budget", budget);
        })
    }

    /// The canonical `sweep_stream` request for borrowed values: the
    /// bytes [`Request::to_json`] renders for the same owned request.
    pub(crate) fn sweep_stream_json(
        manifest: &CampaignManifest,
        chunks: Option<&[usize]>,
    ) -> String {
        frame(|w| {
            w.str("req", "sweep_stream")
                .raw("manifest", &manifest.to_json());
            if let Some(chunks) = chunks {
                w.list("chunks", chunks, |out, c| push_usize(out, *c));
            }
        })
    }

    fn verb_json(verb: &str) -> String {
        frame(|w| {
            w.str("req", verb);
        })
    }

    /// Parses a request frame, checking the protocol version first.
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed JSON, an unsupported version, a verb
    /// removed in protocol v2 (named, with what replaces it), an
    /// unknown `req`, or payload schema violations.
    pub fn parse(text: &str) -> Result<Request, WireError> {
        RequestFrame::parse(text)?.decode()
    }
}

/// A request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verb {
    /// `size`.
    Size,
    /// `sweep_stream`.
    SweepStream,
    /// `health`.
    Health,
    /// `drain`.
    Drain,
}

impl Verb {
    /// The top-level keys a frame of this verb may carry.
    fn keys(self) -> &'static [&'static str] {
        match self {
            Verb::Size => &["v", "req", "arch", "config", "budget"],
            Verb::SweepStream => &["v", "req", "manifest", "chunks"],
            Verb::Health | Verb::Drain => &["v", "req"],
        }
    }
}

/// A request frame parsed once: its version and verb are checked, and
/// its tape, with the byte span of every value, is kept for whatever
/// decoding the server then needs.
///
/// A `size` frame's `arch` and `config` stay undecoded until asked
/// for: the server first looks its warm cache up under their raw bytes
/// ([`RequestFrame::raw_size_key`]) and decodes them
/// ([`RequestFrame::size_problem`]) only when that lookup misses.
#[derive(Debug)]
pub(crate) struct RequestFrame<'t> {
    doc: JsonDocument<'t>,
    verb: Verb,
}

impl<'t> RequestFrame<'t> {
    /// Parses a request frame and checks its version, its verb and its
    /// top-level keys, in that order.
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed JSON, an unsupported version, a verb
    /// removed in protocol v2 (named, with what replaces it), an
    /// unknown `req`, or a key the verb does not allow.
    pub fn parse(text: &'t str) -> Result<RequestFrame<'t>, WireError> {
        let doc = JsonDocument::parse(text)?;
        let version = doc.value().member("request", "v")?.u64("v")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Schema(format!(
                "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        let verb = match doc.value().member("request", "req")?.str("req")? {
            "size" => Verb::Size,
            "sweep_stream" => Verb::SweepStream,
            "health" => Verb::Health,
            "drain" => Verb::Drain,
            other => {
                return Err(WireError::Schema(
                    match REMOVED_VERBS.iter().find(|(verb, _)| *verb == other) {
                        Some((verb, hint)) => {
                            format!("verb \"{verb}\" was removed in protocol v2; {hint}")
                        }
                        None => format!("unknown request kind \"{other}\""),
                    },
                ))
            }
        };
        let frame = RequestFrame { doc, verb };
        frame.fields()?;
        Ok(frame)
    }

    /// The frame's top-level fields, under its verb's key list.
    fn fields(&self) -> Result<Fields<'_, JsonRef<'_>>, WireError> {
        self.doc.value().fields("request", self.verb.keys())
    }

    /// The frame's verb.
    pub fn verb(&self) -> Verb {
        self.verb
    }

    /// Decodes the whole request.
    ///
    /// # Errors
    ///
    /// [`WireError`] for payload schema violations, checked field by
    /// field in the order `arch`, `config`, `budget` (for `size`) and
    /// `manifest`, `chunks` (for `sweep_stream`).
    pub fn decode(&self) -> Result<Request, WireError> {
        match self.verb {
            Verb::Size => {
                let (arch, config) = self.size_problem()?;
                Ok(Request::Size {
                    arch,
                    config,
                    budget: self.size_budget()?,
                })
            }
            Verb::SweepStream => {
                let f = self.fields()?;
                let manifest = CampaignManifest::from_json(f.req("manifest")?)?;
                let chunks = f
                    .opt("chunks")
                    .map(|_| f.list("chunks", |c| c.usize("chunk")));
                Ok(Request::SweepStream {
                    manifest,
                    chunks: chunks.transpose()?,
                })
            }
            Verb::Health => Ok(Request::Health),
            Verb::Drain => Ok(Request::Drain),
        }
    }

    /// A `size` frame's raw cache key: the `arch` value's bytes, `'\n'`,
    /// then the `config` value's bytes, exactly as they arrived,
    /// borrowed from the frame. `None` when either field is missing.
    /// When the frame spells both canonically this spells
    /// [`crate::cache_key`] of what they decode to.
    pub fn raw_size_key(&self) -> Option<RawKey<'_>> {
        Some(RawKey::new(self.doc.raw("arch")?, self.doc.raw("config")?))
    }

    /// Decodes a `size` frame's architecture, then its config.
    ///
    /// # Errors
    ///
    /// [`WireError`] for the first missing or invalid one of the two.
    pub fn size_problem(&self) -> Result<(Architecture, SizingConfig), WireError> {
        let f = self.fields()?;
        let arch = architecture_from_json(f.req("arch")?)?;
        let config = sizing_config_from_json(f.req("config")?)?;
        Ok((arch, config))
    }

    /// Decodes a `size` frame's budget.
    ///
    /// # Errors
    ///
    /// [`WireError`] when it is missing or not a non-negative integer.
    pub fn size_budget(&self) -> Result<usize, WireError> {
        self.fields()?.usize("budget")
    }
}

// ---------------------------------------------------------------------
// Traces and health
// ---------------------------------------------------------------------

/// Per-request trace record: everything path-dependent about how a
/// request was served, quarantined away from the semantic `result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trace {
    /// Whether the solve started from a warm cached context.
    pub warm: bool,
    /// Simplex pivots this request actually spent (a warm hit on a
    /// repeated query spends ~0).
    pub pivots: usize,
    /// Microseconds between frame receipt and solve start.
    pub queue_wait_us: u64,
    /// Microseconds inside the solve itself.
    pub solve_us: u64,
}

impl Trace {
    /// Renders the trace as canonical JSON.
    pub fn to_json(&self) -> String {
        ObjWriter::render(|w| {
            w.bool("warm", self.warm)
                .usize("pivots", self.pivots)
                .usize("queue_wait_us", self.queue_wait_us as usize)
                .usize("solve_us", self.solve_us as usize);
        })
    }

    /// Parses a trace object.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches.
    pub fn from_json<'a>(v: impl JsonRead<'a>) -> Result<Trace, WireError> {
        let f = v.fields("trace", &["warm", "pivots", "queue_wait_us", "solve_us"])?;
        Ok(Trace {
            warm: f.bool("warm")?,
            pivots: f.usize("pivots")?,
            queue_wait_us: f.u64("queue_wait_us")?,
            solve_us: f.u64("solve_us")?,
        })
    }
}

/// Per-verb request counts (parsed requests only — a frame that fails
/// to parse counts nowhere). The `health` count includes the request
/// that reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerbCounts {
    /// `size` requests served.
    pub size: u64,
    /// `sweep_stream` requests served.
    pub sweep_stream: u64,
    /// `health` requests served.
    pub health: u64,
    /// `drain` requests served.
    pub drain: u64,
}

impl VerbCounts {
    /// Renders the counts as canonical JSON.
    pub fn to_json(&self) -> String {
        ObjWriter::render(|w| {
            w.usize("size", self.size as usize)
                .usize("sweep_stream", self.sweep_stream as usize)
                .usize("health", self.health as usize)
                .usize("drain", self.drain as usize);
        })
    }

    /// Parses a verb-count object.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches.
    pub fn from_json<'a>(v: impl JsonRead<'a>) -> Result<VerbCounts, WireError> {
        let f = v.fields("requests", &["size", "sweep_stream", "health", "drain"])?;
        Ok(VerbCounts {
            size: f.u64("size")?,
            sweep_stream: f.u64("sweep_stream")?,
            health: f.u64("health")?,
            drain: f.u64("drain")?,
        })
    }
}

/// Streaming-pipeline gauges reported by a `health` request: how much
/// result data has moved through `sweep_stream`, and the largest chunk
/// ever written as one frame (the reducer-side high-water mark is a
/// *client* figure). `frames` and `bytes` are lifetime-monotone; the
/// peak only ever rises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamGauges {
    /// Result frames written by `sweep_stream` (chunk frames, terminal
    /// summaries and error frames) since start.
    pub frames: u64,
    /// Payload bytes written by `sweep_stream` since start.
    pub bytes: u64,
    /// Largest chunk, in points, written as one frame.
    pub peak_resident_points: u64,
}

impl StreamGauges {
    /// Renders the gauges as canonical JSON.
    pub fn to_json(&self) -> String {
        ObjWriter::render(|w| {
            w.usize("frames", self.frames as usize)
                .usize("bytes", self.bytes as usize)
                .usize("peak_resident_points", self.peak_resident_points as usize);
        })
    }

    /// Parses a gauges object.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches.
    pub fn from_json<'a>(v: impl JsonRead<'a>) -> Result<StreamGauges, WireError> {
        let f = v.fields("streaming", &["frames", "bytes", "peak_resident_points"])?;
        Ok(StreamGauges {
            frames: f.u64("frames")?,
            bytes: f.u64("bytes")?,
            peak_resident_points: f.u64("peak_resident_points")?,
        })
    }
}

/// Server counters reported by a `health` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Health {
    /// Contexts currently cached.
    pub cache_entries: usize,
    /// Cache capacity (entries).
    pub cache_capacity: usize,
    /// Warm cache hits since start.
    pub hits: u64,
    /// Cache misses (cold solves) since start.
    pub misses: u64,
    /// Contexts evicted since start.
    pub evictions: u64,
    /// Pivots spent by warm solves since start.
    pub warm_pivots: u64,
    /// Pivots spent by cold solves since start.
    pub cold_pivots: u64,
    /// Requests currently being solved.
    pub inflight: usize,
    /// In-flight bound beyond which requests are refused with `busy`.
    pub max_inflight: usize,
    /// Whether the server is draining.
    pub draining: bool,
    /// Worker width of the attached [`socbuf_sweep::WorkPool`].
    pub workers: usize,
    /// Streaming-pipeline gauges since start.
    pub streaming: StreamGauges,
    /// Per-verb request counts since start.
    pub requests: VerbCounts,
}

impl Health {
    /// Renders the health record as canonical JSON.
    pub fn to_json(&self) -> String {
        ObjWriter::render(|w| {
            w.usize("cache_entries", self.cache_entries)
                .usize("cache_capacity", self.cache_capacity)
                .usize("hits", self.hits as usize)
                .usize("misses", self.misses as usize)
                .usize("evictions", self.evictions as usize)
                .usize("warm_pivots", self.warm_pivots as usize)
                .usize("cold_pivots", self.cold_pivots as usize)
                .usize("inflight", self.inflight)
                .usize("max_inflight", self.max_inflight)
                .bool("draining", self.draining)
                .usize("workers", self.workers)
                .raw("streaming", &self.streaming.to_json())
                .raw("requests", &self.requests.to_json());
        })
    }

    /// Parses a health object.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches.
    pub fn from_json<'a>(v: impl JsonRead<'a>) -> Result<Health, WireError> {
        let f = v.fields(
            "health",
            &[
                "cache_entries",
                "cache_capacity",
                "hits",
                "misses",
                "evictions",
                "warm_pivots",
                "cold_pivots",
                "inflight",
                "max_inflight",
                "draining",
                "workers",
                "streaming",
                "requests",
            ],
        )?;
        Ok(Health {
            cache_entries: f.usize("cache_entries")?,
            cache_capacity: f.usize("cache_capacity")?,
            hits: f.u64("hits")?,
            misses: f.u64("misses")?,
            evictions: f.u64("evictions")?,
            warm_pivots: f.u64("warm_pivots")?,
            cold_pivots: f.u64("cold_pivots")?,
            inflight: f.usize("inflight")?,
            max_inflight: f.usize("max_inflight")?,
            draining: f.bool("draining")?,
            workers: f.usize("workers")?,
            streaming: StreamGauges::from_json(f.req("streaming")?)?,
            requests: VerbCounts::from_json(f.req("requests")?)?,
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A server response, before rendering / after parsing.
#[derive(Debug)]
pub enum Response {
    /// Answer to `size`: the semantic outcome rendering plus a trace.
    Size {
        /// Canonical [`sizing_outcome_semantic_json`] text.
        result: String,
        /// How the request was served.
        trace: Trace,
    },
    /// One chunk frame of a `sweep_stream` answer: a canonical
    /// chunk-report document
    /// ([`socbuf_sweep::ChunkReport::to_json`]).
    Chunk {
        /// Canonical chunk-report JSON.
        report: String,
        /// How the chunk was served (`warm` is always false: a chunk
        /// never starts from the server's context cache; `pivots` = the
        /// chunk's total, to which a warm budget chunk's first point
        /// adds none when the campaign's anchor answered it).
        trace: Trace,
    },
    /// Terminal frame of a `sweep_stream` answer: what the server
    /// believes it streamed, so the client can verify it consumed the
    /// whole stream (frame loss shows as a count mismatch, a crossed
    /// stream as a hash mismatch).
    StreamEnd {
        /// The manifest's config hash, echoed back.
        config_hash: u64,
        /// Chunk frames streamed before this summary.
        frames: u64,
        /// Points across those chunk frames.
        points: u64,
    },
    /// Answer to `health`.
    Health(Health),
    /// Drain acknowledgement.
    Draining,
    /// Backpressure refusal: retry after the given hint.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Any other failure.
    Error {
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// Builds the `size` response for an outcome (renders the semantic
    /// subset — see [`sizing_outcome_semantic_json`]).
    pub fn for_outcome(outcome: &SizingOutcome, trace: Trace) -> Response {
        Response::Size {
            result: sizing_outcome_semantic_json(outcome),
            trace,
        }
    }

    /// Renders this response as canonical protocol JSON.
    pub fn to_json(&self) -> String {
        frame(|w| {
            match self {
                Response::Size { result, trace } => w
                    .bool("ok", true)
                    .raw("result", result)
                    .raw("trace", &trace.to_json()),
                Response::Chunk { report, trace } => w
                    .bool("ok", true)
                    .raw("chunk_report", report)
                    .raw("trace", &trace.to_json()),
                Response::StreamEnd {
                    config_hash,
                    frames,
                    points,
                } => w.bool("ok", true).obj("stream_end", |w| {
                    w.str("config_hash", &config_hash_to_hex(*config_hash))
                        .usize("frames", *frames as usize)
                        .usize("points", *points as usize);
                }),
                Response::Health(h) => w.bool("ok", true).raw("health", &h.to_json()),
                Response::Draining => w.bool("ok", true).bool("draining", true),
                Response::Busy { retry_after_ms } => w
                    .bool("ok", false)
                    .str("error", "busy")
                    .f64("retry_after_ms", *retry_after_ms as f64),
                Response::Error { message } => w.bool("ok", false).str("error", message),
            };
        })
    }

    /// Parses a response frame (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed JSON, a version mismatch, or a shape
    /// that matches no response kind.
    pub fn parse(text: &str) -> Result<Response, WireError> {
        Response::from_document(&JsonDocument::parse(text)?)
    }

    /// Decodes a parsed response frame (see [`Response::parse`]). A
    /// caller that goes on to decode the `result` or `chunk_report`
    /// payload does so from the same `doc`, so no frame is parsed
    /// twice.
    ///
    /// # Errors
    ///
    /// As [`Response::parse`], after the JSON itself parsed.
    pub(crate) fn from_document(doc: &JsonDocument) -> Result<Response, WireError> {
        let f = doc.value().fields(
            "response",
            &[
                "v",
                "ok",
                "result",
                "chunk_report",
                "trace",
                "stream_end",
                "health",
                "draining",
                "error",
                "retry_after_ms",
            ],
        )?;
        let version = f.u64("v")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Schema(format!(
                "unsupported protocol version {version}"
            )));
        }
        if !f.bool("ok")? {
            let Some(message) = f.opt("error") else {
                return Err(WireError::Schema(
                    "response: failure without \"error\"".into(),
                ));
            };
            let message = message.str("error")?.to_string();
            return Ok(match f.opt("retry_after_ms") {
                Some(ms) => Response::Busy {
                    retry_after_ms: ms.u64("retry_after_ms")?,
                },
                None => Response::Error { message },
            });
        }
        let trace = || Trace::from_json(f.req("trace")?);
        // The payload text is the frame's own bytes for that field,
        // copied out of its span: the server renders canonically, so
        // this is byte for byte what it computed, with no subtree
        // rendered again.
        if let Some(result) = doc.raw("result") {
            return Ok(Response::Size {
                result: result.to_string(),
                trace: trace()?,
            });
        }
        if let Some(report) = doc.raw("chunk_report") {
            return Ok(Response::Chunk {
                report: report.to_string(),
                trace: trace()?,
            });
        }
        if let Some(s) = f.opt("stream_end") {
            let s = s.fields("stream_end", &["config_hash", "frames", "points"])?;
            return Ok(Response::StreamEnd {
                config_hash: config_hash_from_hex(s.str("config_hash")?, "config_hash")?,
                frames: s.u64("frames")?,
                points: s.u64("points")?,
            });
        }
        if let Some(h) = f.opt("health") {
            return Ok(Response::Health(Health::from_json(h)?));
        }
        if f.opt("draining").is_some() {
            return Ok(Response::Draining);
        }
        Err(WireError::Schema(
            "response matches no known shape \
             (expected result/chunk_report/stream_end/health/draining)"
                .into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::templates;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"v\":2}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, None).unwrap().as_deref(),
            Some("{\"v\":2}")
        );
        assert_eq!(read_frame(&mut r, None).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r, None).unwrap(),
            None,
            "clean EOF at boundary"
        );

        // A hostile length prefix is rejected without allocating.
        let mut r = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(read_frame(&mut r, None).is_err());

        // EOF inside a frame is torn, not clean.
        let mut partial = Vec::new();
        write_frame(&mut partial, "hello").unwrap();
        partial.truncate(6);
        let mut r = io::Cursor::new(partial);
        assert!(read_frame(&mut r, None).is_err());
    }

    /// Serves `frame` one byte per read, with a read timeout before
    /// each of the byte positions in `stalls`.
    struct Stalling {
        frame: Vec<u8>,
        at: usize,
        stalls: Vec<usize>,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(i) = self.stalls.iter().position(|&s| s == self.at) {
                self.stalls.remove(i);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some(&b) = self.frame.get(self.at) else {
                return Ok(0);
            };
            buf[0] = b;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_timeouts_follow_the_deadline_mode() {
        let mut frame = Vec::new();
        write_frame(&mut frame, "hi").unwrap();
        let stalling = |stalls: &[usize]| Stalling {
            frame: frame.clone(),
            at: 0,
            stalls: stalls.to_vec(),
        };
        let later = Some(Instant::now() + std::time::Duration::from_secs(60));
        let past = Some(Instant::now());

        // Server read: a timeout before the first byte is the caller's,
        // one mid-header or mid-payload is waited out.
        let err = read_frame(&mut stalling(&[0]), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let got = read_frame(&mut stalling(&[2, 5]), None).unwrap();
        assert_eq!(got.as_deref(), Some("hi"));

        // Client read: every timeout polls again until the deadline,
        // then fails anywhere in the frame.
        let got = read_frame(&mut stalling(&[0, 2, 5]), later).unwrap();
        assert_eq!(got.as_deref(), Some("hi"));
        for at in [0, 2, 5] {
            let err = read_frame(&mut stalling(&[at]), past).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "stall at byte {at}");
        }
    }

    #[test]
    fn requests_roundtrip_through_the_codec() {
        let arch = templates::amba();
        let config = SizingConfig::small();
        let manifest = CampaignManifest::new(
            socbuf_core::wire::ManifestShape::Budget {
                arch: arch.clone(),
                budgets: vec![8, 16, 24, 32, 40],
                warm_start: true,
            },
            config.clone(),
        )
        .unwrap();
        for req in [
            Request::Size {
                arch: arch.clone(),
                config: config.clone(),
                budget: 24,
            },
            Request::SweepStream {
                manifest: manifest.clone(),
                chunks: None,
            },
            Request::SweepStream {
                manifest,
                chunks: Some(vec![1, 0]),
            },
            Request::Health,
            Request::Drain,
        ] {
            let json = req.to_json();
            let back = Request::parse(&json).expect("round-trip parse");
            assert_eq!(back.to_json(), json, "canonical re-render must be stable");
        }
    }

    #[test]
    fn borrowed_writers_render_the_owned_requests_bytes() {
        let arch = templates::amba();
        let config = SizingConfig::small();
        let manifest = CampaignManifest::new(
            socbuf_core::wire::ManifestShape::Budget {
                arch: arch.clone(),
                budgets: vec![8, 16, 24],
                warm_start: true,
            },
            config.clone(),
        )
        .unwrap();
        let owned = Request::Size {
            arch: arch.clone(),
            config: config.clone(),
            budget: 24,
        };
        assert_eq!(Request::size_json(&arch, &config, 24), owned.to_json());
        for chunks in [None, Some(vec![1, 0])] {
            let owned = Request::SweepStream {
                manifest: manifest.clone(),
                chunks: chunks.clone(),
            };
            assert_eq!(
                Request::sweep_stream_json(&manifest, chunks.as_deref()),
                owned.to_json()
            );
        }
    }

    #[test]
    fn a_canonical_size_frame_spells_its_own_cache_key() {
        let text = Request::size_json(&templates::figure1(), &SizingConfig::small(), 24);
        let frame = RequestFrame::parse(&text).unwrap();
        assert_eq!(frame.verb(), Verb::Size);
        let (arch, config) = frame.size_problem().unwrap();
        assert_eq!(frame.size_budget().unwrap(), 24);
        let key = crate::cache_key(&arch, &config);
        let raw = |frame: &RequestFrame| frame.raw_size_key().map(|k| k.to_string());
        assert_eq!(raw(&frame), Some(key.clone()));

        // Whitespace between fields leaves the values' spans, and so the
        // raw key, alone; a partial config spells another raw key and
        // decodes to the same canonical one.
        let padded = text.replace(",\"config\":", " , \"config\" :\t");
        let frame = RequestFrame::parse(&padded).unwrap();
        assert_eq!(raw(&frame), Some(key.clone()));
        let partial = text.replace(
            &sizing_config_to_json(&SizingConfig::small()),
            "{\"effort_levels\":3,\"state_cap\":8}",
        );
        let frame = RequestFrame::parse(&partial).unwrap();
        assert_ne!(raw(&frame), Some(key.clone()));
        let (arch, config) = frame.size_problem().unwrap();
        assert_eq!(crate::cache_key(&arch, &config), key);

        // A frame missing either field has no raw key.
        let frame = RequestFrame::parse("{\"v\":2,\"req\":\"size\",\"config\":{}}").unwrap();
        assert_eq!(raw(&frame), None);
    }

    #[test]
    fn version_and_kind_are_checked() {
        let refusal = |text: &str| match Request::parse(text) {
            Err(WireError::Schema(message)) => message,
            other => panic!("{text} must be refused by schema, got {other:?}"),
        };
        assert!(Request::parse("{\"v\":2,\"req\":\"health\"}").is_ok());
        // A v1 frame gets the named version error, whatever its verb.
        for verb in ["health", "size", "sweep"] {
            let message = refusal(&format!("{{\"v\":1,\"req\":\"{verb}\"}}"));
            assert!(
                message.contains("unsupported protocol version 1"),
                "{message}"
            );
        }
        // Each verb v2 removed is refused by name under v2.
        for verb in [
            "sweep",
            "frontier",
            "sweep_chunk",
            "snapshot_export",
            "snapshot_import",
        ] {
            let message = refusal(&format!("{{\"v\":2,\"req\":\"{verb}\"}}"));
            let named = format!("verb \"{verb}\" was removed in protocol v2; ");
            assert!(message.starts_with(&named), "{message}");
        }
        let message = refusal("{\"v\":2,\"req\":\"explode\"}");
        assert!(message.contains("unknown request kind"), "{message}");
        assert!(Request::parse("{\"req\":\"health\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Response::parse("{\"v\":1,\"ok\":true}").is_err());
    }

    #[test]
    fn responses_roundtrip_through_the_codec() {
        let trace = Trace {
            warm: true,
            pivots: 0,
            queue_wait_us: 12,
            solve_us: 345,
        };
        let health = Health {
            cache_entries: 2,
            cache_capacity: 8,
            hits: 5,
            misses: 3,
            evictions: 1,
            warm_pivots: 4,
            cold_pivots: 900,
            inflight: 1,
            max_inflight: 4,
            draining: false,
            workers: 2,
            streaming: StreamGauges {
                frames: 9,
                bytes: 4096,
                peak_resident_points: 4,
            },
            requests: VerbCounts {
                size: 7,
                sweep_stream: 2,
                health: 3,
                drain: 0,
            },
        };
        for resp in [
            Response::Size {
                result: "{\"allocation\":[1,2]}".into(),
                trace,
            },
            Response::Chunk {
                report: "{\"chunk\":0,\"kind\":\"budget\",\"config_hash\":\"00000000000000ab\",\"start\":0,\"end\":1,\"points\":[]}".into(),
                trace,
            },
            Response::StreamEnd {
                config_hash: 0xab,
                frames: 3,
                points: 10,
            },
            Response::Health(health),
            Response::Draining,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                message: "no \"such\" engine".into(),
            },
        ] {
            let json = resp.to_json();
            let back = Response::parse(&json).expect("round-trip parse");
            assert_eq!(back.to_json(), json, "canonical re-render must be stable");
        }
    }

    /// `doc` with the object at `path` (keys, or indices into arrays)
    /// edited by `edit`.
    fn edited(
        doc: &JsonValue,
        path: &[&str],
        edit: impl FnOnce(&mut Vec<(String, JsonValue)>),
    ) -> JsonValue {
        let mut doc = doc.clone();
        let mut v = &mut doc;
        for seg in path {
            v = match v {
                JsonValue::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                other => panic!("{path:?}: {seg} indexes {other:?}"),
            };
        }
        match v {
            JsonValue::Obj(fields) => edit(fields),
            other => panic!("{path:?} is not an object: {other:?}"),
        }
        doc
    }

    /// The field rules on the object at `path` of the frame `text`,
    /// which `decode` reads as the record `parent`: an extra key `zz` is
    /// refused by name; dropping a key decodes when it is `optional`,
    /// fails some other way when it is one of `tags` (the key that
    /// selects a response's shape), and otherwise gives
    /// `<parent>: missing field "<key>"`.
    fn assert_field_rules(
        text: &str,
        path: &[&str],
        parent: &str,
        optional: &[&str],
        tags: &[&str],
        decode: &dyn Fn(&str) -> Result<(), WireError>,
    ) {
        let at = format!("{parent} at {path:?} of {text}");
        let doc = JsonValue::parse(text).unwrap();
        decode(text).unwrap_or_else(|e| panic!("{at}: the canonical text must decode: {e}"));
        let extra = edited(&doc, path, |f| f.push(("zz".into(), JsonValue::Num(1.0))));
        match decode(&extra.render()) {
            Err(WireError::Schema(msg)) => assert!(
                msg.starts_with(&format!("{parent}: unknown field \"zz\"")),
                "{at}: {msg}"
            ),
            other => panic!("{at}: an extra key must be refused by name, got {other:?}"),
        }
        let mut keys = Vec::new();
        edited(&doc, path, |f| {
            keys = f.iter().map(|(k, _)| k.clone()).collect()
        });
        for key in &keys {
            let dropped = edited(&doc, path, |f| f.retain(|(k, _)| k != key));
            let got = decode(&dropped.render());
            if optional.contains(&key.as_str()) {
                assert!(got.is_ok(), "{at}: dropping optional {key}: {got:?}");
            } else if tags.contains(&key.as_str()) {
                assert!(matches!(got, Err(WireError::Schema(_))), "{at}: {key}");
            } else {
                let want = format!("{parent}: missing field \"{key}\"");
                assert_eq!(got, Err(WireError::Schema(want)), "{at}: dropping {key}");
            }
        }
    }

    #[test]
    fn every_frame_record_refuses_unknown_keys_and_names_missing_ones() {
        let arch = templates::figure1();
        let config = SizingConfig::small();
        let manifest = CampaignManifest::new(
            socbuf_core::wire::ManifestShape::Budget {
                arch: arch.clone(),
                budgets: vec![8, 16, 24, 32, 40],
                warm_start: true,
            },
            config.clone(),
        )
        .unwrap();
        let request = |text: &str| Request::parse(text).map(drop);
        let sized = Request::size_json(&arch, &config, 24);
        assert_field_rules(&sized, &[], "request", &[], &[], &request);
        let streamed = Request::sweep_stream_json(&manifest, Some(&[1, 0]));
        assert_field_rules(&streamed, &[], "request", &["chunks"], &[], &request);
        for verb in [Request::Health, Request::Drain] {
            assert_field_rules(&verb.to_json(), &[], "request", &[], &[], &request);
        }

        let trace = Trace {
            warm: false,
            pivots: 31,
            queue_wait_us: 4,
            solve_us: 900,
        };
        let health = Health {
            cache_entries: 1,
            cache_capacity: 8,
            hits: 2,
            misses: 1,
            evictions: 0,
            warm_pivots: 3,
            cold_pivots: 40,
            inflight: 0,
            max_inflight: 4,
            draining: false,
            workers: 2,
            streaming: StreamGauges {
                frames: 3,
                bytes: 2048,
                peak_resident_points: 4,
            },
            requests: VerbCounts {
                size: 5,
                sweep_stream: 1,
                health: 2,
                drain: 0,
            },
        };
        let response = |text: &str| Response::parse(text).map(drop);
        let size = Response::Size {
            result: "{\"allocation\":[1,2]}".into(),
            trace,
        }
        .to_json();
        assert_field_rules(&size, &[], "response", &[], &["result"], &response);
        assert_field_rules(&size, &["trace"], "trace", &[], &[], &response);
        let chunk = Response::Chunk {
            report: "{\"chunk\":0}".into(),
            trace,
        }
        .to_json();
        assert_field_rules(&chunk, &[], "response", &[], &["chunk_report"], &response);
        assert_field_rules(&chunk, &["trace"], "trace", &[], &[], &response);
        let end = Response::StreamEnd {
            config_hash: 0xab,
            frames: 2,
            points: 5,
        }
        .to_json();
        assert_field_rules(&end, &[], "response", &[], &["stream_end"], &response);
        assert_field_rules(&end, &["stream_end"], "stream_end", &[], &[], &response);
        let healthy = Response::Health(health).to_json();
        assert_field_rules(&healthy, &[], "response", &[], &["health"], &response);
        for (path, parent) in [
            (vec!["health"], "health"),
            (vec!["health", "streaming"], "streaming"),
            (vec!["health", "requests"], "requests"),
        ] {
            assert_field_rules(&healthy, &path, parent, &[], &[], &response);
        }
        let draining = Response::Draining.to_json();
        assert_field_rules(&draining, &[], "response", &[], &["draining"], &response);
        let busy = Response::Busy { retry_after_ms: 50 }.to_json();
        let (optional, tags) = (["retry_after_ms"], ["error"]);
        assert_field_rules(&busy, &[], "response", &optional, &tags, &response);
        let failed = Response::Error {
            message: "no".into(),
        }
        .to_json();
        assert_field_rules(&failed, &[], "response", &[], &["error"], &response);
        assert_eq!(
            Response::parse("[2]").unwrap_err(),
            WireError::Schema("response: expected an object, got an array".into())
        );
    }

    /// Fields the frames carry as integers (an array's items count as
    /// its key), and every other field a frame carries a number in.
    const INTEGER_KEYS: [&str; 42] = [
        "v",
        "index",
        "queues",
        "budget",
        "budgets",
        "chunks",
        "chunk",
        "start",
        "end",
        "chunk_len",
        "state_cap",
        "effort_levels",
        "from",
        "to",
        "src",
        "processor",
        "bus",
        "buses",
        "allocation",
        "requirements",
        "pivots",
        "queue_wait_us",
        "solve_us",
        "frames",
        "points",
        "retry_after_ms",
        "cache_entries",
        "cache_capacity",
        "hits",
        "misses",
        "evictions",
        "warm_pivots",
        "cold_pivots",
        "inflight",
        "max_inflight",
        "workers",
        "bytes",
        "peak_resident_points",
        "size",
        "sweep_stream",
        "health",
        "drain",
    ];
    const FLOAT_KEYS: [&str; 12] = [
        "load_factor",
        "offered_rate",
        "predicted_loss",
        "shadow_price",
        "service_rate",
        "weight",
        "rate",
        "efforts",
        "predicted_loss_rate",
        "budget_shadow_price",
        "condition_before",
        "condition_after",
    ];

    /// Every path in `v` with the value it leads to, parents first; an
    /// array item's segment is its index.
    fn paths(v: &JsonValue, at: &mut Vec<String>, out: &mut Vec<(Vec<String>, JsonValue)>) {
        let children: Vec<(String, &JsonValue)> = match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, x)| (k.clone(), x)).collect(),
            JsonValue::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, x)| (i.to_string(), x))
                .collect(),
            _ => Vec::new(),
        };
        for (seg, x) in children {
            at.push(seg);
            out.push((at.clone(), x.clone()));
            paths(x, at, out);
            at.pop();
        }
    }

    /// `doc` with the value at `path` replaced by `with`.
    fn replaced(doc: &JsonValue, path: &[String], with: JsonValue) -> JsonValue {
        let mut doc = doc.clone();
        let mut v = &mut doc;
        for seg in path {
            v = match v {
                JsonValue::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                JsonValue::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
                other => panic!("{path:?}: {seg} indexes {other:?}"),
            };
        }
        *v = with;
        doc
    }

    /// The field rules on value kinds, at every path of the frame `text`
    /// outside the `opaque` payloads `decode` does not read: a string
    /// swapped for a number, or any other value for a string, is refused
    /// by a schema error, and an integer field holding 2⁵³ + 1 is refused
    /// by name, quoting the literal (its `f64` rounds to 2⁵³).
    fn assert_field_kinds(
        text: &str,
        opaque: &[&str],
        decode: &dyn Fn(&str) -> Result<(), WireError>,
    ) {
        let doc = JsonValue::parse(text).unwrap();
        decode(text).unwrap_or_else(|e| panic!("{text}: the canonical text must decode: {e}"));
        let mut all = Vec::new();
        paths(&doc, &mut Vec::new(), &mut all);
        for (path, value) in all {
            if path.iter().any(|seg| opaque.contains(&seg.as_str())) {
                continue;
            }
            let at = format!("{path:?} of {text}");
            let swap = match value {
                JsonValue::Str(_) => JsonValue::Num(1.0),
                _ => JsonValue::Str("swapped".into()),
            };
            let got = decode(&replaced(&doc, &path, swap).render());
            assert!(matches!(got, Err(WireError::Schema(_))), "{at}: {got:?}");
            if !matches!(value, JsonValue::Num(_)) {
                continue;
            }
            let field = path
                .iter()
                .rev()
                .find(|s| s.parse::<usize>().is_err())
                .unwrap();
            if FLOAT_KEYS.contains(&field.as_str()) {
                continue;
            }
            assert!(
                INTEGER_KEYS.contains(&field.as_str()),
                "{at}: unlisted number field"
            );
            let marked = replaced(&doc, &path, JsonValue::Str("2^53+1".into())).render();
            let past = marked.replacen("\"2^53+1\"", "9007199254740993", 1);
            match decode(&past) {
                Err(WireError::Schema(msg)) => assert!(
                    msg.ends_with(": expected a non-negative integer, got 9007199254740993"),
                    "{at}: {msg}"
                ),
                other => panic!("{at}: 2^53 + 1 must be refused by name, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_frame_field_refuses_kind_swaps_and_integers_past_2_53() {
        let arch = templates::figure1();
        let config = SizingConfig::small();
        let manifest = CampaignManifest::new(
            socbuf_core::wire::ManifestShape::Budget {
                arch: arch.clone(),
                budgets: vec![8, 16, 24],
                warm_start: true,
            },
            config.clone(),
        )
        .unwrap();
        let request = |text: &str| Request::parse(text).map(drop);
        assert_field_kinds(&Request::size_json(&arch, &config, 24), &[], &request);
        let streamed = Request::sweep_stream_json(&manifest, Some(&[1, 0]));
        assert_field_kinds(&streamed, &[], &request);

        let trace = Trace {
            warm: true,
            pivots: 3,
            queue_wait_us: 4,
            solve_us: 900,
        };
        let outcome = socbuf_core::size_buffers(&arch, 24, &config).unwrap();
        let size_reply = |text: &str| match crate::SizeReply::parse(text, &arch) {
            Ok(_) => Ok(()),
            Err(crate::ClientError::Wire(e)) => Err(e),
            Err(other) => panic!("{text}: {other}"),
        };
        let sized = Response::for_outcome(&outcome, trace).to_json();
        assert_field_kinds(&sized, &[], &size_reply);

        let chunk_reply = |text: &str| {
            Response::parse(text)?;
            let doc = JsonDocument::parse(text)?;
            socbuf_sweep::ChunkReport::from_json(doc.get("chunk_report").unwrap()).map(drop)
        };
        let pool = socbuf_sweep::WorkPool::serial();
        let report = socbuf_sweep::execute_manifest_chunk_traced(&manifest, 0, &pool).unwrap();
        let report = report.to_json();
        let chunk = Response::Chunk { report, trace }.to_json();
        assert_field_kinds(&chunk, &[], &chunk_reply);

        let response = |text: &str| Response::parse(text).map(drop);
        let health = Health {
            cache_entries: 1,
            cache_capacity: 8,
            hits: 2,
            misses: 1,
            evictions: 0,
            warm_pivots: 3,
            cold_pivots: 40,
            inflight: 0,
            max_inflight: 4,
            draining: false,
            workers: 2,
            streaming: StreamGauges {
                frames: 3,
                bytes: 2048,
                peak_resident_points: 4,
            },
            requests: VerbCounts {
                size: 5,
                sweep_stream: 1,
                health: 2,
                drain: 0,
            },
        };
        for (frame, opaque) in [
            (Response::Health(health), &[][..]),
            (
                Response::StreamEnd {
                    config_hash: 0xab,
                    frames: 2,
                    points: 5,
                },
                &[],
            ),
            (Response::Busy { retry_after_ms: 50 }, &[]),
            (
                Response::Error {
                    message: "no".into(),
                },
                &[],
            ),
            // The drain acknowledgement is told apart by its key alone.
            (Response::Draining, &["draining"]),
        ] {
            assert_field_kinds(&frame.to_json(), opaque, &response);
        }
    }
}

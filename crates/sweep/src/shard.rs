//! Manifest-driven shard execution and the merge reducer.
//!
//! A sharded campaign is the same campaign three ways:
//!
//! * **serially**, via [`run_manifest`] (or the campaign's own `run`) —
//!   the reference rendering;
//! * **chunk by chunk**, via [`CampaignPlan::run_chunks`] over a
//!   [`plan_manifest`] plan — what a `socbuf-serve` shard runs for a
//!   `sweep_stream` request, rendering each chunk with
//!   [`chunk_report_json`] into a [`ChunkReport`] frame;
//! * **merged**, via [`merge_chunk_reports`] — the reducer verifies the
//!   reports cover the manifest's chunk partition exactly (no gaps, no
//!   overlaps, no foreign campaigns) and reassembles the points.
//!
//! A [`ChunkReport`] holds typed [`SweepPoint`]s: a frame is decoded
//! once, from its parsed document, and the reducer only moves them.
//!
//! The contract pinned by the test-suite and `shard_probe --smoke`:
//! merged CSV/JSONL bytes equal the serial single-host bytes for *any*
//! assignment of chunks to shards, because chunk boundaries (and with
//! them warm-chain membership) are declared by the manifest — the
//! [`ChunkPolicy`] partition by default, or a boundary-aligned
//! coarsening of it (`scale_probe` declares 256-item chunks) — never
//! chosen by who executes the chunk. A warm budget campaign's chunks
//! also start from its point 0, which every executor solves the same
//! way, whether or not it runs chunk 0. Pivot counts do vary with
//! chunking, which is why they are trace-only and never rendered (see
//! [`SweepPoint::lp_iterations`]).
//!
//! Every execution entry point here goes through [`plan_manifest`]: the
//! manifest's shape is planned exactly as a local campaign's is, and
//! the declared partition is re-checked once, because
//! [`CampaignManifest`]'s fields are public and may have been edited
//! since construction.
//!
//! The reducer is streaming at heart: [`StreamingReducer`] ingests
//! chunk reports in any arrival order, verifies coverage incrementally,
//! and flushes points into a [`PointSink`] the moment the in-order run
//! extends — resident memory is bounded by the out-of-order window,
//! not the campaign. [`merge_chunk_reports`] is the batch wrapper
//! (reducer + collecting sink).
//!
//! [`ChunkPolicy`]: socbuf_core::ChunkPolicy
//! [`SweepPoint::lp_iterations`]: crate::report::SweepPoint

use std::collections::BTreeMap;

use socbuf_core::wire::{
    config_hash_from_hex, config_hash_to_hex, CampaignManifest, JsonRead, ObjWriter, WireError,
};

use crate::campaign::{manifest_err, CampaignPlan, SinkRun, SweepError};
use crate::pool::WorkPool;
use crate::report::{push_point_json, sweep_point_from_json, SweepKind, SweepPoint, SweepReport};
use crate::stream::{PointSink, VecSink};

/// Lowers a manifest to the chunk-execution core of the campaign it
/// describes, executing the manifest's *declared* chunk partition —
/// the policy default, or a coarser one built with
/// [`CampaignManifest::with_chunks`]. The plan owns one copy of the
/// manifest's shape, so one manifest can be planned many times (once
/// per stream request on a shard server).
///
/// A manifest's fields are public, so the plan re-checks what it
/// executes: the campaign through
/// [`ManifestShape::validate`](socbuf_core::wire::ManifestShape::validate)
/// and the declared partition through
/// [`CampaignManifest::validate_chunks`], then uses that partition as
/// is. ([`CampaignManifest::from_json`] already runs both checks on a
/// manifest that arrives over the wire.)
///
/// # Errors
///
/// [`SweepError::BadConfig`] for an unusable campaign (empty grid, zero
/// per-queue budget) or a declared partition that is not a
/// boundary-aligned coarsening of the campaign's
/// [`ChunkPolicy`](socbuf_core::ChunkPolicy) partition: a chunk
/// misnumbered, empty, overlapping, leaving a gap or ending off the
/// policy's chain grid.
pub fn plan_manifest(
    manifest: &CampaignManifest,
    pool: &WorkPool,
) -> Result<CampaignPlan, SweepError> {
    let mut plan = CampaignPlan::new(manifest.shape.clone(), &manifest.config, None, pool)?;
    manifest.validate_chunks().map_err(manifest_err)?;
    plan.ranges = manifest.chunks.iter().map(|c| c.start..c.end).collect();
    Ok(plan)
}

/// Runs the whole campaign locally — the serial reference a sharded
/// merge is byte-compared against.
///
/// # Errors
///
/// The lowest-index point failure, or [`SweepError::BadConfig`] for an
/// unusable campaign.
pub fn run_manifest(
    manifest: &CampaignManifest,
    pool: &WorkPool,
) -> Result<SweepReport, SweepError> {
    plan_manifest(manifest, pool)?.run(pool)
}

/// One executed chunk's results, as they travel from a shard back to
/// the coordinator: the chunk's identity (campaign hash, kind, range)
/// and its points, in item order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// The manifest's config hash — pins the report to its campaign.
    pub config_hash: u64,
    /// The campaign kind.
    pub kind: SweepKind,
    /// Chunk index within the manifest.
    pub chunk: usize,
    /// First work-item index covered (inclusive).
    pub start: usize,
    /// One past the last work-item index covered.
    pub end: usize,
    /// One point per item, in item order. Their `lp_iterations` are 0:
    /// pivot counts are trace-only and never travel (see
    /// [`SweepPoint::lp_iterations`]). The wire form carries no
    /// `frontier` flag either — the frontier is a *global* property of
    /// the merged report, recomputed by the reducer.
    pub points: Vec<SweepPoint>,
}

impl ChunkReport {
    /// Serializes the report as one canonical JSON object.
    pub fn to_json(&self) -> String {
        render_chunk_frame(
            self.config_hash,
            self.kind,
            self.chunk,
            self.start..self.end,
            &self.points,
        )
    }

    /// Parses the canonical rendering, decoding each point once.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for shape violations: an unknown key or
    /// kind, an empty or reversed range, a point count that disagrees
    /// with the range, a point whose `index` is not `start + position`,
    /// a point carrying a `frontier` flag (which only the merged report
    /// may have), or a point the sweep point codec refuses (its message
    /// then names the point's position and the chunk).
    pub fn from_json<'a>(v: impl JsonRead<'a>) -> Result<ChunkReport, WireError> {
        let f = v.fields(
            "chunk report",
            &["chunk", "kind", "config_hash", "start", "end", "points"],
        )?;
        let items = f.items("points")?;
        let tag = f.str("kind")?;
        let kind = SweepKind::from_tag(tag)
            .ok_or_else(|| WireError::Schema(format!("chunk report: unknown kind \"{tag}\"")))?;
        let config_hash = config_hash_from_hex(f.str("config_hash")?, "config_hash")?;
        let chunk = f.usize("chunk")?;
        let (start, end) = (f.usize("start")?, f.usize("end")?);
        if end <= start {
            return Err(WireError::Schema(format!(
                "chunk report: empty range {start}..{end}"
            )));
        }
        if items.len() != end - start {
            return Err(WireError::Schema(format!(
                "chunk report: range {start}..{end} needs {} points, got {}",
                end - start,
                items.len()
            )));
        }
        let mut points = Vec::with_capacity(items.len());
        for (i, p) in items.enumerate() {
            let index = p
                .get("index")
                .ok_or_else(|| WireError::Schema(format!("points[{i}]: missing field \"index\"")))?
                .usize("index")?;
            if index != start + i {
                return Err(WireError::Schema(format!(
                    "chunk report: points[{i}] has index {index}, expected {}",
                    start + i
                )));
            }
            if p.get("frontier").is_some() {
                return Err(WireError::Schema(format!(
                    "chunk report: points[{i}] carries a \"frontier\" flag — the frontier is a \
                     global property only the merged report may render"
                )));
            }
            points.push(sweep_point_from_json(p, kind).map_err(|e| match e {
                WireError::Schema(m) => {
                    WireError::Schema(format!("chunk {chunk}: points[{i}]: {m}"))
                }
                e => e,
            })?);
        }
        Ok(ChunkReport {
            config_hash,
            kind,
            chunk,
            start,
            end,
            points,
        })
    }
}

/// The chunk frame's one renderer.
fn render_chunk_frame(
    config_hash: u64,
    kind: SweepKind,
    chunk: usize,
    range: std::ops::Range<usize>,
    points: &[SweepPoint],
) -> String {
    ObjWriter::render(|w| {
        w.usize("chunk", chunk)
            .str("kind", kind.tag())
            .str("config_hash", &config_hash_to_hex(config_hash))
            .usize("start", range.start)
            .usize("end", range.end)
            .list("points", points, |out, p| {
                push_point_json(out, kind, p, None)
            });
    })
}

/// Renders chunk `chunk` of `manifest` from its solved points: the
/// bytes [`ChunkReport::to_json`] gives for them, without building the
/// report.
///
/// # Panics
///
/// If `chunk` is not a chunk of `manifest`.
pub fn chunk_report_json(
    manifest: &CampaignManifest,
    chunk: usize,
    points: &[SweepPoint],
) -> String {
    let range = manifest.chunks[chunk];
    render_chunk_frame(
        manifest.config_hash,
        SweepKind::of(&manifest.shape),
        chunk,
        range.start..range.end,
        points,
    )
}

/// Executes one manifest chunk and returns its chunk-tagged report
/// (what a reducer verifies). The report's points have `lp_iterations`
/// 0, as a decoded frame's do: pivot counts vary with chunking, so the
/// byte-identity contract never carries them.
///
/// # Errors
///
/// [`SweepError::BadConfig`] for a chunk index outside the manifest's
/// partition, else the lowest-index point failure within the chunk.
pub fn execute_manifest_chunk_traced(
    manifest: &CampaignManifest,
    chunk: usize,
    pool: &WorkPool,
) -> Result<ChunkReport, SweepError> {
    let mut solved = Vec::new();
    plan_manifest(manifest, pool)?.run_chunks(pool, &[chunk], |_, points| {
        solved = points;
        Ok::<(), SweepError>(())
    })?;
    solved.iter_mut().for_each(|p| p.lp_iterations = 0);
    let range = manifest.chunks[chunk];
    let report = ChunkReport {
        config_hash: manifest.config_hash,
        kind: SweepKind::of(&manifest.shape),
        chunk,
        start: range.start,
        end: range.end,
        points: solved,
    };
    Ok(report)
}

/// Runs the whole campaign locally, streaming points into `sink` in
/// index order as chunks complete — the sink-side twin of
/// [`run_manifest`].
///
/// # Errors
///
/// The lowest-index point failure, [`SweepError::Sink`] when the sink
/// refuses a point, or [`SweepError::BadConfig`] for an unusable
/// campaign.
pub fn run_manifest_sink(
    manifest: &CampaignManifest,
    pool: &WorkPool,
    sink: &mut dyn PointSink,
) -> Result<SinkRun, SweepError> {
    plan_manifest(manifest, pool)?.run_sink(pool, sink)
}

/// A merge refusal: the chunk reports do not cover the manifest's
/// partition exactly, or one of them belongs to a different campaign.
#[derive(Debug)]
pub enum MergeError {
    /// A report's `config_hash` disagrees with the manifest's — it was
    /// produced for a different campaign (or a stale revision of this
    /// one).
    HashMismatch {
        /// The offending report's chunk index.
        chunk: usize,
        /// The manifest's hash.
        expected: u64,
        /// The report's hash.
        got: u64,
    },
    /// A report's kind tag disagrees with the manifest's shape.
    KindMismatch {
        /// The offending report's chunk index.
        chunk: usize,
        /// The manifest's kind tag.
        expected: &'static str,
        /// The report's kind tag.
        got: &'static str,
    },
    /// No report covers this manifest chunk — a coverage gap.
    MissingChunk {
        /// The uncovered chunk index.
        chunk: usize,
    },
    /// Two reports claim the same chunk.
    DuplicateChunk {
        /// The doubly-covered chunk index.
        chunk: usize,
    },
    /// A report names a chunk the manifest doesn't have.
    UnknownChunk {
        /// The report's chunk index.
        chunk: usize,
        /// The manifest's chunk count.
        num_chunks: usize,
    },
    /// A report's item range disagrees with the manifest's partition.
    RangeMismatch {
        /// The offending report's chunk index.
        chunk: usize,
        /// The manifest's `(start, end)` for that chunk.
        expected: (usize, usize),
        /// The report's `(start, end)`.
        got: (usize, usize),
    },
    /// The downstream [`PointSink`] refused a merged point — an I/O
    /// failure on the streaming path, not a coverage violation.
    Sink {
        /// The sink's error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::HashMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "chunk {chunk}: config hash {got:016x} does not match the manifest's {expected:016x}"
            ),
            MergeError::KindMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "chunk {chunk}: kind \"{got}\" does not match the manifest's \"{expected}\""
            ),
            MergeError::MissingChunk { chunk } => {
                write!(f, "coverage gap: no report for chunk {chunk}")
            }
            MergeError::DuplicateChunk { chunk } => {
                write!(f, "duplicate report for chunk {chunk}")
            }
            MergeError::UnknownChunk { chunk, num_chunks } => write!(
                f,
                "chunk {chunk} is out of range for a {num_chunks}-chunk manifest"
            ),
            MergeError::RangeMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "chunk {chunk}: range {}..{} does not match the manifest's {}..{}",
                got.0, got.1, expected.0, expected.1
            ),
            MergeError::Sink { source } => write!(f, "merge sink failed: {source}"),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Sink { source } => Some(source),
            _ => None,
        }
    }
}

/// What a finished merge looked like from the inside — coverage and
/// residency figures the streaming path reports (and `scale_probe`
/// asserts a ceiling on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceStats {
    /// Chunks ingested (equals the manifest's chunk count on success).
    pub chunks: usize,
    /// Points flushed to the sink.
    pub points: usize,
    /// The largest number of parsed points ever parked waiting for an
    /// earlier chunk — the reducer's memory high-water mark. Bounded by
    /// the out-of-order window of the arrival order, not the campaign
    /// size.
    pub peak_resident_points: usize,
}

/// The bounded-memory merge reducer: ingests chunk reports in **any**
/// arrival order, verifies each against the manifest as it arrives
/// (config hash, kind, declared range, no duplicates), and flushes
/// points into a [`PointSink`] in index order the moment the in-order
/// run extends. Out-of-order reports park their parsed points; the
/// high-water mark of that parking lot is [`ReduceStats::peak_resident_points`],
/// bounded by how far ahead of the merge frontier the producers run —
/// never by the campaign size.
///
/// The sink receives exactly the byte-identity point sequence: feeding
/// it a [`crate::stream::ReportStream`] writes the same CSV/JSONL the
/// serial single-host run renders, for any chunk→shard assignment and
/// any arrival interleaving.
pub struct StreamingReducer<S: PointSink> {
    sink: S,
    kind: SweepKind,
    config_hash: u64,
    /// The manifest's declared `(start, end)` per chunk.
    chunks: Vec<(usize, usize)>,
    seen: Vec<bool>,
    parked: BTreeMap<usize, Vec<SweepPoint>>,
    next: usize,
    chunks_in: usize,
    points_out: usize,
    resident: usize,
    peak_resident: usize,
}

impl<S: PointSink> StreamingReducer<S> {
    /// A reducer expecting exactly `manifest`'s chunk partition,
    /// flushing merged points into `sink`.
    pub fn new(manifest: &CampaignManifest, sink: S) -> StreamingReducer<S> {
        let chunks: Vec<(usize, usize)> =
            manifest.chunks.iter().map(|c| (c.start, c.end)).collect();
        let seen = vec![false; chunks.len()];
        StreamingReducer {
            sink,
            kind: SweepKind::of(&manifest.shape),
            config_hash: manifest.config_hash,
            chunks,
            seen,
            parked: BTreeMap::new(),
            next: 0,
            chunks_in: 0,
            points_out: 0,
            resident: 0,
            peak_resident: 0,
        }
    }

    /// Points currently parked waiting for an earlier chunk.
    pub fn resident_points(&self) -> usize {
        self.resident
    }

    /// The largest [`resident_points`](Self::resident_points) ever seen.
    pub fn peak_resident_points(&self) -> usize {
        self.peak_resident
    }

    /// The next chunk index the merge frontier is waiting for; equals
    /// the manifest's chunk count once coverage is complete.
    pub fn frontier(&self) -> usize {
        self.next
    }

    /// Verifies one report's coverage and flushes whatever in-order run
    /// it completes, moving its points (decoded with their frame) into
    /// the sink. Order of arrival is irrelevant to the merged output.
    ///
    /// # Errors
    ///
    /// The report's first violation — unknown chunk, foreign config
    /// hash, wrong kind, wrong range, duplicate — or
    /// [`MergeError::Sink`] if the downstream sink fails while this
    /// report's run flushes.
    pub fn ingest(&mut self, report: ChunkReport) -> Result<(), MergeError> {
        let num_chunks = self.chunks.len();
        if report.chunk >= num_chunks {
            return Err(MergeError::UnknownChunk {
                chunk: report.chunk,
                num_chunks,
            });
        }
        if report.config_hash != self.config_hash {
            return Err(MergeError::HashMismatch {
                chunk: report.chunk,
                expected: self.config_hash,
                got: report.config_hash,
            });
        }
        if report.kind != self.kind {
            return Err(MergeError::KindMismatch {
                chunk: report.chunk,
                expected: self.kind.tag(),
                got: report.kind.tag(),
            });
        }
        let want = self.chunks[report.chunk];
        if report.start != want.0 || report.end != want.1 {
            return Err(MergeError::RangeMismatch {
                chunk: report.chunk,
                expected: want,
                got: (report.start, report.end),
            });
        }
        if self.seen[report.chunk] {
            return Err(MergeError::DuplicateChunk {
                chunk: report.chunk,
            });
        }
        self.seen[report.chunk] = true;
        self.chunks_in += 1;
        self.resident += report.points.len();
        self.peak_resident = self.peak_resident.max(self.resident);
        self.parked.insert(report.chunk, report.points);
        // Flush the in-order run this report may have completed.
        while let Some(run) = self.parked.remove(&self.next) {
            self.resident -= run.len();
            self.next += 1;
            for point in run {
                self.points_out += 1;
                self.sink
                    .accept(point)
                    .map_err(|source| MergeError::Sink { source })?;
            }
        }
        Ok(())
    }

    /// Verifies coverage is complete and returns the sink with the
    /// merge's statistics.
    ///
    /// # Errors
    ///
    /// [`MergeError::MissingChunk`] naming the lowest uncovered chunk.
    pub fn finish(self) -> Result<(S, ReduceStats), MergeError> {
        if let Some(chunk) = self.seen.iter().position(|covered| !covered) {
            return Err(MergeError::MissingChunk { chunk });
        }
        Ok((
            self.sink,
            ReduceStats {
                chunks: self.chunks_in,
                points: self.points_out,
                peak_resident_points: self.peak_resident,
            },
        ))
    }
}

/// The batch reducer: verifies that `reports` cover the manifest's
/// chunk partition exactly — every chunk present once, each under the
/// manifest's config hash, kind, and item range — and reassembles the
/// points into a [`SweepReport`] whose CSV/JSONL renderings are
/// byte-identical to the serial single-host run (the frontier flag,
/// a global property no chunk can compute, is re-derived by the
/// report's own renderers). A thin wrapper over [`StreamingReducer`]
/// with a collecting sink.
///
/// Report order is irrelevant: chunks are slotted by index.
///
/// # Errors
///
/// The first violation found, reports scanned in the order given
/// (each report's coverage fully verified before the next is looked
/// at), then gaps in chunk order. A bad point was refused when its
/// frame was decoded.
pub fn merge_chunk_reports(
    manifest: &CampaignManifest,
    reports: impl IntoIterator<Item = ChunkReport>,
) -> Result<SweepReport, MergeError> {
    let mut reducer = StreamingReducer::new(manifest, VecSink::new());
    let kind = reducer.kind;
    reports.into_iter().try_for_each(|r| reducer.ingest(r))?;
    let (sink, _) = reducer.finish()?;
    Ok(SweepReport {
        kind,
        points: sink.into_points(),
    })
}

//! Scale probe for the streaming result pipeline: campaigns two to
//! three orders of magnitude larger than the paper's tables, executed
//! without ever materialising the result set.
//!
//! The collect-then-render path holds every [`socbuf_sweep::SweepPoint`]
//! until the campaign ends, so its footprint grows linearly with the
//! campaign. The sink path streams each chunk's points out as the
//! ordered consumption frontier passes it, so the resident set is the
//! scheduling window — a constant. This probe pins that constant at
//! ≥ 10⁵ points and measures the shard-streamed throughput behind it.
//!
//! `--worker` turns this binary into a shard server (ephemeral port on
//! stdout, lifetime tied to stdin), exactly like `shard_probe`.
//!
//! `--smoke` runs the CI gate, in-process (no sockets):
//!
//! * **byte-identity at scale** — one streamed pass over a
//!   100 000-point manifest, teeing into CSV *and* JSONL renderers
//!   through the sink abstraction, must reproduce the batch
//!   `to_csv`/`to_jsonl` bytes exactly;
//! * **bounded residency** — the ordered-consumption window
//!   (`peak_parked_chunks`) must stay within the pool's scheduling
//!   window at 10⁴ and 10⁵ points alike: the ceiling is a constant of
//!   the (workers, chunk) configuration, not of the campaign;
//! * **one decode per point** — every chunk of the 10⁴-point manifest
//!   takes a coordinator's path, counted by [`socbuf_bench::alloc`]:
//!   rendered with `chunk_report_json`, parsed into a `JsonDocument`,
//!   decoded by `ChunkReport::from_json` and merged by
//!   `StreamingReducer::ingest`. The path makes at most
//!   [`ALLOCS_PER_POINT`] allocations per reduced point.
//!
//! Without flags, the full probe drives the same 10⁵-point manifest
//! through 1/2/4 self-exec'd shard workers with `sweep_stream` frames
//! merged through the bounded-memory reducer, and writes
//! `BENCH_scale.json`: the host header (commit, cores, build profile,
//! Unix time) and the wall time, points/sec and the reducer's peak resident points
//! per shard count.

use std::io;
use std::time::Instant;

use socbuf_bench::alloc::{self, CountingAlloc};
use socbuf_bench::probe::{self, best_of, Gate, OrExit};
use socbuf_bench::ShardProcess;
use socbuf_core::wire::{CampaignManifest, JsonDocument};
use socbuf_core::SizingConfig;
use socbuf_serve::{RetryPolicy, ShardFleet};
use socbuf_soc::templates;
use socbuf_sweep::{
    chunk_report_json, plan_manifest, run_manifest, run_manifest_sink, BudgetSweep, ChunkReport,
    FileSpool, PointSink, ReportStream, StreamingReducer, SweepError, SweepPoint, WorkPool,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Declared chunk length: a coarse multiple of the base warm-chain
/// length (4), so a 10⁵-point campaign streams ~400 chunk frames
/// instead of 25 000 while every boundary stays on the base chain grid.
/// Chunk starts cost no cold solve either way: every chunk of a warm
/// budget campaign starts from point 0's basis, which each executing
/// process solves once.
const CHUNK_ITEMS: usize = 256;

/// Workers for the in-process smoke passes.
const SMOKE_WORKERS: usize = 2;

/// Ceiling on allocations per reduced point on the coordinator's path
/// (render, parse, decode, merge); the path makes ~1.1. A decode that
/// copies each point into an owned JSON tree and decodes it again, with
/// a renderer that formats each number into its own string, makes ~29.
const ALLOCS_PER_POINT: f64 = 4.0;

fn sizing() -> SizingConfig {
    SizingConfig::small()
}

/// A `points`-item budget campaign on the smallest template, with the
/// declared partition coarsened to [`CHUNK_ITEMS`]-item chunks. The
/// budget walks a sawtooth so consecutive warm solves stay near the
/// carried basis.
fn manifest_of(points: usize) -> CampaignManifest {
    let arch = templates::figure1();
    let budgets: Vec<usize> = (0..points).map(|i| 12 + (i % 8)).collect();
    let mut sweep = BudgetSweep::new(&arch, budgets);
    sweep.sizing = sizing();
    let base = sweep.manifest().expect("sizing-only campaign");
    let items = base.items();
    let mut ranges = Vec::new();
    let mut at = 0;
    while at < items {
        let end = (at + CHUNK_ITEMS).min(items);
        ranges.push(at..end);
        at = end;
    }
    CampaignManifest::with_chunks(base.shape.clone(), base.config.clone(), ranges)
        .expect("coarsened chunks stay on the base chain grid")
}

/// Streams one campaign into two renderers at once — the sink
/// abstraction makes "render both forms in one pass" a two-line sink.
struct Tee<'a> {
    csv: &'a mut ReportStream<Vec<u8>>,
    jsonl: &'a mut ReportStream<Vec<u8>>,
}

impl PointSink for Tee<'_> {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        self.csv.accept(point.clone())?;
        self.jsonl.accept(point)
    }
}

/// Streamed pass returning the parked-chunk high-water mark.
fn streamed_peak(manifest: &CampaignManifest, pool: &WorkPool) -> usize {
    let spool = FileSpool::in_temp_dir().expect("temp spool");
    let mut stream =
        ReportStream::csv_spooled(socbuf_sweep::SweepKind::Budget, io::sink(), Box::new(spool));
    let run = run_manifest_sink(manifest, pool, &mut stream).expect("streamed run");
    stream.finish().expect("stream finish");
    run.peak_parked_chunks
}

/// A sink that drops every point, so the count sees only the merge.
struct Discard;

impl PointSink for Discard {
    fn accept(&mut self, _point: SweepPoint) -> io::Result<()> {
        Ok(())
    }
}

/// Allocations per reduced point of every chunk of `manifest` on a
/// coordinator's path, counted around each chunk's render, parse,
/// decode and merge (the solve is not counted).
fn check_decode_allocations(gate: &mut Gate, manifest: &CampaignManifest, pool: &WorkPool) {
    let mut reducer = StreamingReducer::new(manifest, Discard);
    let mut total = 0;
    let mut first = None;
    let chunks: Vec<usize> = (0..manifest.chunks.len()).collect();
    let plan = plan_manifest(manifest, pool).expect("plan");
    plan.run_chunks(pool, &chunks, |chunk, solved| {
        let (bytes, counts) = alloc::count(|| {
            let text = chunk_report_json(manifest, chunk, &solved);
            let doc = JsonDocument::parse(&text).expect("a rendered frame parses");
            let report = ChunkReport::from_json(doc.value()).expect("a rendered frame decodes");
            reducer
                .ingest(report)
                .expect("the reducer takes every chunk");
            text.len()
        });
        first.get_or_insert((solved.len(), bytes, counts.allocs));
        total += counts.allocs;
        Ok::<(), SweepError>(())
    })
    .expect("counted run");
    let (_, stats) = reducer.finish().expect("complete coverage");
    let per_point = total as f64 / stats.points as f64;
    let (n, bytes, allocs) = first.expect("at least one chunk");
    println!(
        "coordinator path: chunk 0 ({n} points, {bytes}-byte frame) {allocs} allocations; \
         {} points in {} chunks, {} allocations, {per_point:.2} per point \
         (limit {ALLOCS_PER_POINT})",
        stats.points, stats.chunks, total
    );
    gate.check(
        per_point <= ALLOCS_PER_POINT,
        format_args!(
            "the coordinator path made {per_point:.2} allocations per point \
             (limit {ALLOCS_PER_POINT})"
        ),
    );
}

/// CI gate.
fn smoke(gate: &mut Gate) {
    let pool = WorkPool::new(SMOKE_WORKERS);
    let big = manifest_of(100_000);
    println!(
        "{} points in {} declared chunks of {CHUNK_ITEMS}",
        big.items(),
        big.chunks.len()
    );

    // --- Reference bytes from the batch path. --------------------------
    let (batch, batch_time) = best_of(1, || run_manifest(&big, &pool).expect("batch run"));

    // --- One streamed pass, teeing both renderings. --------------------
    let mut csv = ReportStream::csv(batch.kind, Vec::new());
    let mut jsonl = ReportStream::jsonl(batch.kind, Vec::new());
    let mut tee = Tee {
        csv: &mut csv,
        jsonl: &mut jsonl,
    };
    let (run, stream_time) = best_of(1, || {
        run_manifest_sink(&big, &pool, &mut tee).expect("streamed run")
    });
    let (csv_bytes, summary) = csv.finish().expect("csv finish");
    let (jsonl_bytes, _) = jsonl.finish().expect("jsonl finish");
    gate.check(
        csv_bytes == batch.to_csv().into_bytes(),
        "streamed CSV differs from the batch rendering",
    );
    gate.check(
        jsonl_bytes == batch.to_jsonl().into_bytes(),
        "streamed JSONL differs from the batch rendering",
    );
    println!(
        "batch {batch_time:?} vs streamed (csv+jsonl teed) {stream_time:?}, \
         {} frontier classes peak",
        summary.peak_frontier_classes
    );

    // --- Residency: a constant of the configuration, not the size. -----
    // The ordered consumer parks at most the scheduling window
    // (2 × workers) of finished chunks; with the in-flight chunk that
    // bounds resident points by (window + 1) × chunk items.
    let window = 2 * SMOKE_WORKERS;
    let ceiling_points = (window + 1) * CHUNK_ITEMS;
    let small = manifest_of(10_000);
    let small_peak = streamed_peak(&small, &pool);
    let big_peak = run.peak_parked_chunks;
    for (scale, peak) in [("10^4", small_peak), ("10^5", big_peak)] {
        gate.check(
            peak <= window,
            format_args!("{scale}-point run parked {peak} chunks, scheduling window is {window}"),
        );
    }
    println!(
        "peak parked chunks: 10^4-point run {small_peak}, 10^5-point run {big_peak} \
         (window {window}); resident ceiling {ceiling_points} points regardless of size"
    );

    check_decode_allocations(gate, &small, &pool);
}

/// Full probe: the 10⁵-point manifest streamed off 1/2/4 shard
/// processes, merged through the bounded reducer, written to
/// `BENCH_scale.json`.
fn full_probe() {
    let manifest = manifest_of(100_000);
    let points = manifest.items();
    println!(
        "{points} points in {} chunks of {CHUNK_ITEMS}; spawning 4 shard workers",
        manifest.chunks.len()
    );
    let shards: Vec<ShardProcess> = (0..4).map(|_| ShardProcess::spawn()).collect();

    let mut rows = Vec::new();
    for n in [1usize, 2, 4] {
        let mut fleet = ShardFleet::new(
            shards[..n].iter().map(|s| s.client()).collect(),
            RetryPolicy::default(),
        );
        let spool = FileSpool::in_temp_dir().expect("temp spool");
        let stream =
            ReportStream::csv_spooled(socbuf_sweep::SweepKind::Budget, io::sink(), Box::new(spool));
        let t = Instant::now();
        let (stream, stats) = fleet
            .run_manifest_to_sink(&manifest, stream)
            .or_exit("streamed fan-out failed");
        let wall = t.elapsed();
        stream.finish().expect("stream finish");
        assert_eq!(stats.points, points, "{n}-shard stream lost points");
        let rate = points as f64 / wall.as_secs_f64().max(1e-12);
        println!(
            "{n} shard(s): {wall:?}, {rate:.0} points/sec, \
             {} peak resident points in the reducer",
            stats.peak_resident_points
        );
        rows.push((n, wall, rate, stats.peak_resident_points));
    }

    let shard_rows: Vec<String> = rows
        .iter()
        .map(|(n, wall, rate, peak)| {
            format!(
                "    {{\"shards\": {n}, \"wall_ms\": {:.3}, \"points_per_sec\": {rate:.1}, \
                 \"peak_resident_points\": {peak}}}",
                wall.as_secs_f64() * 1e3
            )
        })
        .collect();
    socbuf_bench::write_bench_json(
        "BENCH_scale.json",
        &[
            format!("\"points\": {points}"),
            format!("\"chunk_items\": {CHUNK_ITEMS}"),
            format!("\"runs\": [\n{}\n  ]", shard_rows.join(",\n")),
        ],
    );
}

fn main() {
    ShardProcess::worker_if_asked();
    probe::run(smoke, full_probe);
}

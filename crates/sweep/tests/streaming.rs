//! The streaming contract, end to end inside the sweep crate:
//!
//! * streamed renderings (sink → [`ReportStream`]) are byte-identical
//!   to the batch `to_csv`/`to_jsonl` for every campaign shape and
//!   worker count;
//! * the bounded-memory [`StreamingReducer`] merges chunk reports in
//!   **any** arrival order to the batch reducer's bytes, and rejects
//!   duplicated, missing, and tampered frames with the same named
//!   errors;
//! * a coarser partition declared in the manifest
//!   ([`CampaignManifest::with_chunks`]) renders and merges without
//!   changing a single byte.

use std::sync::OnceLock;

use proptest::prelude::*;

use socbuf_core::wire::{CampaignManifest, JsonValue};
use socbuf_core::SizingConfig;
use socbuf_soc::templates;
use socbuf_sweep::{
    execute_manifest_chunk_traced, merge_chunk_reports, run_manifest, run_manifest_sink,
    BudgetSweep, ChunkReport, FileSpool, LoadSweep, MergeError, RandomCampaign, ReportStream,
    StreamingReducer, SweepReport, VecSink, WorkPool,
};

fn small() -> SizingConfig {
    SizingConfig::small()
}

/// The three campaign shapes as manifests, plus their serial batch
/// reports — the reference bytes every streamed path must reproduce.
fn shapes() -> Vec<(CampaignManifest, SweepReport)> {
    let amba = templates::amba();
    let mut budget = BudgetSweep::new(&amba, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    budget.sizing = small();

    let cc = templates::coreconnect();
    let mut load = LoadSweep::new(&cc, 20, vec![0.5, 0.75, 1.0, 1.1, 1.25, 1.5]);
    load.sizing = small();

    let random = RandomCampaign {
        seeds: vec![1, 2, 3, 5, 8],
        sizing: small(),
        ..RandomCampaign::new(vec![])
    };

    [budget.manifest(), load.manifest(), random.manifest()]
        .into_iter()
        .map(|m| {
            let manifest = m.unwrap();
            let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();
            (manifest, serial)
        })
        .collect()
}

#[test]
fn streamed_renderings_match_batch_bytes_for_every_shape_and_worker_count() {
    for (manifest, serial) in shapes() {
        for workers in [1usize, 2, 8] {
            let pool = WorkPool::new(workers);

            let mut csv = ReportStream::csv(serial.kind, Vec::new());
            let run = run_manifest_sink(&manifest, &pool, &mut csv).unwrap();
            assert_eq!(run.chunks, manifest.chunks.len());
            let (bytes, summary) = csv.finish().unwrap();
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                serial.to_csv(),
                "csv, {} workers, kind {}",
                workers,
                serial.kind.tag()
            );
            assert_eq!(summary.points, manifest.items());

            let mut jsonl = ReportStream::jsonl(serial.kind, Vec::new());
            run_manifest_sink(&manifest, &pool, &mut jsonl).unwrap();
            let (bytes, _) = jsonl.finish().unwrap();
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                serial.to_jsonl(),
                "jsonl, {} workers, kind {}",
                workers,
                serial.kind.tag()
            );
        }
    }
}

#[test]
fn a_file_spooled_stream_renders_the_same_bytes_as_the_batch_path() {
    let (manifest, serial) = shapes().swap_remove(0);
    let spool = FileSpool::in_temp_dir().unwrap();
    let mut csv = ReportStream::csv_spooled(serial.kind, Vec::new(), Box::new(spool));
    run_manifest_sink(&manifest, &WorkPool::new(2), &mut csv).unwrap();
    let (bytes, _) = csv.finish().unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), serial.to_csv());
}

#[test]
fn campaign_run_sink_collects_exactly_what_run_returns() {
    let arch = templates::coreconnect();
    let mut sweep = LoadSweep::new(&arch, 20, vec![0.5, 0.75, 1.0, 1.1, 1.25, 1.5]);
    sweep.sizing = small();
    let report = sweep.run(&WorkPool::serial()).unwrap();
    let mut sink = VecSink::new();
    sweep.run_sink(&WorkPool::new(2), &mut sink).unwrap();
    assert_eq!(sink.into_points(), report.points);
}

/// A five-chunk budget manifest, its executed chunk reports (wire
/// round-tripped, like frames off a socket), and the serial reference
/// bytes — computed once, shared across the property cases.
struct MergeFixture {
    manifest: CampaignManifest,
    reports: Vec<ChunkReport>,
    csv: String,
    jsonl: String,
}

fn merge_fixture() -> &'static MergeFixture {
    static FIXTURE: OnceLock<MergeFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let arch = templates::amba();
        let budgets: Vec<usize> = (0..18).map(|i| 10 + 2 * i).collect();
        let mut sweep = BudgetSweep::new(&arch, budgets);
        sweep.sizing = small();
        let manifest = sweep.manifest().unwrap();
        assert_eq!(manifest.chunks.len(), 5, "18 items in warm chains of 4");
        let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();
        let pool = WorkPool::serial();
        let reports = (0..manifest.chunks.len())
            .map(|c| {
                let r = execute_manifest_chunk_traced(&manifest, c, &pool).unwrap();
                ChunkReport::from_json(&JsonValue::parse(&r.to_json()).unwrap()).unwrap()
            })
            .collect();
        MergeFixture {
            manifest,
            csv: serial.to_csv(),
            jsonl: serial.to_jsonl(),
            reports,
        }
    })
}

/// Deterministic Fisher–Yates driven by an xorshift stream, so a plain
/// integer sample explores every permutation.
fn permuted(n: usize, seed: usize) -> Vec<usize> {
    let mut seed = seed as u64 | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed as usize) % (i + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_arrival_order_merges_byte_identically(seed in 0usize..usize::MAX) {
        let fx = merge_fixture();
        let order = permuted(fx.reports.len(), seed);

        // Through a streaming CSV renderer: reducer → ReportStream,
        // no intermediate report, still the serial bytes.
        let stream = ReportStream::csv(
            socbuf_sweep::SweepKind::Budget, Vec::new());
        let mut reducer = StreamingReducer::new(&fx.manifest, stream);
        for &c in &order {
            reducer.ingest(fx.reports[c].clone()).unwrap();
        }
        let (stream, stats) = reducer.finish().unwrap();
        prop_assert_eq!(stats.chunks, fx.reports.len());
        prop_assert_eq!(stats.points, fx.manifest.items());
        prop_assert!(stats.peak_resident_points <= fx.manifest.items());
        let (bytes, _) = stream.finish().unwrap();
        prop_assert_eq!(String::from_utf8(bytes).unwrap(), fx.csv.clone());

        // And the batch wrapper agrees with the batch reducer.
        let arrival: Vec<ChunkReport> =
            order.iter().map(|&c| fx.reports[c].clone()).collect();
        let merged = merge_chunk_reports(&fx.manifest, arrival).unwrap();
        prop_assert_eq!(merged.to_csv(), fx.csv.clone());
        prop_assert_eq!(merged.to_jsonl(), fx.jsonl.clone());
    }

    #[test]
    fn in_order_prefixes_keep_residency_at_one_chunk(split in 1usize..5) {
        // In-order arrival never parks: the reducer's high-water mark
        // is one chunk's points, however the stream is split.
        let fx = merge_fixture();
        let mut reducer = StreamingReducer::new(&fx.manifest, VecSink::new());
        for report in &fx.reports[..split] {
            reducer.ingest(report.clone()).unwrap();
            prop_assert_eq!(reducer.resident_points(), 0);
        }
        let longest = fx
            .manifest
            .chunks
            .iter()
            .take(split)
            .map(|c| c.end - c.start)
            .max()
            .unwrap();
        prop_assert!(reducer.peak_resident_points() <= longest);
        prop_assert_eq!(reducer.frontier(), split);
    }

    #[test]
    fn duplicated_missing_and_tampered_frames_are_rejected_by_name(
        seed in 0usize..usize::MAX,
        which in 0usize..6,
        victim in 0usize..5,
    ) {
        let fx = merge_fixture();
        let order = permuted(fx.reports.len(), seed);
        let mut reducer = StreamingReducer::new(&fx.manifest, VecSink::new());

        let outcome: Result<(), MergeError> = (|| {
            match which {
                // Duplicate: the same chunk streamed twice.
                0 => {
                    for &c in &order {
                        reducer.ingest(fx.reports[c].clone())?;
                    }
                    reducer.ingest(fx.reports[victim].clone())?;
                }
                // Missing: one chunk never arrives.
                1 => {
                    for &c in order.iter().filter(|&&c| c != victim) {
                        reducer.ingest(fx.reports[c].clone())?;
                    }
                    reducer.finish().map(|_| ())?;
                    return Ok(());
                }
                // Stale hash.
                2 => {
                    let mut bad = fx.reports[victim].clone();
                    bad.config_hash ^= 1;
                    reducer.ingest(bad)?;
                }
                // Foreign kind.
                3 => {
                    let mut bad = fx.reports[victim].clone();
                    bad.kind = socbuf_sweep::SweepKind::Load;
                    reducer.ingest(bad)?;
                }
                // Tampered range.
                4 => {
                    let mut bad = fx.reports[victim].clone();
                    bad.start += 1;
                    reducer.ingest(bad)?;
                }
                // Chunk index beyond the partition.
                _ => {
                    let mut bad = fx.reports[victim].clone();
                    bad.chunk = 9;
                    reducer.ingest(bad)?;
                }
            }
            Ok(())
        })();

        match (which, outcome) {
            (0, Err(MergeError::DuplicateChunk { chunk })) => {
                prop_assert_eq!(chunk, victim)
            }
            (1, Err(MergeError::MissingChunk { chunk })) => {
                prop_assert_eq!(chunk, victim)
            }
            (2, Err(MergeError::HashMismatch { chunk, .. })) => {
                prop_assert_eq!(chunk, victim)
            }
            (3, Err(MergeError::KindMismatch { chunk, .. })) => {
                prop_assert_eq!(chunk, victim)
            }
            (4, Err(MergeError::RangeMismatch { chunk, .. })) => {
                prop_assert_eq!(chunk, victim)
            }
            (5, Err(MergeError::UnknownChunk { chunk, .. })) => {
                prop_assert_eq!(chunk, 9)
            }
            (w, other) => panic!("case {w}: wrong outcome {other:?}"),
        }
    }
}

#[test]
fn a_coarsened_warm_budget_manifest_renders_the_default_chunking_bytes() {
    let fx = merge_fixture();

    // Four warm chains merged into one, the tail chain left alone: a
    // coarser partition declared in the manifest itself.
    let coarse = CampaignManifest::with_chunks(
        fx.manifest.shape.clone(),
        fx.manifest.config.clone(),
        vec![0..16, 16..18],
    )
    .unwrap();
    assert_eq!(coarse.chunks.len(), 2);
    assert_eq!(coarse.config_hash, fx.manifest.config_hash);

    for workers in [1usize, 2, 8] {
        let report = run_manifest(&coarse, &WorkPool::new(workers)).unwrap();
        assert_eq!(report.to_csv(), fx.csv, "{workers} workers");
        assert_eq!(report.to_jsonl(), fx.jsonl, "{workers} workers");
    }

    // Sharded execution under the coarse partition, wire round-tripped
    // and fed in reverse, merges to the same bytes.
    let pool = WorkPool::serial();
    let stream = ReportStream::jsonl(socbuf_sweep::SweepKind::Budget, Vec::new());
    let mut reducer = StreamingReducer::new(&coarse, stream);
    for c in (0..coarse.chunks.len()).rev() {
        let report = execute_manifest_chunk_traced(&coarse, c, &pool).unwrap();
        let wire = JsonValue::parse(&report.to_json()).unwrap();
        reducer
            .ingest(ChunkReport::from_json(&wire).unwrap())
            .unwrap();
    }
    let (stream, stats) = reducer.finish().unwrap();
    assert_eq!(stats.chunks, 2);
    let (bytes, _) = stream.finish().unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), fx.jsonl);
}

//! Developer probe for sharded campaign execution: a coordinator plus
//! two real shard-server processes on loopback sockets, byte-diffed
//! against the serial single-host pipeline.
//!
//! `--worker` turns this same binary into a shard server (ephemeral
//! port announced as `PORT <n>` on stdout, lifetime tied to stdin —
//! see [`socbuf_serve::shard_worker_main`]), so the probe needs no
//! second binary built or found: it spawns itself.
//!
//! `--smoke` runs the CI gate:
//!
//! * **byte-identical merge (always enforced)** — streaming the
//!   manifest's chunks from two shard processes and merging the frames
//!   must reproduce the serial run's CSV and JSONL byte for byte, for
//!   every shard assignment the round-robin produces;
//! * **coverage verification (always enforced)** — per-chunk reports,
//!   fetched one `sweep_stream` chunk at a time, must be rejected by
//!   the reducer with the named structured errors when a chunk is
//!   dropped or duplicated;
//! * **fan-out wall time (enforced when the host has ≥ 2 cores)** —
//!   best of 2 repeats: a 1-shard fan-out, whose shard runs its chunks
//!   on its own pool, must finish the campaign faster than the serial
//!   in-process run. Skipped on single-core hosts, same policy as
//!   `serve_probe`.

use std::time::{Duration, Instant};

use socbuf_bench::ShardProcess;
use socbuf_core::wire::CampaignManifest;
use socbuf_core::SizingConfig;
use socbuf_serve::{RetryPolicy, ShardFleet};
use socbuf_soc::templates;
use socbuf_sweep::{
    merge_chunk_reports, run_manifest, BudgetSweep, MergeError, SweepKind, SweepReport, VecSink,
    WorkPool,
};

/// Heavy enough per point that fan-out effects are measurable, light
/// enough for CI (same scale as `serve_probe`).
fn smoke_sizing() -> SizingConfig {
    SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    }
}

/// Ten budgets → three warm chains of ≤ 4: enough chunks that a
/// two-shard round-robin splits them unevenly ({0,2} vs {1}).
fn smoke_budgets() -> Vec<usize> {
    vec![200, 216, 232, 248, 264, 280, 296, 312, 328, 344]
}

/// Times one whole-campaign fan-out over `shards` (chunks round-robin,
/// streamed and merged).
fn timed_fanout(manifest: &CampaignManifest, shards: &[&ShardProcess]) -> (SweepReport, Duration) {
    let mut fleet = ShardFleet::new(
        shards.iter().map(|s| s.client()).collect(),
        RetryPolicy::default(),
    );
    let t = Instant::now();
    let (sink, _) = fleet
        .run_manifest_to_sink(manifest, VecSink::new())
        .unwrap_or_else(|e| {
            eprintln!("fan-out failed: {e}");
            std::process::exit(2);
        });
    let merged = SweepReport {
        kind: SweepKind::from_tag(manifest.shape.kind_tag()).expect("manifest kind"),
        points: sink.into_points(),
    };
    (merged, t.elapsed())
}

/// Best wall time of the serial in-process run over `repeats`.
fn best_serial(manifest: &CampaignManifest, repeats: usize) -> (SweepReport, Duration) {
    let mut best = None;
    let mut best_time = Duration::MAX;
    for _ in 0..repeats {
        let t = Instant::now();
        let report = run_manifest(manifest, &WorkPool::serial()).expect("serial run");
        best_time = best_time.min(t.elapsed());
        best = Some(report);
    }
    (best.expect("at least one repeat"), best_time)
}

/// Best-of repeats for the wall-time gate.
const SMOKE_REPEATS: usize = 2;

/// CI-sized gate; exits nonzero on regression.
fn smoke() -> i32 {
    let arch = templates::network_processor();
    let mut sweep = BudgetSweep::new(&arch, smoke_budgets());
    sweep.sizing = smoke_sizing();
    let manifest = sweep.manifest().expect("sizing-only campaign");
    let mut failures = 0;

    // The reference bytes from the serial, in-process pipeline.
    let (serial, serial_time) = best_serial(&manifest, SMOKE_REPEATS);

    let shard_a = ShardProcess::spawn();
    let shard_b = ShardProcess::spawn();

    // --- Byte-identical coordinator + 2-shard merge. -------------------
    let (merged, two_shard_time) = timed_fanout(&manifest, &[&shard_a, &shard_b]);
    if merged.to_csv() != serial.to_csv() {
        eprintln!("SMOKE FAIL: 2-shard merged CSV differs from the serial pipeline");
        failures += 1;
    }
    if merged.to_jsonl() != serial.to_jsonl() {
        eprintln!("SMOKE FAIL: 2-shard merged JSONL differs from the serial pipeline");
        failures += 1;
    }
    println!(
        "{} budgets in {} chunks: serial {serial_time:?}, 2-shard fan-out {two_shard_time:?}",
        manifest.items(),
        manifest.chunks.len()
    );

    // --- Coverage verification: dropped and duplicated chunks. ---------
    let mut client_b = shard_b.client();
    let reports: Vec<_> = (0..manifest.chunks.len())
        .map(|c| {
            let mut report = None;
            client_b
                .sweep_stream(&manifest, Some(&[c]), |reply| {
                    report = Some(reply.report);
                    Ok(())
                })
                .expect("single-chunk stream");
            report.expect("a single-chunk stream carries one frame")
        })
        .collect();
    match merge_chunk_reports(&manifest, &reports[..reports.len() - 1]) {
        Err(MergeError::MissingChunk { .. }) => {}
        other => {
            eprintln!("SMOKE FAIL: dropped chunk not rejected as a coverage gap: {other:?}");
            failures += 1;
        }
    }
    let mut dup = reports.clone();
    dup.push(reports[0].clone());
    match merge_chunk_reports(&manifest, &dup) {
        Err(MergeError::DuplicateChunk { .. }) => {}
        other => {
            eprintln!("SMOKE FAIL: duplicated chunk not rejected as overlap: {other:?}");
            failures += 1;
        }
    }

    // --- Fan-out wall time: 1 pooled shard beats serial (multi-core). --
    let mut best_one = Duration::MAX;
    for _ in 0..SMOKE_REPEATS {
        best_one = best_one.min(timed_fanout(&manifest, &[&shard_a]).1);
    }
    let cores = socbuf_bench::cores();
    println!(
        "best of {SMOKE_REPEATS}: serial {serial_time:?} vs 1-shard fan-out {best_one:?} ({:.2}x)",
        serial_time.as_secs_f64() / best_one.as_secs_f64().max(1e-12)
    );
    if cores >= 2 {
        if best_one >= serial_time {
            eprintln!(
                "SMOKE FAIL: 1-shard fan-out {best_one:?} not faster than the serial run \
                 {serial_time:?} on a {cores}-core host"
            );
            failures += 1;
        }
    } else {
        println!("wall-time gate SKIPPED: single-core host (byte parity still enforced)");
    }

    if failures == 0 {
        println!("smoke OK");
    }
    failures
}

/// Full table: serial vs 1/2/4-shard fan-out wall time per template.
fn full_probe() {
    let config = smoke_sizing();
    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "architecture", "chunks", "serial", "1 shard", "2 shards", "4 shards"
    );
    let shards: Vec<ShardProcess> = (0..4).map(|_| ShardProcess::spawn()).collect();
    for (name, arch) in [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ] {
        let mut sweep = BudgetSweep::new(&arch, smoke_budgets());
        sweep.sizing = config.clone();
        let manifest = sweep.manifest().expect("sizing-only campaign");
        let t = Instant::now();
        let serial = run_manifest(&manifest, &WorkPool::serial()).expect("serial run");
        let serial_time = t.elapsed();
        let mut row = format!("{name:<20} {:>7} {serial_time:>12?}", manifest.chunks.len());
        for n in [1usize, 2, 4] {
            let refs: Vec<&ShardProcess> = shards[..n].iter().collect();
            let (merged, time) = timed_fanout(&manifest, &refs);
            assert_eq!(
                merged.to_jsonl(),
                serial.to_jsonl(),
                "{name}: {n}-shard bytes"
            );
            row.push_str(&format!(" {time:>12?}"));
        }
        println!("{row}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--worker") {
        if let Err(e) = socbuf_serve::shard_worker_main(socbuf_serve::ServerConfig::default()) {
            eprintln!("shard worker failed: {e}");
            std::process::exit(2);
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    full_probe();
}

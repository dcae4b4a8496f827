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
//! * **byte-identical merge** — streaming the manifest's chunks from
//!   two shard processes and merging the frames must reproduce the
//!   serial run's CSV and JSONL byte for byte, for every shard
//!   assignment the round-robin produces;
//! * **coverage verification** — per-chunk reports, fetched one
//!   `sweep_stream` chunk at a time, must be rejected by the reducer
//!   with the named structured errors when a chunk is dropped or
//!   duplicated.
//!
//! Every gate is an identity, so a smoke gives the same verdict on any
//! host. Without a flag the probe prints serial vs 1/2/4-shard wall
//! time per template, then the serial vs 1-shard fan-out ratio on the
//! smoke campaign over [`probe::RATIO_PAIRS`] alternated pairs: that
//! ratio needs a second core to win, so no gate reads it.

use socbuf_bench::probe::{self, alternated_ratio, best_of, smoke_sizing, Gate, OrExit};
use socbuf_bench::ShardProcess;
use socbuf_core::wire::CampaignManifest;
use socbuf_serve::{RetryPolicy, ShardFleet};
use socbuf_soc::templates;
use socbuf_sweep::{
    merge_chunk_reports, run_manifest, BudgetSweep, MergeError, SweepKind, SweepReport, VecSink,
    WorkPool,
};

/// Ten budgets → three warm chains of ≤ 4: enough chunks that a
/// two-shard round-robin splits them unevenly ({0,2} vs {1}).
fn smoke_budgets() -> Vec<usize> {
    vec![200, 216, 232, 248, 264, 280, 296, 312, 328, 344]
}

/// The smoke budget campaign's manifest on `arch`.
fn manifest_on(arch: &socbuf_soc::Architecture) -> CampaignManifest {
    let mut sweep = BudgetSweep::new(arch, smoke_budgets());
    sweep.sizing = smoke_sizing();
    sweep.manifest().expect("sizing-only campaign")
}

/// One whole-campaign fan-out over `shards` (connect, then chunks
/// round-robin, streamed and merged).
fn fanout(manifest: &CampaignManifest, shards: &[&ShardProcess]) -> SweepReport {
    let mut fleet = ShardFleet::new(
        shards.iter().map(|s| s.client()).collect(),
        RetryPolicy::default(),
    );
    let (sink, _) = fleet
        .run_manifest_to_sink(manifest, VecSink::new())
        .or_exit("fan-out failed");
    SweepReport {
        kind: SweepKind::of(&manifest.shape),
        points: sink.into_points(),
    }
}

/// The serial in-process run.
fn run_serial(manifest: &CampaignManifest) -> SweepReport {
    run_manifest(manifest, &WorkPool::serial()).expect("serial run")
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    let manifest = manifest_on(&templates::network_processor());

    // The reference bytes from the serial, in-process pipeline.
    let (serial, serial_time) = best_of(1, || run_serial(&manifest));

    let shard_a = ShardProcess::spawn();
    let shard_b = ShardProcess::spawn();

    // --- Byte-identical coordinator + 2-shard merge. -------------------
    let (merged, two_shard_time) = best_of(1, || fanout(&manifest, &[&shard_a, &shard_b]));
    gate.check(
        merged.to_csv() == serial.to_csv(),
        "2-shard merged CSV differs from the serial pipeline",
    );
    gate.check(
        merged.to_jsonl() == serial.to_jsonl(),
        "2-shard merged JSONL differs from the serial pipeline",
    );
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
    match merge_chunk_reports(&manifest, reports[..reports.len() - 1].to_vec()) {
        Err(MergeError::MissingChunk { .. }) => {}
        other => gate.fail(format_args!(
            "dropped chunk not rejected as a coverage gap: {other:?}"
        )),
    }
    let mut dup = reports.clone();
    dup.push(reports[0].clone());
    match merge_chunk_reports(&manifest, dup) {
        Err(MergeError::DuplicateChunk { .. }) => {}
        other => gate.fail(format_args!(
            "duplicated chunk not rejected as overlap: {other:?}"
        )),
    }
}

/// Full table: serial vs 1/2/4-shard fan-out wall time per template,
/// then the smoke campaign's serial vs 1-shard ratio.
fn full_probe() {
    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "architecture", "chunks", "serial", "1 shard", "2 shards", "4 shards"
    );
    let shards: Vec<ShardProcess> = (0..4).map(|_| ShardProcess::spawn()).collect();
    for (name, arch) in probe::named_templates().into_iter().take(3) {
        let manifest = manifest_on(&arch);
        let (serial, serial_time) = best_of(1, || run_serial(&manifest));
        let mut row = format!("{name:<20} {:>7} {serial_time:>12?}", manifest.chunks.len());
        for n in [1usize, 2, 4] {
            let refs: Vec<&ShardProcess> = shards[..n].iter().collect();
            let (merged, time) = best_of(1, || fanout(&manifest, &refs));
            assert_eq!(
                merged.to_jsonl(),
                serial.to_jsonl(),
                "{name}: {n}-shard bytes"
            );
            row.push_str(&format!(" {time:>12?}"));
        }
        println!("{row}");
    }
    let manifest = manifest_on(&templates::network_processor());
    let fanout_ratio = alternated_ratio(
        probe::RATIO_PAIRS,
        || drop(run_serial(&manifest)),
        || drop(fanout(&manifest, &[&shards[0]])),
    );
    println!(
        "network_processor, serial vs 1-shard fan-out: {fanout_ratio} over {} alternated pairs \
         on {} cores",
        probe::RATIO_PAIRS,
        socbuf_bench::cores()
    );
}

fn main() {
    ShardProcess::worker_if_asked();
    probe::run(smoke, full_probe);
}

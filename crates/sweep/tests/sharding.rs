//! The sharded-merge contract: for every campaign shape and every
//! assignment of manifest chunks to executors, merging the chunk
//! reports reproduces the serial single-host report **byte for byte**
//! (CSV and JSONL), and the reducer refuses incomplete, overlapping,
//! or foreign coverage.

use socbuf_core::wire::{CampaignManifest, JsonValue};
use socbuf_core::SizingConfig;
use socbuf_soc::templates;
use socbuf_sweep::shard::MergeError;
use socbuf_sweep::{
    execute_manifest_chunk_traced, merge_chunk_reports, plan_manifest, run_manifest, BudgetSweep,
    ChunkReport, LoadSweep, RandomCampaign, SweepError, SweepKind, WorkPool,
};

fn small() -> SizingConfig {
    SizingConfig::small()
}

/// A budget manifest spanning three chunks (10 items, warm chains of 4).
fn budget_manifest(arch: &socbuf_soc::Architecture) -> CampaignManifest {
    let mut sweep = BudgetSweep::new(arch, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    sweep.sizing = small();
    sweep.manifest().unwrap()
}

/// Executes every chunk of `manifest` and returns the reports in the
/// order given by `order` (a permutation of chunk indices).
fn all_chunks(manifest: &CampaignManifest, order: &[usize]) -> Vec<ChunkReport> {
    let pool = WorkPool::serial();
    order
        .iter()
        .map(|&c| execute_manifest_chunk_traced(manifest, c, &pool).unwrap())
        .collect()
}

#[test]
fn budget_merge_is_byte_identical_for_any_chunk_assignment() {
    let arch = templates::amba();
    let manifest = budget_manifest(&arch);
    assert_eq!(manifest.chunks.len(), 3);
    let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();

    // Any permutation of report arrival order — including the "shard A
    // ran {0,2}, shard B ran {1}" split the smoke probe exercises —
    // must merge to the same bytes.
    for order in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]] {
        let merged = merge_chunk_reports(&manifest, all_chunks(&manifest, &order)).unwrap();
        assert_eq!(merged.to_csv(), serial.to_csv(), "order {order:?}");
        assert_eq!(merged.to_jsonl(), serial.to_jsonl(), "order {order:?}");
    }
}

#[test]
fn load_merge_is_byte_identical_across_the_wire() {
    // Round-trip the manifest through its wire rendering before
    // executing — exactly what a shard worker process receives.
    let arch = templates::coreconnect();
    let mut sweep = LoadSweep::new(&arch, 20, vec![0.5, 0.75, 1.0, 1.1, 1.25, 1.5]);
    sweep.sizing = small();
    let manifest = sweep.manifest().unwrap();
    let wire =
        CampaignManifest::from_json(&JsonValue::parse(&manifest.to_json()).unwrap()).unwrap();
    assert_eq!(wire.to_json(), manifest.to_json());

    let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();
    // Chunk reports round-trip through their JSON wire form too.
    let reports: Vec<ChunkReport> = (0..wire.chunks.len())
        .map(|c| {
            let r = execute_manifest_chunk_traced(&wire, c, &WorkPool::serial()).unwrap();
            ChunkReport::from_json(&JsonValue::parse(&r.to_json()).unwrap()).unwrap()
        })
        .collect();
    let merged = merge_chunk_reports(&manifest, reports).unwrap();
    assert_eq!(merged.to_csv(), serial.to_csv());
    assert_eq!(merged.to_jsonl(), serial.to_jsonl());
}

#[test]
fn random_merge_is_byte_identical() {
    let campaign = RandomCampaign {
        seeds: vec![1, 2, 3, 5, 8],
        sizing: small(),
        ..RandomCampaign::new(vec![])
    };
    let manifest = campaign.manifest().unwrap();
    // Independent policy: one chunk per seed.
    assert_eq!(manifest.chunks.len(), 5);
    let serial = campaign.run(&WorkPool::serial()).unwrap();
    let merged = merge_chunk_reports(&manifest, all_chunks(&manifest, &[4, 3, 2, 1, 0])).unwrap();
    assert_eq!(merged.to_csv(), serial.to_csv());
    assert_eq!(merged.to_jsonl(), serial.to_jsonl());
}

#[test]
fn manifest_run_matches_campaign_run_for_every_worker_count() {
    let arch = templates::amba();
    let mut sweep = BudgetSweep::new(&arch, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    sweep.sizing = small();
    let direct = sweep.run(&WorkPool::serial()).unwrap();
    let manifest = sweep.manifest().unwrap();
    for workers in [1, 2, 8] {
        let via_manifest = run_manifest(&manifest, &WorkPool::new(workers)).unwrap();
        assert_eq!(via_manifest.to_csv(), direct.to_csv(), "{workers} workers");
        assert_eq!(
            via_manifest.to_jsonl(),
            direct.to_jsonl(),
            "{workers} workers"
        );
    }
}

#[test]
fn coarsened_cold_manifests_still_size_every_point_cold() {
    // A cold campaign's chunk length is 1, so any partition is on its
    // chain grid and a manifest may group several points per chunk.
    // Each point must still be a one-point chain: the same points, pivot
    // counts included, and bytes as the finest partition.
    let arch = templates::amba();
    let mut sweep = BudgetSweep::new(&arch, vec![10, 12, 14, 16, 18, 20, 24]);
    sweep.sizing = small();
    sweep.warm_start = false;
    let direct = sweep.run(&WorkPool::serial()).unwrap();
    let base = sweep.manifest().unwrap();
    let coarse =
        CampaignManifest::with_chunks(base.shape.clone(), base.config.clone(), vec![0..4, 4..7])
            .unwrap();
    for workers in [1, 2] {
        let report = run_manifest(&coarse, &WorkPool::new(workers)).unwrap();
        assert_eq!(report.points, direct.points, "{workers} workers");
        assert_eq!(report.to_csv(), direct.to_csv(), "{workers} workers");
        assert_eq!(report.to_jsonl(), direct.to_jsonl(), "{workers} workers");
    }
}

#[test]
fn reducer_rejects_dropped_duplicated_and_foreign_chunks() {
    let arch = templates::amba();
    let manifest = budget_manifest(&arch);
    let reports = all_chunks(&manifest, &[0, 1, 2]);

    // Dropped chunk → coverage gap.
    match merge_chunk_reports(&manifest, reports[..2].to_vec()) {
        Err(MergeError::MissingChunk { chunk: 2 }) => {}
        other => panic!("expected MissingChunk(2), got {other:?}"),
    }

    // Duplicated chunk → overlap.
    let mut dup = reports.clone();
    dup.push(reports[1].clone());
    match merge_chunk_reports(&manifest, dup) {
        Err(MergeError::DuplicateChunk { chunk: 1 }) => {}
        other => panic!("expected DuplicateChunk(1), got {other:?}"),
    }

    // Stale config hash → foreign campaign.
    let mut stale = reports.clone();
    stale[0].config_hash ^= 1;
    match merge_chunk_reports(&manifest, stale) {
        Err(MergeError::HashMismatch { chunk: 0, .. }) => {}
        other => panic!("expected HashMismatch(0), got {other:?}"),
    }

    // Tampered range → partition mismatch.
    let mut shifted = reports.clone();
    shifted[2].start += 1;
    match merge_chunk_reports(&manifest, shifted) {
        Err(MergeError::RangeMismatch { chunk: 2, .. }) => {}
        other => panic!("expected RangeMismatch(2), got {other:?}"),
    }

    // Chunk index beyond the partition.
    let mut unknown = reports.clone();
    unknown[0].chunk = 9;
    match merge_chunk_reports(&manifest, unknown) {
        Err(MergeError::UnknownChunk { chunk: 9, .. }) => {}
        other => panic!("expected UnknownChunk(9), got {other:?}"),
    }

    // Wrong kind tag.
    let mut foreign = reports.clone();
    foreign[1].kind = SweepKind::Load;
    match merge_chunk_reports(&manifest, foreign) {
        Err(MergeError::KindMismatch { chunk: 1, .. }) => {}
        other => panic!("expected KindMismatch(1), got {other:?}"),
    }
}

#[test]
fn simulation_campaigns_refuse_to_shard() {
    let arch = templates::amba();
    let mut sweep = BudgetSweep::new(&arch, vec![16]);
    sweep.sizing = small();
    sweep.simulate = Some(socbuf_core::PipelineConfig::small());
    match sweep.manifest() {
        Err(SweepError::BadConfig(msg)) => assert!(msg.contains("sizing-only"), "{msg}"),
        other => panic!("expected BadConfig, got {other:?}"),
    }
}

/// Asserts every execution entry point refuses `manifest` with a
/// `BadConfig` whose text contains `needle`.
fn assert_refused_everywhere(manifest: &CampaignManifest, needle: &str) {
    let pool = WorkPool::serial();
    for (entry, refusal) in [
        ("plan_manifest", plan_manifest(manifest, &pool).err()),
        ("run_manifest", run_manifest(manifest, &pool).err()),
        (
            "execute_manifest_chunk_traced",
            execute_manifest_chunk_traced(manifest, 0, &pool).err(),
        ),
    ] {
        match refusal {
            Some(SweepError::BadConfig(msg)) => assert!(msg.contains(needle), "{entry}: {msg}"),
            other => panic!("{entry}: expected BadConfig naming {needle:?}, got {other:?}"),
        }
    }
}

#[test]
fn edited_chunk_partitions_are_refused_before_anything_runs() {
    let arch = templates::amba();
    let base = budget_manifest(&arch); // chunks 0..4, 4..8, 8..10
    let mut off_grid = base.clone();
    off_grid.chunks[0].end = 3;
    off_grid.chunks[1].start = 3;
    assert_refused_everywhere(&off_grid, "chunk 0 ends at 3");
    let mut gap = base.clone();
    gap.chunks[1].start = 5;
    assert_refused_everywhere(&gap, "chunk 1 starts at 5 — coverage gap");
    let mut renumbered = base;
    renumbered.chunks[2].chunk = 7;
    assert_refused_everywhere(&renumbered, "chunks[2] is numbered 7");
}

#[test]
fn manifests_the_wire_cannot_carry_back_are_refused_but_still_run_locally() {
    let arch = templates::amba();
    let mut load = LoadSweep::new(&arch, 16, vec![1.0, f64::NAN]);
    load.sizing = small();
    match load.manifest() {
        Err(SweepError::BadConfig(msg)) => assert!(msg.contains("factors[1] is NaN"), "{msg}"),
        other => panic!("expected BadConfig, got {other:?}"),
    }
    match load.run(&WorkPool::serial()) {
        Err(SweepError::Arch { index: 1, .. }) => {}
        other => panic!("expected an Arch error at point 1, got {other:?}"),
    }

    let seed = 10_368_477_539_328_126_995;
    let mut random = RandomCampaign::new(vec![seed]);
    random.sizing = small();
    match random.manifest() {
        Err(SweepError::BadConfig(msg)) => assert!(msg.contains("seeds[0]"), "{msg}"),
        other => panic!("expected BadConfig, got {other:?}"),
    }
    let report = random.run(&WorkPool::serial()).unwrap();
    assert_eq!(report.points[0].arch_seed, Some(seed));
}

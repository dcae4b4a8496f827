//! Property tests for the sharding wire codecs: manifests and chunk
//! reports must (a) round-trip byte-identically —
//! the merge reducer's byte-parity contract rests on render∘parse
//! being the identity — and (b) reject malformed payloads with
//! structured errors, never panics: truncations, duplicate keys,
//! overlapping or gapped chunk ranges, stale config hashes, foreign
//! fields.

use proptest::collection::vec;
use proptest::prelude::*;

use socbuf_core::wire::{CampaignManifest, JsonValue, ManifestShape, WireError};
use socbuf_core::SizingConfig;
use socbuf_soc::templates::{self, RandomArchParams};
use socbuf_sweep::{ChunkReport, SweepKind, SweepPoint};

fn small() -> SizingConfig {
    SizingConfig::small()
}

/// Builds one of the three manifest shapes from sampled primitives
/// (shape variety is what the codecs care about; the metamorphic suite
/// owns random-architecture coverage, so template architectures do).
fn shape_from(
    sel: usize,
    arch_sel: usize,
    len: usize,
    budgets: &[usize],
    factors: &[f64],
    seeds: &[usize],
    warm_start: bool,
) -> ManifestShape {
    let arch = match arch_sel % 3 {
        0 => templates::amba(),
        1 => templates::coreconnect(),
        _ => templates::figure1(),
    };
    match sel % 3 {
        0 => ManifestShape::Budget {
            arch,
            budgets: budgets[..len.min(budgets.len())].to_vec(),
            warm_start,
        },
        1 => ManifestShape::Load {
            arch,
            budget: budgets[0],
            factors: factors[..len.min(factors.len())].to_vec(),
            warm_start,
        },
        _ => ManifestShape::Random {
            params: RandomArchParams::default(),
            seeds: seeds[..len.min(seeds.len())]
                .iter()
                .map(|&s| s as u64)
                .collect(),
            units_per_queue: 1 + budgets[0] % 8,
        },
    }
}

/// A synthetic chunk report: typed points built from sampled numbers,
/// so the codec's framing and its point decode are exercised without
/// running solves.
fn report_from(config_hash: u64, kind: usize, start: usize, payloads: &[f64]) -> ChunkReport {
    let kind = [SweepKind::Budget, SweepKind::Load, SweepKind::Random][kind % 3];
    let points = payloads
        .iter()
        .enumerate()
        .map(|(i, &value)| SweepPoint {
            index: start + i,
            budget: 8 + i,
            load_factor: value / 4.0,
            arch_seed: (kind == SweepKind::Random).then_some(1_000 + i as u64),
            queues: 2,
            offered_rate: value,
            predicted_loss: value / 1e3,
            shadow_price: -value / 7.0,
            budget_row_relaxed: i % 2 == 1,
            lp_iterations: 0,
            allocation: vec![3, 5 + i],
            sim: None,
        })
        .collect();
    ChunkReport {
        config_hash,
        kind,
        chunk: start / payloads.len().max(1),
        start,
        end: start + payloads.len(),
        points,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn manifest_round_trips_byte_identically(
        sel in 0usize..3,
        arch_sel in 0usize..3,
        len in 1usize..=16,
        budgets in vec(1usize..200, 16),
        factors in vec(0.1f64..2.0, 16),
        seeds in vec(0usize..1_000_000_000, 16),
        warm_start in proptest::bool::ANY,
    ) {
        let shape = shape_from(sel, arch_sel, len, &budgets, &factors, &seeds, warm_start);
        let manifest = CampaignManifest::new(shape, small()).unwrap();
        let bytes = manifest.to_json();
        let parsed = CampaignManifest::from_json(&JsonValue::parse(&bytes).unwrap()).unwrap();
        prop_assert_eq!(parsed.to_json(), bytes);
        prop_assert_eq!(parsed.config_hash, manifest.config_hash);
        prop_assert_eq!(parsed.chunks, manifest.chunks);
    }

    #[test]
    fn truncated_manifest_payloads_error_instead_of_panicking(
        sel in 0usize..3,
        arch_sel in 0usize..3,
        len in 1usize..=16,
        budgets in vec(1usize..200, 16),
        factors in vec(0.1f64..2.0, 16),
        seeds in vec(0usize..1_000_000_000, 16),
        warm_start in proptest::bool::ANY,
        frac in 0.0f64..1.0,
    ) {
        let shape = shape_from(sel, arch_sel, len, &budgets, &factors, &seeds, warm_start);
        let bytes = CampaignManifest::new(shape, small()).unwrap().to_json();
        // Canonical renderings are ASCII, so every byte index is a
        // char boundary; any proper prefix must fail to parse.
        let cut = (((bytes.len() as f64) * frac) as usize).min(bytes.len() - 1);
        prop_assert!(JsonValue::parse(&bytes[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn duplicate_keys_are_rejected_at_parse(
        sel in 0usize..3,
        arch_sel in 0usize..3,
        len in 1usize..=16,
        budgets in vec(1usize..200, 16),
        factors in vec(0.1f64..2.0, 16),
        seeds in vec(0usize..1_000_000_000, 16),
        warm_start in proptest::bool::ANY,
    ) {
        let shape = shape_from(sel, arch_sel, len, &budgets, &factors, &seeds, warm_start);
        let bytes = CampaignManifest::new(shape, small()).unwrap().to_json();
        // Splice a second "chunk_len" field in front of the real one.
        let needle = ",\"chunk_len\":";
        let at = bytes.find(needle).expect("manifest renders chunk_len");
        let dup = format!("{},\"chunk_len\":999{}", &bytes[..at], &bytes[at..]);
        match JsonValue::parse(&dup) {
            Err(WireError::Parse { message, .. }) => prop_assert!(
                message.contains("duplicate key"),
                "wrong parse error: {message}"
            ),
            other => panic!("duplicate key accepted: {other:?}"),
        }
    }

    #[test]
    fn tampered_chunk_partitions_are_rejected_with_named_violations(
        sel in 0usize..3,
        arch_sel in 0usize..3,
        len in 1usize..=16,
        budgets in vec(1usize..200, 16),
        factors in vec(0.1f64..2.0, 16),
        seeds in vec(0usize..1_000_000_000, 16),
        warm_start in proptest::bool::ANY,
        which in 0usize..3,
    ) {
        let shape = shape_from(sel, arch_sel, len, &budgets, &factors, &seeds, warm_start);
        let manifest = CampaignManifest::new(shape, small()).unwrap();
        let mut tampered = manifest.clone();
        let last = tampered.chunks.len() - 1;
        let expect = match which {
            // Stretch the last chunk past the item count.
            0 => {
                tampered.chunks[last].end += 1;
                Some("scheduling policy requires")
            }
            // Shift a start forward: a coverage gap (unless the chunk
            // degenerates to empty, where the end check fires first —
            // skip rather than special-case).
            1 => {
                tampered.chunks[last].start += 1;
                (tampered.chunks[last].start < tampered.chunks[last].end)
                    .then_some("coverage gap")
            }
            // Shift a start backward: overlapping ranges (needs a
            // predecessor to overlap into).
            _ => {
                if tampered.chunks[last].start == 0 {
                    None
                } else {
                    tampered.chunks[last].start -= 1;
                    Some("overlapping chunk ranges")
                }
            }
        };
        if let Some(expect) = expect {
            let rendered = tampered.to_json();
            match CampaignManifest::from_json(&JsonValue::parse(&rendered).unwrap()) {
                Err(WireError::Schema(msg)) => prop_assert!(
                    msg.contains(expect),
                    "expected \"{expect}\" in: {msg}"
                ),
                other => panic!("tampered partition accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn stale_config_hashes_are_rejected(
        sel in 0usize..3,
        arch_sel in 0usize..3,
        len in 1usize..=16,
        budgets in vec(1usize..200, 16),
        factors in vec(0.1f64..2.0, 16),
        seeds in vec(0usize..1_000_000_000, 16),
        warm_start in proptest::bool::ANY,
        flip in 0usize..64,
    ) {
        let shape = shape_from(sel, arch_sel, len, &budgets, &factors, &seeds, warm_start);
        let mut manifest = CampaignManifest::new(shape, small()).unwrap();
        manifest.config_hash ^= 1u64 << flip;
        let rendered = manifest.to_json();
        match CampaignManifest::from_json(&JsonValue::parse(&rendered).unwrap()) {
            Err(WireError::Schema(msg)) => prop_assert!(
                msg.contains("stale config hash"),
                "wrong error: {msg}"
            ),
            other => panic!("stale hash accepted: {other:?}"),
        }
    }

    #[test]
    fn chunk_report_round_trips_byte_identically(
        config_hash in 0usize..1_000_000_000,
        kind in 0usize..3,
        start in 0usize..50,
        len in 1usize..=5,
        payloads in vec(0.0f64..10.0, 5),
    ) {
        let report = report_from(config_hash as u64, kind, start, &payloads[..len]);
        let json = report.to_json();
        let via_json = ChunkReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        prop_assert_eq!(via_json.to_json(), json);
        prop_assert_eq!(&via_json, &report);
    }

    #[test]
    fn corrupted_chunk_reports_are_rejected(
        config_hash in 0usize..1_000_000_000,
        kind in 0usize..3,
        start in 0usize..50,
        len in 2usize..=5,
        payloads in vec(0.0f64..10.0, 5),
        which in 0usize..4,
    ) {
        let report = report_from(config_hash as u64, kind, start, &payloads[..len]);
        let mut bad = report.clone();
        let mut flagged = false;
        let expect = match which {
            // Drop a point: count no longer covers the range.
            0 => {
                bad.points.pop();
                "needs"
            }
            // Renumber a point: index integrity.
            1 => {
                bad.points[0].index = bad.start + 7000;
                "expected"
            }
            // A point claiming the global frontier flag, which no typed
            // report renders, so it goes into the text.
            2 => {
                flagged = true;
                "frontier"
            }
            // A reversed (empty) range.
            _ => {
                bad.end = bad.start;
                bad.points.clear();
                "empty range"
            }
        };
        let mut rendered = bad.to_json();
        if flagged {
            rendered = rendered.replacen("\"points\":[{", "\"points\":[{\"frontier\":true,", 1);
        }
        match ChunkReport::from_json(&JsonValue::parse(&rendered).unwrap()) {
            Err(WireError::Schema(msg)) => prop_assert!(
                msg.contains(expect),
                "expected \"{expect}\" in: {msg}"
            ),
            other => panic!("corrupted report accepted: {other:?}"),
        }
    }
}

/// The field rules of the chunk frame, on a canonical rendering: an
/// extra key `zz` is refused by name, and dropping any key gives
/// `chunk report: missing field "<key>"`. (The point codec's own field
/// rules are pinned beside it, in the sweep report's unit tests.)
#[test]
fn chunk_report_refuses_unknown_keys_and_names_missing_ones() {
    let doc = JsonValue::parse(&report_from(0xab, 0, 4, &[1.5, 2.5]).to_json()).unwrap();
    ChunkReport::from_json(&doc).expect("the canonical text decodes");
    let JsonValue::Obj(fields) = &doc else {
        panic!("a chunk report is an object")
    };
    let with = |fields: Vec<(String, JsonValue)>| ChunkReport::from_json(&JsonValue::Obj(fields));
    let mut extra = fields.clone();
    extra.push(("zz".into(), JsonValue::Num(1.0)));
    match with(extra) {
        Err(WireError::Schema(msg)) => {
            assert!(
                msg.starts_with("chunk report: unknown field \"zz\""),
                "{msg}"
            )
        }
        other => panic!("an extra key must be refused by name, got {other:?}"),
    }
    for (key, _) in fields {
        let dropped = fields.iter().filter(|(k, _)| k != key).cloned().collect();
        let want = format!("chunk report: missing field \"{key}\"");
        assert_eq!(
            with(dropped),
            Err(WireError::Schema(want)),
            "dropping {key}"
        );
    }
}

/// A point the point codec refuses is named by its position and its
/// chunk, so a fleet failure says where in the campaign the bad point
/// sits.
#[test]
fn a_refused_point_is_named_by_its_position_and_chunk() {
    let mut doc = JsonValue::parse(&report_from(0xab, 0, 4, &[1.5, 2.5]).to_json()).unwrap();
    let JsonValue::Obj(fields) = &mut doc else {
        panic!("a chunk report is an object")
    };
    let Some((_, JsonValue::Arr(points))) = fields.iter_mut().find(|(k, _)| k == "points") else {
        panic!("a chunk report has a points list")
    };
    let JsonValue::Obj(second) = &mut points[1] else {
        panic!("a point is an object")
    };
    second.retain(|(k, _)| k != "budget");
    assert_eq!(
        ChunkReport::from_json(&doc),
        Err(WireError::Schema(
            "chunk 2: points[1]: point: missing field \"budget\"".into()
        ))
    );
}

#[test]
fn coarsened_chunk_partitions_are_accepted_and_misaligned_ones_named() {
    // 10 items under warm chains of 4: base partition 0..4, 4..8, 8..10.
    let shape = || ManifestShape::Budget {
        arch: templates::amba(),
        budgets: (0..10).map(|i| 10 + 2 * i).collect(),
        warm_start: true,
    };
    let base = CampaignManifest::new(shape(), small()).unwrap();
    assert_eq!(base.chunks.len(), 3);

    // A union of consecutive base chunks is a valid declared partition
    // with the same config hash, and survives its wire round-trip.
    let coarse = CampaignManifest::with_chunks(shape(), small(), vec![0..8, 8..10]).unwrap();
    assert_eq!(coarse.config_hash, base.config_hash);
    let parsed =
        CampaignManifest::from_json(&JsonValue::parse(&coarse.to_json()).unwrap()).unwrap();
    assert_eq!(parsed.chunks, coarse.chunks);

    // Boundaries off the base chain grid are refused by name…
    match CampaignManifest::with_chunks(shape(), small(), vec![0..6, 6..10]) {
        Err(WireError::Schema(msg)) => {
            assert!(msg.contains("scheduling policy requires"), "{msg}")
        }
        other => panic!("misaligned partition accepted: {other:?}"),
    }
    // …as are gaps and overlaps between declared chunks.
    match CampaignManifest::with_chunks(shape(), small(), vec![0..4, 8..10]) {
        Err(WireError::Schema(msg)) => assert!(msg.contains("coverage gap"), "{msg}"),
        other => panic!("gapped partition accepted: {other:?}"),
    }
    match CampaignManifest::with_chunks(shape(), small(), vec![0..8, 4..10]) {
        Err(WireError::Schema(msg)) => {
            assert!(msg.contains("overlapping chunk ranges"), "{msg}")
        }
        other => panic!("overlapping partition accepted: {other:?}"),
    }
    let short_partition = vec![std::ops::Range { start: 0, end: 8 }];
    match CampaignManifest::with_chunks(shape(), small(), short_partition) {
        Err(WireError::Schema(msg)) => assert!(msg.contains("coverage gap"), "{msg}"),
        other => panic!("short partition accepted: {other:?}"),
    }
}

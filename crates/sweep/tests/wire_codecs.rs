//! Property tests for the sharding wire codecs: manifests and chunk
//! reports must (a) round-trip byte-identically —
//! the merge reducer's byte-parity contract rests on render∘parse
//! being the identity — and (b) reject malformed payloads with
//! structured errors, never panics: truncations, duplicate keys,
//! overlapping or gapped chunk ranges, stale config hashes, foreign
//! fields.

use proptest::collection::vec;
use proptest::prelude::*;

use socbuf_core::wire::{CampaignManifest, ChunkReport, JsonValue, ManifestShape, WireError};
use socbuf_core::SizingConfig;
use socbuf_soc::templates::{self, RandomArchParams};

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

/// A synthetic chunk report: the codec treats points as opaque objects
/// (only `index` integrity and the absence of `frontier` matter), so
/// arbitrary payload fields exercise it fully without running solves.
fn report_from(config_hash: u64, kind: usize, start: usize, payloads: &[f64]) -> ChunkReport {
    let points = payloads
        .iter()
        .enumerate()
        .map(|(i, value)| {
            JsonValue::parse(&format!("{{\"index\":{},\"payload\":{value}}}", start + i))
                .expect("synthetic point is valid JSON")
        })
        .collect();
    ChunkReport {
        config_hash,
        kind: ["budget", "load", "random"][kind % 3].to_string(),
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
        let expect = match which {
            // Drop a point: count no longer covers the range.
            0 => {
                bad.points.pop();
                "needs"
            }
            // Renumber a point: index integrity.
            1 => {
                let mut p = String::new();
                bad.points[0].push(&mut p);
                bad.points[0] = JsonValue::parse(&p.replacen(
                    &format!("\"index\":{}", bad.start),
                    &format!("\"index\":{}", bad.start + 7000),
                    1,
                )).unwrap();
                "expected"
            }
            // A point claiming the global frontier flag (points are
            // flat objects, so the first '}' closes them).
            2 => {
                let mut p = String::new();
                bad.points[0].push(&mut p);
                bad.points[0] =
                    JsonValue::parse(&p.replacen('}', ",\"frontier\":true}", 1)).unwrap();
                "frontier"
            }
            // A reversed (empty) range.
            _ => {
                bad.end = bad.start;
                bad.points.clear();
                "empty range"
            }
        };
        let rendered = bad.to_json();
        match ChunkReport::from_json(&JsonValue::parse(&rendered).unwrap()) {
            Err(WireError::Schema(msg)) => prop_assert!(
                msg.contains(expect),
                "expected \"{expect}\" in: {msg}"
            ),
            other => panic!("corrupted report accepted: {other:?}"),
        }
    }
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

//! A mutation corpus for the chunk-report decoder, the one decoder a
//! coordinator runs on every frame a shard streams back.
//!
//! Two real rendered chunk frames (a warm budget chunk and a random
//! campaign chunk, whose points carry architecture seeds) are mutated
//! four seeded ways: cut at every byte, one bit of one byte flipped,
//! one key duplicated, and one `kind` tag swapped for another. For each
//! mutated text the parse-and-decode ([`JsonDocument::parse`], then
//! [`ChunkReport::from_json`]):
//!
//! * never panics;
//! * either refuses it with a named [`WireError`], or returns a report
//!   whose rendering is the mutated text as the parser reads it (the
//!   text itself, whenever the mutation left it canonical);
//! * makes at most [`alloc_bound`] allocations for the text's length,
//!   a bound that stays within [`MAX_FRAME_BYTES`] for the largest
//!   frame the protocol accepts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use socbuf_bench::alloc::{self, CountingAlloc};
use socbuf_core::wire::{JsonDocument, JsonValue, WireError};
use socbuf_core::SizingConfig;
use socbuf_serve::MAX_FRAME_BYTES;
use socbuf_soc::templates;
use socbuf_sweep::{
    execute_manifest_chunk_traced, BudgetSweep, ChunkReport, RandomCampaign, WorkPool,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seeded bit flips per frame.
const FLIPS: usize = 4_000;

/// Seeded key duplications per frame.
const DUPLICATES: usize = 400;

/// The most allocations a parse-and-decode of `len` bytes may make: a
/// few for the tape, the unescape buffer, the point list and an error
/// message, and one per 32 bytes for the rest. A canonical point is
/// ~280 bytes and decodes with one allocation, its buffer allocation.
fn alloc_bound(len: usize) -> u64 {
    16 + len as u64 / 32
}

/// A splitmix64 stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The first chunk of a four-point warm budget campaign on figure1 and
/// of a three-seed random campaign, each as a shard renders it.
fn frames() -> Vec<(&'static str, String)> {
    let pool = WorkPool::serial();
    let figure1 = templates::figure1();
    let mut budget = BudgetSweep::new(&figure1, vec![12, 16, 20, 24]);
    budget.sizing = SizingConfig::small();
    let mut random = RandomCampaign::new(vec![3, 7, 11]);
    random.sizing = SizingConfig::small();
    [
        ("budget", budget.manifest().unwrap()),
        ("random", random.manifest().unwrap()),
    ]
    .into_iter()
    .map(|(name, manifest)| {
        let report = execute_manifest_chunk_traced(&manifest, 0, &pool).unwrap();
        (name, report.to_json())
    })
    .collect()
}

/// Byte offsets where an object member's key starts: the `"` after a
/// `{` or `,` that is followed by `<name>":`.
fn key_starts(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    (1..b.len())
        .filter(|&i| b[i] == b'"' && matches!(b[i - 1], b'{' | b','))
        .filter_map(|i| {
            let rest = &text[i + 1..];
            let end = rest.find('"')?;
            rest[end + 1..].starts_with(':').then(|| (i, &rest[..end]))
        })
        .collect()
}

/// Every mutation of `frame`: a description and the mutated text.
fn mutations(frame: &str, seed: u64) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut mix = Mix(seed);
    for cut in 0..frame.len() {
        out.push((format!("cut at {cut}"), frame[..cut].to_string()));
    }
    let bytes = frame.as_bytes();
    for _ in 0..FLIPS {
        let at = mix.below(bytes.len());
        // Low seven bits only: the text stays ASCII, so it stays a str.
        let bit = 1u8 << mix.below(7);
        let mut flipped = bytes.to_vec();
        flipped[at] ^= bit;
        let text = String::from_utf8(flipped).expect("ASCII stays UTF-8");
        out.push((format!("bit {bit:#04x} of byte {at} flipped"), text));
    }
    let keys = key_starts(frame);
    for _ in 0..DUPLICATES {
        let (at, key) = keys[mix.below(keys.len())];
        let text = format!("{}\"{key}\":null,{}", &frame[..at], &frame[at..]);
        out.push((format!("\"{key}\" duplicated at {at}"), text));
    }
    let tags = ["budget", "load", "random", "bogus"];
    for (at, _) in frame.match_indices("\"kind\":\"") {
        let from = at + "\"kind\":\"".len();
        let end = from + frame[from..].find('"').expect("a closed tag");
        for tag in tags.iter().filter(|&&t| t != &frame[from..end]) {
            let text = format!("{}{tag}{}", &frame[..from], &frame[end..]);
            out.push((format!("kind at {at} swapped for \"{tag}\""), text));
        }
    }
    out
}

fn decode(text: &str) -> Result<ChunkReport, WireError> {
    let doc = JsonDocument::parse(text)?;
    ChunkReport::from_json(doc.value())
}

#[test]
fn mutated_chunk_frames_are_refused_by_name_or_decoded_faithfully() {
    assert!(
        alloc_bound(MAX_FRAME_BYTES) <= MAX_FRAME_BYTES as u64,
        "the allocation bound outgrows the frame cap"
    );
    for (seed, (name, frame)) in frames().into_iter().enumerate() {
        let canonical = decode(&frame).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            canonical.to_json(),
            frame,
            "{name}: a rendered frame round-trips"
        );
        let (mut refused, mut accepted) = (0, 0);
        for (what, text) in mutations(&frame, seed as u64) {
            let at = format!("{name} frame, {what}");
            let (decoded, counts) =
                alloc::count(|| catch_unwind(AssertUnwindSafe(|| decode(&text))));
            let decoded = decoded.unwrap_or_else(|_| panic!("{at}: the decoder panicked"));
            assert!(
                counts.allocs <= alloc_bound(text.len()),
                "{at}: {} allocations for {} bytes (bound {})",
                counts.allocs,
                text.len(),
                alloc_bound(text.len())
            );
            match decoded {
                Err(WireError::Parse { message, .. } | WireError::Schema(message)) => {
                    assert!(!message.is_empty(), "{at}: an unnamed refusal");
                    refused += 1;
                }
                Ok(report) => {
                    let read = JsonValue::parse(&text).unwrap().render();
                    assert_eq!(report.to_json(), read, "{at}: decoded unfaithfully");
                    accepted += 1;
                }
            }
        }
        // The corpus reaches both outcomes: flips in digits decode to
        // other numbers, everything else is refused.
        assert!(refused > frame.len(), "{name}: {refused} refusals");
        assert!(accepted > 0, "{name}: no mutation decoded");
    }
}

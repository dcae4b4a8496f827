//! Byte-identity corpus for the JSON parser every wire frame goes
//! through.
//!
//! Five canonical frames (a `size` request, a `size` reply, a
//! `sweep_stream` request, a manifest and a chunk report) are mutated
//! two ways: cut at every byte, and with every byte replaced by each
//! byte of a small alphabet of JSON's structural and lexical bytes.
//! Each mutated text's parse result, `Ok` with the canonical rendering
//! or `Err` with the message and its byte offset, feeds one FNV-1a
//! digest per frame. A parser change that moves any accepted value,
//! refusal, message or offset moves a digest.
//!
//! The explicit cases pin what the corpus reaches only by chance:
//! duplicate keys compared after unescaping (in small objects and in
//! large ones, whose check hashes the keys), the linear parse of a
//! 32,000-key object, the nesting cap, unpaired surrogates and the
//! RFC 8259 number edges.

use socbuf_core::wire::{
    config_hash_to_hex, CampaignManifest, JsonDocument, JsonRead, JsonValue, JsonView,
    ManifestShape, WireError,
};
use socbuf_core::SizingConfig;
use socbuf_serve::{Request, Response, Trace};
use socbuf_soc::templates;

/// Bytes each position is replaced by: JSON's structural bytes, the
/// string and number lexemes, and a control byte.
const ALPHABET: &[u8] = b"\"\\{}[,:0-e.u\x01";

/// A semantic outcome for figure1's five queues, in the canonical form
/// a served `size` reply carries.
const SIZE_RESULT: &str = "{\"allocation\":[4,6,4,6,4],\"requirements\":[3,5,3,5,3],\
\"efforts\":[[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1]],\
\"predicted_loss_rate\":0.00123,\"budget_shadow_price\":-0.000625,\
\"budget_row_relaxed\":false,\"lp_engine\":\"revised\",\
\"lp_scaling\":{\"applied\":false,\"condition_before\":1,\"condition_after\":1}}";

/// One chunk report point, as a budget campaign renders it.
const POINTS: [&str; 2] = [
    "{\"index\":0,\"kind\":\"budget\",\"budget\":8,\"load_factor\":1,\"arch_seed\":null,\
\"queues\":5,\"offered_rate\":1.75,\"predicted_loss\":0.03125,\"shadow_price\":-0.001,\
\"budget_row_relaxed\":false,\"allocation\":[1,2,1,2,2],\"sim\":null}",
    "{\"index\":1,\"kind\":\"budget\",\"budget\":16,\"load_factor\":1,\"arch_seed\":null,\
\"queues\":5,\"offered_rate\":1.75,\"predicted_loss\":0.0078125,\"shadow_price\":null,\
\"budget_row_relaxed\":true,\"allocation\":[3,4,2,4,3],\"sim\":null}",
];

/// FNV-1a 64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A parse result as text: `Ok <render>` or `Err <message with offset>`.
fn outcome(text: &str) -> String {
    match JsonValue::parse(text) {
        Ok(v) => format!("Ok {}", v.render()),
        Err(e) => format!("Err {e}"),
    }
}

/// Every mutated text of `frame`: each prefix, then each single-byte
/// substitution from [`ALPHABET`] that leaves valid UTF-8 and changes
/// the text.
fn mutations(frame: &str) -> Vec<String> {
    let bytes = frame.as_bytes();
    let mut out: Vec<String> = (0..bytes.len())
        .filter(|&cut| frame.is_char_boundary(cut))
        .map(|cut| frame[..cut].to_string())
        .collect();
    for at in 0..bytes.len() {
        for &b in ALPHABET {
            if bytes[at] == b {
                continue;
            }
            let mut mutated = bytes.to_vec();
            mutated[at] = b;
            if let Ok(text) = String::from_utf8(mutated) {
                out.push(text);
            }
        }
    }
    out
}

/// The digest over every mutation of `frame`, and how many of them
/// parsed.
fn digest(frame: &str) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut accepted = 0;
    for text in mutations(frame) {
        let got = outcome(&text);
        accepted += usize::from(got.starts_with("Ok "));
        h.write(got.as_bytes());
        h.write(b"\n");
    }
    (h.0, accepted)
}

/// The five canonical frames, named.
fn frames() -> Vec<(&'static str, String)> {
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let manifest = CampaignManifest::new(
        ManifestShape::Budget {
            arch: arch.clone(),
            budgets: vec![8, 16, 24, 32],
            warm_start: true,
        },
        config.clone(),
    )
    .unwrap();
    let load = CampaignManifest::new(
        ManifestShape::Load {
            arch: arch.clone(),
            budget: 24,
            factors: vec![1.0, 0.975, 0.95],
            warm_start: true,
        },
        config.clone(),
    )
    .unwrap();
    let trace = Trace {
        warm: true,
        pivots: 0,
        queue_wait_us: 12,
        solve_us: 345,
    };
    vec![
        (
            "size request",
            Request::Size {
                arch,
                config,
                budget: 24,
            }
            .to_json(),
        ),
        (
            "size reply",
            Response::Size {
                result: SIZE_RESULT.to_string(),
                trace,
            }
            .to_json(),
        ),
        (
            "sweep_stream request",
            Request::SweepStream {
                manifest: manifest.clone(),
                chunks: Some(vec![1, 0]),
            }
            .to_json(),
        ),
        ("manifest", load.to_json()),
        (
            "chunk report",
            format!(
                "{{\"chunk\":0,\"kind\":\"budget\",\"config_hash\":\"{}\",\"start\":0,\
                 \"end\":2,\"points\":[{}]}}",
                config_hash_to_hex(manifest.config_hash),
                POINTS.join(",")
            ),
        ),
    ]
}

#[test]
fn every_truncation_and_substitution_of_the_canonical_frames_parses_as_pinned() {
    // (frame, bytes, mutations that parse, digest)
    let pinned: [(&str, usize, usize, u64); 5] = [
        ("size request", 1019, 5038, 9108412043150381430),
        ("size reply", 392, 2034, 15676400832402746279),
        ("sweep_stream request", 1201, 6131, 12375128817007585437),
        ("manifest", 1158, 5867, 15583217842091657946),
        ("chunk report", 515, 2963, 12057288820978908443),
    ];
    let got: Vec<(&str, usize, usize, u64)> = frames()
        .iter()
        .map(|(name, frame)| {
            assert_eq!(outcome(frame), format!("Ok {frame}"), "{name} is canonical");
            let (h, accepted) = digest(frame);
            (*name, frame.len(), accepted, h)
        })
        .collect();
    assert_eq!(got, pinned);
}

/// `Err` of a parse failure at `offset`.
fn refused(offset: usize, message: &str) -> Result<String, WireError> {
    Err(WireError::Parse {
        offset,
        message: message.into(),
    })
}

fn parsed(text: &str) -> Result<String, WireError> {
    JsonValue::parse(text).map(|v| v.render())
}

#[test]
fn duplicate_keys_are_compared_after_unescaping() {
    assert_eq!(
        parsed(r#"{"a":1,"\u0061":2}"#),
        refused(17, "duplicate key \"a\"")
    );
    assert_eq!(
        parsed(r#"{"\u0061":1,"a":2}"#),
        refused(17, "duplicate key \"a\"")
    );
    assert_eq!(
        parsed(r#"{"a\"b":1,"a\u0022b":[2]}"#),
        refused(24, "duplicate key \"a\"b\"")
    );
    // Equal keys in different objects are not duplicates.
    assert_eq!(
        parsed(r#"{"a":{"a":1},"b":{"a":2}}"#),
        Ok(r#"{"a":{"a":1},"b":{"a":2}}"#.to_string())
    );
}

/// A flat object of `n` members `"k00000":0`, `"k00001":1`, …, with
/// `tail` spliced in before its closing brace.
fn flat_object(n: usize, tail: &str) -> String {
    let mut text = String::from("{");
    for i in 0..n {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("\"k{i:05}\":{i}"));
    }
    text.push_str(tail);
    text.push('}');
    text
}

#[test]
fn a_32000_key_object_parses_in_linear_time() {
    // The duplicate-key check once rescanned every earlier key, so
    // this 458 KB object took seconds to parse.
    let text = flat_object(32_000, "");
    assert!(text.len() > 450_000, "{} bytes", text.len());
    let started = std::time::Instant::now();
    let doc = JsonDocument::parse(&text).expect("parses");
    let took = started.elapsed();
    let JsonView::Obj(members) = doc.value().view() else {
        panic!("not an object");
    };
    assert_eq!(members.len(), 32_000);
    assert!(took.as_secs_f64() < 2.0, "parse took {took:?}");
}

#[test]
fn duplicates_in_large_objects_keep_their_message_and_offset() {
    // Past the members that are rescanned, the hashed check must refuse
    // the same key, unescaped, at the same offset.
    for n in [15, 16, 17, 40, 1_000] {
        for (tail, dup) in [
            (",\"k00003\":[]", "k00003"),
            (",\"k0000\\u0033\":[]", "k00003"),
            (",\"z\":1,\"\\u007a\":2", "z"),
        ] {
            let text = flat_object(n, tail);
            let offset = text.len() - 1;
            assert_eq!(
                parsed(&text),
                refused(offset, &format!("duplicate key \"{dup}\"")),
                "{n} members, tail {tail}"
            );
        }
        let text = flat_object(n, ",\"k0000\\u0033x\":[]");
        assert_eq!(parsed(&text).map(|_| ()), Ok(()), "{n} members");
    }
}

#[test]
fn nesting_is_capped_at_depth_128() {
    // The document is depth 0; a value inside n containers is depth n.
    let arrays = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
    let text = arrays(128, "0");
    assert_eq!(parsed(&text), Ok(text.clone()));
    assert_eq!(parsed(&arrays(129, "0")), refused(129, "nesting too deep"));
    let text = arrays(129, "");
    assert_eq!(parsed(&text), Ok(text.clone()));
    assert_eq!(parsed(&arrays(130, "")), refused(129, "nesting too deep"));
    let objects = |n: usize| format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n));
    let text = objects(128);
    assert_eq!(parsed(&text), Ok(text.clone()));
    assert_eq!(parsed(&objects(129)), refused(129 * 5, "nesting too deep"));
}

#[test]
fn unpaired_surrogates_are_refused() {
    for (text, offset, message) in [
        (r#""\ud800""#, 7, "unpaired high surrogate"),
        (r#""\ud800x""#, 7, "unpaired high surrogate"),
        (r#""\udbff\n""#, 7, "unpaired high surrogate"),
        (r#""\udc00""#, 7, "unpaired low surrogate"),
        (r#""\udfff\ud800""#, 7, "unpaired low surrogate"),
        (r#""\ud800\u0041""#, 13, "invalid low surrogate"),
        (r#""\ud800\ud800""#, 13, "invalid low surrogate"),
        (r#""\ud800\u12""#, 11, "expected four hex digits"),
        (r#""\u12g4""#, 5, "expected four hex digits"),
    ] {
        assert_eq!(parsed(text), refused(offset, message), "{text}");
    }
    assert_eq!(
        parsed(r#""\ud83d\ude00\u00e9\u0000""#),
        Ok("\"😀é\\u0000\"".to_string())
    );
}

#[test]
fn numbers_hold_to_the_rfc_8259_edges() {
    for (text, render) in [
        ("0", "0"),
        ("-0", "-0"),
        ("-0.0", "-0"),
        ("0e0", "0"),
        ("0E+00", "0"),
        ("1E-2", "0.01"),
        ("-1.5e+3", "-1500"),
        ("1e308", &format!("{}", 1e308)),
        ("1e-400", "0"),
        ("-1e-400", "-0"),
        ("4.9e-324", &format!("{}", 4.9e-324)),
        ("9007199254740993", "9007199254740992"),
        (
            "123456789012345678901234567890",
            "123456789012345680000000000000",
        ),
        ("[0,-0,1]", "[0,-0,1]"),
    ] {
        assert_eq!(parsed(text), Ok(render.to_string()), "{text}");
    }
    for (text, offset, message) in [
        ("1e309", 5, "number overflows f64"),
        ("-1e309", 6, "number overflows f64"),
        ("+1", 0, "unexpected byte 0x2b"),
        (".5", 0, "unexpected byte 0x2e"),
        ("-a", 1, "invalid number \"-\""),
        ("0x10", 1, "trailing characters after the document"),
        ("1.0e", 4, "invalid number \"1.0e\""),
        ("1e-", 3, "invalid number \"1e-\""),
        ("00", 2, "invalid number \"00\""),
        ("-00", 3, "invalid number \"-00\""),
        ("0.", 2, "invalid number \"0.\""),
        ("1.e1", 4, "invalid number \"1.e1\""),
        ("1 2", 2, "trailing characters after the document"),
        ("[1,2", 4, "expected ',' or ']' in array"),
    ] {
        assert_eq!(parsed(text), refused(offset, message), "{text}");
    }
}

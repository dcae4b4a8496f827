//! Answers pinned when the benchmark was defined.
//!
//! The per-workload checks compare the program with itself (warm with
//! cold, served with direct, repeat with first run), which a change that
//! is wrong the same way on every path would pass. These pins compare
//! it with the answers of the commit that defined the benchmark: a
//! change that alters any of them fails every workload. A change meant
//! to alter answers updates the pins in its own benchmark change.

use socbuf_core::wire::sizing_outcome_semantic_json;
use socbuf_core::{evaluate_policies, size_buffers, SizingConfig};
use socbuf_soc::templates;

use crate::host::{fnv1a, FNV_OFFSET};
use crate::stats::Tally;
use crate::workloads::policy::paper_config;

fn fnv(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The pinned inputs, each with the digest of its answer.
const PINS: [(&str, u64); 4] = [
    ("figure1 at 160, default config", 0xa6de_32f6_7046_dc5e),
    (
        "network_processor at 320, default config",
        0x928e_d69b_1c8f_ab59,
    ),
    ("figure1 at 22, small config", 0xfe05_a0c3_1657_6803),
    ("figure1 Figure-3 evaluation at 22", 0xd503_18b8_d517_21b1),
];

/// Digest of each pinned answer, or `None` where the program failed.
fn digests() -> [Option<u64>; 4] {
    let size = |arch, budget, config: &SizingConfig| {
        size_buffers(&arch, budget, config)
            .ok()
            .map(|o| fnv(sizing_outcome_semantic_json(&o).as_bytes()))
    };
    let evaluation = evaluate_policies(&templates::figure1(), 22, &paper_config())
        .ok()
        .map(|c| fnv(format!("{:?}", (&c.pre, &c.post, &c.timeout)).as_bytes()));
    [
        size(templates::figure1(), 160, &SizingConfig::default()),
        size(
            templates::network_processor(),
            320,
            &SizingConfig::default(),
        ),
        size(templates::figure1(), 22, &SizingConfig::small()),
        evaluation,
    ]
}

/// Checks every pin, one tally entry each.
pub fn check() -> Tally {
    let mut tally = Tally::default();
    for ((what, pinned), got) in PINS.iter().zip(digests()) {
        let ok = got == Some(*pinned);
        if !ok {
            eprintln!("pinned answer changed: {what}: digest {got:016x?}, pinned {pinned:016x}");
        }
        tally.record(ok);
    }
    tally
}

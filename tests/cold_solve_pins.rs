//! One bit pin over cold sizing solves.
//!
//! Every input is sized by a cold `size_buffers` call, so each solve
//! runs the revised simplex from its slack/artificial start through
//! both phases. Per input, the digest folds the pivot count, the
//! `sizing_outcome_semantic_json` rendering, and the bits of
//! `predicted_loss_rate` and `budget_shadow_price`; an input that
//! fails to size folds its error message instead. The inputs:
//!
//! * the four templates at the Table 1 budgets 160/320/640, at
//!   `SizingConfig::default()` and at `SizingConfig::small()`;
//! * seeded random architectures (the default generator parameters)
//!   with 6, 8 and 10 queues, the first [`RANDOM_PER_SIZE`] of each
//!   size in seed order, at `default()` and 8 units per queue.
//!
//! A change that moves one pivot choice or one bit of the solve moves
//! the pin. Find out which; never re-pin to make it pass.

use socbuf::sizing::wire::sizing_outcome_semantic_json;
use socbuf::sizing::{size_buffers, SizingConfig};
use socbuf::soc::templates::{self, RandomArchParams};
use socbuf::soc::Architecture;

/// Random architectures kept per queue count.
const RANDOM_PER_SIZE: usize = 70;

/// Queue counts of the random architectures.
const RANDOM_SIZES: [usize; 3] = [6, 8, 10];

/// Table 1 budgets.
const TABLE1_BUDGETS: [usize; 3] = [160, 320, 640];

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds one cold size of `arch` at `budget`.
    fn size(&mut self, arch: &Architecture, budget: usize, config: &SizingConfig) {
        match size_buffers(arch, budget, config) {
            Ok(o) => {
                self.word(o.lp_iterations as u64);
                self.bytes(sizing_outcome_semantic_json(&o).as_bytes());
                self.word(o.predicted_loss_rate.to_bits());
                self.word(o.budget_shadow_price.to_bits());
            }
            Err(e) => self.bytes(e.to_string().as_bytes()),
        }
    }
}

#[test]
fn cold_solves_match_their_pin() {
    let mut h = Fnv::new();
    for config in [SizingConfig::default(), SizingConfig::small()] {
        for arch in [
            templates::figure1(),
            templates::amba(),
            templates::coreconnect(),
            templates::network_processor(),
        ] {
            for budget in TABLE1_BUDGETS {
                h.size(&arch, budget, &config);
            }
        }
    }
    let params = RandomArchParams::default();
    let config = SizingConfig::default();
    let mut kept = [0usize; RANDOM_SIZES.len()];
    let mut seed = 0u64;
    while kept.iter().any(|&k| k < RANDOM_PER_SIZE) {
        let arch = templates::random_architecture(seed, &params);
        seed += 1;
        let Some(size) = RANDOM_SIZES.iter().position(|&q| q == arch.num_queues()) else {
            continue;
        };
        if kept[size] == RANDOM_PER_SIZE {
            continue;
        }
        kept[size] += 1;
        h.size(&arch, 8 * arch.num_queues(), &config);
    }
    assert_eq!(
        h.0, 0x861d_2e99_b7fc_91a8,
        "moved pin: got {:#018x} ({seed} seeds)",
        h.0
    );
}

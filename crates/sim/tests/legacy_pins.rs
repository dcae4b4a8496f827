//! Exact output pins for the paper's model, frozen from the monolithic
//! event loop the actor engine replaced.
//!
//! The actor engine reproduced that loop bit for bit before the loop was
//! deleted, so the loop's output is the simulator's oracle: a change that
//! moves one RNG draw or one counter moves a pin. This suite pins that
//! output on the four shared templates. Each
//! template runs under every arbiter, three seeds, and with and without
//! a calibrated timeout policy; every counter of every report is folded
//! into one FNV-1a digest over `f64::to_bits`. Seeded random
//! architectures, run the same way, fold into one more digest, so the
//! pins reach shapes the templates do not.
//!
//! `WeightedEffort` runs twice: once on a tie-heavy table (so the random
//! tie-break draws often) and once as the pipeline's post-sizing policy,
//! with the allocation and efforts `size_buffers` returns at
//! `SizingConfig::small()`. That second run also moves if sizing moves;
//! a moved pin means the draw order, the accounting or the sized
//! allocation changed. Find out which; never re-pin to make it pass.

mod common;

use common::{tie_heavy_effort, Fnv};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_sim::{simulate_with, Arbiter, SimConfig, TimeoutSpec};
use socbuf_soc::{templates, Architecture, BufferAllocation};

const SEEDS: [u64; 3] = [1, 7, 2005];
const HORIZON: f64 = 400.0;
const UNITS_PER_QUEUE: usize = 4;
const RANDOM_ARCHITECTURES: u64 = 24;

/// Every arbiter with the allocation it runs on: the uniform split,
/// except the post-sizing policy, which runs on its own sized buffers.
fn runs(arch: &Architecture) -> Vec<(BufferAllocation, Arbiter)> {
    let budget = UNITS_PER_QUEUE * arch.num_queues();
    let uniform = BufferAllocation::uniform(arch, budget);
    let sized = size_buffers(arch, budget, &SizingConfig::small()).expect("template sizes");
    vec![
        (uniform.clone(), Arbiter::FixedSlot),
        (uniform.clone(), Arbiter::RandomNonempty),
        (uniform.clone(), Arbiter::LongestQueue),
        (uniform.clone(), Arbiter::round_robin(arch.num_buses())),
        (uniform, tie_heavy_effort(arch.num_queues())),
        (
            sized.allocation,
            Arbiter::WeightedEffort {
                efforts: sized.efforts,
            },
        ),
    ]
}

/// Digest of one template over arbiters × seeds × timeout off/on, with
/// the requests it lost to full buffers and to timeouts.
fn digest(arch: &Architecture) -> (u64, f64, f64) {
    let mut h = Fnv::new();
    let (lost_full, lost_timeout) = fold(&mut h, arch);
    (h.0, lost_full, lost_timeout)
}

/// Folds every report of [`digest`]'s runs on `arch` into `h`; returns
/// the requests lost to full buffers and to timeouts.
fn fold(h: &mut Fnv, arch: &Architecture) -> (f64, f64) {
    let uniform = BufferAllocation::uniform(arch, UNITS_PER_QUEUE * arch.num_queues());
    let calibration = simulate_with(
        arch,
        &uniform,
        &mut Arbiter::RandomNonempty,
        None,
        &SimConfig::new(HORIZON, 11),
    );
    let spec = TimeoutSpec::from_calibration(&calibration);
    let (mut lost_full, mut lost_timeout) = (0.0, 0.0);
    for (alloc, template) in runs(arch) {
        for seed in SEEDS {
            let cfg = SimConfig::new(HORIZON, seed);
            for timeout in [None, Some(&spec)] {
                let mut arbiter = template.clone();
                let r = simulate_with(arch, &alloc, &mut arbiter, timeout, &cfg);
                h.report(&r);
                lost_full += r.per_queue.iter().map(|q| q.lost_full).sum::<f64>();
                lost_timeout += r.per_queue.iter().map(|q| q.lost_timeout).sum::<f64>();
            }
        }
    }
    (lost_full, lost_timeout)
}

#[test]
fn legacy_templates_match_their_pins() {
    let pins = [
        ("figure1", templates::figure1(), 0x33bd_eeac_5e04_eebb),
        ("amba", templates::amba(), 0xcbaa_113f_3466_6068),
        (
            "coreconnect",
            templates::coreconnect(),
            0xa3d6_be41_47e7_52bc,
        ),
        (
            "network_processor",
            templates::network_processor(),
            0x1e94_36b2_aa57_80e9,
        ),
    ];
    let mut moved = Vec::new();
    for (name, arch, pin) in pins {
        let (got, lost_full, lost_timeout) = digest(&arch);
        // A pin only guards the paths its runs take: every template
        // overflows a buffer and sheds a timed-out head somewhere.
        assert!(lost_full > 0.0, "{name}: no full-buffer loss");
        assert!(lost_timeout > 0.0, "{name}: no timeout shed");
        if got != pin {
            moved.push(format!("{name}: got {got:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

/// Seeded random architectures (the default generator parameters),
/// every one run as a template is, folded into one digest. The
/// templates share a few shapes; these add multi-homed processors,
/// bridge chains and buses of every load.
#[test]
fn random_architectures_match_their_pin() {
    let params = templates::RandomArchParams::default();
    let mut h = Fnv::new();
    let (mut lost_full, mut lost_timeout) = (0.0, 0.0);
    for seed in 0..RANDOM_ARCHITECTURES {
        let (full, timeout) = fold(&mut h, &templates::random_architecture(seed, &params));
        lost_full += full;
        lost_timeout += timeout;
    }
    assert!(lost_full > 0.0, "no full-buffer loss");
    assert!(lost_timeout > 0.0, "no timeout shed");
    assert_eq!(h.0, 0x9f3b_402c_8c51_4569, "moved pin: got {:#018x}", h.0);
}

//! Exact output pins for the actor engine's extended semantics.
//!
//! `actor_equivalence.rs` holds the actor engine to the legacy engine on
//! every architecture both accept, but the scenarios only the actor
//! engine can run (priority arbitration, locked transfers, bursty and
//! on-off sources, bridge latency) are checked there only for shape:
//! conservation, orderings, closed forms. This suite pins them bit for
//! bit. Each named scenario runs under all five arbiters, three seeds,
//! and with and without a calibrated timeout policy; every counter of
//! every report is folded into one FNV-1a digest over `f64::to_bits`.
//!
//! A moved pin means the engine's draw order or accounting changed. Find
//! out why; never re-pin to make it pass.

mod common;

use common::{tie_heavy_effort, Fnv};
use socbuf_sim::{simulate_actors_with, Arbiter, SimConfig, TimeoutSpec};
use socbuf_soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};

const SEEDS: [u64; 3] = [1, 7, 2005];
const HORIZON: f64 = 400.0;

fn arbiters(arch: &Architecture) -> [Arbiter; 5] {
    [
        Arbiter::FixedSlot,
        Arbiter::RandomNonempty,
        Arbiter::LongestQueue,
        Arbiter::round_robin(arch.num_buses()),
        tie_heavy_effort(arch.num_queues()),
    ]
}

/// Digest of one scenario over arbiters × seeds × timeout off/on, with
/// the requests it lost to full buffers and to timeouts.
fn digest(arch: &Architecture, units_per_queue: usize) -> (u64, f64, f64) {
    let alloc = BufferAllocation::uniform(arch, units_per_queue * arch.num_queues());
    let calibration = simulate_actors_with(
        arch,
        &alloc,
        &mut Arbiter::RandomNonempty,
        None,
        &SimConfig::new(HORIZON, 11),
    );
    let spec = TimeoutSpec::from_calibration(&calibration);
    let mut h = Fnv::new();
    let (mut lost_full, mut lost_timeout) = (0.0, 0.0);
    for template in arbiters(arch) {
        for seed in SEEDS {
            let cfg = SimConfig::new(HORIZON, seed);
            for timeout in [None, Some(&spec)] {
                let mut arbiter = template.clone();
                let r = simulate_actors_with(arch, &alloc, &mut arbiter, timeout, &cfg);
                h.report(&r);
                lost_full += r.per_queue.iter().map(|q| q.lost_full).sum::<f64>();
                lost_timeout += r.per_queue.iter().map(|q| q.lost_timeout).sum::<f64>();
            }
        }
    }
    (h.0, lost_full, lost_timeout)
}

/// socbench's `policy_eval` extended architecture: a priority bus feeding
/// a locked bus across a bridge with latency, with burst, Poisson and
/// on-off sources.
fn extended_arch() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let x = b
        .add_bus_with_arbitration("x", 4.0, BusArbitration::Priority)
        .unwrap();
    let y = b
        .add_bus_with_arbitration("y", 4.0, BusArbitration::Locked { max_batch: 4 })
        .unwrap();
    let p = b.add_processor("p", &[x], 1.0).unwrap();
    let q = b.add_processor("q", &[x], 1.0).unwrap();
    let r = b.add_processor("r", &[y], 1.0).unwrap();
    b.add_bridge_with_latency("g", x, y, 0.25).unwrap();
    b.add_flow_shaped(
        p,
        FlowTarget::Processor(r),
        0.8,
        TrafficShape::Burst { batch: 4 },
    )
    .unwrap();
    b.add_flow(q, FlowTarget::Bus(x), 0.7).unwrap();
    b.add_flow_shaped(
        r,
        FlowTarget::Bus(y),
        0.5,
        TrafficShape::OnOff {
            mean_on: 2.0,
            mean_off: 6.0,
        },
    )
    .unwrap();
    b.build().unwrap()
}

fn priority_two_client() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b
        .add_bus_with_arbitration("bus", 1.0, BusArbitration::Priority)
        .unwrap();
    let p0 = b.add_processor("p0", &[bus], 1.0).unwrap();
    let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
    b.add_flow(p0, FlowTarget::Bus(bus), 0.55).unwrap();
    b.add_flow(p1, FlowTarget::Bus(bus), 0.55).unwrap();
    b.build().unwrap()
}

fn locked_bus(max_batch: usize, shapes: [TrafficShape; 2]) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b
        .add_bus_with_arbitration("bus", 1.0, BusArbitration::Locked { max_batch })
        .unwrap();
    for (i, shape) in shapes.into_iter().enumerate() {
        let p = b.add_processor(format!("p{i}"), &[bus], 1.0).unwrap();
        b.add_flow_shaped(p, FlowTarget::Bus(bus), 0.4, shape)
            .unwrap();
    }
    b.build().unwrap()
}

fn bridged(latency: f64) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let x = b.add_bus("x", 2.0).unwrap();
    let y = b.add_bus("y", 2.0).unwrap();
    let p = b.add_processor("p", &[x], 1.0).unwrap();
    let r = b.add_processor("r", &[y], 1.0).unwrap();
    b.add_bridge_with_latency("g", x, y, latency).unwrap();
    b.add_flow(p, FlowTarget::Bus(y), 0.9).unwrap();
    b.add_flow(r, FlowTarget::Bus(y), 0.8).unwrap();
    b.build().unwrap()
}

fn scenarios() -> Vec<(&'static str, Architecture, u64)> {
    vec![
        ("extended_arch", extended_arch(), 0xafc4_e8d8_36b7_461d),
        (
            "priority_two_client",
            priority_two_client(),
            0xea46_2af0_eaff_1859,
        ),
        (
            "locked8_burst8",
            locked_bus(8, [TrafficShape::Burst { batch: 8 }, TrafficShape::Poisson]),
            0xc934_2f9e_3db9_1346,
        ),
        (
            "locked2_onoff_burst",
            locked_bus(
                2,
                [
                    TrafficShape::OnOff {
                        mean_on: 3.0,
                        mean_off: 9.0,
                    },
                    TrafficShape::Burst { batch: 3 },
                ],
            ),
            0xb7da_0bc4_b552_9ac6,
        ),
        ("bridge_latency_0", bridged(0.0), 0x1277_af20_3798_633d),
        ("bridge_latency_2", bridged(2.0), 0x2c61_5d66_5b1f_bb12),
    ]
}

#[test]
fn extended_scenarios_match_their_pins() {
    let mut moved = Vec::new();
    for (name, arch, pin) in scenarios() {
        let (got, lost_full, lost_timeout) = digest(&arch, 4);
        // A pin only guards the paths its runs take: every scenario
        // overflows a buffer and sheds a timed-out head somewhere.
        assert!(lost_full > 0.0, "{name}: no full-buffer loss");
        assert!(lost_timeout > 0.0, "{name}: no timeout shed");
        if got != pin {
            moved.push(format!("{name}: got {got:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

#[test]
fn digest_sees_every_run() {
    // Guards the pins against a digest that ignores its input: two
    // scenarios differing only in bridge latency must hash apart.
    assert_ne!(digest(&bridged(0.0), 4).0, digest(&bridged(2.0), 4).0);
}

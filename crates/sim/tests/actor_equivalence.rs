//! Analytic and extended-semantics scenario suite.
//!
//! The simulator must match the M/M/1/K closed form, reduce each
//! degenerate extended declaration (`Burst { batch: 1 }`,
//! `Locked { max_batch: 1 }`, a zero bridge latency) to the plain model
//! bit for bit, and behave sensibly — conservation, qualitative
//! orderings — on the extended semantics themselves (priority
//! arbitration, locked transfers, bursty and on-off sources, bridge
//! latency). `legacy_pins.rs` and `actor_pins.rs` pin its exact output.

use socbuf_core::{size_buffers, SizingConfig};
use socbuf_sim::{simulate, simulate_with, Arbiter, SimConfig, TimeoutSpec};
use socbuf_soc::{
    templates, Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget,
    TrafficShape,
};

fn conservation_ok(r: &socbuf_sim::SimReport) {
    assert!(
        (r.total_offered - r.total_delivered - r.total_lost - r.in_flight).abs() < 1e-9,
        "conservation violated: offered {} delivered {} lost {} in_flight {}",
        r.total_offered,
        r.total_delivered,
        r.total_lost,
        r.in_flight
    );
    assert!(r.in_flight >= -1e-9);
}

fn single_queue(lambda: f64, mu: f64) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", mu).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
    b.build().unwrap()
}

/// The simulator against the M/M/1/K closed form.
#[test]
fn actor_engine_matches_mm1k_analytics() {
    let (lambda, mu, k) = (0.8, 1.0, 4usize);
    let arch = single_queue(lambda, mu);
    let alloc = BufferAllocation::new(&arch, vec![k]).unwrap();
    let cfg = SimConfig {
        horizon: 60_000.0,
        warmup: 2_000.0,
        seed: 20_240,
    };
    let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
    let q = socbuf_markov::MM1K::new(lambda, mu, k).unwrap();
    let blocking = r.per_queue[0].lost_full / r.per_queue[0].offered;
    assert!(
        (blocking - q.blocking_probability()).abs() < 0.01,
        "simulated {blocking} vs exact {}",
        q.blocking_probability()
    );
    let occ = r.per_queue[0].time_avg_len;
    assert!(
        (occ - q.mean_occupancy()).abs() < 0.08,
        "simulated {occ} vs exact {}",
        q.mean_occupancy()
    );
    // Engine waits measure time-to-service-start; Little's-law sojourn
    // adds one service time.
    let sojourn = r.per_queue[0].mean_wait + 1.0 / mu;
    assert!(
        (sojourn - q.mean_wait()).abs() < 0.12,
        "simulated {sojourn} vs exact {}",
        q.mean_wait()
    );
}

fn shaped_single_queue(lambda: f64, mu: f64, shape: TrafficShape) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", mu).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow_shaped(p, FlowTarget::Bus(bus), lambda, shape)
        .unwrap();
    b.build().unwrap()
}

/// `Burst { batch: 1 }` declares extended semantics but replays the
/// Poisson draw sequence exactly — it must match a plain Poisson run bit
/// for bit.
#[test]
fn burst_of_one_is_poisson_exactly() {
    let poisson = single_queue(0.7, 1.0);
    let burst1 = shaped_single_queue(0.7, 1.0, TrafficShape::Burst { batch: 1 });
    assert!(!poisson.uses_extended_semantics());
    for seed in 0..10 {
        let cfg = SimConfig::new(500.0, seed);
        let alloc_p = BufferAllocation::uniform(&poisson, 5);
        let alloc_b = BufferAllocation::uniform(&burst1, 5);
        let a = simulate(&poisson, &alloc_p, Arbiter::RandomNonempty, &cfg);
        let b = simulate(&burst1, &alloc_b, Arbiter::RandomNonempty, &cfg);
        assert_eq!(a, b, "seed {seed}: Burst{{1}} differs from Poisson");
    }
}

/// Batched arrivals at the same average rate overflow a small buffer
/// more than Poisson arrivals do — the classic burstiness penalty.
#[test]
fn bursty_traffic_loses_more_than_poisson_at_equal_rate() {
    let cfg = SimConfig::new(20_000.0, 99);
    let poisson = single_queue(0.8, 1.0);
    let bursty = shaped_single_queue(0.8, 1.0, TrafficShape::Burst { batch: 8 });
    let lp = {
        let alloc = BufferAllocation::uniform(&poisson, 4);
        simulate(&poisson, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let lb = {
        let alloc = BufferAllocation::uniform(&bursty, 4);
        simulate(&bursty, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    conservation_ok(&lb);
    // Same average offered load...
    let rel = (lb.total_offered - lp.total_offered).abs() / lp.total_offered;
    assert!(rel < 0.1, "offered loads diverge by {rel}");
    // ...but distinctly more loss under bursts.
    assert!(
        lb.loss_fraction() > 1.5 * lp.loss_fraction(),
        "burst loss {} not above poisson loss {}",
        lb.loss_fraction(),
        lp.loss_fraction()
    );
}

/// An on-off source at the same average rate also pays a burstiness
/// penalty, and its accounting stays conservative.
#[test]
fn onoff_traffic_preserves_rate_and_increases_loss() {
    let cfg = SimConfig::new(20_000.0, 5);
    let poisson = single_queue(0.8, 1.0);
    let onoff = shaped_single_queue(
        0.8,
        1.0,
        TrafficShape::OnOff {
            mean_on: 5.0,
            mean_off: 20.0,
        },
    );
    let lp = {
        let alloc = BufferAllocation::uniform(&poisson, 4);
        simulate(&poisson, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let lo = {
        let alloc = BufferAllocation::uniform(&onoff, 4);
        simulate(&onoff, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    conservation_ok(&lo);
    let rel = (lo.total_offered - lp.total_offered).abs() / lp.total_offered;
    assert!(rel < 0.15, "average rate not preserved: off by {rel}");
    assert!(
        lo.loss_fraction() > 1.5 * lp.loss_fraction(),
        "on-off loss {} not above poisson loss {}",
        lo.loss_fraction(),
        lp.loss_fraction()
    );
}

fn two_client_bus(arbitration: BusArbitration, lambda0: f64, lambda1: f64) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus_with_arbitration("bus", 1.0, arbitration).unwrap();
    let p0 = b.add_processor("p0", &[bus], 1.0).unwrap();
    let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
    b.add_flow(p0, FlowTarget::Bus(bus), lambda0).unwrap();
    b.add_flow(p1, FlowTarget::Bus(bus), lambda1).unwrap();
    b.build().unwrap()
}

/// Declaration-order priority arbitration: the first-declared client is
/// served whenever it has backlog, so under overload it waits far less
/// than the second-declared client — and far less than it would under
/// fair random arbitration.
#[test]
fn priority_arbitration_favors_first_declared_queue() {
    let cfg = SimConfig::new(10_000.0, 42);
    let prio = two_client_bus(BusArbitration::Priority, 0.55, 0.55);
    let fair = two_client_bus(BusArbitration::External, 0.55, 0.55);
    let alloc = BufferAllocation::uniform(&prio, 8);
    let rp = simulate(&prio, &alloc, Arbiter::RandomNonempty, &cfg);
    let alloc = BufferAllocation::uniform(&fair, 8);
    let rf = simulate(&fair, &alloc, Arbiter::RandomNonempty, &cfg);
    conservation_ok(&rp);
    // Strict ordering between the two priority classes.
    assert!(
        rp.per_queue[0].mean_wait * 3.0 < rp.per_queue[1].mean_wait,
        "priority waits not separated: {} vs {}",
        rp.per_queue[0].mean_wait,
        rp.per_queue[1].mean_wait
    );
    // The favored queue does better than under fair sharing; the
    // starved one does worse.
    assert!(rp.per_queue[0].mean_wait < rf.per_queue[0].mean_wait);
    assert!(rp.per_queue[1].mean_wait > rf.per_queue[1].mean_wait);
    // Priority consumes no randomness for arbitration, so the run is
    // trivially deterministic across repeats.
    let again = simulate(
        &prio,
        &BufferAllocation::uniform(&prio, 8),
        Arbiter::RandomNonempty,
        &cfg,
    );
    assert_eq!(rp, again);
}

/// Locked transfers: `max_batch = 1` degenerates to external
/// arbitration exactly; larger batches hold the bus across
/// completions, so a bursty client's trains drain back-to-back instead
/// of interleaving with the other client request by request.
#[test]
fn locked_transfers_hold_the_bus_across_completions() {
    let cfg = SimConfig::new(10_000.0, 7);
    let ext = two_client_bus(BusArbitration::External, 0.45, 0.45);
    let lock1 = two_client_bus(BusArbitration::Locked { max_batch: 1 }, 0.45, 0.45);
    let re = {
        let alloc = BufferAllocation::uniform(&ext, 8);
        simulate(&ext, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let r1 = {
        let alloc = BufferAllocation::uniform(&lock1, 8);
        simulate(&lock1, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    // A lock budget of one is no lock at all.
    assert_eq!(re, r1, "Locked{{1}} must equal External exactly");

    // Bursty client (trains of 8) sharing the bus with a Poisson
    // client: with locked transfers the train holder keeps the bus, so
    // its requests stop waiting through interleaved foreign services.
    let build = |arbitration: BusArbitration| {
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus_with_arbitration("bus", 1.0, arbitration).unwrap();
        let p0 = b.add_processor("p0", &[bus], 1.0).unwrap();
        let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
        b.add_flow_shaped(
            p0,
            FlowTarget::Bus(bus),
            0.4,
            TrafficShape::Burst { batch: 8 },
        )
        .unwrap();
        b.add_flow(p1, FlowTarget::Bus(bus), 0.4).unwrap();
        b.build().unwrap()
    };
    let fair = build(BusArbitration::External);
    let locked = build(BusArbitration::Locked { max_batch: 8 });
    // The per-request interleaving penalty is a few percent of the
    // bursty client's wait (its own train queueing dominates), so
    // average a handful of independent seeds before asserting the
    // direction of the effect.
    let mut wait_fair = [0.0; 2];
    let mut wait_lock = [0.0; 2];
    let mut delivered = [0.0; 2];
    for seed in 0..6 {
        let cfg = SimConfig::new(20_000.0, seed);
        let rf = {
            let alloc = BufferAllocation::uniform(&fair, 16);
            simulate(&fair, &alloc, Arbiter::RandomNonempty, &cfg)
        };
        let rl = {
            let alloc = BufferAllocation::uniform(&locked, 16);
            simulate(&locked, &alloc, Arbiter::RandomNonempty, &cfg)
        };
        conservation_ok(&rl);
        for q in 0..2 {
            wait_fair[q] += rf.per_queue[q].mean_wait;
            wait_lock[q] += rl.per_queue[q].mean_wait;
        }
        delivered[0] += rf.total_delivered;
        delivered[1] += rl.total_delivered;
    }
    assert!(
        wait_lock[0] < 0.99 * wait_fair[0],
        "locked batching should cut the bursty client's wait: {} vs {}",
        wait_lock[0],
        wait_fair[0]
    );
    // The Poisson client occasionally waits behind a whole train.
    assert!(
        wait_lock[1] > 1.01 * wait_fair[1],
        "lock holder's trains should delay the other client: {} vs {}",
        wait_lock[1],
        wait_fair[1]
    );
    // Throughput is preserved within noise either way.
    assert!(delivered[1] > 0.95 * delivered[0]);
}

/// Bridge forwarding latency delays end-to-end delivery without
/// breaking conservation; at latency 0 the declared-latency path is
/// bit-identical to the undeclared one.
#[test]
fn bridge_latency_delays_but_conserves() {
    let build = |latency: f64| {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 2.0).unwrap();
        let y = b.add_bus("y", 2.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge_with_latency("g", x, y, latency).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.4).unwrap();
        b.build().unwrap()
    };
    let cfg = SimConfig::new(5_000.0, 3);
    let zero = build(0.0);
    let slow = build(2.0);
    let rz = {
        let alloc = BufferAllocation::uniform(&zero, 10);
        simulate(&zero, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let rs = {
        let alloc = BufferAllocation::uniform(&slow, 10);
        simulate(&slow, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    conservation_ok(&rz);
    conservation_ok(&rs);
    // Zero declared latency is semantically the plain bridge.
    let plain = {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 2.0).unwrap();
        let y = b.add_bus("y", 2.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.4).unwrap();
        b.build().unwrap()
    };
    let rp = {
        let alloc = BufferAllocation::uniform(&plain, 10);
        simulate(&plain, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    assert_eq!(rz, rp, "latency 0 must be bit-identical to no latency");
    // Positive latency still delivers the traffic (the bridge is a
    // delay, not a bottleneck).
    assert!(rs.total_delivered > 0.95 * rz.total_delivered);
}

/// Each queue keeps its own ledger: every counted offer is accepted or
/// lost to a full buffer, and a counted request leaves by service or
/// timeout at most once. Each processor's outcomes stay within what it
/// offered. A counter bumped on another queue's or processor's record
/// breaks an identity here even when the totals still balance.
#[test]
fn every_queue_and_processor_balances_its_own_ledger() {
    let (mut lost_full, mut lost_timeout) = (0.0, 0.0);
    for arch in [
        templates::figure1(),
        templates::amba(),
        templates::coreconnect(),
        templates::network_processor(),
    ] {
        let budget = 4 * arch.num_queues();
        let uniform = BufferAllocation::uniform(&arch, budget);
        let sized = size_buffers(&arch, budget, &SizingConfig::small()).expect("template sizes");
        let calibration = simulate(
            &arch,
            &uniform,
            Arbiter::RandomNonempty,
            &SimConfig::new(400.0, 11),
        );
        let spec = TimeoutSpec::from_calibration(&calibration);
        let cfg = SimConfig::new(400.0, 7);
        let runs = [
            (&uniform, Arbiter::FixedSlot),
            (&uniform, Arbiter::RandomNonempty),
            (&uniform, Arbiter::LongestQueue),
            (&uniform, Arbiter::round_robin(arch.num_buses())),
            (
                &sized.allocation,
                Arbiter::WeightedEffort {
                    efforts: sized.efforts,
                },
            ),
        ];
        for (alloc, arbiter) in runs {
            for timeout in [None, Some(&spec)] {
                let r = simulate_with(&arch, alloc, &mut arbiter.clone(), timeout, &cfg);
                conservation_ok(&r);
                let timed = timeout.is_some();
                for (i, q) in r.per_queue.iter().enumerate() {
                    assert_eq!(
                        q.offered,
                        q.accepted + q.lost_full,
                        "queue {i} under {arbiter:?}, timeout {timed}: {q:?}"
                    );
                    assert!(
                        q.served + q.lost_timeout <= q.accepted,
                        "queue {i} under {arbiter:?}, timeout {timed}: {q:?}"
                    );
                    lost_full += q.lost_full;
                    lost_timeout += q.lost_timeout;
                }
                for (i, p) in r.per_proc.iter().enumerate() {
                    assert!(p.delivered + p.lost <= p.offered, "processor {i}: {p:?}");
                }
            }
        }
    }
    // The identities only guard the paths the runs take.
    assert!(lost_full > 0.0, "no full-buffer loss");
    assert!(lost_timeout > 0.0, "no timeout shed");
}

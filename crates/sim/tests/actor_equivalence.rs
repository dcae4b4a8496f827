//! Cross-engine equivalence and extended-semantics scenario suite.
//!
//! The actor engine must reproduce the legacy engine *exactly* (same
//! seed ⇒ same report, bit for bit) on every architecture the legacy
//! engine accepts, and must behave sensibly — conservation, closed-form
//! agreement, qualitative orderings — on the extended semantics only it
//! can execute (priority arbitration, locked transfers, bursty and
//! on-off sources, bridge latency).

use socbuf_core::{size_buffers, SizingConfig};
use socbuf_sim::{
    simulate, simulate_actors, simulate_actors_with, simulate_with, Arbiter, SimConfig, SimEngine,
    TimeoutSpec,
};
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

/// Every shared template × every arbiter × several seeds: the two
/// engines must agree exactly. `WeightedEffort` carries the efforts the
/// pipeline's post-sizing policy runs with.
#[test]
fn engines_agree_on_all_shared_templates() {
    let arches: Vec<(&str, Architecture)> = vec![
        ("figure1", templates::figure1()),
        ("network_processor", templates::network_processor()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ];
    for (name, arch) in &arches {
        let alloc = BufferAllocation::uniform(arch, 6);
        let efforts = size_buffers(arch, 6, &SizingConfig::small())
            .expect("template sizes")
            .efforts;
        for seed in [0, 1, 17, 4242] {
            let cfg = SimConfig::new(300.0, seed);
            for arbiter in [
                Arbiter::RandomNonempty,
                Arbiter::LongestQueue,
                Arbiter::FixedSlot,
                Arbiter::round_robin(arch.num_buses()),
                Arbiter::WeightedEffort {
                    efforts: efforts.clone(),
                },
            ] {
                let legacy = simulate(arch, &alloc, arbiter.clone(), &cfg);
                let actors = simulate_actors(arch, &alloc, arbiter.clone(), &cfg);
                assert_eq!(
                    legacy, actors,
                    "{name}, seed {seed}, arbiter {arbiter:?}: engines diverge"
                );
                conservation_ok(&actors);
            }
        }
    }
}

/// The timeout policy (grant-time head shedding) follows the same
/// re-arbitration draw sequence in both engines.
#[test]
fn engines_agree_under_timeout_policy() {
    for (name, arch) in [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
    ] {
        let alloc = BufferAllocation::uniform(&arch, 4);
        let cfg = SimConfig::new(400.0, 11);
        let base = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let spec = TimeoutSpec::from_calibration(&base);
        for seed in [2, 3, 5, 8, 13] {
            let cfg = SimConfig::new(400.0, seed);
            let mut a = Arbiter::RandomNonempty;
            let mut b = Arbiter::RandomNonempty;
            let legacy = simulate_with(&arch, &alloc, &mut a, Some(&spec), &cfg);
            let actors = simulate_actors_with(&arch, &alloc, &mut b, Some(&spec), &cfg);
            assert_eq!(legacy, actors, "{name}, seed {seed}: timeout runs diverge");
        }
    }
}

/// Randomly generated architectures keep the engines in lockstep too.
#[test]
fn engines_agree_on_random_architectures() {
    let params = templates::RandomArchParams::default();
    for arch_seed in 0..6 {
        let arch = templates::random_architecture(arch_seed, &params);
        let alloc = BufferAllocation::uniform(&arch, 5);
        let cfg = SimConfig::new(200.0, 7 * arch_seed + 1);
        let legacy = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let actors = simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert_eq!(legacy, actors, "random arch {arch_seed}: engines diverge");
    }
}

fn single_queue(lambda: f64, mu: f64) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", mu).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
    b.build().unwrap()
}

/// The actor engine alone against the M/M/1/K closed form.
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
    let r = simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
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
/// Poisson draw sequence exactly — it must match a plain Poisson run of
/// the actor engine bit for bit.
#[test]
fn burst_of_one_is_poisson_exactly() {
    let poisson = single_queue(0.7, 1.0);
    let burst1 = shaped_single_queue(0.7, 1.0, TrafficShape::Burst { batch: 1 });
    assert!(!poisson.uses_extended_semantics());
    for seed in 0..10 {
        let cfg = SimConfig::new(500.0, seed);
        let alloc_p = BufferAllocation::uniform(&poisson, 5);
        let alloc_b = BufferAllocation::uniform(&burst1, 5);
        let a = simulate_actors(&poisson, &alloc_p, Arbiter::RandomNonempty, &cfg);
        let b = simulate_actors(&burst1, &alloc_b, Arbiter::RandomNonempty, &cfg);
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
        simulate_actors(&poisson, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let lb = {
        let alloc = BufferAllocation::uniform(&bursty, 4);
        simulate_actors(&bursty, &alloc, Arbiter::RandomNonempty, &cfg)
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
        simulate_actors(&poisson, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let lo = {
        let alloc = BufferAllocation::uniform(&onoff, 4);
        simulate_actors(&onoff, &alloc, Arbiter::RandomNonempty, &cfg)
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
    let rp = simulate_actors(&prio, &alloc, Arbiter::RandomNonempty, &cfg);
    let alloc = BufferAllocation::uniform(&fair, 8);
    let rf = simulate_actors(&fair, &alloc, Arbiter::RandomNonempty, &cfg);
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
    let again = simulate_actors(
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
        simulate_actors(&ext, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let r1 = {
        let alloc = BufferAllocation::uniform(&lock1, 8);
        simulate_actors(&lock1, &alloc, Arbiter::RandomNonempty, &cfg)
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
            simulate_actors(&fair, &alloc, Arbiter::RandomNonempty, &cfg)
        };
        let rl = {
            let alloc = BufferAllocation::uniform(&locked, 16);
            simulate_actors(&locked, &alloc, Arbiter::RandomNonempty, &cfg)
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
        simulate_actors(&zero, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    let rs = {
        let alloc = BufferAllocation::uniform(&slow, 10);
        simulate_actors(&slow, &alloc, Arbiter::RandomNonempty, &cfg)
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
        simulate_actors(&plain, &alloc, Arbiter::RandomNonempty, &cfg)
    };
    assert_eq!(rz, rp, "latency 0 must be bit-identical to no latency");
    // Positive latency still delivers the traffic (the bridge is a
    // delay, not a bottleneck).
    assert!(rs.total_delivered > 0.95 * rz.total_delivered);
}

/// `SimEngine::Auto` is safe to use blindly: it never panics on any
/// architecture and matches the explicit engine choice.
#[test]
fn auto_engine_never_panics_and_matches_explicit_choice() {
    let cfg = SimConfig::new(300.0, 1);
    let plain = templates::figure1();
    let extended = two_client_bus(BusArbitration::Priority, 0.3, 0.3);
    let mut arb = Arbiter::RandomNonempty;
    let alloc = BufferAllocation::uniform(&plain, 6);
    let a = SimEngine::Auto.simulate_with(&plain, &alloc, &mut arb, None, &cfg);
    let l = SimEngine::Legacy.simulate_with(&plain, &alloc, &mut arb, None, &cfg);
    assert_eq!(a, l);
    let alloc = BufferAllocation::uniform(&extended, 6);
    let a = SimEngine::Auto.simulate_with(&extended, &alloc, &mut arb, None, &cfg);
    let x = SimEngine::Actors.simulate_with(&extended, &alloc, &mut arb, None, &cfg);
    assert_eq!(a, x);
}

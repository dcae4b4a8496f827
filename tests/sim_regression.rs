//! Simulator regression pins: event-ordering / RNG drift detection.
//!
//! The discrete-event engine is the measurement instrument every paper
//! figure is read off of, and it is *deterministic per seed* by design.
//! Two complementary guards:
//!
//! * a **fixed-seed snapshot** — exact per-queue offered/lost/served
//!   counts on the figure1 template under seed 2005. Any change to the
//!   RNG stream, the event queue's tie-breaking, or the arbiter's
//!   scheduling order shifts at least one of these integers, turning an
//!   invisible semantics change into a visible diff (if the change is
//!   intended, regenerate the pins and say so in the commit);
//! * a **statistical sanity check** — a single M/M/1/K queue simulated
//!   over several replications must match the closed-form blocking
//!   probability and mean occupancy from `socbuf_markov::MM1K`, so the
//!   snapshot cannot ossify around a *wrong* stochastic semantics: the
//!   snapshot pins the stream, the closed form pins the distribution.

use socbuf::markov::MM1K;
use socbuf::sim::{average_reports, replicate, simulate, Arbiter, SimConfig};
use socbuf::soc::{templates, ArchitectureBuilder, BufferAllocation, FlowTarget};

/// Exact event counts for figure1, uniform allocation of 22 units,
/// `Arbiter::FixedSlot`, seed 2005, horizon 1000, warmup 100 —
/// identical in debug and release builds (the engine orders events by
/// (time, sequence), never by float identity games).
///
/// Pins regenerated when the measurement-window statistics were fixed:
/// `served` now counts only requests *offered* inside the window (the
/// same population `mean_wait` averages over), so a handful of
/// warmup-straddling services left the counts.
const SNAPSHOT: &[(f64, f64, f64)] = &[
    // (offered, lost_full, served) per queue
    (137.0, 0.0, 136.0),
    (288.0, 61.0, 225.0),
    (86.0, 0.0, 85.0),
    (85.0, 4.0, 81.0),
    (85.0, 7.0, 76.0),
    (76.0, 4.0, 72.0),
    (84.0, 1.0, 82.0),
    (82.0, 1.0, 81.0),
    (93.0, 13.0, 80.0),
    (187.0, 11.0, 175.0),
];
const SNAPSHOT_TOTALS: (f64, f64, f64) = (874.0, 102.0, 764.0); // offered, lost, delivered

#[test]
fn fixed_seed_snapshot_is_stable() {
    let arch = templates::figure1();
    let alloc = BufferAllocation::uniform(&arch, 22);
    let cfg = SimConfig {
        horizon: 1000.0,
        warmup: 100.0,
        seed: 2005,
    };
    let r = simulate(&arch, &alloc, Arbiter::FixedSlot, &cfg);
    assert_eq!(r.per_queue.len(), SNAPSHOT.len());
    for (i, (q, &(offered, lost_full, served))) in r.per_queue.iter().zip(SNAPSHOT).enumerate() {
        assert_eq!(q.offered, offered, "queue {i}: offered count drifted");
        assert_eq!(q.lost_full, lost_full, "queue {i}: loss count drifted");
        assert_eq!(q.served, served, "queue {i}: served count drifted");
    }
    let (offered, lost, delivered) = SNAPSHOT_TOTALS;
    assert_eq!(r.total_offered, offered);
    assert_eq!(r.total_lost, lost);
    assert_eq!(r.total_delivered, delivered);
}

#[test]
fn replications_differ_but_reseeding_reproduces() {
    // Different seeds must give different streams (otherwise the
    // replication average is a sham), and the same seed must reproduce
    // the run bit for bit.
    let arch = templates::figure1();
    let alloc = BufferAllocation::uniform(&arch, 22);
    let cfg = |seed| SimConfig {
        horizon: 500.0,
        warmup: 50.0,
        seed,
    };
    let a = simulate(&arch, &alloc, Arbiter::FixedSlot, &cfg(1));
    let b = simulate(&arch, &alloc, Arbiter::FixedSlot, &cfg(2));
    let a2 = simulate(&arch, &alloc, Arbiter::FixedSlot, &cfg(1));
    assert_eq!(a, a2, "same seed must reproduce exactly");
    assert_ne!(
        a.total_offered, b.total_offered,
        "different seeds produced identical arrival streams"
    );
}

#[test]
fn mm1k_closed_form_sanity() {
    // Single queue, λ = 0.7, μ = 1, K = 5 buffer units: the simulated
    // loss fraction and mean occupancy must match the birth–death
    // closed form from socbuf-markov within Monte-Carlo tolerance.
    let (lambda, mu, k) = (0.7, 1.0, 5usize);
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", mu).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
    let arch = b.build().unwrap();

    let alloc = BufferAllocation::new(&arch, vec![k]).unwrap();
    let cfg = SimConfig {
        horizon: 20_000.0,
        warmup: 1_000.0,
        seed: 7,
    };
    let runs = replicate(&arch, &alloc, &Arbiter::RandomNonempty, None, &cfg, 5);
    let avg = average_reports(&runs);

    let oracle = MM1K::new(lambda, mu, k).unwrap();
    let simulated_blocking = avg.per_queue[0].lost_full / avg.per_queue[0].offered;
    assert!(
        (simulated_blocking - oracle.blocking_probability()).abs() < 0.01,
        "blocking: simulated {simulated_blocking} vs exact {}",
        oracle.blocking_probability()
    );
    let pi = oracle.state_probabilities();
    let expected_occupancy: f64 = pi.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
    assert!(
        (avg.per_queue[0].time_avg_len - expected_occupancy).abs() < 0.1,
        "occupancy: simulated {} vs exact {expected_occupancy}",
        avg.per_queue[0].time_avg_len
    );
}

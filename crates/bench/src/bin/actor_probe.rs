//! Developer probe for the actor-based simulator core: engine
//! equivalence, extended-semantics determinism, and relative throughput
//! of the actor engine against the legacy event loop.
//!
//! `--smoke` runs the CI gate:
//!
//! * **equivalence** — the actor engine must reproduce the legacy
//!   engine's `SimReport` *exactly* (every counter bit-identical) on
//!   the four shared templates across seeds and arbiters. This is the
//!   refactor's load-bearing promise: same draws, same statistics,
//!   different core.
//! * **determinism** — extended scenarios (priority arbitration,
//!   locked transfers, bursty and on/off sources) have no legacy
//!   oracle, so the gate is per-seed reproducibility plus the
//!   conservation identity `offered = delivered + lost + in_flight`.
//! * **throughput (enforced on every host)** — the actor engine sends
//!   the same envelopes as the legacy loop's events (arrivals and
//!   completions) plus phase toggles and latency crossings; the gate
//!   requires it stay within [`ACTOR_SLOWDOWN_LIMIT`]× of the legacy
//!   wall time on network_processor, so a scheduling regression — such
//!   as same-instant hand-offs going back through the event queue —
//!   cannot land silently. The ratio is the median over
//!   [`SMOKE_PAIRS`] back-to-back pairs of runs at horizon
//!   [`SMOKE_HORIZON`]: both engines run in-process on the same host,
//!   and a pair shares its host's state, so a burst of load on a shared
//!   runner moves one pair, not the median.
//! * **allocations (enforced on every host)** — one replication at the
//!   paper's horizon may make at most [`ALLOC_LIMIT`] heap allocations
//!   on either engine, under Figure 3's constant-sizing and post-sizing
//!   policies on figure1 and network_processor. The per-event path
//!   allocates nothing, so the count is the run's fixed setup plus
//!   buffer growth; an allocation per arbitration or per event runs
//!   into the thousands. Counts do not depend on the host.

use socbuf_bench::alloc::{self, CountingAlloc};
use socbuf_bench::paper_pipeline_config;
use socbuf_bench::probe::{self, best_of, ratio, Gate, OrExit};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_sim::{
    simulate_actors_with, simulate_with, Arbiter, SimConfig, SimEngine, SimReport, TimeoutSpec,
};
use socbuf_soc::templates;
use socbuf_soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Largest tolerated actor/legacy wall-time ratio in the smoke gate.
/// Twenty consecutive smoke runs on a shared 2-core host measured
/// 1.08-1.16x; the best-of-3 gate at horizon 5,000 this median
/// replaced read 0.89-1.38x. Routing each grant and finish through the
/// event queue again measured 2.7-3.1x and fails it.
const ACTOR_SLOWDOWN_LIMIT: f64 = 1.48;

/// Most heap allocations one paper-horizon replication may make.
const ALLOC_LIMIT: u64 = 128;

/// Alternated timing pairs in the smoke's slowdown gate.
const SMOKE_PAIRS: usize = 15;

/// Simulated horizon of each timed smoke run.
const SMOKE_HORIZON: f64 = 40_000.0;

/// A two-client priority bus with one bursty flow — exercises every
/// extended declaration except on/off in one architecture.
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

fn run_engine(engine: SimEngine, arch: &Architecture, horizon: f64, seed: u64) -> SimReport {
    let alloc = BufferAllocation::uniform(arch, 4);
    let mut arbiter = Arbiter::RandomNonempty;
    let cfg = SimConfig::new(horizon, seed);
    engine.simulate_with(arch, &alloc, &mut arbiter, None, &cfg)
}

/// The equivalence gate: every shared workload, both engines, exact
/// report equality.
fn check_equivalence(gate: &mut Gate, horizon: f64, verbose: bool) {
    for (name, arch) in probe::named_templates() {
        let alloc = BufferAllocation::uniform(&arch, 4);
        // Calibrate the timeout thresholds from an untimed legacy run,
        // exactly as the pipeline does before its timeout baseline.
        let calibration = simulate_with(
            &arch,
            &alloc,
            &mut Arbiter::LongestQueue,
            None,
            &SimConfig::new(horizon, 7),
        );
        let timeout = TimeoutSpec::from_calibration(&calibration);
        for seed in [0u64, 17, 4242] {
            for timeout in [None, Some(&timeout)] {
                let cfg = SimConfig::new(horizon, seed);
                let mut arb_l = Arbiter::LongestQueue;
                let mut arb_a = Arbiter::LongestQueue;
                let legacy = simulate_with(&arch, &alloc, &mut arb_l, timeout, &cfg);
                let actors = simulate_actors_with(&arch, &alloc, &mut arb_a, timeout, &cfg);
                let same = gate.check(
                    legacy == actors,
                    format_args!(
                        "{name} seed {seed} timeout={}: engines disagree\n\
                         legacy: {legacy:?}\nactors: {actors:?}",
                        timeout.is_some()
                    ),
                );
                if same && verbose {
                    println!(
                        "{name:>18} seed {seed} timeout={}: identical \
                         (offered {:.0}, lost {:.0})",
                        timeout.is_some(),
                        legacy.total_offered,
                        legacy.total_lost
                    );
                }
            }
        }
    }
}

/// Determinism + conservation on the extended architecture (no legacy
/// oracle exists there).
fn check_extended(gate: &mut Gate, horizon: f64, verbose: bool) {
    let arch = extended_arch();
    assert!(arch.uses_extended_semantics());
    for seed in [1u64, 99, 2005] {
        let a = run_engine(SimEngine::Actors, &arch, horizon, seed);
        let b = run_engine(SimEngine::Actors, &arch, horizon, seed);
        gate.check(
            a == b,
            format_args!("extended arch seed {seed} not reproducible"),
        );
        let residual = a.total_offered - a.total_delivered - a.total_lost - a.in_flight;
        if residual.abs() > 1e-9 || a.in_flight < 0.0 {
            gate.fail(format_args!(
                "extended arch seed {seed} breaks conservation \
                 (offered {} delivered {} lost {} in_flight {})",
                a.total_offered, a.total_delivered, a.total_lost, a.in_flight
            ));
        } else if verbose {
            println!(
                "extended seed {seed}: loss_fraction {:.4}, in_flight {:.0}",
                a.loss_fraction(),
                a.in_flight
            );
        }
    }
}

/// Wall times of `pairs` back-to-back (legacy, actors) runs on one
/// workload, seeding pair `i` with `i` and alternating which engine
/// runs first, so neither always finds the other's warm caches.
fn paired_times(arch: &Architecture, horizon: f64, pairs: usize) -> Vec<(Duration, Duration)> {
    let time = |engine, seed| best_of(1, || run_engine(engine, arch, horizon, seed)).1;
    (0..pairs as u64)
        .map(|seed| {
            if seed % 2 == 0 {
                let legacy = time(SimEngine::Legacy, seed);
                (legacy, time(SimEngine::Actors, seed))
            } else {
                let actors = time(SimEngine::Actors, seed);
                (time(SimEngine::Legacy, seed), actors)
            }
        })
        .collect()
}

/// The median actors/legacy ratio over `pairs`, with the best time of
/// each engine.
fn slowdown(arch: &Architecture, horizon: f64, pairs: usize) -> (f64, Duration, Duration) {
    let times = paired_times(arch, horizon, pairs);
    let mut ratios: Vec<f64> = times.iter().map(|&(l, a)| ratio(a, l)).collect();
    ratios.sort_by(f64::total_cmp);
    let best = |pick: fn(&(Duration, Duration)) -> Duration| times.iter().map(pick).min();
    (
        ratios[ratios.len() / 2],
        best(|t| t.0).expect("at least one pair"),
        best(|t| t.1).expect("at least one pair"),
    )
}

/// The workloads of the allocation gate: a template, an allocation and
/// an arbiter, each run as one replication of the paper's Figure-3
/// configuration.
fn alloc_workloads() -> Vec<(&'static str, Architecture, BufferAllocation, Arbiter)> {
    let figure1 = templates::figure1();
    let np = templates::network_processor();
    let sized = size_buffers(&figure1, 22, &SizingConfig::small()).or_exit("sizing figure1");
    vec![
        (
            "figure1 uniform 22 FixedSlot",
            figure1.clone(),
            BufferAllocation::uniform(&figure1, 22),
            Arbiter::FixedSlot,
        ),
        (
            "figure1 sized 22 WeightedEffort",
            figure1,
            sized.allocation,
            Arbiter::WeightedEffort {
                efforts: sized.efforts,
            },
        ),
        (
            "network_processor uniform 160 FixedSlot",
            np.clone(),
            BufferAllocation::uniform(&np, 160),
            Arbiter::FixedSlot,
        ),
    ]
}

/// The allocation gate: both engines, every [`alloc_workloads`] entry.
fn check_allocations(gate: &mut Gate) {
    let paper = paper_pipeline_config();
    let cfg = SimConfig {
        horizon: paper.horizon,
        warmup: paper.warmup,
        seed: paper.seed,
    };
    for (name, arch, alloc, arbiter) in alloc_workloads() {
        for engine in [SimEngine::Legacy, SimEngine::Actors] {
            let mut arbiter = arbiter.clone();
            let (_, counts) =
                alloc::count(|| engine.simulate_with(&arch, &alloc, &mut arbiter, None, &cfg));
            println!(
                "{name:>40} {engine:?}: {} allocations ({} bytes) per replication",
                counts.allocs, counts.bytes
            );
            gate.check(
                counts.allocs <= ALLOC_LIMIT,
                format_args!(
                    "{name} on {engine:?}: {} allocations per replication (limit {ALLOC_LIMIT})",
                    counts.allocs
                ),
            );
        }
    }
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    check_equivalence(gate, 2000.0, false);
    check_extended(gate, 2000.0, false);
    check_allocations(gate);

    let np = templates::network_processor();
    let (r, legacy, actors) = slowdown(&np, SMOKE_HORIZON, SMOKE_PAIRS);
    println!(
        "np horizon {SMOKE_HORIZON}: best legacy {legacy:?}, best actors {actors:?}; \
         median of {SMOKE_PAIRS} pairs {r:.2}x"
    );
    gate.check(
        r <= ACTOR_SLOWDOWN_LIMIT,
        format_args!("actor engine {r:.2}x slower than legacy (limit {ACTOR_SLOWDOWN_LIMIT}x)"),
    );
}

/// Full table: per-template equivalence detail plus a throughput sweep.
fn full_probe() {
    // The full table reports mismatches; only `--smoke` exits on them.
    let mut gate = Gate::new();
    check_equivalence(&mut gate, 2000.0, true);
    check_extended(&mut gate, 5000.0, true);
    println!();
    check_allocations(&mut gate);
    println!(
        "\n{:>18} {:>12} {:>12} {:>7}",
        "template", "legacy", "actors", "ratio"
    );
    for (name, arch) in probe::named_templates() {
        let (r, legacy, actors) = slowdown(&arch, 20000.0, 7);
        println!("{name:>18} {legacy:>12?} {actors:>12?} {r:>6.2}x");
    }
}

fn main() {
    probe::run(smoke, full_probe);
}

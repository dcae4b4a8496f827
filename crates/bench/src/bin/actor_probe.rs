//! Developer probe for the actor-based simulator: the work a run does,
//! extended-semantics determinism, and allocations per replication.
//!
//! `--smoke` runs the CI gate. Every check is a count or an identity,
//! so none depends on the host:
//!
//! * **envelopes (exact)** — each template runs once at a fixed
//!   configuration (uniform [`UNITS_PER_QUEUE`] units per queue,
//!   `RandomNonempty`, seed 1, horizon [`ENVELOPE_HORIZON`]) and must
//!   send exactly its pinned number of envelopes
//!   ([`ENVELOPES`]). Only the passage of time travels as an envelope
//!   (arrivals, phase flips, bridge latencies, service completions); a
//!   same-instant hand-off routed back through the event queue, or a
//!   change to the draw sequence, moves the count.
//! * **determinism** — extended scenarios (priority arbitration,
//!   locked transfers, bursty and on/off sources, bridge latency) must
//!   reproduce per seed and satisfy the conservation identity
//!   `offered = delivered + lost + in_flight`.
//! * **allocations** — one replication at the paper's horizon may make
//!   at most [`ALLOC_LIMIT`] heap allocations, under Figure 3's
//!   constant-sizing and post-sizing policies on figure1 and
//!   network_processor. The per-event path allocates nothing, so the
//!   count is the run's fixed setup plus buffer growth; an allocation
//!   per arbitration or per event runs into the thousands.
//!
//! With no flag it prints the same checks plus two timing tables, each
//! in ms per run and ns per envelope (the simulator's per-envelope
//! layer): every template's gate configuration at horizon 20,000, and
//! the Figure-3 policy mix at the paper's window ([`figure3_mix`]).

use socbuf_bench::alloc::{self, CountingAlloc};
use socbuf_bench::paper_pipeline_config;
use socbuf_bench::probe::{self, best_of, Gate, OrExit};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_sim::{
    average_reports, replication_config, simulate, simulate_counted, Arbiter, SimConfig, SimReport,
    TimeoutSpec,
};
use socbuf_soc::templates;
use socbuf_soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most heap allocations one paper-horizon replication may make.
const ALLOC_LIMIT: u64 = 64;

/// Buffer units per queue of the envelope gate's uniform allocation.
const UNITS_PER_QUEUE: usize = 6;

/// Simulated horizon of the envelope gate's runs.
const ENVELOPE_HORIZON: f64 = 1000.0;

/// Envelopes each template's gate run sends, in
/// [`probe::named_templates`] order.
const ENVELOPES: [(&str, u64); 4] = [
    ("figure1", 2_279),
    ("amba", 3_545),
    ("coreconnect", 5_202),
    ("network_processor", 11_489),
];

/// A two-client priority bus with one bursty flow — exercises every
/// extended declaration in one architecture.
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

/// One `RandomNonempty` run on `units` per queue; returns the report
/// and the envelopes it sent.
fn run(arch: &Architecture, units: usize, horizon: f64, seed: u64) -> (SimReport, u64) {
    let alloc = BufferAllocation::uniform(arch, units * arch.num_queues());
    let cfg = SimConfig::new(horizon, seed);
    simulate_counted(arch, &alloc, &mut Arbiter::RandomNonempty, None, &cfg)
}

/// The envelope gate: every template sends exactly its pinned count.
fn check_envelopes(gate: &mut Gate) {
    for ((name, arch), (pinned_name, pinned)) in probe::named_templates().into_iter().zip(ENVELOPES)
    {
        assert_eq!(name, pinned_name, "envelope pins out of template order");
        let (_, sent) = run(&arch, UNITS_PER_QUEUE, ENVELOPE_HORIZON, 1);
        println!("{name:>18}: {sent} envelopes per run (pinned {pinned})");
        gate.check(
            sent == pinned,
            format_args!("{name}: {sent} envelopes per run, pinned {pinned}"),
        );
    }
}

/// Determinism + conservation on the extended architecture.
fn check_extended(gate: &mut Gate, horizon: f64, verbose: bool) {
    let arch = extended_arch();
    assert!(arch.uses_extended_semantics());
    for seed in [1u64, 99, 2005] {
        let a = run(&arch, 1, horizon, seed);
        let b = run(&arch, 1, horizon, seed);
        gate.check(
            a == b,
            format_args!("extended arch seed {seed} not reproducible"),
        );
        let a = a.0;
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

/// The allocation gate: every [`alloc_workloads`] entry.
fn check_allocations(gate: &mut Gate) {
    let cfg = paper_sim_config();
    for (name, arch, alloc, arbiter) in alloc_workloads() {
        let (_, counts) = alloc::count(|| simulate(&arch, &alloc, arbiter, &cfg));
        println!(
            "{name:>40}: {} allocations ({} bytes) per replication",
            counts.allocs, counts.bytes
        );
        gate.check(
            counts.allocs <= ALLOC_LIMIT,
            format_args!(
                "{name}: {} allocations per replication (limit {ALLOC_LIMIT})",
                counts.allocs
            ),
        );
    }
}

/// The paper's simulation window and seed.
fn paper_sim_config() -> SimConfig {
    let paper = paper_pipeline_config();
    SimConfig {
        horizon: paper.horizon,
        warmup: paper.warmup,
        seed: paper.seed,
    }
}

/// Runs the paper's replications of one policy; returns their reports
/// and the envelopes they sent in total.
fn replications(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &Arbiter,
    timeout: Option<&TimeoutSpec>,
) -> (Vec<SimReport>, u64) {
    let cfg = paper_sim_config();
    let mut sent = 0;
    let reports = (0..paper_pipeline_config().replications)
        .map(|i| {
            let mut arb = arbiter.clone();
            let (report, n) =
                simulate_counted(arch, alloc, &mut arb, timeout, &replication_config(&cfg, i));
            sent += n;
            report
        })
        .collect();
    (reports, sent)
}

/// One timing row: a run's wall time and envelopes, in ms per run and
/// ns per envelope.
fn print_timing(name: &str, label: &str, time: Duration, runs: usize, sent: u64) {
    let secs = time.as_secs_f64();
    println!(
        "{name:>18} {label:>28} {:>10.3} {:>10} {:>8.1}",
        secs * 1e3 / runs as f64,
        sent / runs as u64,
        secs * 1e9 / sent as f64
    );
}

/// The Figure-3 policy mix on every template at the paper's window and
/// a budget of 3 units per queue: uniform buffers under `FixedSlot`,
/// `size_buffers(small())` under `WeightedEffort`, and uniform
/// `FixedSlot` with the timeout calibrated from the averaged first
/// policy, the pipeline's three policies. Each policy's replications
/// are timed best of 15, then the template's three are summed.
fn figure3_mix() {
    let reps = paper_pipeline_config().replications;
    println!(
        "\nFigure-3 policy mix, {reps} replications per policy (best of 15)\n\
         {:>18} {:>28} {:>10} {:>10} {:>8}",
        "template", "policy", "ms per run", "envelopes", "ns/env"
    );
    let (mut all_time, mut all_sent, mut all_runs) = (Duration::ZERO, 0, 0);
    for (name, arch) in probe::named_templates() {
        let budget = 3 * arch.num_queues();
        let uniform = BufferAllocation::uniform(&arch, budget);
        let sized = size_buffers(&arch, budget, &SizingConfig::small()).or_exit("sizing");
        let (pre, _) = replications(&arch, &uniform, &Arbiter::FixedSlot, None);
        let spec = TimeoutSpec::from_calibration(&average_reports(&pre));
        let post = Arbiter::WeightedEffort {
            efforts: sized.efforts,
        };
        let policies = [
            ("uniform FixedSlot", &uniform, &Arbiter::FixedSlot, None),
            ("sized WeightedEffort", &sized.allocation, &post, None),
            (
                "uniform FixedSlot timeout",
                &uniform,
                &Arbiter::FixedSlot,
                Some(&spec),
            ),
        ];
        let (mut time, mut sent) = (Duration::ZERO, 0);
        for (label, alloc, arbiter, timeout) in policies {
            let ((_, n), t) = best_of(15, || replications(&arch, alloc, arbiter, timeout));
            print_timing(name, label, t, reps, n);
            time += t;
            sent += n;
        }
        print_timing(name, "mix", time, 3 * reps, sent);
        all_time += time;
        all_sent += sent;
        all_runs += 3 * reps;
    }
    print_timing("all", "mix", all_time, all_runs, all_sent);
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    check_envelopes(gate);
    check_extended(gate, 2000.0, false);
    check_allocations(gate);
}

/// Full table: the gates' counts, then each template's wall time per
/// run (best of 7) at horizon 20,000, then the Figure-3 mix.
fn full_probe() {
    // The full table reports mismatches; only `--smoke` exits on them.
    let mut gate = Gate::new();
    check_envelopes(&mut gate);
    println!();
    check_extended(&mut gate, 5000.0, true);
    println!();
    check_allocations(&mut gate);
    println!(
        "\n{:>18} {:>28} {:>10} {:>10} {:>8}",
        "template", "configuration", "ms per run", "envelopes", "ns/env"
    );
    for (name, arch) in probe::named_templates() {
        let ((_, sent), time) = best_of(7, || run(&arch, UNITS_PER_QUEUE, 20_000.0, 1));
        print_timing(name, "gate, horizon 20,000", time, 1, sent);
    }
    figure3_mix();
}

fn main() {
    probe::run(smoke, full_probe);
}

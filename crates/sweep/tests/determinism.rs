//! The guard that keeps the pool honest forever: every campaign,
//! re-run with 1, 2 and 8 workers, must produce **byte-identical**
//! `SweepReport` serializations.
//!
//! If a change ever routes scheduling order into results — a reduction
//! by completion order, a seed derived from a shared counter, a
//! thread-local accumulator — the 8-worker rendering drifts from the
//! serial one and this suite turns red. Worker counts deliberately
//! exceed the host's core count; oversubscription maximizes interleaving
//! without affecting the contract.

use socbuf_core::{evaluate_policies, evaluate_policies_with, PipelineConfig, SizingConfig};
use socbuf_soc::templates;
use socbuf_soc::templates::RandomArchParams;
use socbuf_sweep::{BudgetSweep, LoadSweep, RandomCampaign, SweepReport, WorkPool};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `campaign` under every worker count and asserts the reports and
/// both renderings are identical to the serial baseline.
fn assert_scheduling_independent(label: &str, campaign: impl Fn(&WorkPool) -> SweepReport) {
    let baseline = campaign(&WorkPool::new(WORKER_COUNTS[0]));
    let base_csv = baseline.to_csv();
    let base_jsonl = baseline.to_jsonl();
    for workers in &WORKER_COUNTS[1..] {
        let report = campaign(&WorkPool::new(*workers));
        assert_eq!(
            report, baseline,
            "{label}: structured report drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(),
            base_csv,
            "{label}: CSV bytes drifted at {workers} workers"
        );
        assert_eq!(
            report.to_jsonl(),
            base_jsonl,
            "{label}: JSONL bytes drifted at {workers} workers"
        );
    }
}

#[test]
fn budget_sweep_is_worker_count_independent() {
    // `BudgetSweep::new` enables warm chains, so this also pins the
    // warm-start scheduling contract: chunk boundaries are fixed by
    // item index, so the chain each item joins — and therefore its
    // solver path, pivot counts and rendered bytes — cannot depend on
    // the worker count.
    let arch = templates::amba();
    assert_scheduling_independent("warm budget sweep", |pool| {
        let mut sweep = BudgetSweep::new(&arch, vec![10, 12, 16, 20, 24, 32, 40]);
        sweep.sizing = SizingConfig::small();
        sweep.run(pool).unwrap()
    });
}

#[test]
fn cold_budget_sweep_is_worker_count_independent() {
    // The pre-warm scheduling path (one item per pool slot) stays
    // covered too.
    let arch = templates::amba();
    assert_scheduling_independent("cold budget sweep", |pool| {
        let mut sweep = BudgetSweep::new(&arch, vec![10, 12, 16, 20, 24, 32, 40]);
        sweep.sizing = SizingConfig::small();
        sweep.warm_start = false;
        sweep.run(pool).unwrap()
    });
}

#[test]
fn simulated_budget_sweep_is_worker_count_independent() {
    // The simulating variant also exercises replication seeding: every
    // point runs the three-policy comparison.
    let arch = templates::figure1();
    assert_scheduling_independent("simulated budget sweep", |pool| {
        let mut sweep = BudgetSweep::new(&arch, vec![16, 22, 30]);
        sweep.sizing = SizingConfig::small();
        sweep.simulate = Some(PipelineConfig::small());
        sweep.run(pool).unwrap()
    });
}

#[test]
fn load_sweep_is_worker_count_independent() {
    // Warm chains on (the default): load chains re-scale the cached LP
    // in place, which must not introduce any worker-count dependence.
    let arch = templates::coreconnect();
    assert_scheduling_independent("warm load sweep", |pool| {
        let mut sweep = LoadSweep::new(&arch, 20, vec![0.5, 0.75, 1.0, 1.25, 1.5]);
        sweep.sizing = SizingConfig::small();
        sweep.run(pool).unwrap()
    });
}

#[test]
fn random_campaign_is_worker_count_independent() {
    assert_scheduling_independent("random campaign", |pool| {
        let mut campaign = RandomCampaign::new((0..8).collect());
        campaign.params = RandomArchParams::default();
        campaign.sizing = SizingConfig::small();
        campaign.run(pool).unwrap()
    });
}

#[test]
fn decomposed_engine_sweep_is_worker_count_independent() {
    // The decomposed LP engine adds a second tier of parallelism: the
    // campaign attaches the pool as the engine's block executor, so a
    // serial campaign fans block solves out while a parallel campaign
    // degrades them to serial (the `IN_POOL` guard). Both tiers must
    // leave the report bytes untouched — executors change wall time,
    // never results.
    let arch = templates::amba();
    assert_scheduling_independent("decomposed budget sweep", |pool| {
        let mut sweep = BudgetSweep::new(&arch, vec![10, 12, 16, 20, 24, 32, 40]);
        sweep.sizing = SizingConfig::small();
        sweep.sizing.engine = socbuf_core::LpEngine::Decomposed;
        sweep.run(pool).unwrap()
    });
}

#[test]
fn decomposed_engine_load_sweep_is_worker_count_independent() {
    // Load chains re-scale the cached LP in place and warm-start the
    // decomposed engine from the previous point's joint basis; none of
    // that may depend on which tier the block solves ran on.
    let arch = templates::coreconnect();
    assert_scheduling_independent("decomposed load sweep", |pool| {
        let mut sweep = LoadSweep::new(&arch, 20, vec![0.5, 0.75, 1.0, 1.25, 1.5]);
        sweep.sizing = SizingConfig::small();
        sweep.sizing.engine = socbuf_core::LpEngine::Decomposed;
        sweep.run(pool).unwrap()
    });
}

#[test]
fn pooled_replications_match_the_serial_pipeline_bit_for_bit() {
    // The pipeline hook: evaluate_policies with its replications spread
    // over 8 workers equals the plain serial call, field for field.
    let arch = templates::figure1();
    let config = PipelineConfig::small();
    let serial = evaluate_policies(&arch, 22, &config).unwrap();
    for workers in WORKER_COUNTS {
        let pooled = evaluate_policies_with(&arch, 22, &config, &WorkPool::new(workers)).unwrap();
        assert_eq!(serial.pre, pooled.pre, "{workers} workers: pre drifted");
        assert_eq!(serial.post, pooled.post, "{workers} workers: post drifted");
        assert_eq!(
            serial.timeout, pooled.timeout,
            "{workers} workers: timeout drifted"
        );
        assert_eq!(
            serial.outcome.allocation.as_slice(),
            pooled.outcome.allocation.as_slice()
        );
    }
}

#[test]
fn extended_architecture_sweep_is_worker_count_independent() {
    // Extended semantics (priority arbitration, bursty flows) only run
    // on the actor engine; the determinism contract must hold there too.
    let mut b = socbuf_soc::ArchitectureBuilder::new();
    let x = b
        .add_bus_with_arbitration("x", 4.0, socbuf_soc::BusArbitration::Priority)
        .unwrap();
    let p = b.add_processor("p", &[x], 1.0).unwrap();
    let q = b.add_processor("q", &[x], 1.0).unwrap();
    b.add_flow_shaped(
        p,
        socbuf_soc::FlowTarget::Bus(x),
        0.9,
        socbuf_soc::TrafficShape::Burst { batch: 4 },
    )
    .unwrap();
    b.add_flow(q, socbuf_soc::FlowTarget::Bus(x), 0.7).unwrap();
    let arch = b.build().unwrap();
    assert!(arch.uses_extended_semantics());
    assert_scheduling_independent("extended budget sweep", |pool| {
        let mut sweep = BudgetSweep::new(&arch, vec![8, 12, 16]);
        sweep.sizing = SizingConfig::small();
        sweep.simulate = Some(PipelineConfig::small());
        sweep.run(pool).unwrap()
    });
}

#[test]
fn renderings_are_stable_across_reruns() {
    // Same campaign, same process, two runs: byte-identical (no hidden
    // global state, no time- or address-dependent output).
    let arch = templates::amba();
    let run = || {
        let mut sweep = BudgetSweep::new(&arch, vec![12, 18, 24]);
        sweep.sizing = SizingConfig::small();
        sweep.run(&WorkPool::new(4)).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
}

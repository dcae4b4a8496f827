//! The decomposed engine against the monolithic revised engine, on the
//! paper's own problem shapes.
//!
//! `LpEngine::Decomposed` reads the block structure `SizingLp::build`
//! declares (one block per bus) behind the sizing LP's single budget
//! row, prices the coupling out with a monotone multiplier search over
//! independent block solves, and certifies exactness with one
//! warm-started revised solve on the original joint standard form.
//! This suite pins the engine's whole contract:
//!
//! * status + 1e-9 relative objective agreement with the monolithic
//!   revised engine on templates, random architectures and the
//!   ill-conditioned corpus;
//! * full 4-part optimality certificates against the *joint* problem;
//! * the recovered budget shadow price matching the joint LP's dual;
//! * degenerate shapes — single queue, slack budget row, relaxed
//!   (infeasible) budget row — behaving exactly like the revised path,
//!   budget-relax semantics included.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use socbuf::lp::{
    solve_decomposed, verify_optimality, ExecutorHandle, LpEngine, LpError, LpProblem,
    SimplexOptions, SolveExecutor,
};
use socbuf::sizing::{size_buffers, SizingConfig, SizingLp};
use socbuf::soc::templates::{self, RandomArchParams};
use socbuf::soc::Architecture;

/// Certificates are checked above the sizing pipeline's 1e-6 rhs
/// perturbation dust but far below any genuine violation.
const CERT_TOL: f64 = 1e-4;

fn cfg(engine: LpEngine) -> SizingConfig {
    SizingConfig {
        state_cap: 8,
        effort_levels: 3,
        engine,
        ..SizingConfig::default()
    }
}

/// Solves `p` decomposed and monolithically (same options modulo
/// engine), asserts the full agreement contract, and returns the
/// decomposed solve's report (`None` when both engines agree the
/// problem is not solvable — tight random budgets can be infeasible).
fn assert_lp_agreement(p: &LpProblem, label: &str) -> Option<socbuf::lp::DecompReport> {
    let opts = SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 200_000,
        ..SimplexOptions::default()
    };
    let mono = match p.solve_with(&opts) {
        Ok(sol) => sol,
        Err(mono_err) => {
            // Status agreement: the decomposed engine must report the
            // same failure class as the monolithic one.
            let dec_err = solve_decomposed(p, &opts).map(|_| ()).expect_err(&format!(
                "{label}: monolithic says {mono_err}, decomposed solved"
            ));
            assert_eq!(
                std::mem::discriminant(&dec_err),
                std::mem::discriminant(&mono_err),
                "{label}: statuses disagree: {dec_err} vs {mono_err}"
            );
            return None;
        }
    };
    let (sol, report) =
        solve_decomposed(p, &opts).unwrap_or_else(|e| panic!("{label}: decomposed failed: {e}"));
    assert_eq!(sol.engine(), LpEngine::Decomposed);
    assert!(
        (sol.objective() - mono.objective()).abs() <= 1e-9 * (1.0 + mono.objective().abs()),
        "{label}: decomposed {} vs monolithic {}",
        sol.objective(),
        mono.objective()
    );
    // Full 4-part certificate against the original joint problem.
    let cert = verify_optimality(p, &sol, CERT_TOL);
    assert!(cert.is_optimal(), "{label}: certificate failed: {cert:?}");
    // Every dual price (budget row included) must match the joint LP's.
    for r in p.row_ids() {
        assert!(
            (sol.dual(r) - mono.dual(r)).abs() <= 1e-5 * (1.0 + mono.dual(r).abs()),
            "{label}: dual of row {} drifted: {} vs {}",
            r.index(),
            sol.dual(r),
            mono.dual(r)
        );
    }
    Some(report)
}

/// Sizes `arch` with both engines through the full pipeline and asserts
/// outcome-level agreement (loss, relaxation flag, shadow price).
fn assert_sizing_agreement(arch: &Architecture, budget: usize, label: &str) {
    let mono = size_buffers(arch, budget, &cfg(LpEngine::Revised))
        .unwrap_or_else(|e| panic!("{label}: revised sizing failed: {e}"));
    let dec = size_buffers(arch, budget, &cfg(LpEngine::Decomposed))
        .unwrap_or_else(|e| panic!("{label}: decomposed sizing failed: {e}"));
    assert_eq!(dec.lp_engine, LpEngine::Decomposed);
    assert_eq!(
        dec.budget_row_relaxed, mono.budget_row_relaxed,
        "{label}: relaxation flags disagree"
    );
    assert!(
        (dec.predicted_loss_rate - mono.predicted_loss_rate).abs()
            <= 1e-9 * (1.0 + mono.predicted_loss_rate.abs()),
        "{label}: loss {} vs {}",
        dec.predicted_loss_rate,
        mono.predicted_loss_rate
    );
    assert!(
        (dec.budget_shadow_price - mono.budget_shadow_price).abs()
            <= 1e-5 * (1.0 + mono.budget_shadow_price.abs()),
        "{label}: shadow price {} vs {}",
        dec.budget_shadow_price,
        mono.budget_shadow_price
    );
}

#[test]
fn decomposition_detects_the_sizing_lps_block_structure() {
    // The joint LP has per-bus effort rows *and* the budget row on top
    // of the per-queue rows; a bus's effort row ties its queues into
    // one block, so on an architecture with >1 bus the budget row is
    // the one coupling row and every bus is a block.
    let arch = templates::figure1();
    let lp = SizingLp::build(&arch, 22, &cfg(LpEngine::Decomposed)).unwrap();
    let report = assert_lp_agreement(lp.problem(), "figure1 joint LP")
        .expect("figure1's joint LP is feasible");
    assert!(
        report.blocks >= 2,
        "figure1 must decompose, got {} block(s)",
        report.blocks
    );
    assert!(!report.fell_back, "structure must be exploited");
    assert!(report.coupling_row.is_some(), "budget row not identified");
}

#[test]
fn template_architectures_agree_end_to_end() {
    for (name, arch, budget) in [
        ("figure1", templates::figure1(), 22usize),
        ("amba", templates::amba(), 16),
        ("coreconnect", templates::coreconnect(), 20),
        ("network_processor", templates::network_processor(), 64),
    ] {
        assert_sizing_agreement(&arch, budget, name);
    }
}

#[test]
fn single_queue_architecture_agrees() {
    // One queue: the LP has one block plus coupling — nothing to fan
    // out, but the engine must still answer exactly like revised.
    use socbuf::soc::{ArchitectureBuilder, FlowTarget};
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", 1.0).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), 0.7).unwrap();
    let arch = b.build().unwrap();
    assert_sizing_agreement(&arch, 12, "single queue");
}

#[test]
fn slack_budget_row_settles_at_zero_multiplier() {
    // A budget far beyond total state mass: Φ(0) already satisfies the
    // coupling row, so the search must stop after its first sweep.
    let arch = templates::amba();
    let lp = SizingLp::build(&arch, 10_000, &cfg(LpEngine::Decomposed)).unwrap();
    let report =
        assert_lp_agreement(lp.problem(), "slack budget").expect("a slack budget is feasible");
    if !report.fell_back {
        assert_eq!(report.multiplier, 0.0, "slack coupling needs no price");
        assert_eq!(report.multiplier_iterations, 1);
    }
}

#[test]
fn relaxed_budget_row_keeps_parity_with_revised() {
    // An overloaded queue at budget 1: the budget row is infeasible, the
    // pipeline drops it and retries — both engines must take that path
    // and agree on the relaxed solution.
    use socbuf::soc::{ArchitectureBuilder, FlowTarget};
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", 1.0).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), 3.0).unwrap();
    let arch = b.build().unwrap();
    let mono = size_buffers(&arch, 1, &cfg(LpEngine::Revised)).unwrap();
    let dec = size_buffers(&arch, 1, &cfg(LpEngine::Decomposed)).unwrap();
    assert!(mono.budget_row_relaxed, "test premise: relaxation fires");
    assert!(dec.budget_row_relaxed, "decomposed must relax too");
    assert!(
        (dec.predicted_loss_rate - mono.predicted_loss_rate).abs()
            <= 1e-9 * (1.0 + mono.predicted_loss_rate.abs()),
        "relaxed loss {} vs {}",
        dec.predicted_loss_rate,
        mono.predicted_loss_rate
    );
}

/// Counts the block sweeps a decomposed solve runs: each sweep hands
/// the executor one batch of block solves.
#[derive(Default)]
struct SweepCounter(AtomicUsize);

impl SolveExecutor for SweepCounter {
    fn run_indexed(&self, n: usize, job: &(dyn Fn(usize) + Sync)) {
        self.0.fetch_add(1, Ordering::Relaxed);
        (0..n).for_each(job);
    }
}

#[test]
fn a_budget_no_block_can_meet_is_infeasible_after_two_sweeps() {
    // amba at `small()` cannot hold its least expected occupancy in
    // α · 5 units. The t = 0 sweep misses the budget and the probe of
    // the blocks' least usage proves no multiplier can meet it, so the
    // monolithic path reports `Infeasible` without a multiplier search.
    let lp = SizingLp::build(&templates::amba(), 5, &cfg(LpEngine::Decomposed)).unwrap();
    let counter = Arc::new(SweepCounter::default());
    let opts = SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        executor: ExecutorHandle::new(counter.clone()),
        ..SimplexOptions::default()
    };
    let got = solve_decomposed(lp.problem(), &opts).map(|_| ());
    assert!(matches!(got, Err(LpError::Infeasible { .. })), "{got:?}");
    let sweeps = counter.0.load(Ordering::Relaxed);
    assert!(sweeps <= 2, "{sweeps} block sweeps");
}

#[test]
fn ill_conditioned_corpus_agrees_and_certifies() {
    // Rates spanning 1e-3..1e3: the decomposition must survive the
    // equilibration layer (blocks scale independently of the joint
    // form; the basis mapping is scale-invariant).
    for seed in 0..12u64 {
        let arch = templates::ill_conditioned(seed);
        let lp = SizingLp::build(&arch, 4000, &cfg(LpEngine::Decomposed)).unwrap();
        assert_lp_agreement(lp.problem(), &format!("ill_conditioned seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_architectures_agree(seed in 0usize..1000, tight in proptest::bool::ANY) {
        let arch = templates::random_architecture(seed as u64, &RandomArchParams::default());
        // Tight budgets make the coupling row bind (multiplier search
        // does real work); loose ones leave it slack (t = 0 path).
        let budget = if tight { arch.num_queues() } else { 6 * arch.num_queues() };
        assert_sizing_agreement(&arch, budget, &format!("seed {seed} budget {budget}"));
    }

    #[test]
    fn random_joint_lps_carry_certificates(seed in 0usize..1000) {
        let arch = templates::random_architecture(seed as u64, &RandomArchParams::default());
        let lp = SizingLp::build(&arch, 3 * arch.num_queues(), &cfg(LpEngine::Decomposed)).unwrap();
        assert_lp_agreement(lp.problem(), &format!("joint LP seed {seed}"));
    }
}

/// One decomposed solve, reduced to what must not move: the report's
/// block count, coupling row, multiplier sweeps and fallback flag, the
/// pivot count and the objective's bits (or the error, for an LP the
/// engines agree is unsolvable).
fn pin_line(label: &str, p: &LpProblem) -> String {
    let opts = SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 200_000,
        ..SimplexOptions::default()
    };
    match solve_decomposed(p, &opts) {
        Ok((sol, r)) => format!(
            "{label}: blocks {} coupling {:?} sweeps {} fell_back {} pivots {} obj {:#018x}",
            r.blocks,
            r.coupling_row,
            r.multiplier_iterations,
            r.fell_back,
            sol.iterations(),
            sol.objective().to_bits()
        ),
        Err(e) => format!("{label}: error {e}"),
    }
}

/// The budget-row-relaxed LP of `lp`: what `SizingLp`'s relaxation
/// solves, the budget row being the last one.
fn relaxed(lp: &SizingLp) -> LpProblem {
    let mut p = lp.problem().clone();
    p.pop_row().expect("the sizing LP has a budget row");
    p
}

/// What [`decomposed_solves_are_pinned`] must read, one [`pin_line`] per
/// case.
const DECOMPOSED_PINS: [&str; 17] = [
    "figure1: blocks 7 coupling Some(97) sweeps 1 fell_back false pivots 90 obj 0x3efb9a6ed1296e7e",
    "figure1 relaxed: blocks 7 coupling None sweeps 1 fell_back false pivots 90 obj 0x3efb9a6ed1296e7e",
    "amba: blocks 2 coupling Some(47) sweeps 1 fell_back false pivots 45 obj 0x3f5ee66f2460ba17",
    "amba relaxed: blocks 2 coupling None sweeps 1 fell_back false pivots 45 obj 0x3f5ee66f2460ba6c",
    "coreconnect: blocks 2 coupling Some(65) sweeps 1 fell_back false pivots 63 obj 0x3f23216bcdf393cd",
    "coreconnect relaxed: blocks 2 coupling None sweeps 1 fell_back false pivots 63 obj 0x3f23216bcdf3905e",
    "network_processor: blocks 6 coupling Some(258) sweeps 1 fell_back false pivots 252 obj 0x3f0a5b7bf3320af3",
    "network_processor relaxed: blocks 6 coupling None sweeps 1 fell_back false pivots 252 obj 0x3f0a5b7bf331dfba",
    "one bus: blocks 1 coupling None sweeps 0 fell_back true pivots 9 obj 0x3f89d592691b1099",
    "seed 0: blocks 1 coupling None sweeps 0 fell_back true pivots 64 obj 0x3fd4a1e91868b678",
    "seed 1: blocks 4 coupling Some(67) sweeps 1 fell_back false pivots 63 obj 0x3fac37dec62ac8b1",
    "seed 2: blocks 1 coupling None sweeps 0 fell_back true pivots 63 obj 0x3ec2dfdc91850967",
    "seed 3: blocks 1 coupling None sweeps 0 fell_back true pivots 71 obj 0x3ff0bfc766a040cf",
    "seed 4: blocks 4 coupling Some(76) sweeps 1 fell_back false pivots 72 obj 0x3f9039d2efcfc113",
    "seed 5: blocks 4 coupling Some(85) sweeps 1 fell_back false pivots 82 obj 0x3fe47874ccc2a767",
    "seed 6: blocks 4 coupling Some(58) sweeps 1 fell_back false pivots 54 obj 0x3f354da37beec2aa",
    "seed 7: blocks 4 coupling Some(94) sweeps 1 fell_back false pivots 97 obj 0x3fe5cbb00b427464",
];

#[test]
fn decomposed_solves_are_pinned() {
    let small = cfg(LpEngine::Decomposed);
    let mut lines = Vec::new();
    // The templates on a tight budget (the smallest whole budget whose
    // LP is feasible at `small()`), and each one's relaxed LP.
    for (name, arch, budget) in [
        ("figure1", templates::figure1(), 5),
        ("amba", templates::amba(), 6),
        ("coreconnect", templates::coreconnect(), 4),
        ("network_processor", templates::network_processor(), 10),
    ] {
        let lp = SizingLp::build(&arch, budget, &small).unwrap();
        lines.push(pin_line(name, lp.problem()));
        lines.push(pin_line(&format!("{name} relaxed"), &relaxed(&lp)));
    }
    // One bus: a single block, so the engine falls back.
    {
        use socbuf::soc::{ArchitectureBuilder, FlowTarget};
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Bus(bus), 0.7).unwrap();
        let lp = SizingLp::build(&b.build().unwrap(), 12, &small).unwrap();
        lines.push(pin_line("one bus", lp.problem()));
    }
    for seed in 0..8u64 {
        let arch = templates::random_architecture(seed, &RandomArchParams::default());
        let lp = SizingLp::build(&arch, 6 * arch.num_queues(), &small).unwrap();
        lines.push(pin_line(&format!("seed {seed}"), lp.problem()));
    }
    assert_eq!(lines, DECOMPOSED_PINS);
}

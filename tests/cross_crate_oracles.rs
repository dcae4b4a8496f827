//! Cross-crate consistency oracles: the same quantity computed through
//! independent code paths must agree.

use socbuf::markov::{BirthDeath, Ctmc, MM1K};
use socbuf::sim::{simulate, Arbiter, SimConfig};
use socbuf::sizing::{SizingConfig, SizingLp};
use socbuf::soc::{ArchitectureBuilder, BufferAllocation, FlowTarget};
use socbuf_ctmdp::{relative_value_iteration, solve_constrained, CtmdpBuilder};

/// One queue, four ways: closed-form M/M/1/K, birth–death chain, general
/// CTMC, and the discrete-event simulator.
#[test]
fn mm1k_four_ways() {
    let (lambda, mu, k) = (0.75, 1.0, 5usize);
    let closed = MM1K::new(lambda, mu, k).unwrap();
    let bd = BirthDeath::uniform(lambda, mu, k).unwrap();
    let ctmc: Ctmc = bd.to_ctmc();

    let pi_closed = closed.state_probabilities();
    let pi_bd = bd.stationary().unwrap();
    let pi_ctmc = ctmc.stationary().unwrap();
    for i in 0..=k {
        assert!((pi_closed[i] - pi_bd[i]).abs() < 1e-10);
        assert!((pi_closed[i] - pi_ctmc[i]).abs() < 1e-9);
    }

    // Simulation agrees within sampling error.
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", mu).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
    let arch = b.build().unwrap();
    let alloc = BufferAllocation::new(&arch, vec![k]).unwrap();
    let cfg = SimConfig {
        horizon: 50_000.0,
        warmup: 2_000.0,
        seed: 20_05,
    };
    let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
    let sim_block = r.per_queue[0].lost_full / r.per_queue[0].offered;
    assert!(
        (sim_block - closed.blocking_probability()).abs() < 0.012,
        "sim {sim_block} vs closed form {}",
        closed.blocking_probability()
    );
}

/// The sizing LP for a single full-effort queue must agree with both the
/// M/M/1/K closed form and an explicitly-built CTMDP solved by the
/// general constrained solver.
#[test]
fn sizing_lp_agrees_with_general_ctmdp() {
    let (lambda, mu) = (0.6, 1.0);
    let cap = 6usize;

    // General CTMDP: states 0..=cap, actions idle/serve, no constraint;
    // cost = loss rate λ·1[full].
    let mut b = CtmdpBuilder::new(cap + 1, 0);
    for s in 0..=cap {
        let mut arrivals = Vec::new();
        if s < cap {
            arrivals.push((s + 1, lambda));
        }
        let cost = if s == cap { lambda } else { 0.0 };
        b.add_action(s, "idle", arrivals.clone(), cost, vec![])
            .unwrap();
        if s > 0 {
            let mut t = arrivals.clone();
            t.push((s - 1, mu));
            b.add_action(s, "serve", t, cost, vec![]).unwrap();
        }
    }
    let model = b.build().unwrap();
    let general = solve_constrained(&model).unwrap();
    let vi = relative_value_iteration(&model, 1e-10, 500_000).unwrap();
    assert!((general.average_cost() - vi.average_cost).abs() < 1e-6);

    // Sizing LP on the equivalent single-queue architecture.
    let mut ab = ArchitectureBuilder::new();
    let bus = ab.add_bus("bus", mu).unwrap();
    let p = ab.add_processor("p", &[bus], 1.0).unwrap();
    ab.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
    let arch = ab.build().unwrap();
    let cfg = SizingConfig {
        state_cap: cap,
        effort_levels: 2,
        ..SizingConfig::default()
    };
    let sizing = SizingLp::build(&arch, 1000, &cfg).unwrap().solve().unwrap();

    let oracle = MM1K::new(lambda, mu, cap).unwrap();
    assert!((general.average_cost() - oracle.loss_rate()).abs() < 1e-8);
    assert!(
        (sizing.loss_rate - oracle.loss_rate()).abs() < 1e-4,
        "sizing {} vs oracle {}",
        sizing.loss_rate,
        oracle.loss_rate()
    );
}

/// The LP solver's duals must certify the CTMDP solution (KKT check via
/// the public verification API on a model built by hand).
#[test]
fn lp_certificates_hold_on_ctmdp_shaped_programs() {
    use socbuf::lp::{verify_optimality, LpProblem, Relation, Sense};
    let mut p = LpProblem::new(Sense::Minimize);
    let x0 = p.add_var("x0", 0.0);
    let x1a = p.add_var("x1a", 1.0);
    let x1b = p.add_var("x1b", 1.2);
    p.add_constraint([(x0, 0.5), (x1a, -1.0), (x1b, -2.0)], Relation::Eq, 0.0)
        .unwrap();
    p.add_constraint([(x0, 1.0), (x1a, 1.0), (x1b, 1.0)], Relation::Eq, 1.0)
        .unwrap();
    p.add_constraint([(x1b, 1.0)], Relation::Le, 0.1).unwrap();
    let sol = p.solve().unwrap();
    assert!(verify_optimality(&p, &sol, 1e-6).is_optimal());
}

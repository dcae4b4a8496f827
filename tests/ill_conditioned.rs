//! The ill-conditioned regime: rate data stated in arbitrary units.
//!
//! Every instance here comes from `templates::ill_conditioned(seed)` —
//! a fixed two-bus/bridge topology whose service and arrival rates are
//! drawn log-uniformly over `1e-3..1e3`, so a single LP mixes
//! coefficients six orders of magnitude apart. This is the regime the
//! equilibration layer exists for (ROADMAP "Numerical scaling"), and
//! the regime where both engines' strictness work (revised
//! `finish_phase_two` + θ=0 hardening, tableau recanonicalization +
//! dual repair + deactivated-row residual check) has to hold up:
//!
//! * with equilibration ON (the default) both engines must agree in
//!   status and to 1e-9 relative objective, pass the full 4-part
//!   certificate, and the measured condition estimate must drop on
//!   every instance the trigger fires for;
//! * warm-started chains must answer exactly like cold solves;
//! * with equilibration forced OFF the same corpus is demonstrably
//!   worse: pinned instances hard-fail outright — but never *lie* (no
//!   engine may return a silently violated "optimum"; that is the
//!   strictness contract this PR's satellite work closes).

use proptest::prelude::*;
use socbuf::lp::{verify_optimality, LpEngine, LpError, PreparedLp, SimplexOptions};
use socbuf::sizing::{size_buffers, SizingConfig, SizingLp, SolveContext};
use socbuf::soc::templates;

/// The sizing solve's rhs perturbation, with the engine and
/// equilibration knob explicit. Perturbation 1e-6 mirrors what the sizing pipeline
/// actually runs with, so certificates are checked at 1e-4 (comfortably
/// above perturbation dust, far below any genuine violation — the bug
/// class this suite polices produced violations of 1e-4..1e0).
fn opts(engine: LpEngine, equilibrate: bool) -> SimplexOptions {
    SimplexOptions {
        engine,
        equilibrate,
        perturbation: 1e-6,
        max_iterations: 200_000,
        ..SimplexOptions::default()
    }
}

const CERT_TOL: f64 = 1e-4;

fn cfg(state_cap: usize) -> SizingConfig {
    SizingConfig {
        state_cap,
        effort_levels: 3,
        ..SizingConfig::default()
    }
}

#[test]
fn engines_agree_and_certify_on_ill_conditioned_corpus() {
    let mut solved = 0usize;
    let mut applied = 0usize;
    for seed in 0..40u64 {
        let arch = templates::ill_conditioned(seed);
        // Budget 4000 keeps the budget row loose (the raw LP is solved
        // here, without the pipeline's relaxation retry), so overloaded
        // draws stay feasible and the corpus exercises optimality.
        let lp = SizingLp::build(&arch, 4000, &cfg(8)).unwrap();
        let p = lp.problem();
        let revised = p.solve_with(&opts(LpEngine::Revised, true));
        let tableau = p.solve_with(&opts(LpEngine::Tableau, true));
        match (revised, tableau) {
            (Ok(a), Ok(b)) => {
                solved += 1;
                assert!(
                    (a.objective() - b.objective()).abs() <= 1e-9 * (1.0 + a.objective().abs()),
                    "seed {seed}: engines disagree: revised {} vs tableau {}",
                    a.objective(),
                    b.objective()
                );
                for (name, sol) in [("revised", &a), ("tableau", &b)] {
                    let report = verify_optimality(p, sol, CERT_TOL);
                    assert!(
                        report.is_optimal(),
                        "seed {seed}: {name} failed its certificate: {report:?}"
                    );
                }
                let stats = a.scaling_stats();
                if stats.applied {
                    applied += 1;
                    assert!(
                        stats.condition_after < stats.condition_before,
                        "seed {seed}: equilibration applied but the condition estimate \
                         did not drop: {:.3e} -> {:.3e}",
                        stats.condition_before,
                        stats.condition_after
                    );
                }
            }
            (Err(LpError::Infeasible { .. }), Err(LpError::Infeasible { .. })) => {}
            (a, b) => panic!(
                "seed {seed}: statuses split: revised {:?} vs tableau {:?}",
                a.map(|s| s.objective()),
                b.map(|s| s.objective())
            ),
        }
    }
    // The corpus must genuinely exercise both the trigger and the
    // optimal path, or the assertions above are vacuous.
    assert!(solved >= 20, "only {solved} corpus instances solved");
    assert!(applied >= 10, "equilibration only applied {applied} times");
}

#[test]
fn warm_chains_match_cold_solves_on_ill_conditioned_corpus() {
    // Warm ≡ cold under scaling: a `SolveContext` chain caches the
    // equilibrated form and basis across budget retargets; every point
    // must report the same status (including the budget-relax flag) and
    // the same loss as an independent cold solve.
    for seed in 0..25u64 {
        let arch = templates::ill_conditioned(seed);
        let config = cfg(8);
        let mut ctx = SolveContext::new(&arch, &config);
        for budget in [10usize, 14, 20, 14] {
            let warm = ctx.size_buffers(budget);
            let cold = size_buffers(&arch, budget, &config);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    assert_eq!(
                        w.budget_row_relaxed, c.budget_row_relaxed,
                        "seed {seed} budget {budget}: relax flags split"
                    );
                    assert!(
                        (w.predicted_loss_rate - c.predicted_loss_rate).abs()
                            <= 1e-9 * (1.0 + c.predicted_loss_rate.abs()),
                        "seed {seed} budget {budget}: warm {} vs cold {}",
                        w.predicted_loss_rate,
                        c.predicted_loss_rate
                    );
                }
                (Err(_), Err(_)) => {}
                (w, c) => panic!(
                    "seed {seed} budget {budget}: warm_ok={} cold_ok={}",
                    w.is_ok(),
                    c.is_ok()
                ),
            }
        }
    }
}

#[test]
fn kept_basis_budget_chains_are_bitwise_fresh_warm_solves() {
    // A `PreparedLp` keeps the factor of its last optimal basis across
    // budget (rhs-only) moves. On the equilibrated corpus its warm
    // answers must equal, bit for bit, those of a fresh `PreparedLp`
    // that replays the same moves and warm-solves from the same basis.
    let options = opts(LpEngine::Revised, true);
    let (mut applied, mut shortcuts) = (0usize, 0usize);
    for seed in 0..25u64 {
        let arch = templates::ill_conditioned(seed);
        let lp = SizingLp::build(&arch, 10, &cfg(8)).unwrap();
        let budget_row = lp.problem().row_ids().last().unwrap();
        let mut chained = PreparedLp::new_with_scaling(lp.problem().clone(), true).unwrap();
        let Ok(first) = chained.solve_with(&options) else {
            continue;
        };
        applied += usize::from(first.scaling_stats().applied);
        let mut snapshot = first.basis_snapshot();
        let mut moves = Vec::new();
        for budget in [14.0, 20.0, 30.0, 12.0, 40.0, 60.0] {
            moves.push(0.5 * budget);
            chained.set_rhs(budget_row, 0.5 * budget).unwrap();
            let kept = chained.kept_basis() == Some(&snapshot);
            let mut fresh = PreparedLp::new_with_scaling(lp.problem().clone(), true).unwrap();
            for &rhs in &moves {
                fresh.set_rhs(budget_row, rhs).unwrap();
            }
            let label = format!("seed {seed} budget {budget}");
            match (
                chained.solve_warm(&options, &snapshot),
                fresh.solve_warm(&options, &snapshot),
            ) {
                (Ok(a), Ok(b)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a.values()), bits(b.values()), "{label}: values");
                    assert_eq!(a.objective().to_bits(), b.objective().to_bits(), "{label}");
                    assert_eq!(bits(a.duals()), bits(b.duals()), "{label}: duals");
                    for v in chained.problem().vars() {
                        assert_eq!(
                            a.reduced_cost(v).to_bits(),
                            b.reduced_cost(v).to_bits(),
                            "{label}: reduced cost of {v:?}"
                        );
                        assert_eq!(a.is_basic(v), b.is_basic(v), "{label}");
                    }
                    assert_eq!(a.basis_snapshot(), b.basis_snapshot(), "{label}");
                    assert_eq!(a.iterations(), b.iterations(), "{label}");
                    shortcuts += usize::from(kept && a.iterations() == 0);
                    snapshot = a.basis_snapshot();
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}"),
                (a, b) => panic!("{label}: kept {a:?} vs fresh {b:?}"),
            }
        }
    }
    assert!(applied > 0, "the corpus must exercise equilibration");
    assert!(
        shortcuts > 0,
        "the corpus must exercise the kept-basis shortcut"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form of the corpus oracle over a wider seed range:
    /// any log-uniform rate draw must leave the engines in agreement
    /// (status + 1e-9 objective) and fully certified when equilibration
    /// is on.
    #[test]
    fn any_rate_units_leave_the_engines_in_agreement(seed in 0usize..10_000) {
        let arch = templates::ill_conditioned(seed as u64);
        let lp = SizingLp::build(&arch, 4000, &cfg(8)).unwrap();
        let p = lp.problem();
        let revised = p.solve_with(&opts(LpEngine::Revised, true));
        let tableau = p.solve_with(&opts(LpEngine::Tableau, true));
        match (revised, tableau) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    (a.objective() - b.objective()).abs()
                        <= 1e-9 * (1.0 + a.objective().abs()),
                    "engines disagree: revised {} vs tableau {}",
                    a.objective(),
                    b.objective()
                );
                for (name, sol) in [("revised", &a), ("tableau", &b)] {
                    let report = verify_optimality(p, sol, CERT_TOL);
                    prop_assert!(report.is_optimal(), "{name}: {report:?}");
                }
                let stats = a.scaling_stats();
                prop_assert!(
                    !stats.applied || stats.condition_after < stats.condition_before,
                    "no condition drop: {stats:?}"
                );
            }
            (Err(LpError::Infeasible { .. }), Err(LpError::Infeasible { .. })) => {}
            (a, b) => prop_assert!(
                false,
                "statuses split: revised {:?} vs tableau {:?}",
                a.map(|s| s.objective()),
                b.map(|s| s.objective())
            ),
        }
    }

    /// Property form of the warm-vs-cold oracle: one budget retarget per
    /// case, warm answer ≡ cold answer whatever the rate units.
    #[test]
    fn any_rate_units_keep_warm_chains_equal_to_cold(seed in 0usize..10_000) {
        let arch = templates::ill_conditioned(seed as u64);
        let config = cfg(6);
        let mut ctx = SolveContext::new(&arch, &config);
        for budget in [12usize, 18] {
            let warm = ctx.size_buffers(budget);
            let cold = size_buffers(&arch, budget, &config);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    prop_assert_eq!(w.budget_row_relaxed, c.budget_row_relaxed);
                    prop_assert!(
                        (w.predicted_loss_rate - c.predicted_loss_rate).abs()
                            <= 1e-9 * (1.0 + c.predicted_loss_rate.abs()),
                        "budget {}: warm {} vs cold {}",
                        budget,
                        w.predicted_loss_rate,
                        c.predicted_loss_rate
                    );
                }
                (Err(_), Err(_)) => {}
                (w, c) => prop_assert!(
                    false,
                    "budget {}: warm_ok={} cold_ok={}",
                    budget,
                    w.is_ok(),
                    c.is_ok()
                ),
            }
        }
    }
}

/// Seed-8604-style regression for the tableau-engine strictness port
/// (ROADMAP "Tableau-engine strictness"): an instance mixing a 2.0-rate
/// arrival with a 943-rate bus at state_cap 12, where the dense
/// tableau's incrementally-updated canonical form drifts far enough
/// that — before the recanonicalization/repair port — it returned an
/// "optimum" violating two cut rows and a block normalization by
/// O(1) *while agreeing with the revised engine's objective to 1e-11*
/// (the broken block carried negligible loss weight, so only the
/// certificate could see the lie).
#[test]
fn tableau_agrees_with_revised_on_drift_prone_instance() {
    let arch = templates::ill_conditioned(19);
    let lp = SizingLp::build(&arch, 4000, &cfg(12)).unwrap();
    let p = lp.problem();
    let revised = p.solve_with(&opts(LpEngine::Revised, true)).unwrap();
    let tableau = p.solve_with(&opts(LpEngine::Tableau, true)).unwrap();
    assert!(
        (revised.objective() - tableau.objective()).abs()
            <= 1e-9 * (1.0 + revised.objective().abs()),
        "engines disagree: {} vs {}",
        revised.objective(),
        tableau.objective()
    );
    for (name, sol) in [("revised", &revised), ("tableau", &tableau)] {
        let report = verify_optimality(p, sol, CERT_TOL);
        assert!(report.is_optimal(), "{name}: {report:?}");
    }
}

/// Equilibration forced OFF is demonstrably worse on the same corpus —
/// and the strictness work means "worse" now surfaces as an honest
/// error, never a silent lie. The pinned witnesses (hunted over
/// seeds 0..150 × caps 8/12) are instances where, without scaling, an
/// engine breaks down outright — a numerically singular final basis or
/// a blown pivot budget; pre-strictness the tableau would have
/// *returned* from such a basis. With equilibration on, every witness
/// solves, certifies at 1e-4 and agrees across engines. Every engine
/// run, on or off, must either certify or refuse — returning an
/// uncertified "optimum" is the bug class this suite exists to keep
/// dead. (If solver improvements ever make all witnesses solve clean
/// unequilibrated, re-hunt and re-pin: the assertion message says so.)
#[test]
fn equilibration_off_fails_where_on_succeeds() {
    let mut off_failures = 0usize;
    for (seed, state_cap) in [(70u64, 8usize), (138, 12)] {
        let arch = templates::ill_conditioned(seed);
        let lp = SizingLp::build(&arch, 4000, &cfg(state_cap)).unwrap();
        let p = lp.problem();

        // ON: both engines solve, certify and agree.
        let on_rev = p.solve_with(&opts(LpEngine::Revised, true)).unwrap();
        let on_tab = p.solve_with(&opts(LpEngine::Tableau, true)).unwrap();
        assert!(
            (on_rev.objective() - on_tab.objective()).abs()
                <= 1e-9 * (1.0 + on_rev.objective().abs()),
            "seed {seed}: eq-on engines disagree"
        );
        for (name, sol) in [("revised", &on_rev), ("tableau", &on_tab)] {
            let report = verify_optimality(p, sol, CERT_TOL);
            assert!(report.is_optimal(), "seed {seed} eq-on {name}: {report:?}");
            assert!(
                sol.scaling_stats().applied,
                "seed {seed}: trigger must fire"
            );
        }

        // OFF: no lies allowed — each run either certifies or errors;
        // failures are counted and required below.
        for engine in [LpEngine::Revised, LpEngine::Tableau] {
            match p.solve_with(&opts(engine, false)) {
                Ok(sol) => {
                    let report = verify_optimality(p, &sol, CERT_TOL);
                    assert!(
                        report.is_optimal(),
                        "seed {seed} eq-off {engine} returned an uncertified optimum: {report:?}"
                    );
                    // Ran clean without scaling — possible for the
                    // better-conditioned engine, not counted as failure.
                }
                Err(LpError::Infeasible { .. }) => {
                    panic!("seed {seed} eq-off {engine}: spurious infeasibility")
                }
                Err(_) => off_failures += 1,
            }
        }
    }
    assert!(
        off_failures >= 1,
        "expected at least one engine to break down without equilibration \
         on the pinned seeds; the corpus may need re-pinning"
    );
}

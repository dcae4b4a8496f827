//! Warm-path oracle: the warm-started revised simplex must be a pure
//! accelerator — same statuses, same objectives (to 1e-9 relative),
//! same certificates as a cold solve — no matter what basis seeds it.
//!
//! This is the warm-start analogue of `engine_oracle.rs`: where that
//! suite pins the two *engines* against each other, this one pins the
//! two *entry paths* of the revised engine against each other across a
//! property-test corpus, plus the two structural guarantees that make
//! warm sweeps worth having:
//!
//! * seeded with the **optimal basis** of the unchanged problem, the
//!   warm solve performs **zero pivots**;
//! * seeded with an arbitrary (feasible-elsewhere, stale, or outright
//!   garbage) basis, it still agrees with the cold solve — the stale
//!   paths fall back to the cold two-phase method by construction.

use proptest::prelude::*;
use socbuf_lp::{
    verify_optimality, BasisSnapshot, LpEngine, LpError, LpProblem, LpSolution, PreparedLp,
    Relation, RowId, Sense, SimplexOptions, VarId,
};

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

fn status_of(r: Result<socbuf_lp::LpSolution, LpError>) -> Status {
    match r {
        Ok(sol) => Status::Optimal(sol.objective()),
        Err(LpError::Infeasible { .. }) => Status::Infeasible,
        Err(LpError::Unbounded { .. }) => Status::Unbounded,
        Err(e) => panic!("hard solver failure: {e}"),
    }
}

fn assert_status_agree(label: &str, warm: &Status, cold: &Status) {
    match (warm, cold) {
        (Status::Optimal(w), Status::Optimal(c)) => {
            assert!(
                (w - c).abs() <= 1e-9 * (1.0 + c.abs()),
                "{label}: objectives disagree: warm {w} vs cold {c}"
            );
        }
        _ => assert_eq!(warm, cold, "{label}: statuses disagree"),
    }
}

/// Feasible-by-construction template LPs: box-bounded variables, `≤`
/// rows with non-negative rhs (x = 0 feasible, the box bounds the
/// optimum) — the same family `engine_oracle.rs` certifies.
fn feasible_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=6, 1usize..=7).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(0.5f64..8.0, n),
            proptest::collection::vec(-3.0f64..3.0, n * m),
            proptest::collection::vec(0.0f64..10.0, m),
            proptest::bool::ANY,
        )
            .prop_map(move |(costs, ubs, coeffs, rhs, maximize)| {
                let sense = if maximize {
                    Sense::Maximize
                } else {
                    Sense::Minimize
                };
                let mut p = LpProblem::new(sense);
                let vars: Vec<_> = (0..n)
                    .map(|j| p.add_var_bounded(format!("x{j}"), costs[j], 0.0, Some(ubs[j])))
                    .collect();
                for i in 0..m {
                    let terms: Vec<_> = (0..n).map(|j| (vars[j], coeffs[i * n + j])).collect();
                    p.add_constraint(terms, Relation::Le, rhs[i]).unwrap();
                }
                p
            })
    })
}

/// Mixed-relation LPs where any of the three statuses can come up.
fn mixed_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=5, 1usize..=6).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-4.0f64..4.0, n),
            proptest::collection::vec(proptest::bool::ANY, n),
            proptest::collection::vec(-3.0f64..3.0, n * m),
            proptest::collection::vec(-6.0f64..6.0, m),
            proptest::collection::vec(0usize..3, m),
        )
            .prop_map(move |(costs, bounded, coeffs, rhs, rels)| {
                let mut p = LpProblem::new(Sense::Minimize);
                let vars: Vec<_> = (0..n)
                    .map(|j| {
                        let ub = if bounded[j] { Some(6.0) } else { None };
                        p.add_var_bounded(format!("x{j}"), costs[j], 0.0, ub)
                    })
                    .collect();
                for i in 0..m {
                    let terms: Vec<_> = (0..n).map(|j| (vars[j], coeffs[i * n + j])).collect();
                    let rel = match rels[i] {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    p.add_constraint(terms, rel, rhs[i]).unwrap();
                }
                p
            })
    })
}

/// A "random feasible basis" for `p`, manufactured the way warm chains
/// meet them in the wild: the optimal basis of a *neighboring* problem
/// (every rhs scaled by `rhs_scale`). It is a genuine simplex basis,
/// feasible for the scaled problem, and primal-infeasible or merely
/// suboptimal for the original — exactly what the dual repair has to
/// digest. `None` when the neighboring problem has no optimum to
/// export.
fn neighbor_basis(p: &LpProblem, rhs_scale: f64) -> Option<BasisSnapshot> {
    let mut scaled = LpProblem::new(p.sense());
    let vars: Vec<_> = p
        .vars()
        .map(|v| {
            let (lo, up) = p.bounds(v);
            scaled.add_var_bounded(p.var_name(v).to_string(), p.objective_coeff(v), lo, up)
        })
        .collect();
    for r in p.row_ids() {
        let (terms, rel, rhs) = p.row(r);
        let terms: Vec<_> = terms
            .into_iter()
            .map(|(v, c)| (vars[v.index()], c))
            .collect();
        scaled.add_constraint(terms, rel, rhs * rhs_scale).unwrap();
    }
    scaled.solve().ok().map(|sol| sol.basis_snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Re-solving an unchanged feasible LP from its own optimal basis
    /// is free: zero pivots, identical answers, full certificate.
    #[test]
    fn optimal_basis_resolves_in_zero_pivots(p in feasible_lp()) {
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        let warm = prepared.solve_warm(&opts, &cold.basis_snapshot()).unwrap();
        prop_assert_eq!(warm.iterations(), 0, "warm re-solve pivoted");
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs())
        );
        let report = verify_optimality(prepared.problem(), &warm, 1e-5);
        prop_assert!(report.is_optimal(), "certificate failed: {report:?}");
    }

    /// Seeded with a feasible-for-a-neighbor basis (the warm-chain
    /// case), the warm solve agrees with cold in status and objective
    /// and its solution passes the full 4-part certificate.
    #[test]
    fn neighbor_basis_agrees_with_cold(
        p in feasible_lp(),
        scale_sel in 0usize..4,
    ) {
        let scale = [0.25, 0.5, 2.0, 4.0][scale_sel];
        let Some(snapshot) = neighbor_basis(&p, scale) else { return };
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        let cold = prepared.solve_with(&opts).unwrap();
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", warm.objective(), cold.objective()
        );
        let report = verify_optimality(prepared.problem(), &warm, 1e-5);
        prop_assert!(report.is_optimal(), "certificate failed: {report:?}");
    }

    /// Garbage snapshots — wrong shape, shuffled/duplicated columns,
    /// all-redundant markers — must route to the cold fallback and
    /// change nothing about the answer.
    #[test]
    fn garbage_snapshots_fall_back_to_cold(
        p in feasible_lp(),
        kind in 0usize..4,
        offset in 0usize..7,
    ) {
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        let good = cold.basis_snapshot();
        let (m, cols) = (good.num_rows(), good.num_cols());
        let snapshot = match kind {
            0 => BasisSnapshot::new(vec![0; m + 1], cols, LpEngine::Revised),
            1 => BasisSnapshot::new(vec![offset % cols.max(1); m], cols, LpEngine::Revised),
            2 => BasisSnapshot::new(
                (0..m).map(|i| (i * 31 + offset) % (cols + m)).collect(),
                cols,
                LpEngine::Revised,
            ),
            _ => BasisSnapshot::new(vec![usize::MAX; m], cols, LpEngine::Revised),
        };
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", warm.objective(), cold.objective()
        );
    }

    /// On the anything-goes corpus the warm path must reproduce cold's
    /// *status* exactly — an infeasible or unbounded problem must not
    /// become "optimal" because a stale basis short-circuited a phase.
    #[test]
    fn warm_statuses_agree_on_mixed_lps(
        p in mixed_lp(),
        scale_sel in 0usize..3,
    ) {
        let scale = [0.5, 1.0, 3.0][scale_sel];
        let snapshot = neighbor_basis(&p, scale);
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = status_of(prepared.solve_with(&opts));
        let warm = match &snapshot {
            Some(s) => status_of(prepared.solve_warm(&opts, s)),
            None => return,
        };
        assert_status_agree("mixed corpus", &warm, &cold);
    }
}

// ---------------------------------------------------------------------
// Kept-basis shortcut: a `PreparedLp` that still holds the factor of its
// last optimal basis must answer a warm solve bitwise like a fresh
// `PreparedLp` warm-solving the same problem from the same snapshot
// (which has nothing kept and runs the full warm path).
// ---------------------------------------------------------------------

/// One in-place delta, replayed identically on both sides.
#[derive(Debug, Clone)]
enum Delta {
    Rhs(RowId, f64),
    Coeffs(RowId, Vec<(VarId, f64)>),
    Cost(VarId, f64),
}

fn apply(prepared: &mut PreparedLp, delta: &Delta) {
    match delta {
        Delta::Rhs(r, v) => prepared.set_rhs(*r, *v).unwrap(),
        Delta::Coeffs(r, terms) => prepared.set_row_coeffs(*r, terms).unwrap(),
        Delta::Cost(v, c) => prepared.set_objective_coeff(*v, *c).unwrap(),
    }
}

/// Field-by-field bit equality of two solutions of the same problem.
fn assert_bitwise(label: &str, p: &LpProblem, a: &LpSolution, b: &LpSolution) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.values()), bits(b.values()), "{label}: values");
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "{label}: objective"
    );
    assert_eq!(bits(a.duals()), bits(b.duals()), "{label}: duals");
    let reduced = |s: &LpSolution| {
        p.vars()
            .map(|v| s.reduced_cost(v).to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(reduced(a), reduced(b), "{label}: reduced costs");
    let basic = |s: &LpSolution| p.vars().map(|v| s.is_basic(v)).collect::<Vec<_>>();
    assert_eq!(basic(a), basic(b), "{label}: basic flags");
    assert_eq!(a.basis_snapshot(), b.basis_snapshot(), "{label}: snapshot");
    assert_eq!(a.iterations(), b.iterations(), "{label}: pivots");
}

/// How a chained warm solve was answered.
#[derive(Debug, Default)]
struct Paths {
    /// Zero pivots from the kept basis: the rhs-only shortcut.
    kept: usize,
    /// Pivots taken: the shortcut's checks failed and the full warm
    /// path (dual repair, or the cold fallback) ran.
    fell_through: usize,
}

/// Solves `p` cold, then applies `deltas` one at a time, warm-solving
/// after each from the previous answer's basis. Every warm answer is
/// compared bitwise with a fresh `PreparedLp` that replays the same
/// deltas and warm-solves from the same snapshot. Solver errors must
/// agree too (both sides then ran the same full path).
fn check_chain(p: &LpProblem, deltas: &[Delta], opts: &SimplexOptions) -> Paths {
    let mut paths = Paths::default();
    let mut chained = PreparedLp::new(p.clone()).unwrap();
    let Ok(first) = chained.solve_with(opts) else {
        return paths;
    };
    assert_eq!(chained.kept_basis(), Some(&first.basis_snapshot()));
    let mut snapshot = first.basis_snapshot();
    for (k, delta) in deltas.iter().enumerate() {
        apply(&mut chained, delta);
        if !matches!(delta, Delta::Rhs(..)) {
            assert!(
                chained.kept_basis().is_none(),
                "a coefficient delta must drop the kept basis"
            );
        }
        let kept = chained.kept_basis() == Some(&snapshot);
        let mut fresh = PreparedLp::new(p.clone()).unwrap();
        for d in &deltas[..=k] {
            apply(&mut fresh, d);
        }
        let label = format!("step {k} ({delta:?})");
        match (
            chained.solve_warm(opts, &snapshot),
            fresh.solve_warm(opts, &snapshot),
        ) {
            (Ok(a), Ok(b)) => {
                assert_bitwise(&label, chained.problem(), &a, &b);
                if kept && a.iterations() == 0 {
                    paths.kept += 1;
                } else if a.iterations() > 0 {
                    paths.fell_through += 1;
                }
                snapshot = a.basis_snapshot();
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}"),
            (a, b) => panic!("{label}: kept {a:?} vs fresh {b:?}"),
        }
    }
    paths
}

/// Feasible LPs with a duplicated equality row, so the optimal basis
/// parks one copy as redundant (`usize::MAX` in the snapshot). Costs
/// are non-negative and bounded variables keep the optimum finite.
fn redundant_lp() -> impl Strategy<Value = (LpProblem, Vec<RowId>)> {
    (2usize..=4).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.0f64..4.0, n),
            proptest::collection::vec(0.5f64..2.0, n),
            proptest::collection::vec(0.0f64..3.0, n),
            1.0f64..4.0,
        )
            .prop_map(move |(costs, eq, le, t)| {
                let mut p = LpProblem::new(Sense::Minimize);
                let vars: Vec<_> = (0..n)
                    .map(|j| p.add_var_bounded(format!("x{j}"), costs[j], 0.0, Some(10.0)))
                    .collect();
                let eq_terms: Vec<_> = vars.iter().zip(&eq).map(|(&v, &c)| (v, c)).collect();
                let a = p.add_constraint(eq_terms.clone(), Relation::Eq, t).unwrap();
                let b = p.add_constraint(eq_terms, Relation::Eq, t).unwrap();
                let le_terms: Vec<_> = vars.iter().zip(&le).map(|(&v, &c)| (v, c)).collect();
                let c = p.add_constraint(le_terms, Relation::Le, 20.0).unwrap();
                (p, vec![a, b, c])
            })
    })
}

/// Wyndor (max 3x + 5y; x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18).
fn wyndor() -> (LpProblem, Vec<VarId>, Vec<RowId>) {
    let mut p = LpProblem::new(Sense::Maximize);
    let x = p.add_var("x", 3.0);
    let y = p.add_var("y", 5.0);
    let r0 = p.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
    let r1 = p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
    let r2 = p
        .add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
        .unwrap();
    (p, vec![x, y], vec![r0, r1, r2])
}

#[test]
fn kept_basis_takes_the_shortcut_and_falls_through_on_tightening() {
    // Loosening keeps the optimal basis feasible (shortcut); tightening
    // below the current usage forces a dual repair (fall-through).
    let (p, _, rows) = wyndor();
    let deltas: Vec<Delta> = [24.0, 30.0, 12.0, 6.0, 9.0, 18.0]
        .into_iter()
        .map(|v| Delta::Rhs(rows[2], v))
        .collect();
    let paths = check_chain(&p, &deltas, &SimplexOptions::default());
    assert!(paths.kept >= 2, "{paths:?}");
    assert!(paths.fell_through >= 1, "{paths:?}");
}

#[test]
fn redundant_rows_take_the_shortcut() {
    let mut p = LpProblem::new(Sense::Minimize);
    let x = p.add_var_bounded("x", 1.0, 0.0, Some(10.0));
    let y = p.add_var_bounded("y", 3.0, 0.0, Some(10.0));
    let a = p
        .add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
        .unwrap();
    let b = p
        .add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
        .unwrap();
    let first = PreparedLp::new(p.clone())
        .unwrap()
        .solve_with(&SimplexOptions::default())
        .unwrap();
    assert!(
        first.basis_snapshot().rows().contains(&usize::MAX),
        "the duplicate row must be parked as redundant"
    );
    let deltas: Vec<Delta> = [3.0, 5.0, 4.0]
        .into_iter()
        .flat_map(|t| [Delta::Rhs(a, t), Delta::Rhs(b, t)])
        .collect();
    let paths = check_chain(&p, &deltas, &SimplexOptions::default());
    assert!(paths.kept >= 1, "{paths:?}");
}

#[test]
fn coefficient_and_cost_deltas_drop_the_kept_basis() {
    let (p, vars, rows) = wyndor();
    let deltas = vec![
        Delta::Rhs(rows[2], 24.0),
        Delta::Coeffs(rows[2], vec![(vars[0], 2.0), (vars[1], 2.0)]),
        Delta::Rhs(rows[2], 20.0),
        Delta::Cost(vars[0], 8.0),
        Delta::Rhs(rows[0], 6.0),
    ];
    check_chain(&p, &deltas, &SimplexOptions::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chains of rhs moves, loosening and tightening (which forces the
    /// dual repair), under the perturbation the sizing pipeline uses.
    #[test]
    fn kept_basis_rhs_chains_are_bitwise_fresh_warm_solves(
        p in feasible_lp(),
        moves in proptest::collection::vec((0usize..7, 0.0f64..3.0), 6),
        perturb in proptest::bool::ANY,
    ) {
        let rows: Vec<RowId> = p.row_ids().collect();
        let deltas: Vec<Delta> = moves
            .iter()
            .map(|&(k, scale)| {
                let r = rows[k % rows.len()];
                Delta::Rhs(r, p.row(r).2 * scale)
            })
            .collect();
        let opts = SimplexOptions {
            perturbation: if perturb { 1e-6 } else { 0.0 },
            ..SimplexOptions::default()
        };
        check_chain(&p, &deltas, &opts);
    }

    /// Redundant rows: both copies of the duplicated equality move
    /// together, the inequality moves on its own.
    #[test]
    fn kept_basis_chains_with_redundant_rows(
        (p, rows) in redundant_lp(),
        moves in proptest::collection::vec((0usize..2, 0.5f64..4.0), 5),
    ) {
        let deltas: Vec<Delta> = moves
            .iter()
            .flat_map(|&(k, v)| match k {
                0 => vec![Delta::Rhs(rows[0], v), Delta::Rhs(rows[1], v)],
                _ => vec![Delta::Rhs(rows[2], 5.0 * v)],
            })
            .collect();
        check_chain(&p, &deltas, &SimplexOptions::default());
    }

    /// A coefficient or cost delta after a kept solve drops the basis;
    /// the chain then re-keeps from its next solve.
    #[test]
    fn kept_basis_survives_only_rhs_deltas(
        p in feasible_lp(),
        cost in -5.0f64..5.0,
        factor in 0.5f64..2.0,
        rhs_scale in 0.5f64..2.0,
        which in 0usize..2,
    ) {
        let rows: Vec<RowId> = p.row_ids().collect();
        let v = p.vars().next().unwrap();
        let (terms, _, rhs) = p.row(rows[0]);
        let coeff_delta = match which {
            0 => Delta::Cost(v, cost),
            _ => Delta::Coeffs(
                rows[0],
                terms.iter().map(|&(v, c)| (v, c * factor)).collect(),
            ),
        };
        let deltas = vec![
            Delta::Rhs(rows[0], rhs * rhs_scale),
            coeff_delta,
            Delta::Rhs(rows[0], rhs),
        ];
        check_chain(&p, &deltas, &SimplexOptions::default());
    }
}

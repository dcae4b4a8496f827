//! Dual recovery on the engine's factor is bitwise dual recovery from
//! scratch.
//!
//! A solution's duals solve `Bᵀ y = c_B` under the dense LU kernel's
//! pivot rule. When every row is active, that elimination resumes
//! after the pivots the revised engine's own final factor shares with
//! it, and usually runs not at all. Over a corpus of the paper's sizing
//! LPs, every solution's duals and reduced costs must equal, `to_bits`,
//! a recovery with the engine's factor withheld
//! ([`PreparedLp::audit_dual_recovery`]). The corpus:
//!
//! * the four templates at `SizingConfig::small()` and `default()`,
//!   budgets 160, 320 and 640, solved cold;
//! * a 32-point warm load chain on figure1 at `small()`, each point
//!   rewriting the previous one's coefficients in place and re-solving
//!   from its basis;
//! * 200 random architectures at `small()`, budget 8 × queues, solved
//!   cold (3 of them cannot hold that budget and are skipped).
//!
//! The shared prefix must cover the whole factor in at least 90 % of
//! the random solves, so a change that stops the resume from firing
//! fails here rather than passing silently.

use socbuf_core::{SizingConfig, SizingLp};
use socbuf_lp::{LpProblem, LpSolution, PreparedLp, SimplexOptions};
use socbuf_soc::templates::{self, random_architecture, RandomArchParams};
use socbuf_soc::Architecture;

/// The simplex options every sizing solve runs with, on which every
/// corpus LP solves.
fn sizing_options(config: &SizingConfig) -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        equilibrate: config.equilibrate,
        ..SimplexOptions::default()
    }
}

fn sizing_lp(arch: &Architecture, budget: usize, config: &SizingConfig) -> LpProblem {
    SizingLp::build(arch, budget, config)
        .expect("corpus LP builds")
        .problem()
        .clone()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Checks `sol`, the solve `prepared` just kept, against a recovery
/// from scratch and returns the prefix its recovery shared and the
/// basis dimension.
fn audit(prepared: &PreparedLp, sol: &LpSolution, label: &str) -> (usize, usize) {
    let audit = prepared
        .audit_dual_recovery()
        .unwrap_or_else(|e| panic!("{label}: recovery from scratch failed: {e}"))
        .unwrap_or_else(|| panic!("{label}: the solve kept no factor"));
    assert_eq!(bits(sol.duals()), bits(&audit.duals), "{label}: duals");
    let reduced: Vec<f64> = prepared
        .problem()
        .vars()
        .map(|v| sol.reduced_cost(v))
        .collect();
    assert_eq!(
        bits(&reduced),
        bits(&audit.reduced),
        "{label}: reduced costs"
    );
    (audit.shared, audit.dim)
}

/// Solves `p` cold; `None` when the solve fails. On this corpus that is
/// a budget the LP cannot hold (the sizing pipeline then drops the
/// budget row) or the singular final basis `lp_sensitivity_goldens`
/// pins.
fn cold(p: LpProblem, config: &SizingConfig, label: &str) -> Option<(usize, usize)> {
    let mut prepared = PreparedLp::new_with_scaling(p, config.equilibrate).expect("assembles");
    let sol = prepared.solve_with(&sizing_options(config)).ok()?;
    Some(audit(&prepared, &sol, label))
}

#[test]
fn template_duals_on_the_engine_factor_are_bitwise_from_scratch() {
    let arches = [
        ("figure1", templates::figure1()),
        ("network_processor", templates::network_processor()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ];
    let mut audited = 0;
    for (config_name, config) in [
        ("small", SizingConfig::small()),
        ("default", SizingConfig::default()),
    ] {
        for (name, arch) in &arches {
            for budget in [160, 320, 640] {
                let label = format!("{name}/{config_name}/{budget}");
                if let Some((shared, dim)) = cold(sizing_lp(arch, budget, &config), &config, &label)
                {
                    println!("{label}: shared {shared} of {dim}");
                    audited += 1;
                }
            }
        }
    }
    assert!(
        audited >= 20,
        "only {audited} of 24 template solves audited"
    );
}

#[test]
fn a_figure1_load_chain_recovers_duals_bitwise_on_each_factor() {
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let build = |factor: f64| sizing_lp(&arch.scale_rates(factor, 1.0).unwrap(), 22, &config);
    let opts = sizing_options(&config);
    let mut prepared = PreparedLp::new_with_scaling(build(0.5), config.equilibrate).unwrap();
    let first = prepared.solve_with(&opts).unwrap();
    let mut basis = first.basis_snapshot();
    let mut shares = vec![audit(&prepared, &first, "load 0.5")];
    for k in 1..32 {
        let factor = 0.5 + 0.025 * k as f64;
        let target = build(factor);
        for r in target.row_ids() {
            let (terms, _, _) = target.row(r);
            if terms != prepared.problem().row(r).0 {
                prepared.set_row_coeffs(r, &terms).unwrap();
            }
        }
        for v in target.vars() {
            let c = target.objective_coeff(v);
            if c.to_bits() != prepared.problem().objective_coeff(v).to_bits() {
                prepared.set_objective_coeff(v, c).unwrap();
            }
        }
        let sol = prepared.solve_warm(&opts, &basis).unwrap();
        shares.push(audit(&prepared, &sol, &format!("load {factor}")));
        basis = sol.basis_snapshot();
    }
    let full = shares.iter().filter(|(shared, dim)| shared == dim).count();
    let (shared, total) = shares
        .iter()
        .fold((0, 0), |(s, t), (shared, dim)| (s + shared, t + dim));
    println!(
        "figure1 small() load chain: {full} of {} points share the whole factor, {:.1} % of \
         columns shared; per point: {:?}",
        shares.len(),
        100.0 * shared as f64 / total as f64,
        shares.iter().map(|(s, _)| s).collect::<Vec<_>>()
    );
}

#[test]
fn random_architectures_mostly_share_the_whole_factor() {
    let config = SizingConfig::small();
    let params = RandomArchParams::default();
    let (mut solved, mut full) = (0, 0);
    for seed in 0..200u64 {
        let arch = random_architecture(seed, &params);
        let budget = 8 * arch.num_queues();
        let label = format!("seed {seed}");
        if let Some((shared, dim)) = cold(sizing_lp(&arch, budget, &config), &config, &label) {
            solved += 1;
            full += usize::from(shared == dim);
        }
    }
    println!("random architectures: {full} of {solved} solves share the whole factor");
    assert!(
        solved >= 190,
        "only {solved} of 200 random architectures solved"
    );
    assert!(
        10 * full >= 9 * solved,
        "only {full} of {solved} solves shared the whole factor (need >= 90 %)"
    );
}

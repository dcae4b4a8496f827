//! Bit pins for the LP's sensitivity output.
//!
//! The rendered sizing bytes carry only two kinds of dual: the budget
//! row's shadow price and the per-bus prices. Every other row dual and
//! every reduced cost would be free to drift without these pins. Each
//! pin is the FNV-1a hash of one solution's `to_bits`: its `values()`,
//! then its `duals()`, then `reduced_cost` of every variable, each in
//! creation order. The solves:
//!
//! * cold `LpProblem::solve_with` on the sizing LP of the four
//!   templates at `SizingConfig::small()` and `SizingConfig::default()`,
//!   budget 2 × queues, under the revised and decomposed engines;
//! * the same for three `random_architecture` seeds at `small()`;
//! * a `PreparedLp` warm load chain on figure1 at `small()`, budget 22:
//!   each point copies the rebuilt LP's cut-row coefficients and loss
//!   costs in place and re-solves from the previous point's basis.
//!
//! A solve that fails is pinned by the hash of its error message. One
//! does: `network_processor` at `default()` on the revised engine ends
//! on a basis the dual recovery finds singular, and the message names
//! the pivot column where the factorization gave up.

use socbuf::lp::{LpEngine, LpProblem, LpSolution, PreparedLp, SimplexOptions};
use socbuf::sizing::wire::fnv1a_64;
use socbuf::sizing::{SizingConfig, SizingLp};
use socbuf::soc::templates::{self, random_architecture, RandomArchParams};
use socbuf::soc::Architecture;

/// FNV-1a of the solution's primal values, duals and reduced costs.
fn fingerprint(p: &LpProblem, sol: &LpSolution) -> u64 {
    let reduced = p.vars().map(|v| sol.reduced_cost(v));
    let bits: Vec<u8> = sol
        .values()
        .iter()
        .chain(sol.duals())
        .copied()
        .chain(reduced)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a_64(&bits)
}

fn options(engine: LpEngine) -> SimplexOptions {
    SimplexOptions {
        engine,
        ..SimplexOptions::default()
    }
}

fn sizing_lp(arch: &Architecture, config: &SizingConfig) -> LpProblem {
    SizingLp::build(arch, 2 * arch.num_queues(), config)
        .unwrap()
        .problem()
        .clone()
}

fn four_templates() -> [(&'static str, Architecture); 4] {
    [
        ("figure1", templates::figure1()),
        ("network_processor", templates::network_processor()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ]
}

/// Asserts every fingerprint, reporting all of them on a mismatch so a
/// drift reads at a glance.
fn check(got: Vec<(String, u64)>, want: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = want.iter().map(|(n, f)| (n.to_string(), *f)).collect();
    assert_eq!(got, want, "LP sensitivity bits drifted");
}

fn cold_pins(arches: &[(String, Architecture)], config: &SizingConfig) -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for (name, arch) in arches {
        let p = sizing_lp(arch, config);
        for engine in [LpEngine::Revised, LpEngine::Decomposed] {
            let pin = match p.solve_with(&options(engine)) {
                Ok(sol) => fingerprint(&p, &sol),
                Err(e) => fnv1a_64(e.to_string().as_bytes()),
            };
            got.push((format!("{name}/{engine:?}"), pin));
        }
    }
    got
}

fn templates_named() -> Vec<(String, Architecture)> {
    four_templates()
        .into_iter()
        .map(|(n, a)| (n.to_string(), a))
        .collect()
}

#[test]
fn cold_template_solves_at_small_are_pinned() {
    check(
        cold_pins(&templates_named(), &SizingConfig::small()),
        &[
            ("figure1/Revised", 14490951311325220441),
            ("figure1/Decomposed", 14490951311325220441),
            ("network_processor/Revised", 4883117289779811697),
            ("network_processor/Decomposed", 4883117289779811697),
            ("amba/Revised", 17064873201685156060),
            ("amba/Decomposed", 17064873201685156060),
            ("coreconnect/Revised", 1236531632493887965),
            ("coreconnect/Decomposed", 1236531632493887965),
        ],
    );
}

#[test]
fn cold_template_solves_at_default_are_pinned() {
    check(
        cold_pins(&templates_named(), &SizingConfig::default()),
        &[
            ("figure1/Revised", 16889826143123885702),
            ("figure1/Decomposed", 14513317505508083292),
            ("network_processor/Revised", 291339481776308929),
            ("network_processor/Decomposed", 11511183542575098413),
            ("amba/Revised", 8406576913785950472),
            ("amba/Decomposed", 8406576913785950472),
            ("coreconnect/Revised", 2015014461709718067),
            ("coreconnect/Decomposed", 2015014461709718067),
        ],
    );
}

#[test]
fn cold_random_architecture_solves_are_pinned() {
    let arches: Vec<(String, Architecture)> = [1u64, 17, 101]
        .iter()
        .map(|&s| {
            let arch = random_architecture(s, &RandomArchParams::default());
            (format!("seed{s}"), arch)
        })
        .collect();
    check(
        cold_pins(&arches, &SizingConfig::small()),
        &[
            ("seed1/Revised", 17704447638079981346),
            ("seed1/Decomposed", 17704447638079981346),
            ("seed17/Revised", 4269689774692549225),
            ("seed17/Decomposed", 4269689774692549225),
            ("seed101/Revised", 5437279099009483430),
            ("seed101/Decomposed", 5437279099009483430),
        ],
    );
}

#[test]
fn figure1_warm_load_chain_is_pinned() {
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let build = |factor: f64| {
        SizingLp::build(&arch.scale_rates(factor, 1.0).unwrap(), 22, &config)
            .unwrap()
            .problem()
            .clone()
    };
    let opts = options(LpEngine::Revised);
    let mut prepared = PreparedLp::new(build(1.0)).unwrap();
    let first = prepared.solve_with(&opts).unwrap();
    let mut got = vec![("1".to_string(), fingerprint(prepared.problem(), &first))];
    let mut basis = first.basis_snapshot();
    for factor in [1.25, 0.8, 1.5, 1.1, 0.6, 1.9] {
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
        got.push((factor.to_string(), fingerprint(prepared.problem(), &sol)));
        basis = sol.basis_snapshot();
    }
    check(
        got,
        &[
            ("1", 17300800168408972310),
            ("1.25", 12366245330904629718),
            ("0.8", 10748636242831865778),
            ("1.5", 6767102489134590314),
            ("1.1", 2724786805526044706),
            ("0.6", 1911062488057648852),
            ("1.9", 16729807873603090865),
        ],
    );
}

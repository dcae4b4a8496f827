//! Byte pins for sizing points whose budget row is relaxed.
//!
//! When `Σ E[occupancy] ≤ α·budget` is unattainable the sizing LP drops
//! its budget row and solves again; the translation step still enforces
//! the integer budget. No benchmark workload reaches that path, so these
//! pins are its only byte-level check. Each pin covers one sizing point:
//! the FNV-1a hash of its `sizing_outcome_semantic_json` rendering, its
//! pivot count and the engine that solved it. The allocation and the
//! relaxation flag are pinned in the clear so a failure reads at a
//! glance. Both engines that warm-start a chain are covered:
//!
//! * a cold point: the overloaded single queue at budget 1;
//! * a budget chain `[40, 1, 40]` on the same queue, whose middle point
//!   relaxes between two warm-chained feasible points;
//! * a load chain on `amba` at budget 8, factors `[1, 2, 1]`, whose
//!   middle point relaxes.

use socbuf::lp::LpEngine;
use socbuf::sizing::wire::{fnv1a_64, sizing_outcome_semantic_json};
use socbuf::sizing::{size_buffers, SizingConfig, SizingOutcome, SolveContext};
use socbuf::soc::{templates, Architecture, ArchitectureBuilder, FlowTarget};

/// One pinned sizing point.
#[derive(Debug, PartialEq)]
struct Pin {
    relaxed: bool,
    allocation: Vec<usize>,
    lp_iterations: usize,
    lp_engine: LpEngine,
    json_fnv: u64,
}

fn pin(o: &SizingOutcome) -> Pin {
    Pin {
        relaxed: o.budget_row_relaxed,
        allocation: o.allocation.as_slice().to_vec(),
        lp_iterations: o.lp_iterations,
        lp_engine: o.lp_engine,
        json_fnv: fnv1a_64(sizing_outcome_semantic_json(o).as_bytes()),
    }
}

fn config(engine: LpEngine) -> SizingConfig {
    SizingConfig {
        engine,
        ..SizingConfig::small()
    }
}

/// One processor offering λ = 3 to a bus of rate 1: at budget 1 no
/// service policy keeps `E[n] ≤ α` (ρ = 3).
fn overloaded_queue() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus("bus", 1.0).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    b.add_flow(p, FlowTarget::Bus(bus), 3.0).unwrap();
    b.build().unwrap()
}

fn cold_point(engine: LpEngine) -> Vec<Pin> {
    let out = size_buffers(&overloaded_queue(), 1, &config(engine)).unwrap();
    vec![pin(&out)]
}

fn budget_chain(engine: LpEngine) -> Vec<Pin> {
    let mut ctx = SolveContext::new(&overloaded_queue(), &config(engine));
    [40, 1, 40]
        .into_iter()
        .map(|budget| pin(&ctx.size_buffers(budget).unwrap()))
        .collect()
}

fn load_chain(engine: LpEngine) -> Vec<Pin> {
    let arch = templates::amba();
    let mut ctx = SolveContext::new(&arch, &config(engine));
    [1.0, 2.0, 1.0]
        .into_iter()
        .map(|factor| {
            let scaled = arch.scale_rates(factor, 1.0).unwrap();
            pin(&ctx.size_buffers_scaled(&scaled, factor, 8).unwrap())
        })
        .collect()
}

fn check(name: &str, got: Vec<Pin>, want: Vec<Pin>) {
    assert_eq!(got, want, "{name}: relaxed-point pins drifted");
}

fn p(
    relaxed: bool,
    allocation: &[usize],
    lp_iterations: usize,
    lp_engine: LpEngine,
    json_fnv: u64,
) -> Pin {
    Pin {
        relaxed,
        allocation: allocation.to_vec(),
        lp_iterations,
        lp_engine,
        json_fnv,
    }
}

#[test]
fn revised_relaxed_points_are_pinned() {
    use LpEngine::Revised as E;
    let (feasible_40, relaxed_1) = (10070213904236732473, 4729369271647056374);
    check("cold", cold_point(E), vec![p(true, &[1], 9, E, relaxed_1)]);
    check(
        "budget chain",
        budget_chain(E),
        vec![
            p(false, &[40], 9, E, feasible_40),
            p(true, &[1], 9, E, relaxed_1),
            p(false, &[40], 0, E, feasible_40),
        ],
    );
    let (nominal, doubled) = (16537258353076199537, 6893623114608321622);
    check(
        "load chain",
        load_chain(E),
        vec![
            p(false, &[2, 2, 2, 1, 1], 45, E, nominal),
            p(true, &[2, 2, 2, 1, 1], 47, E, doubled),
            p(false, &[2, 2, 2, 1, 1], 0, E, nominal),
        ],
    );
}

#[test]
fn decomposed_relaxed_points_are_pinned() {
    use LpEngine::Decomposed as E;
    let (feasible_40, relaxed_1) = (2144183460040367628, 17200959974799536281);
    check("cold", cold_point(E), vec![p(true, &[1], 9, E, relaxed_1)]);
    check(
        "budget chain",
        budget_chain(E),
        vec![
            p(false, &[40], 9, E, feasible_40),
            p(true, &[1], 9, E, relaxed_1),
            p(false, &[40], 0, E, feasible_40),
        ],
    );
    let (nominal, doubled) = (3333995779473307912, 5415763115536560253);
    check(
        "load chain",
        load_chain(E),
        vec![
            p(false, &[2, 2, 2, 1, 1], 45, E, nominal),
            p(true, &[2, 2, 2, 1, 1], 47, E, doubled),
            p(false, &[2, 2, 2, 1, 1], 0, E, nominal),
        ],
    );
}

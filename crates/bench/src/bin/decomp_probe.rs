//! Developer probe for the block-angular decomposition engine: the
//! 32-queue / `state_cap = 64` sizing LP solved monolithically, with
//! the serial decomposed engine, and with the decomposed engine fanning
//! its block solves over a machine-sized [`WorkPool`].
//!
//! `--smoke` runs the CI gate. Every gate is an identity or a count, so
//! it gives the same verdict on any host:
//!
//! * **agreement** — the decomposed solve must match the monolithic
//!   revised objective to 1e-9 relative, must actually exploit the
//!   structure the sizing LP declares (no monolithic fallback; one
//!   block per bus, `BUSES` in all; the budget row, the LP's last, as
//!   the coupling row) and must price the coupling row with a genuinely
//!   bound multiplier search on this tight budget;
//! * **work** — the monolithic revised solve takes exactly
//!   [`MONO_PIVOTS`] pivots and the multiplier search exactly
//!   [`MULTIPLIER_ITERATIONS`] block sweeps. The blocks are 8
//!   independent LPs of ~1/8 the joint size and simplex cost grows
//!   superlinearly in the basis dimension, which is why the pooled
//!   decomposed solve ran 1.5-5x faster than the monolithic one.
//!
//! Without a flag the probe prints the three solves' wall times and the
//! monolithic vs pooled decomposed ratio over [`probe::RATIO_PAIRS`]
//! alternated pairs. `--json` additionally writes that ratio's median
//! and quartiles, with the instance's counts, to `BENCH_decomp.json`
//! (schema documented in `socbuf_bench`'s crate docs) so perf can be
//! tracked across commits. Only this full mode writes the file.

use socbuf_bench::probe::{self, alternated_ratio, best_of, ratio, Gate, OrExit, Spread};
use socbuf_core::{ExecutorHandle, SizingConfig, SizingLp};
use socbuf_lp::{solve_decomposed, LpEngine, LpProblem, SimplexOptions};
use socbuf_soc::{Architecture, ArchitectureBuilder, FlowTarget};
use socbuf_sweep::WorkPool;
use std::sync::Arc;
use std::time::Duration;

/// CTMDP granularity of the probe instance. 64 occupancy states per
/// queue makes each block LP big enough that block-level parallelism
/// has real work to hide.
const STATE_CAP: usize = 64;

/// Eight shared buses with four processors each: the per-bus effort
/// rows are contested (which is what makes buffer mass trade against
/// loss), stay inside their block, and leave the budget row as the only
/// coupling — the decomposition splits the joint LP into exactly
/// `BUSES` blocks over `QUEUES` queues.
const BUSES: usize = 8;
const QUEUES: usize = 4 * BUSES;

/// Tight enough that `Φ(0)` overshoots the budget row and the
/// multiplier search does real bracketing/bisection work (the
/// loss-optimal occupancy mass of this instance sits well above
/// `48·α`), while staying clear of the infeasibility edge near 36.
const BUDGET: usize = 48;

/// The probe architecture: 32 queues over 8 contested buses, with
/// deterministic per-queue loads spread over 0.19..0.29 (bus
/// utilizations ≈ 0.95) so no two blocks are identical.
fn probe_arch() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    for i in 0..BUSES {
        let bus = b.add_bus(format!("bus{i}"), 1.0).expect("fresh bus name");
        for j in 0..QUEUES / BUSES {
            let q = i * (QUEUES / BUSES) + j;
            let p = b
                .add_processor(format!("p{q}"), &[bus], 1.0)
                .expect("fresh processor name");
            let load = 0.19 + 0.10 * ((q * 7) % 13) as f64 / 12.0;
            b.add_flow(p, FlowTarget::Bus(bus), load)
                .expect("valid flow");
        }
    }
    b.build().expect("probe architecture is well-formed")
}

/// Pivots of the monolithic revised solve of the probe LP.
const MONO_PIVOTS: usize = 2188;

/// Block sweeps the multiplier search spends pricing the budget row.
const MULTIPLIER_ITERATIONS: usize = 32;

/// The probe's sizing LP.
fn probe_lp() -> SizingLp {
    let cfg = SizingConfig {
        state_cap: STATE_CAP,
        effort_levels: 3,
        engine: LpEngine::Decomposed,
        ..SizingConfig::default()
    };
    SizingLp::build(&probe_arch(), BUDGET, &cfg).or_exit("failed to build the probe sizing LP")
}

fn probe_options() -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 400_000,
        ..SimplexOptions::default()
    }
}

fn decomposed_options(executor: ExecutorHandle) -> SimplexOptions {
    SimplexOptions {
        engine: LpEngine::Decomposed,
        executor,
        ..probe_options()
    }
}

fn pooled() -> ExecutorHandle {
    ExecutorHandle::new(Arc::new(WorkPool::available()))
}

struct ProbeRun {
    blocks: usize,
    coupling_row: Option<usize>,
    multiplier_iterations: usize,
    mono_pivots: usize,
    mono_obj: f64,
    mono: Duration,
    serial: Duration,
    pooled: Duration,
    /// Decomposed objectives, for the agreement gate.
    serial_obj: f64,
    pooled_obj: f64,
    fell_back: bool,
}

fn run_probe(p: &LpProblem, repeats: usize) -> ProbeRun {
    let opts = probe_options();
    let ((mono_obj, mono_pivots), mono) = best_of(repeats, || {
        let sol = p.solve_with(&opts);
        let sol = sol.or_exit("monolithic revised solve failed");
        (sol.objective(), sol.iterations())
    });
    // Best-of-`repeats` decomposed objective, wall time and (repeat-
    // invariant) report under `executor`.
    let decomposed = |executor: ExecutorHandle| {
        let opts = decomposed_options(executor);
        let ((obj, report), time) = best_of(repeats, || {
            let (sol, report) = solve_decomposed(p, &opts).or_exit("decomposed solve failed");
            (sol.objective(), report)
        });
        (obj, time, report)
    };
    let (serial_obj, serial, report) = decomposed(ExecutorHandle::serial());
    let (pooled_obj, pooled, pooled_report) = decomposed(pooled());
    assert_eq!(
        report.blocks, pooled_report.blocks,
        "executors must not change the declared structure"
    );
    ProbeRun {
        blocks: report.blocks,
        coupling_row: report.coupling_row,
        multiplier_iterations: report.multiplier_iterations,
        mono_pivots,
        mono_obj,
        mono,
        serial,
        pooled,
        serial_obj,
        pooled_obj,
        fell_back: report.fell_back || pooled_report.fell_back,
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + b.abs())
}

fn print_table(run: &ProbeRun) {
    println!(
        "decomposition probe: {QUEUES} queues, state_cap {STATE_CAP}, budget {BUDGET} \
         ({} blocks, {} multiplier iterations)",
        run.blocks, run.multiplier_iterations
    );
    println!(
        "  monolithic revised : {:?}  ({} pivots)",
        run.mono, run.mono_pivots
    );
    println!(
        "  decomposed (serial): {:?}  ({:.2}x)",
        run.serial,
        ratio(run.mono, run.serial)
    );
    println!(
        "  decomposed (pooled): {:?}  ({:.2}x)",
        run.pooled,
        ratio(run.mono, run.pooled)
    );
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    let lp = probe_lp();
    let run = run_probe(lp.problem(), 1);
    print_table(&run);

    // --- Agreement: exactness is unconditional. -----------------------
    gate.check(
        !run.fell_back,
        "the probe LP fell back to the monolithic path",
    );
    gate.check(
        run.blocks == BUSES,
        format_args!("expected {BUSES} blocks (one per bus), got {}", run.blocks),
    );
    let budget_row = lp.num_rows() - 1;
    gate.check(
        run.coupling_row == Some(budget_row),
        format_args!(
            "expected the budget row {budget_row} as the coupling row, got {:?}",
            run.coupling_row
        ),
    );
    for (label, obj) in [("serial", run.serial_obj), ("pooled", run.pooled_obj)] {
        let diff = rel_diff(obj, run.mono_obj);
        if diff > 1e-9 {
            gate.fail(format_args!(
                "{label} decomposed objective {obj} vs monolithic {} (rel {diff:.3e}, need <= 1e-9)",
                run.mono_obj
            ));
        }
    }

    // --- Work: monolithic pivots and multiplier sweeps. ----------------
    gate.check(
        run.mono_pivots == MONO_PIVOTS,
        format_args!(
            "the monolithic solve took {} pivots (want {MONO_PIVOTS})",
            run.mono_pivots
        ),
    );
    gate.check(
        run.multiplier_iterations == MULTIPLIER_ITERATIONS,
        format_args!(
            "the multiplier search at budget {BUDGET} took {} sweeps (want \
             {MULTIPLIER_ITERATIONS})",
            run.multiplier_iterations
        ),
    );
}

/// The monolithic revised vs pooled decomposed wall-time ratio over
/// alternated pairs, printed and returned.
fn pooled_spread(p: &LpProblem) -> Spread {
    let (mono, pooled) = (probe_options(), decomposed_options(pooled()));
    let spread = alternated_ratio(
        probe::RATIO_PAIRS,
        || drop(p.solve_with(&mono)),
        || drop(solve_decomposed(p, &pooled)),
    );
    println!(
        "  pooled vs monolithic: {spread} over {} alternated pairs on {} cores",
        probe::RATIO_PAIRS,
        socbuf_bench::cores()
    );
    spread
}

/// Writes the machine-readable trajectory (schema in the crate docs).
fn write_bench_json(run: &ProbeRun, spread: &Spread) {
    socbuf_bench::write_bench_json(
        "BENCH_decomp.json",
        &[
            format!("\"blocks\": {}", run.blocks),
            format!("\"state_cap\": {STATE_CAP}"),
            format!("\"budget\": {BUDGET}"),
            format!("\"multiplier_iterations\": {}", run.multiplier_iterations),
            format!(
                "\"pooled_vs_monolithic\": {{\n    \"pairs\": {},\n    \"q1\": {:.4},\n    \
                 \"median\": {:.4},\n    \"q3\": {:.4}\n  }}",
                probe::RATIO_PAIRS,
                spread.q1,
                spread.median,
                spread.q3
            ),
        ],
    );
}

fn main() {
    probe::run(smoke, || {
        let lp = probe_lp();
        let run = run_probe(lp.problem(), 3);
        print_table(&run);
        println!(
            "  objectives: mono {} / serial rel {:.2e} / pooled rel {:.2e}",
            run.mono_obj,
            rel_diff(run.serial_obj, run.mono_obj),
            rel_diff(run.pooled_obj, run.mono_obj)
        );
        let spread = pooled_spread(lp.problem());
        if probe::flag("--json") {
            write_bench_json(&run, &spread);
        }
    });
}

//! Developer probe for the block-angular decomposition engine: the
//! 32-queue / `state_cap = 64` sizing LP solved monolithically, with
//! the serial decomposed engine, and with the decomposed engine fanning
//! its block solves over a machine-sized [`WorkPool`].
//!
//! `--smoke` runs the CI gate:
//!
//! * **agreement** — the decomposed solve must match the monolithic
//!   revised objective to 1e-9 relative, must actually exploit the
//!   structure (no monolithic fallback; one block per queue) and must
//!   price the coupling row with a genuinely bound multiplier search
//!   on this tight budget;
//! * **speedup (wall time, under the [`socbuf_bench::probe`]
//!   single-core skip policy)** — the pooled decomposed solve must be
//!   ≥ 1.5× faster than the monolithic revised solve (best of
//!   `SMOKE_REPEATS`). The blocks are 32 independent LPs of ~1/32 the
//!   joint size and simplex cost grows superlinearly in the basis
//!   dimension, so the bar is conservative even before parallelism.
//!
//! `--json` additionally writes the machine-readable trajectory to
//! `BENCH_decomp.json` (schema documented in `socbuf_bench`'s crate
//! docs) so perf can be tracked across commits.

use socbuf_bench::probe::{self, best_of, ratio, Gate, OrExit};
use socbuf_core::{ExecutorHandle, SizingConfig, SizingLp};
use socbuf_lp::{solve_decomposed, LpEngine, SimplexOptions};
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

fn probe_options() -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 400_000,
        ..SimplexOptions::default()
    }
}

struct ProbeRun {
    blocks: usize,
    multiplier_iterations: usize,
    mono_obj: f64,
    mono: Duration,
    serial: Duration,
    pooled: Duration,
    /// Pooled decomposed vs monolithic revised — the headline number.
    speedup: f64,
    /// Decomposed objectives, for the agreement gate.
    serial_obj: f64,
    pooled_obj: f64,
    fell_back: bool,
}

fn run_probe(repeats: usize) -> ProbeRun {
    let arch = probe_arch();
    let cfg = SizingConfig {
        state_cap: STATE_CAP,
        effort_levels: 3,
        engine: LpEngine::Decomposed,
        ..SizingConfig::default()
    };
    let lp = SizingLp::build(&arch, BUDGET, &cfg).or_exit("failed to build the probe sizing LP");
    let p = lp.problem();
    let opts = probe_options();
    let (mono_obj, mono) = best_of(repeats, || {
        let sol = p.solve_with(&opts);
        sol.or_exit("monolithic revised solve failed").objective()
    });
    // Best-of-`repeats` decomposed objective, wall time and (repeat-
    // invariant) report under `executor`.
    let decomposed = |executor: ExecutorHandle| {
        let opts = SimplexOptions {
            engine: LpEngine::Decomposed,
            executor,
            ..probe_options()
        };
        let ((obj, report), time) = best_of(repeats, || {
            let (sol, report) = solve_decomposed(p, &opts).or_exit("decomposed solve failed");
            (sol.objective(), report)
        });
        (obj, time, report)
    };
    let (serial_obj, serial, report) = decomposed(ExecutorHandle::serial());
    let pool = WorkPool::available();
    let (pooled_obj, pooled, pooled_report) = decomposed(ExecutorHandle::new(Arc::new(pool)));
    assert_eq!(
        report.blocks, pooled_report.blocks,
        "executors must not change the detected structure"
    );
    ProbeRun {
        blocks: report.blocks,
        multiplier_iterations: report.multiplier_iterations,
        mono_obj,
        mono,
        serial,
        pooled,
        speedup: ratio(mono, pooled),
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
    println!("  monolithic revised : {:?}", run.mono);
    println!(
        "  decomposed (serial): {:?}  ({:.2}x)",
        run.serial,
        ratio(run.mono, run.serial)
    );
    println!(
        "  decomposed (pooled): {:?}  ({:.2}x)",
        run.pooled, run.speedup
    );
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    const SMOKE_REPEATS: usize = 2;

    let run = run_probe(SMOKE_REPEATS);
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
    for (label, obj) in [("serial", run.serial_obj), ("pooled", run.pooled_obj)] {
        let diff = rel_diff(obj, run.mono_obj);
        if diff > 1e-9 {
            gate.fail(format_args!(
                "{label} decomposed objective {obj} vs monolithic {} (rel {diff:.3e}, need <= 1e-9)",
                run.mono_obj
            ));
        }
    }
    gate.check(
        run.multiplier_iterations >= 2,
        format_args!(
            "budget {BUDGET} should bind the coupling row, but the multiplier search finished \
             after {} sweep(s)",
            run.multiplier_iterations
        ),
    );

    // --- Speedup: enforced only where parallelism exists. --------------
    gate.timed(
        "speedup",
        run.speedup >= 1.5,
        format_args!(
            "pooled decomposed solve only {:.2}x faster than the monolithic revised solve \
             (need >= 1.5x)",
            run.speedup
        ),
    );

    if probe::flag("--json") {
        write_bench_json(&run);
    }
}

/// Writes the machine-readable trajectory (schema in the crate docs).
fn write_bench_json(run: &ProbeRun) {
    socbuf_bench::write_bench_json(
        "BENCH_decomp.json",
        &[
            format!("\"blocks\": {}", run.blocks),
            format!("\"state_cap\": {STATE_CAP}"),
            format!("\"budget\": {BUDGET}"),
            format!(
                "\"wall_ms\": {{\n    \"monolithic_revised\": {:.3},\n    \
                 \"decomposed_serial\": {:.3},\n    \"decomposed_pooled\": {:.3}\n  }}",
                run.mono.as_secs_f64() * 1e3,
                run.serial.as_secs_f64() * 1e3,
                run.pooled.as_secs_f64() * 1e3,
            ),
            format!("\"speedup_pooled_vs_monolithic\": {:.4}", run.speedup),
            format!("\"multiplier_iterations\": {}", run.multiplier_iterations),
        ],
    );
}

fn main() {
    probe::run(smoke, || {
        let run = run_probe(3);
        print_table(&run);
        println!(
            "  objectives: mono {} / serial rel {:.2e} / pooled rel {:.2e}",
            run.mono_obj,
            rel_diff(run.serial_obj, run.mono_obj),
            rel_diff(run.pooled_obj, run.mono_obj)
        );
        if probe::flag("--json") {
            write_bench_json(&run);
        }
    });
}

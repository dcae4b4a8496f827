//! Developer probe for the warm-start layer: wall-time of the
//! warm-chained `network_processor` budget grid against the cold-started
//! grid, plus the warm report's byte-identity across worker counts.
//!
//! `--smoke` runs the CI gate:
//!
//! * **determinism (always enforced)** — the warm-chained 1-, 2- and
//!   8-worker runs of the grid must render byte-identical JSON-lines
//!   reports (chunk boundaries are index-fixed, so warm chains must not
//!   depend on scheduling);
//! * **pool scaling (enforced when the host has ≥ 2 cores)** — the
//!   8-worker warm sweep must beat the 1-worker one's wall time (best
//!   of `SMOKE_REPEATS`). A single-core host has no parallelism to win,
//!   and a pool that merely doesn't *lose* there is already covered by
//!   the determinism gate;
//! * **agreement (always enforced)** — every warm point must carry the
//!   same status flags as its cold twin and an objective within 1e-6
//!   relative (the perturbation-ladder scale; on this well-conditioned
//!   grid the observed difference is ~1e-15);
//! * **speedup (enforced when the host has ≥ 2 cores)** — the
//!   warm-chained serial sweep must be ≥ 1.5× faster than the
//!   cold-started serial sweep (best of `SMOKE_REPEATS`). Warm chains
//!   skip phase 1 entirely and re-enter from the neighboring optimum,
//!   so three of every four points solve in a handful of pivots. The
//!   gate is serial-vs-serial: it measures the algorithmic win, not
//!   scheduling. Single-core hosts skip it only because they are the
//!   noisy shared-runner case the repeats cannot fully de-noise;
//! * **kept-basis identity (always enforced)** — a `PreparedLp` chained
//!   along the grid keeps its last optimal basis factored across the
//!   budget moves; every warm answer must equal, bit for bit, the one a
//!   fresh `PreparedLp` gives warm-solving the same problem from the
//!   same snapshot, and at least one point must take the kept-basis
//!   shortcut;
//! * **warm floor (enforced when the host has ≥ 2 cores)** — a
//!   `SolveContext` point that re-solves in zero pivots must cost, on
//!   average, at most a quarter of a cold `size_buffers` point.

use socbuf_core::{size_buffers, SizingConfig, SizingLp, SolveContext};
use socbuf_lp::{LpSolution, PreparedLp, SimplexOptions};
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{BudgetSweep, SweepReport, WorkPool};
use std::time::{Duration, Instant};

/// The CI grid: the paper's Table 1 budget range on the evaluation
/// platform, sized so one serial pass takes O(seconds) in release.
fn smoke_grid() -> Vec<usize> {
    (0..16).map(|i| 160 + 32 * i).collect()
}

fn smoke_sizing() -> SizingConfig {
    SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    }
}

fn timed_run(
    arch: &socbuf_soc::Architecture,
    budgets: &[usize],
    sizing: &SizingConfig,
    workers: usize,
    warm: bool,
) -> (SweepReport, Duration) {
    let mut sweep = BudgetSweep::new(arch, budgets.to_vec());
    sweep.sizing = sizing.clone();
    sweep.warm_start = warm;
    let pool = WorkPool::new(workers);
    let t = Instant::now();
    let report = sweep.run(&pool).unwrap_or_else(|e| {
        eprintln!("sweep failed ({} workers, warm={warm}): {e}", workers);
        std::process::exit(2);
    });
    (report, t.elapsed())
}

/// The solve ladder's first rung, which every point of the grid solves
/// on.
fn first_rung() -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        ..SimplexOptions::default()
    }
}

fn same_bits(a: &LpSolution, b: &LpSolution) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(a.values()) == bits(b.values())
        && a.objective().to_bits() == b.objective().to_bits()
        && bits(a.duals()) == bits(b.duals())
        && a.basis_snapshot() == b.basis_snapshot()
        && a.iterations() == b.iterations()
}

/// Chains a `PreparedLp` along the grid and checks each warm answer
/// against a fresh `PreparedLp` warm-solving from the same snapshot.
/// Returns the failure count.
fn kept_basis_identity(arch: &Architecture, grid: &[usize], sizing: &SizingConfig) -> i32 {
    let lp = SizingLp::build(arch, grid[0], sizing).expect("grid point builds");
    let budget_row = lp.problem().row_ids().last().expect("budget row");
    let opts = first_rung();
    let prepare = || PreparedLp::new_with_scaling(lp.problem().clone(), sizing.equilibrate);
    let mut chained = prepare().expect("assembles");
    let mut snapshot = match chained.solve_with(&opts) {
        Ok(sol) => sol.basis_snapshot(),
        Err(e) => {
            eprintln!("SMOKE FAIL: kept-basis chain start: {e}");
            return 1;
        }
    };
    let (mut failures, mut identical, mut shortcuts) = (0, 0, 0);
    for &budget in &grid[1..] {
        let rhs = sizing.alpha * budget as f64;
        chained.set_rhs(budget_row, rhs).expect("budget move");
        let kept = chained.kept_basis() == Some(&snapshot);
        let mut fresh = prepare().expect("assembles");
        fresh.set_rhs(budget_row, rhs).expect("budget move");
        match (
            chained.solve_warm(&opts, &snapshot),
            fresh.solve_warm(&opts, &snapshot),
        ) {
            (Ok(a), Ok(b)) if same_bits(&a, &b) => {
                identical += 1;
                shortcuts += usize::from(kept && a.iterations() == 0);
                snapshot = a.basis_snapshot();
            }
            (a, b) => {
                eprintln!(
                    "SMOKE FAIL: budget {budget}: kept-basis warm solve differs from a fresh \
                     one (kept ok={}, fresh ok={})",
                    a.is_ok(),
                    b.is_ok()
                );
                failures += 1;
            }
        }
    }
    println!(
        "kept-basis chain: {identical} warm points bit-identical to fresh, {shortcuts} via the \
         shortcut"
    );
    if shortcuts == 0 {
        eprintln!("SMOKE FAIL: no grid point took the kept-basis shortcut");
        failures += 1;
    }
    failures
}

/// Mean wall time of the zero-pivot warm points of a `SolveContext`
/// chain along the grid (`None` when no point re-solved in zero
/// pivots), and of cold `size_buffers` points.
fn warm_floor(
    arch: &Architecture,
    grid: &[usize],
    sizing: &SizingConfig,
) -> (Option<Duration>, Duration) {
    let mut ctx = SolveContext::new(arch, sizing);
    let mut warm = Vec::new();
    for (i, &budget) in grid.iter().enumerate() {
        let t = Instant::now();
        let out = ctx.size_buffers(budget).expect("warm point sizes");
        let dt = t.elapsed();
        if i > 0 && out.lp_iterations == 0 {
            warm.push(dt);
        }
    }
    let cold: Vec<Duration> = grid
        .iter()
        .step_by(4)
        .map(|&budget| {
            let t = Instant::now();
            size_buffers(arch, budget, sizing).expect("cold point sizes");
            t.elapsed()
        })
        .collect();
    let mean = |v: &[Duration]| v.iter().sum::<Duration>() / v.len().max(1) as u32;
    ((!warm.is_empty()).then(|| mean(&warm)), mean(&cold))
}

/// CI-sized gate; exits nonzero on regression.
fn smoke() -> i32 {
    const SMOKE_REPEATS: usize = 2;

    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();
    let cores = socbuf_bench::cores();
    let mut failures = 0;

    // --- Warm determinism: byte-identity across worker counts. -------
    let mut warm_baseline: Option<SweepReport> = None;
    let mut best_by_workers: Vec<Duration> = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut best: Option<Duration> = None;
        for _ in 0..SMOKE_REPEATS {
            let (report, time) = timed_run(&np, &grid, &sizing, workers, true);
            match &warm_baseline {
                None => warm_baseline = Some(report),
                Some(expected) => {
                    if expected.to_jsonl() != report.to_jsonl() {
                        eprintln!(
                            "SMOKE FAIL: warm {workers}-worker report bytes differ from the \
                             1-worker baseline"
                        );
                        failures += 1;
                    }
                }
            }
            if best.is_none_or(|b| time < b) {
                best = Some(time);
            }
        }
        let time = best.expect("at least one repeat");
        println!(
            "warm np budget grid ({} points, cap=16): {workers} workers -> {time:?}",
            grid.len()
        );
        best_by_workers.push(time);
    }
    let warm_report = warm_baseline.expect("at least one warm run");

    // --- Pool scaling: 8 workers beat 1. -------------------------------
    let (t1, t8) = (best_by_workers[0], best_by_workers[2]);
    if cores < 2 {
        println!("pool-scaling gate SKIPPED: single-core host (determinism still enforced)");
    } else if t8 >= t1 {
        eprintln!(
            "SMOKE FAIL: 8-worker warm sweep ({t8:?}) not faster than 1-worker ({t1:?}) \
             on a {cores}-core host"
        );
        failures += 1;
    } else {
        println!(
            "speedup 8w vs 1w: {:.2}x on {cores} cores",
            t1.as_secs_f64() / t8.as_secs_f64().max(1e-12)
        );
    }

    // --- Warm/cold agreement per point. -------------------------------
    let (cold_report, _) = timed_run(&np, &grid, &sizing, 8, false);
    for (w, c) in warm_report.points.iter().zip(&cold_report.points) {
        if w.budget_row_relaxed != c.budget_row_relaxed {
            eprintln!(
                "SMOKE FAIL: budget {}: relaxed flag warm={} cold={}",
                w.budget, w.budget_row_relaxed, c.budget_row_relaxed
            );
            failures += 1;
        }
        let diff = (w.predicted_loss - c.predicted_loss).abs() / (1.0 + c.predicted_loss.abs());
        if diff > 1e-6 {
            eprintln!(
                "SMOKE FAIL: budget {}: warm loss {} vs cold {} (rel {diff:.3e})",
                w.budget, w.predicted_loss, c.predicted_loss
            );
            failures += 1;
        }
    }

    // --- Serial speedup: warm chains vs cold starts. -------------------
    let mut best_cold: Option<Duration> = None;
    let mut best_warm: Option<Duration> = None;
    for _ in 0..SMOKE_REPEATS {
        let (_, tc) = timed_run(&np, &grid, &sizing, 1, false);
        let (_, tw) = timed_run(&np, &grid, &sizing, 1, true);
        if best_cold.is_none_or(|b| tc < b) {
            best_cold = Some(tc);
        }
        if best_warm.is_none_or(|b| tw < b) {
            best_warm = Some(tw);
        }
    }
    let (tc, tw) = (best_cold.unwrap(), best_warm.unwrap());
    let speedup = tc.as_secs_f64() / tw.as_secs_f64().max(1e-12);
    println!("serial grid: cold {tc:?} vs warm {tw:?} -> {speedup:.2}x");
    if cores >= 2 {
        if speedup < 1.5 {
            eprintln!(
                "SMOKE FAIL: warm-chained sweep only {speedup:.2}x faster than cold \
                 (need >= 1.5x) on a {cores}-core host"
            );
            failures += 1;
        }
    } else {
        println!("speedup gate SKIPPED: single-core host (determinism + agreement still enforced)");
    }

    // --- Kept-basis warm solves: bit-identical to fresh ones. ---------
    failures += kept_basis_identity(&np, &grid, &sizing);

    // --- Warm floor: a 0-pivot point against a cold one. ---------------
    let (warm, cold) = warm_floor(&np, &grid, &sizing);
    let Some(warm) = warm else {
        eprintln!("SMOKE FAIL: no warm point of the grid re-solved in 0 pivots");
        return failures + 1;
    };
    let ratio = warm.as_secs_f64() / cold.as_secs_f64().max(1e-12);
    println!("0-pivot warm point {warm:?} vs cold point {cold:?} -> {ratio:.3}x");
    if cores >= 2 {
        if ratio > 0.25 {
            eprintln!(
                "SMOKE FAIL: a 0-pivot warm point costs {ratio:.3}x a cold point \
                 (need <= 0.25x) on a {cores}-core host"
            );
            failures += 1;
        }
    } else {
        println!("warm-floor gate SKIPPED: single-core host");
    }

    if failures == 0 {
        println!("smoke OK");
    }
    failures
}

/// Full table: warm vs cold per worker count, plus per-point pivots.
fn full_probe() {
    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();
    for workers in [1usize, 2, 4, 8] {
        let (_, cold) = timed_run(&np, &grid, &sizing, workers, false);
        let (warm_report, warm) = timed_run(&np, &grid, &sizing, workers, true);
        println!(
            "{workers:>2} workers: cold {cold:?}  warm {warm:?}  ({:.2}x)",
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-12)
        );
        if workers == 1 {
            println!("\n  per-point pivots along the warm chains (chunks of 4):");
            for p in &warm_report.points {
                println!("    budget {:>4}: {:>4} pivots", p.budget, p.lp_iterations);
            }
            println!();
        }
    }
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    if smoke_mode {
        std::process::exit(smoke());
    }
    full_probe();
}

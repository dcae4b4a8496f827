//! Developer probe for the sweep engine: wall-time scaling and
//! byte-identity of `BudgetSweep` across worker counts on the
//! `network_processor` budget grid.
//!
//! `--smoke` runs the CI gate:
//!
//! * **determinism (always enforced)** — the 1-, 2- and 8-worker runs
//!   of the grid must render byte-identical JSON-lines reports;
//! * **scaling (enforced when the host has ≥ 2 cores)** — the 8-worker
//!   sweep must beat the 1-worker sweep's wall time (best of
//!   `SMOKE_REPEATS`). On a single-core host the speedup gate is
//!   reported as skipped: there is no parallelism to win, and a pool
//!   that merely doesn't *lose* there is already covered by the
//!   determinism gate.

use socbuf_core::SizingConfig;
use socbuf_soc::templates;
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

/// One timed sweep; returns the rendered report and the wall time.
fn timed_run(
    arch: &socbuf_soc::Architecture,
    budgets: &[usize],
    sizing: &SizingConfig,
    workers: usize,
) -> (SweepReport, Duration) {
    let mut sweep = BudgetSweep::new(arch, budgets.to_vec());
    sweep.sizing = sizing.clone();
    let pool = WorkPool::new(workers);
    let t = Instant::now();
    let report = sweep.run(&pool).unwrap_or_else(|e| {
        eprintln!("sweep failed at {workers} workers: {e}");
        std::process::exit(2);
    });
    (report, t.elapsed())
}

/// CI-sized gate; exits nonzero on regression.
fn smoke() -> i32 {
    // Best-of-N timing keeps the gate robust to shared-runner noise.
    const SMOKE_REPEATS: usize = 2;

    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();
    let mut failures = 0;

    let mut best: Vec<(usize, Duration)> = Vec::new();
    let mut baseline: Option<String> = None;
    for workers in [1usize, 2, 8] {
        let mut best_time: Option<Duration> = None;
        for _ in 0..SMOKE_REPEATS {
            let (report, time) = timed_run(&np, &grid, &sizing, workers);
            let rendered = report.to_jsonl();
            match &baseline {
                None => baseline = Some(rendered),
                Some(expected) => {
                    if *expected != rendered {
                        eprintln!(
                            "SMOKE FAIL: {workers}-worker report bytes differ from the \
                             1-worker baseline"
                        );
                        failures += 1;
                    }
                }
            }
            if best_time.is_none_or(|b| time < b) {
                best_time = Some(time);
            }
        }
        let time = best_time.expect("at least one repeat");
        println!(
            "np budget grid ({} points, cap=16): {workers} workers -> {time:?}",
            grid.len()
        );
        best.push((workers, time));
    }

    let t1 = best[0].1;
    let t8 = best[2].1;
    let cores = socbuf_bench::cores();
    if cores >= 2 {
        if t8 >= t1 {
            eprintln!(
                "SMOKE FAIL: 8-worker sweep ({t8:?}) not faster than 1-worker ({t1:?}) \
                 on a {cores}-core host"
            );
            failures += 1;
        } else {
            println!(
                "speedup 8w vs 1w: {:.2}x on {cores} cores",
                t1.as_secs_f64() / t8.as_secs_f64().max(1e-12)
            );
        }
    } else {
        println!("speedup gate SKIPPED: single-core host (determinism gate still enforced)");
    }

    if failures == 0 {
        println!("smoke OK");
    }
    failures
}

/// Full table: scaling across worker counts plus the frontier summary.
fn full_probe() {
    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();
    let mut baseline: Option<SweepReport> = None;
    for workers in [1usize, 2, 4, 8, 16] {
        let (report, time) = timed_run(&np, &grid, &sizing, workers);
        let identical = match &baseline {
            None => {
                baseline = Some(report.clone());
                true
            }
            Some(b) => *b == report,
        };
        println!(
            "{workers:>2} workers: {time:?}  byte-identical={identical}  frontier={:?}",
            report.pareto_frontier()
        );
    }
    if let Some(report) = baseline {
        println!("\nPareto frontier (budget vs predicted loss):");
        print!("{}", report.frontier_table());
    }
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    if smoke_mode {
        std::process::exit(smoke());
    }
    full_probe();
}

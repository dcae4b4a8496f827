//! Developer probe for the warm-start layer: wall-time of the
//! warm-chained `network_processor` budget grid against the cold-started
//! grid, plus the warm report's byte-identity across worker counts.
//!
//! `--smoke` runs the CI gate (wall-time gates follow the
//! [`socbuf_bench::probe`] single-core skip policy):
//!
//! * **determinism** — the warm-chained 1-, 2- and 8-worker runs of
//!   the grid must render byte-identical JSON-lines reports (chunk
//!   boundaries are index-fixed, so warm chains must not depend on
//!   scheduling);
//! * **pool scaling (wall time)** — the 8-worker warm sweep must beat
//!   the 1-worker one's wall time (best of `SMOKE_REPEATS`);
//! * **agreement** — every warm point must carry the same status flags
//!   as its cold twin and an objective within 1e-6 relative (the
//!   perturbation-ladder scale; on this well-conditioned grid the
//!   observed difference is ~1e-15);
//! * **speedup (wall time)** — the warm-chained serial sweep must be
//!   ≥ 1.5× faster than the cold-started serial sweep (best of
//!   `SMOKE_REPEATS`). Warm chains skip phase 1 entirely and re-enter
//!   from the neighboring optimum, so three of every four points solve
//!   in a handful of pivots. The gate is serial-vs-serial: it measures
//!   the algorithmic win, not scheduling;
//! * **kept-basis identity** — a `PreparedLp` chained along the grid
//!   keeps its last optimal basis factored across the budget moves;
//!   every warm answer must equal, bit for bit, the one a fresh
//!   `PreparedLp` gives warm-solving the same problem from the same
//!   snapshot, and at least one point must take the kept-basis
//!   shortcut;
//! * **warm floor (wall time)** — a `SolveContext` point that
//!   re-solves in zero pivots must cost, on average, at most a quarter
//!   of a cold `size_buffers` point;
//! * **allocation counts** — on `figure1` at `SizingConfig::small()`,
//!   counted by [`socbuf_bench::alloc`]: `SolveContext::seeded` makes
//!   at most [`SEEDED_ALLOCS`] allocations, a seeded chain start
//!   (the copy plus its zero-pivot first point) at most
//!   [`CHAIN_START_ALLOCS`], and a zero-pivot warm budget point at most
//!   [`WARM_POINT_ALLOCS`]. Counts do not depend on the host, so these
//!   gates have no single-core skip.

use socbuf_bench::alloc::{count, CountingAlloc, Counts};
use socbuf_bench::probe::{self, best_of, ratio, smoke_sizing, Gate, OrExit};
use socbuf_core::{size_buffers, SizingConfig, SizingLp, SolveContext};
use socbuf_lp::{LpSolution, PreparedLp, SimplexOptions};
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{BudgetSweep, SweepReport, WorkPool};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most allocations `SolveContext::seeded` may make on `figure1`.
const SEEDED_ALLOCS: u64 = 30;

/// Most allocations a seeded chain start may make on `figure1`: the
/// copy and its zero-pivot first point.
const CHAIN_START_ALLOCS: u64 = 60;

/// Most allocations a zero-pivot warm budget point may make on
/// `figure1`, the returned `SizingOutcome` included.
const WARM_POINT_ALLOCS: u64 = 30;

/// The CI grid: the paper's Table 1 budget range on the evaluation
/// platform, sized so one serial pass takes O(seconds) in release.
fn smoke_grid() -> Vec<usize> {
    (0..16).map(|i| 160 + 32 * i).collect()
}

/// One budget sweep over `budgets` on `workers` workers.
fn sweep(
    arch: &Architecture,
    budgets: &[usize],
    sizing: &SizingConfig,
    workers: usize,
    warm: bool,
) -> SweepReport {
    let mut sweep = BudgetSweep::new(arch, budgets.to_vec());
    sweep.sizing = sizing.clone();
    sweep.warm_start = warm;
    sweep.run(&WorkPool::new(workers)).or_exit(format_args!(
        "sweep failed ({workers} workers, warm={warm})"
    ))
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
fn kept_basis_identity(
    gate: &mut Gate,
    arch: &Architecture,
    grid: &[usize],
    sizing: &SizingConfig,
) {
    let lp = SizingLp::build(arch, grid[0], sizing).expect("grid point builds");
    let budget_row = lp.problem().row_ids().last().expect("budget row");
    let opts = first_rung();
    let prepare = || PreparedLp::new_with_scaling(lp.problem().clone(), sizing.equilibrate);
    let mut chained = prepare().expect("assembles");
    let mut snapshot = match chained.solve_with(&opts) {
        Ok(sol) => sol.basis_snapshot(),
        Err(e) => return gate.fail(format_args!("kept-basis chain start: {e}")),
    };
    let (mut identical, mut shortcuts) = (0, 0);
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
            (a, b) => gate.fail(format_args!(
                "budget {budget}: kept-basis warm solve differs from a fresh one \
                 (kept ok={}, fresh ok={})",
                a.is_ok(),
                b.is_ok()
            )),
        }
    }
    println!(
        "kept-basis chain: {identical} warm points bit-identical to fresh, {shortcuts} via the \
         shortcut"
    );
    gate.check(shortcuts > 0, "no grid point took the kept-basis shortcut");
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
        let (out, dt) = best_of(1, || ctx.size_buffers(budget).expect("warm point sizes"));
        if i > 0 && out.lp_iterations == 0 {
            warm.push(dt);
        }
    }
    let cold: Vec<Duration> = grid
        .iter()
        .step_by(4)
        .map(|&budget| {
            best_of(1, || {
                size_buffers(arch, budget, sizing).expect("cold point sizes")
            })
            .1
        })
        .collect();
    let mean = |v: &[Duration]| v.iter().sum::<Duration>() / v.len().max(1) as u32;
    ((!warm.is_empty()).then(|| mean(&warm)), mean(&cold))
}

/// Allocations along a seeded chain on `figure1` at
/// `SizingConfig::small()`, the shape of `sweep_budget`'s chains.
struct ChainAllocs {
    /// `SolveContext::seeded` on a solved anchor.
    seeded: Counts,
    /// The copy plus its first point.
    chain_start: Counts,
    /// The next budget point on the copy.
    warm_point: Counts,
    /// Then a load point (factor 1.1, a coefficient delta) on the copy;
    /// printed, not gated.
    load_point: Counts,
    /// Pivots of the chain start and of the warm point (0 when both
    /// answered on the kept factor).
    pivots: (usize, usize),
}

fn chain_allocs() -> ChainAllocs {
    let arch = templates::figure1();
    let sizing = SizingConfig::small();
    let mut anchor = SolveContext::new(&arch, &sizing);
    anchor.size_buffers(10).or_exit("anchor point");
    let (_, seeded) = count(|| anchor.seeded());
    let ((mut copy, start), chain_start) = count(|| {
        let mut copy = anchor.seeded();
        let start = copy.size_buffers(22).or_exit("seeded chain start");
        (copy, start)
    });
    let (point, warm_point) = count(|| copy.size_buffers(25).or_exit("warm budget point"));
    let scaled = arch.scale_rates(1.1, 1.0).or_exit("scaled figure1");
    let (_, load_point) = count(|| {
        copy.size_buffers_scaled(&scaled, 1.1, 25)
            .or_exit("load point")
    });
    ChainAllocs {
        seeded,
        chain_start,
        warm_point,
        load_point,
        pivots: (start.lp_iterations, point.lp_iterations),
    }
}

fn print_chain_allocs(a: &ChainAllocs) {
    for (name, c) in [
        ("seeded()", a.seeded),
        ("seeded chain start", a.chain_start),
        ("warm budget point", a.warm_point),
        ("load point (x1.1)", a.load_point),
    ] {
        println!(
            "figure1 small(): {name:<18} {:>4} allocations, {:>6} bytes",
            c.allocs, c.bytes
        );
    }
}

/// The allocation-count gates. A zero count means the allocator is not
/// installed, which fails the gate instead of passing it.
fn gate_chain_allocs(gate: &mut Gate) {
    let a = chain_allocs();
    print_chain_allocs(&a);
    gate.check(
        a.pivots == (0, 0),
        format_args!(
            "seeded chain start / warm point took {:?} pivots (want 0, 0)",
            a.pivots
        ),
    );
    for (name, c, max) in [
        ("seeded()", a.seeded, SEEDED_ALLOCS),
        ("a seeded chain start", a.chain_start, CHAIN_START_ALLOCS),
        ("a warm budget point", a.warm_point, WARM_POINT_ALLOCS),
    ] {
        gate.check(
            (1..=max).contains(&c.allocs),
            format_args!("{name} made {} allocations (need 1..={max})", c.allocs),
        );
    }
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    const SMOKE_REPEATS: usize = 2;

    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();

    // --- Warm determinism: byte-identity across worker counts. -------
    let mut warm_runs = Vec::new();
    let mut best_by_workers = Vec::new();
    for workers in [1usize, 2, 8] {
        let (_, time) = best_of(SMOKE_REPEATS, || {
            warm_runs.push((workers, sweep(&np, &grid, &sizing, workers, true)));
        });
        println!(
            "warm np budget grid ({} points, cap=16): {workers} workers -> {time:?}",
            grid.len()
        );
        best_by_workers.push(time);
    }
    let warm_report = warm_runs.swap_remove(0).1;
    let baseline = warm_report.to_jsonl();
    for (workers, report) in &warm_runs {
        gate.check(
            report.to_jsonl() == baseline,
            format_args!("warm {workers}-worker report bytes differ from the 1-worker baseline"),
        );
    }

    // --- Pool scaling: 8 workers beat 1. -------------------------------
    let (t1, t8) = (best_by_workers[0], best_by_workers[2]);
    println!(
        "speedup 8w vs 1w: {:.2}x on {} cores",
        ratio(t1, t8),
        socbuf_bench::cores()
    );
    gate.timed(
        "pool-scaling",
        t8 < t1,
        format_args!("8-worker warm sweep ({t8:?}) not faster than 1-worker ({t1:?})"),
    );

    // --- Warm/cold agreement per point. -------------------------------
    let cold_report = sweep(&np, &grid, &sizing, 8, false);
    for (w, c) in warm_report.points.iter().zip(&cold_report.points) {
        if w.budget_row_relaxed != c.budget_row_relaxed {
            gate.fail(format_args!(
                "budget {}: relaxed flag warm={} cold={}",
                w.budget, w.budget_row_relaxed, c.budget_row_relaxed
            ));
        }
        let diff = (w.predicted_loss - c.predicted_loss).abs() / (1.0 + c.predicted_loss.abs());
        if diff > 1e-6 {
            gate.fail(format_args!(
                "budget {}: warm loss {} vs cold {} (rel {diff:.3e})",
                w.budget, w.predicted_loss, c.predicted_loss
            ));
        }
    }

    // --- Serial speedup: warm chains vs cold starts. -------------------
    let (_, tc) = best_of(SMOKE_REPEATS, || sweep(&np, &grid, &sizing, 1, false));
    let (_, tw) = best_of(SMOKE_REPEATS, || sweep(&np, &grid, &sizing, 1, true));
    let speedup = ratio(tc, tw);
    println!("serial grid: cold {tc:?} vs warm {tw:?} -> {speedup:.2}x");
    gate.timed(
        "speedup",
        speedup >= 1.5,
        format_args!("warm-chained sweep only {speedup:.2}x faster than cold (need >= 1.5x)"),
    );

    // --- Kept-basis warm solves: bit-identical to fresh ones. ---------
    kept_basis_identity(gate, &np, &grid, &sizing);

    // --- Allocation counts along a seeded figure1 chain. ---------------
    gate_chain_allocs(gate);

    // --- Warm floor: a 0-pivot point against a cold one. ---------------
    let (warm, cold) = warm_floor(&np, &grid, &sizing);
    let Some(warm) = warm else {
        return gate.fail("no warm point of the grid re-solved in 0 pivots");
    };
    let r = ratio(warm, cold);
    println!("0-pivot warm point {warm:?} vs cold point {cold:?} -> {r:.3}x");
    gate.timed(
        "warm-floor",
        r <= 0.25,
        format_args!("a 0-pivot warm point costs {r:.3}x a cold point (need <= 0.25x)"),
    );
}

/// Full table: warm vs cold per worker count, plus per-point pivots,
/// then the allocation counts of a seeded figure1 chain.
fn full_probe() {
    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();
    for workers in [1usize, 2, 4, 8] {
        let (_, cold) = best_of(1, || sweep(&np, &grid, &sizing, workers, false));
        let (warm_report, warm) = best_of(1, || sweep(&np, &grid, &sizing, workers, true));
        println!(
            "{workers:>2} workers: cold {cold:?}  warm {warm:?}  ({:.2}x)",
            ratio(cold, warm)
        );
        if workers == 1 {
            println!("\n  per-point pivots along the warm chains (chunks of 4):");
            for p in &warm_report.points {
                println!("    budget {:>4}: {:>4} pivots", p.budget, p.lp_iterations);
            }
            println!();
        }
    }
    print_chain_allocs(&chain_allocs());
}

fn main() {
    probe::run(smoke, full_probe);
}

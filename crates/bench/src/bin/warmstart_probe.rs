//! Developer probe for the warm-start layer: the work of the
//! warm-chained `network_processor` budget grid against the
//! cold-started grid, plus the warm report's byte-identity across
//! worker counts.
//!
//! `--smoke` runs the CI gate. Every gate is an identity or a count, so
//! it gives the same verdict on any host (see [`socbuf_bench::probe`]):
//!
//! * **determinism** — the warm-chained 1-, 2- and 8-worker runs of
//!   the grid must render byte-identical JSON-lines reports (chunk
//!   boundaries are index-fixed, so warm chains must not depend on
//!   scheduling);
//! * **agreement** — every warm point must carry the same status flags
//!   as its cold twin and an objective within 1e-6 relative (the
//!   rhs-perturbation scale; on this well-conditioned grid the
//!   observed difference is ~1e-15);
//! * **grid work** — the warm-chained grid takes exactly
//!   [`WARM_GRID_PIVOTS`] pivots in all, on every worker count, and the
//!   cold-started grid exactly [`COLD_GRID_PIVOTS`]. Warm chains skip
//!   phase 1 entirely and re-enter from the neighboring optimum, so
//!   three of every four points solve in a handful of pivots; that gap
//!   is what made the warm serial sweep 2-3x faster than the cold one;
//! * **kept-basis identity** — a `PreparedLp` chained along the grid
//!   keeps its last optimal basis factored across the budget moves;
//!   every warm answer must equal, bit for bit, the one a fresh
//!   `PreparedLp` gives warm-solving the same problem from the same
//!   snapshot, and at least one point must take the kept-basis
//!   shortcut;
//! * **zero-pivot points** — a `SolveContext` chained along the grid
//!   re-solves exactly [`ZERO_PIVOT_POINTS`] of its points after the
//!   first in zero pivots, the points whose cost is a small fraction
//!   of a cold `size_buffers`;
//! * **allocation counts** — on `figure1` at `SizingConfig::small()`,
//!   counted by [`socbuf_bench::alloc`]: `SolveContext::seeded` makes
//!   at most [`SEEDED_ALLOCS`] allocations, a seeded chain start
//!   (the copy plus its zero-pivot first point) at most
//!   [`CHAIN_START_ALLOCS`], a zero-pivot warm budget point at most
//!   [`WARM_POINT_ALLOCS`], a load point at most [`LOAD_POINT_ALLOCS`],
//!   a cold `size_buffers` at most [`COLD_SIZE_ALLOCS`] and that
//!   size's `SizingLp::build` at most [`COLD_BUILD_ALLOCS`]. The LP's
//!   pivot loop allocates nothing once its eta file has grown, so the
//!   load point and the cold size count refactorizations, dual recovery
//!   and the returned solutions, not pivots;
//! * **pivot counts** — the same cold `size_buffers` takes exactly
//!   [`COLD_SIZE_PIVOTS`] pivots and the load point exactly
//!   [`LOAD_POINT_PIVOTS`]. Work that does not move a pivot (pricing
//!   less, factoring faster) leaves them and the grid counts be; a
//!   change in any of them means the solver now takes a different
//!   path, which must be explained, not re-pinned;
//! * **pricing counts** — that cold size's LP, solved once, prices
//!   exactly as [`COLD_LP_PRICING`] says: pricings, the ones that
//!   recomputed every reduced cost, and reduced costs recomputed.
//!   Pricing only what moved changes no pivot and no bit, so no other
//!   gate sees it slip back to full passes; these counts do.
//!
//! Without a flag the probe prints the wall time of each grid per
//! worker count, the 8- vs 1-worker warm-sweep ratio over
//! [`probe::RATIO_PAIRS`] alternated pairs, and the allocation counts.

use socbuf_bench::alloc::{count, CountingAlloc, Counts};
use socbuf_bench::probe::{self, alternated_ratio, best_of, ratio, smoke_sizing, Gate, OrExit};
use socbuf_core::formulation::ALPHA;
use socbuf_core::{size_buffers, SizingConfig, SizingLp, SolveContext};
use socbuf_lp::{LpSolution, PreparedLp, PricingCounts, SimplexOptions};
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{BudgetSweep, SweepReport, WorkPool};

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

/// Most allocations a load point (a coefficient delta, re-solved warm)
/// may make on `figure1`. It measures 148 (664 while every FTRAN,
/// BTRAN, pricing pass and eta allocated; 136 before the eta file kept
/// a reader index for its incremental sweep; 144 before pricing kept
/// its sweep input, `ρ` and a stamp per column in buffers of their own
/// and indexed every factor for its transposed solve).
const LOAD_POINT_ALLOCS: u64 = 152;

/// Most allocations a cold `size_buffers` may make on `figure1`. It
/// measures 389, 117 of them in `SizingLp::build` (1,058 while the
/// build formatted a name per variable, 2,755 while the LP allocated
/// per pivot, 386 before pricing's three buffers).
const COLD_SIZE_ALLOCS: u64 = 424;

/// Most allocations the `SizingLp::build` of that cold `size_buffers`
/// may make. It measures 117, 2 of them the declared block of each
/// variable and row (801 while it formatted a name per variable and
/// filled a `Vec` per row of each triplet batch).
const COLD_BUILD_ALLOCS: u64 = 128;

/// Pivots of the cold `size_buffers` at budget 22 on `figure1` at
/// `SizingConfig::small()`.
const COLD_SIZE_PIVOTS: usize = 90;

/// The revised engine's pricing work on the LP of that cold
/// `size_buffers`, solved once: pricings, how many recomputed every
/// reduced cost, and the reduced costs recomputed. A pricing that goes
/// back to full passes moves no pivot and no bit, only these counts.
const COLD_LP_PRICING: PricingCounts = PricingCounts {
    pricings: 93,
    full: 2,
    reduced_costs: 2203,
};

/// Pivots of the load point (factor 1.1 at budget 25) along the seeded
/// `figure1` chain.
const LOAD_POINT_PIVOTS: usize = 2;

/// Pivots of the warm-chained smoke grid, summed over its points.
const WARM_GRID_PIVOTS: usize = 2698;

/// Pivots of the cold-started smoke grid, summed over its points.
const COLD_GRID_PIVOTS: usize = 8213;

/// Points after the first that a `SolveContext` chained along the smoke
/// grid re-solves in zero pivots.
const ZERO_PIVOT_POINTS: usize = 13;

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

/// The simplex options every sizing solve runs with, which every point
/// of the grid solves on.
fn sizing_options() -> SimplexOptions {
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
    let opts = sizing_options();
    let prepare = || PreparedLp::new_with_scaling(lp.problem().clone(), sizing.equilibrate);
    let mut chained = prepare().expect("assembles");
    let mut snapshot = match chained.solve_with(&opts) {
        Ok(sol) => sol.basis_snapshot(),
        Err(e) => return gate.fail(format_args!("kept-basis chain start: {e}")),
    };
    let (mut identical, mut shortcuts) = (0, 0);
    for &budget in &grid[1..] {
        let rhs = ALPHA * budget as f64;
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

/// Pivots of a sweep report, summed over its points.
fn pivots(report: &SweepReport) -> usize {
    report.points.iter().map(|p| p.lp_iterations).sum()
}

/// Points after the first that a `SolveContext` chained along the grid
/// re-solves in zero pivots.
fn zero_pivot_points(arch: &Architecture, grid: &[usize], sizing: &SizingConfig) -> usize {
    let mut ctx = SolveContext::new(arch, sizing);
    let pivots: Vec<usize> = grid
        .iter()
        .map(|&budget| ctx.size_buffers(budget).or_exit("warm point").lp_iterations)
        .collect();
    pivots[1..].iter().filter(|&&p| p == 0).count()
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
    /// Then a load point (factor 1.1, a coefficient delta) on the copy.
    load_point: Counts,
    /// A cold `size_buffers` at budget 22.
    cold_size: Counts,
    /// The `SizingLp::build` inside it.
    cold_build: Counts,
    /// Pivots of the chain start and of the warm point (0 when both
    /// answered on the kept factor).
    pivots: (usize, usize),
    /// Pivots of the load point and of the cold `size_buffers`.
    work: (usize, usize),
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
    let (load, load_point) = count(|| {
        copy.size_buffers_scaled(&scaled, 1.1, 25)
            .or_exit("load point")
    });
    let (cold, cold_size) = count(|| size_buffers(&arch, 22, &sizing).or_exit("cold point"));
    let (_, cold_build) = count(|| SizingLp::build(&arch, 22, &sizing).or_exit("cold build"));
    ChainAllocs {
        seeded,
        chain_start,
        warm_point,
        load_point,
        cold_size,
        cold_build,
        pivots: (start.lp_iterations, point.lp_iterations),
        work: (load.lp_iterations, cold.lp_iterations),
    }
}

fn print_chain_allocs(a: &ChainAllocs) {
    for (name, c) in [
        ("seeded()", a.seeded),
        ("seeded chain start", a.chain_start),
        ("warm budget point", a.warm_point),
        ("load point (x1.1)", a.load_point),
        ("cold size_buffers", a.cold_size),
        ("  of which build", a.cold_build),
    ] {
        println!(
            "figure1 small(): {name:<18} {:>4} allocations, {:>6} bytes",
            c.allocs, c.bytes
        );
    }
    println!(
        "figure1 small(): pivots of the load point {}, of the cold size_buffers {}",
        a.work.0, a.work.1
    );
}

/// Pivots and pricing counts of the cold `size_buffers`' LP (`figure1`,
/// `SizingConfig::small()`, budget 22), built and solved once with the
/// sizing options.
fn cold_lp_work() -> (usize, PricingCounts) {
    let arch = templates::figure1();
    let lp = SizingLp::build(&arch, 22, &SizingConfig::small()).or_exit("cold build");
    let sol = lp
        .problem()
        .solve_with(&sizing_options())
        .or_exit("cold LP");
    (sol.iterations(), sol.pricing_counts())
}

/// The pricing-count gate: exact, as the pivot counts are.
fn gate_cold_lp_pricing(gate: &mut Gate) {
    let (pivots, counts) = cold_lp_work();
    println!("figure1 small(): the cold size's LP, {pivots} pivots: {counts:?}");
    gate.check(
        pivots == COLD_SIZE_PIVOTS && counts == COLD_LP_PRICING,
        format_args!(
            "the cold size's LP took {pivots} pivots and priced {counts:?} \
             (want {COLD_SIZE_PIVOTS} and {COLD_LP_PRICING:?})"
        ),
    );
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
    gate.check(
        a.work == (LOAD_POINT_PIVOTS, COLD_SIZE_PIVOTS),
        format_args!(
            "the load point / cold size_buffers took {:?} pivots (want {:?})",
            a.work,
            (LOAD_POINT_PIVOTS, COLD_SIZE_PIVOTS)
        ),
    );
    for (name, c, max) in [
        ("seeded()", a.seeded, SEEDED_ALLOCS),
        ("a seeded chain start", a.chain_start, CHAIN_START_ALLOCS),
        ("a warm budget point", a.warm_point, WARM_POINT_ALLOCS),
        ("a load point", a.load_point, LOAD_POINT_ALLOCS),
        ("a cold size_buffers", a.cold_size, COLD_SIZE_ALLOCS),
        ("its SizingLp::build", a.cold_build, COLD_BUILD_ALLOCS),
    ] {
        gate.check(
            (1..=max).contains(&c.allocs),
            format_args!("{name} made {} allocations (need 1..={max})", c.allocs),
        );
    }
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    let np = templates::network_processor();
    let grid = smoke_grid();
    let sizing = smoke_sizing();

    // --- Warm determinism and work across worker counts. -------------
    let warm_runs: Vec<(usize, SweepReport)> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| (workers, sweep(&np, &grid, &sizing, workers, true)))
        .collect();
    let warm_report = &warm_runs[0].1;
    let baseline = warm_report.to_jsonl();
    for (workers, report) in &warm_runs {
        gate.check(
            report.to_jsonl() == baseline,
            format_args!("warm {workers}-worker report bytes differ from the 1-worker baseline"),
        );
        gate.check(
            pivots(report) == WARM_GRID_PIVOTS,
            format_args!(
                "warm {workers}-worker grid took {} pivots (want {WARM_GRID_PIVOTS})",
                pivots(report)
            ),
        );
    }

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

    // --- Grid work: warm chains vs cold starts. ------------------------
    let (warm, cold) = (pivots(warm_report), pivots(&cold_report));
    println!(
        "np budget grid ({} points, cap=16): warm chains {warm} pivots, cold starts {cold}",
        grid.len()
    );
    gate.check(
        cold == COLD_GRID_PIVOTS,
        format_args!("the cold grid took {cold} pivots (want {COLD_GRID_PIVOTS})"),
    );

    // --- Kept-basis warm solves: bit-identical to fresh ones. ---------
    kept_basis_identity(gate, &np, &grid, &sizing);

    // --- Allocation counts along a seeded figure1 chain. ---------------
    gate_chain_allocs(gate);
    gate_cold_lp_pricing(gate);

    // --- Zero-pivot points along a SolveContext chain. -----------------
    let zero = zero_pivot_points(&np, &grid, &sizing);
    println!(
        "SolveContext chain: {zero} of {} later points in 0 pivots",
        grid.len() - 1
    );
    gate.check(
        zero == ZERO_PIVOT_POINTS,
        format_args!("{zero} chain points re-solved in 0 pivots (want {ZERO_PIVOT_POINTS})"),
    );
}

/// Full table: warm vs cold per worker count, plus per-point pivots,
/// the 8- vs 1-worker warm-sweep ratio, then the allocation counts of a
/// seeded figure1 chain.
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
    let scaling = alternated_ratio(
        probe::RATIO_PAIRS,
        || drop(sweep(&np, &grid, &sizing, 1, true)),
        || drop(sweep(&np, &grid, &sizing, 8, true)),
    );
    println!(
        "warm sweep, 8 vs 1 workers: {scaling} over {} alternated pairs on {} cores\n",
        probe::RATIO_PAIRS,
        socbuf_bench::cores()
    );
    print_chain_allocs(&chain_allocs());
}

fn main() {
    probe::run(smoke, full_probe);
}

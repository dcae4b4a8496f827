//! The anchor-basis contract of warm budget campaigns.
//!
//! Point 0 of a warm budget campaign is solved cold once per plan, and
//! every other chunk starts from a seeded copy of its context: the
//! chunk's first point either answers on the anchor's basis factor in
//! zero pivots or is solved cold, never repaired. So:
//!
//! * a chunk's points depend only on point 0 and the chunk's own
//!   points — running one chunk alone gives exactly its slice of a full
//!   run, pivot counts included;
//! * a chunk start the factor cannot answer costs exactly a cold solve;
//! * a relaxed anchor keeps no factor, so later chunks start cold.

use socbuf_core::{size_buffers, SizingConfig};
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{BudgetSweep, SweepError, SweepPoint, WorkPool, WARM_CHUNK};

fn sweep(arch: &Architecture, budgets: Vec<usize>, sizing: SizingConfig) -> BudgetSweep<'_> {
    let mut sweep = BudgetSweep::new(arch, budgets);
    sweep.sizing = sizing;
    sweep
}

/// The points of `chunks`, run through a fresh plan on `pool`.
fn run_chunks(sweep: &BudgetSweep<'_>, pool: &WorkPool, chunks: &[usize]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    sweep
        .plan(pool)
        .unwrap()
        .run_chunks::<SweepError>(pool, chunks, |_, chunk| {
            points.extend(chunk);
            Ok(())
        })
        .unwrap();
    points
}

#[test]
fn every_chunk_run_alone_equals_its_slice_of_a_full_run() {
    let arch = templates::figure1();
    let budgets: Vec<usize> = (0..32).map(|i| 10 + 3 * (i % 16)).collect();
    let sweep = sweep(&arch, budgets, SizingConfig::small());
    let full = sweep.run(&WorkPool::new(2)).unwrap().points;
    // On this sawtooth the anchor's factor answers every chunk start.
    for (i, p) in full.iter().enumerate().step_by(WARM_CHUNK).skip(1) {
        assert_eq!(p.lp_iterations, 0, "chunk start {i} was not seeded");
    }
    let chunks = full.len().div_ceil(WARM_CHUNK);
    for c in 0..chunks {
        let slice = &full[c * WARM_CHUNK..((c + 1) * WARM_CHUNK).min(full.len())];
        assert_eq!(
            run_chunks(&sweep, &WorkPool::serial(), &[c]),
            slice,
            "chunk {c} run alone drifted from the full run"
        );
    }
    // A pooled subset without chunk 0, out of order.
    let mut want = full[3 * WARM_CHUNK..4 * WARM_CHUNK].to_vec();
    want.extend_from_slice(&full[WARM_CHUNK..2 * WARM_CHUNK]);
    assert_eq!(run_chunks(&sweep, &WorkPool::new(2), &[3, 1]), want);
}

/// Asserts every chunk start of a warm `budgets` campaign the anchor's
/// factor could not answer (it spent pivots) reports exactly the pivots,
/// allocation and loss of a cold `size_buffers`; returns how many there
/// were.
fn check_unanswered_starts(
    arch: &Architecture,
    budgets: Vec<usize>,
    sizing: &SizingConfig,
) -> usize {
    let points = sweep(arch, budgets, sizing.clone())
        .run(&WorkPool::serial())
        .unwrap()
        .points;
    let mut cold_starts = 0;
    for p in points.iter().step_by(WARM_CHUNK).skip(1) {
        if p.lp_iterations == 0 {
            continue;
        }
        cold_starts += 1;
        let cold = size_buffers(arch, p.budget, sizing).unwrap();
        assert_eq!(
            p.lp_iterations, cold.lp_iterations,
            "budget {}: an unanswered chunk start must cost exactly a cold solve",
            p.budget
        );
        assert_eq!(p.allocation, cold.allocation.as_slice());
        assert_eq!(
            p.predicted_loss.to_bits(),
            cold.predicted_loss_rate.to_bits()
        );
    }
    cold_starts
}

#[test]
fn unanswered_chunk_starts_cost_exactly_a_cold_solve() {
    let arch = templates::network_processor();
    // The warm-start probe's grid: the anchor's basis is infeasible at
    // every later chunk start, and a dual repair from it would fail and
    // fall back to cold anyway.
    let probe = SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    };
    let grid: Vec<usize> = (0..16).map(|i| 160 + 32 * i).collect();
    assert_eq!(check_unanswered_starts(&arch, grid, &probe), 3);
    // A sawtooth at the default config, where a repair from the anchor
    // would succeed in a few dozen pivots at budgets 22 and 34.
    let saw: Vec<usize> = (0..12).map(|i| 10 + 3 * i).collect();
    assert_eq!(
        check_unanswered_starts(&arch, saw, &SizingConfig::default()),
        2
    );
}

#[test]
fn a_relaxed_anchor_leaves_later_chunks_sized_cold() {
    // Budget 1 relaxes the budget row, so point 0 keeps no factor.
    let arch = templates::figure1();
    let mut budgets = vec![1];
    budgets.extend((0..11).map(|i| 10 + 4 * i));
    let warm = sweep(&arch, budgets.clone(), SizingConfig::small())
        .run(&WorkPool::new(2))
        .unwrap()
        .points;
    let mut cold = sweep(&arch, budgets, SizingConfig::small());
    cold.warm_start = false;
    let cold = cold.run(&WorkPool::serial()).unwrap().points;
    assert!(warm[0].budget_row_relaxed);
    for i in (0..warm.len()).step_by(WARM_CHUNK) {
        assert_eq!(warm[i], cold[i], "chunk start {i} must be a cold solve");
        assert!(warm[i].lp_iterations > 0);
    }
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.budget_row_relaxed, c.budget_row_relaxed);
        assert!(
            (w.predicted_loss - c.predicted_loss).abs() <= 1e-9 * (1.0 + c.predicted_loss.abs()),
            "budget {}: warm {} vs cold {}",
            w.budget,
            w.predicted_loss,
            c.predicted_loss
        );
        assert_eq!(w.allocation.iter().sum::<usize>(), w.budget);
    }
}

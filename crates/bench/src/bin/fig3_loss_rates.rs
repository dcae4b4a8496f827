//! Experiment E3 — the paper's **Figure 3**: per-processor loss on the
//! network-processor architecture under (i) constant buffer sizing,
//! (ii) CTMDP resizing, (iii) the timeout policy; 10 replications.
//!
//! Expected shape (not absolute numbers): total loss drops ≈ 20 % vs
//! constant sizing and ≈ 50 % vs the timeout policy; a few processors may
//! get slightly worse while hot ones improve drastically.
//!
//! The bin gates the shape the reproduction meets: total post-sizing
//! loss must be below both constant sizing and the timeout policy. It
//! exits with the number of broken checks (`SMOKE FAIL: …` on stderr).
//! The sizes of the drops are printed beside the paper's, not gated
//! (README, "Measured deviations").
//!
//! Run with: `cargo run --release -p socbuf-bench --bin fig3_loss_rates`

use socbuf_bench::probe::Gate;
use socbuf_bench::{bar, paper_pipeline_config};
use socbuf_core::{evaluate_policies, SizingReport};
use socbuf_soc::templates;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = templates::network_processor();
    // Table 1's first column (70/83, 80/100, 107/90, 96/82 for the
    // highlighted processors) matches Figure 3's bars, so the figure is
    // the tight 160-unit configuration.
    let budget = 160;
    let config = paper_pipeline_config();
    eprintln!(
        "sizing + simulating {} processors, budget {budget}, {} replications …",
        arch.num_processors(),
        config.replications
    );
    let cmp = evaluate_policies(&arch, budget, &config)?;
    let report = SizingReport::new(&arch, &cmp);

    println!("=== Figure 3: loss rates before/after sizing and under the timeout policy ===");
    println!(
        "(network processor, total buffer budget {budget} units, {} replications)\n",
        config.replications
    );
    print!("{}", report.figure3_table());

    // The bar view of the figure.
    let max = cmp
        .pre
        .per_proc
        .iter()
        .chain(&cmp.post.per_proc)
        .chain(&cmp.timeout.per_proc)
        .map(|p| p.lost)
        .fold(0.0_f64, f64::max);
    println!("\n--- bars (pre | post | timeout) ---");
    for (i, ((pre, post), to)) in cmp
        .pre
        .per_proc
        .iter()
        .zip(&cmp.post.per_proc)
        .zip(&cmp.timeout.per_proc)
        .enumerate()
    {
        println!("P{:<3} pre     |{}", i + 1, bar(pre.lost, max, 50));
        println!("     post    |{}", bar(post.lost, max, 50));
        println!("     timeout |{}", bar(to.lost, max, 50));
    }

    println!("\npaper: overall loss decreases ~20% vs constant sizing, ~50% vs timeout");
    println!(
        "measured: {:.1}% vs constant sizing, {:.1}% vs timeout",
        100.0 * cmp.improvement_vs_pre(),
        100.0 * cmp.improvement_vs_timeout()
    );

    let (pre, post, timeout) = (
        cmp.pre.total_lost,
        cmp.post.total_lost,
        cmp.timeout.total_lost,
    );
    let mut gate = Gate::new();
    gate.check(
        post < pre,
        format_args!("post-sizing loss {post:.1} is not below constant sizing's {pre:.1}"),
    );
    gate.check(
        post < timeout,
        format_args!("post-sizing loss {post:.1} is not below the timeout policy's {timeout:.1}"),
    );
    std::process::exit(gate.finish())
}

//! Experiment E2 — the paper's **Figure 2**: splitting the Figure 1
//! architecture at its bridges into four linear subsystems.
//!
//! The bin gates that count through `probe::Gate` and exits with the
//! number of broken checks (`SMOKE FAIL: …` on stderr).
//!
//! Run with: `cargo run --release -p socbuf-bench --bin fig2_split`

use socbuf_bench::probe::Gate;
use socbuf_soc::dot::split_to_dot;
use socbuf_soc::split::split;
use socbuf_soc::templates;

fn main() {
    let arch = templates::figure1();
    let parts = split(&arch);

    println!("=== Figure 2: split subsystems of the Figure 1 architecture ===\n");
    println!("(reconstruction notes: DESIGN.md §7)\n");
    for sub in &parts.subsystems {
        println!("subsystem ({})", sub.index + 1);
        println!(
            "  buses:      {:?}",
            sub.buses
                .iter()
                .map(|&b| arch.bus(b).name())
                .collect::<Vec<_>>()
        );
        println!(
            "  processors: {:?}",
            sub.processors
                .iter()
                .map(|&p| arch.processor(p).name())
                .collect::<Vec<_>>()
        );
        println!(
            "  queues:     {:?}",
            sub.queues
                .iter()
                .map(|&q| arch.queue_name(q))
                .collect::<Vec<_>>()
        );
        println!(
            "  boundary:   in {:?} / out {:?}\n",
            sub.incoming_bridges
                .iter()
                .map(|&g| arch.bridge(g).name())
                .collect::<Vec<_>>(),
            sub.outgoing_bridges
                .iter()
                .map(|&g| arch.bridge(g).name())
                .collect::<Vec<_>>()
        );
    }
    println!("--- Graphviz ---\n{}", split_to_dot(&arch, &parts));

    let found = parts.subsystems.len();
    println!("paper: Figure 2 splits the Figure 1 architecture into 4 subsystems");
    println!("measured: {found} subsystems");
    let mut gate = Gate::new();
    gate.check(
        found == 4,
        format_args!("the split found {found} subsystems (the paper's Figure 2 has 4)"),
    );
    std::process::exit(gate.finish())
}

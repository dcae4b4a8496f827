//! Sizing-as-a-service: start a loopback server, issue the same query
//! twice, and watch the second answer come back warm (~0 pivots) with
//! byte-identical result JSON. Then stream a budget campaign's manifest
//! and print its Pareto frontier.
//!
//! Run with: `cargo run --release --example sizing_service`

use socbuf::serve::{Client, Server, ServerConfig};
use socbuf::sizing::SizingConfig;
use socbuf::soc::templates;
use socbuf::sweep::{merge_chunk_reports, BudgetSweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())?;
    let addr = server.tcp_addr().expect("bound over TCP");
    println!("serving on {addr}");

    let arch = templates::network_processor();
    let config = SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    };
    let budget = 320;

    let mut client = Client::connect_tcp(addr)?;

    let cold = client.size(&arch, &config, budget)?;
    println!(
        "cold: warm={} pivots={} solve={}us",
        cold.trace.warm, cold.trace.pivots, cold.trace.solve_us
    );

    let warm = client.size(&arch, &config, budget)?;
    println!(
        "warm: warm={} pivots={} solve={}us",
        warm.trace.warm, warm.trace.pivots, warm.trace.solve_us
    );
    assert_eq!(
        cold.result_json, warm.result_json,
        "warm answers are byte-identical to cold ones"
    );

    // A nearby budget re-targets the cached basis instead of solving
    // from scratch.
    let retarget = client.size(&arch, &config, budget + 32)?;
    println!(
        "retarget (budget {}): warm={} pivots={}",
        budget + 32,
        retarget.trace.warm,
        retarget.trace.pivots
    );
    println!(
        "allocation at budget {budget}: {:?}",
        cold.outcome.allocation
    );

    // Every campaign is a manifest streamed chunk by chunk; merging the
    // chunk reports gives the same report a local run would.
    let mut sweep = BudgetSweep::new(&arch, vec![160, 240, 320]);
    sweep.sizing = config.clone();
    let manifest = sweep.manifest()?;
    let mut reports = Vec::new();
    client.sweep_stream(&manifest, None, |chunk| {
        reports.push(chunk.report);
        Ok(())
    })?;
    let frontier = merge_chunk_reports(&manifest, reports)?;
    println!("\n--- Pareto frontier over budgets 160/240/320 ---");
    print!("{}", frontier.frontier_table());

    let health = client.health()?;
    println!(
        "cache: {} entries, {} hits / {} misses, warm pivots {}",
        health.cache_entries, health.hits, health.misses, health.warm_pivots
    );

    server.shutdown();
    Ok(())
}

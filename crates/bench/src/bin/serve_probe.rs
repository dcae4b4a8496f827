//! Developer probe for the `socbuf-serve` front end: round-trip
//! latency of cold vs warm `size` queries against a loopback server,
//! plus the service contract the CI smoke gate enforces.
//!
//! `--smoke` runs the CI gate:
//!
//! * **byte parity (always enforced)** — the served `result` of a
//!   `size` query must be byte-identical to the direct pipeline's
//!   [`sizing_outcome_semantic_json`] rendering, for a cold solve, a
//!   warm cache hit, and a warm retarget to a nearby budget;
//! * **warm cache (always enforced)** — the repeated identical query
//!   must report `warm` in its trace and spend ~0 simplex pivots (the
//!   context re-enters from its own optimal basis);
//! * **warm latency (enforced when the host has ≥ 2 cores)** — the
//!   best-of-repeats warm-hit round trip must be faster than the
//!   best-of-repeats cold round trip. Warm hits skip the whole
//!   first-phase solve, so this holds by a wide margin everywhere but
//!   on the noisy single-core shared runners the repeats cannot fully
//!   de-noise (same skip policy as `warmstart_probe`).

use std::time::{Duration, Instant};

use socbuf_core::wire::sizing_outcome_semantic_json;
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_serve::{Client, Server, ServerConfig};
use socbuf_soc::templates;

/// The smoke query: the paper's evaluation platform at a Table-1-scale
/// budget, sized to take long enough cold that a warm hit is clearly
/// distinguishable.
fn smoke_sizing() -> SizingConfig {
    SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    }
}

const SMOKE_BUDGET: usize = 320;

/// One timed round trip.
fn timed_size(
    client: &mut Client,
    arch: &socbuf_soc::Architecture,
    config: &SizingConfig,
    budget: usize,
) -> (socbuf_serve::SizeReply, Duration) {
    let t = Instant::now();
    let reply = client.size(arch, config, budget).unwrap_or_else(|e| {
        eprintln!("size request failed: {e}");
        std::process::exit(2);
    });
    (reply, t.elapsed())
}

/// CI-sized gate; exits nonzero on regression.
fn smoke() -> i32 {
    const SMOKE_REPEATS: usize = 3;

    let arch = templates::network_processor();
    let config = smoke_sizing();
    let mut failures = 0;

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap_or_else(|e| {
        eprintln!("cannot bind loopback server: {e}");
        std::process::exit(2);
    });
    let mut client = Client::connect_tcp(server.tcp_addr().expect("tcp server")).unwrap();

    // The reference bytes from the direct, in-process pipeline.
    let direct = size_buffers(&arch, SMOKE_BUDGET, &config).expect("direct solve");
    let want = sizing_outcome_semantic_json(&direct);

    // --- Byte parity + warm cache on a repeated query. -----------------
    let (cold, cold_rt) = timed_size(&mut client, &arch, &config, SMOKE_BUDGET);
    if cold.result_json != want {
        eprintln!("SMOKE FAIL: cold served bytes differ from the direct pipeline");
        failures += 1;
    }
    if cold.trace.warm {
        eprintln!("SMOKE FAIL: first query reported a warm cache hit");
        failures += 1;
    }
    let (warm, warm_rt) = timed_size(&mut client, &arch, &config, SMOKE_BUDGET);
    if warm.result_json != want {
        eprintln!("SMOKE FAIL: warm served bytes differ from the direct pipeline");
        failures += 1;
    }
    if !warm.trace.warm {
        eprintln!("SMOKE FAIL: repeated query missed the warm cache");
        failures += 1;
    }
    if warm.trace.pivots > 1 {
        eprintln!(
            "SMOKE FAIL: warm hit on an identical query spent {} pivots (expected ~0; \
             cold spent {})",
            warm.trace.pivots, cold.trace.pivots
        );
        failures += 1;
    }
    println!(
        "size budget {SMOKE_BUDGET} (cap=16): cold {cold_rt:?} ({} pivots) -> \
         warm {warm_rt:?} ({} pivots)",
        cold.trace.pivots, warm.trace.pivots
    );

    // --- Byte parity on a warm retarget to a nearby budget. ------------
    let nearby = SMOKE_BUDGET + 32;
    let want_nearby =
        sizing_outcome_semantic_json(&size_buffers(&arch, nearby, &config).expect("direct"));
    let (retarget, _) = timed_size(&mut client, &arch, &config, nearby);
    if retarget.result_json != want_nearby {
        eprintln!("SMOKE FAIL: warm retarget to budget {nearby} diverged from the pipeline");
        failures += 1;
    }
    if !retarget.trace.warm {
        eprintln!("SMOKE FAIL: nearby budget missed the warm cache");
        failures += 1;
    }

    // --- Warm-hit latency < cold (multi-core hosts). -------------------
    let mut best_cold = cold_rt;
    let mut best_warm = warm_rt;
    for _ in 0..SMOKE_REPEATS {
        // A fresh server gives a genuinely cold first query each round.
        let fresh = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut fresh_client = Client::connect_tcp(fresh.tcp_addr().unwrap()).unwrap();
        let (_, tc) = timed_size(&mut fresh_client, &arch, &config, SMOKE_BUDGET);
        let (_, tw) = timed_size(&mut fresh_client, &arch, &config, SMOKE_BUDGET);
        best_cold = best_cold.min(tc);
        best_warm = best_warm.min(tw);
        fresh.shutdown();
    }
    let cores = socbuf_bench::cores();
    println!(
        "best round trips: cold {best_cold:?} vs warm {best_warm:?} ({:.1}x)",
        best_cold.as_secs_f64() / best_warm.as_secs_f64().max(1e-12)
    );
    if cores >= 2 {
        if best_warm >= best_cold {
            eprintln!(
                "SMOKE FAIL: warm-hit round trip {best_warm:?} not faster than cold \
                 {best_cold:?} on a {cores}-core host"
            );
            failures += 1;
        }
    } else {
        println!("latency gate SKIPPED: single-core host (parity + warm cache still enforced)");
    }

    let health = client.health().unwrap_or_else(|e| {
        eprintln!("health request failed: {e}");
        std::process::exit(2);
    });
    println!(
        "health: {} hits / {} misses, {} warm vs {} cold pivots",
        health.hits, health.misses, health.warm_pivots, health.cold_pivots
    );
    server.shutdown();

    if failures == 0 {
        println!("smoke OK");
    }
    failures
}

/// Full table: round-trip latency across budgets and templates, cold
/// then warm, with the server's own counters at the end.
fn full_probe() {
    let config = smoke_sizing();
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>8} {:>8}",
        "architecture", "budget", "cold", "warm", "cold pv", "warm pv"
    );
    for (name, arch) in [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
        ("network_processor", templates::network_processor()),
    ] {
        for budget in [160usize, 320, 640] {
            let (cold, cold_rt) = timed_size(&mut client, &arch, &config, budget);
            let (warm, warm_rt) = timed_size(&mut client, &arch, &config, budget);
            println!(
                "{name:<20} {budget:>7} {:>12?} {:>12?} {:>8} {:>8}",
                cold_rt, warm_rt, cold.trace.pivots, warm.trace.pivots
            );
        }
    }
    let health = client.health().unwrap();
    println!(
        "\nserver counters: {} hits / {} misses / {} evictions; {} warm vs {} cold pivots; \
         cache {}/{}; pool width {}",
        health.hits,
        health.misses,
        health.evictions,
        health.warm_pivots,
        health.cold_pivots,
        health.cache_entries,
        health.cache_capacity,
        health.workers
    );
    server.shutdown();
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    if smoke_mode {
        std::process::exit(smoke());
    }
    full_probe();
}

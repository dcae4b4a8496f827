//! Developer probe for the `socbuf-serve` front end: round-trip
//! latency of cold vs warm `size` queries against a loopback server,
//! plus the service contract the CI smoke gate enforces.
//!
//! `--smoke` runs the CI gate:
//!
//! * **byte parity** — the served `result` of a `size` query must be
//!   byte-identical to the direct pipeline's
//!   [`sizing_outcome_semantic_json`] rendering, for a cold solve, a
//!   warm cache hit, and a warm retarget to a nearby budget;
//! * **warm cache** — the repeated identical query must report `warm`
//!   in its trace and spend ~0 simplex pivots (the context re-enters
//!   from its own optimal basis);
//! * **warm latency (wall time, under the [`socbuf_bench::probe`]
//!   single-core skip policy)** — the best-of-repeats warm-hit round
//!   trip must be faster than the best-of-repeats cold round trip.
//!   Warm hits skip the whole first-phase solve, so this holds by a
//!   wide margin.
//! * **frame parse allocations (a count, enforced on every host)** —
//!   parsing the figure1 `small()` `size` request frame may make at
//!   most [`FRAME_PARSE_ALLOC_LIMIT`] heap allocations: the tape, plus
//!   one buffer should a string hold an escape. The count of the
//!   client's parse and decode of the matching reply is printed beside
//!   it; the decoded outcome's own vectors make most of that.

use std::time::Duration;

use socbuf_bench::alloc::{self, CountingAlloc};
use socbuf_bench::probe::{self, best_of, ratio, smoke_sizing, Gate, OrExit};
use socbuf_core::wire::{sizing_outcome_semantic_json, JsonDocument};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_serve::{Client, Request, Response, Server, ServerConfig, SizeReply, Trace};
use socbuf_soc::templates;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most heap allocations parsing one `size` request frame may make.
const FRAME_PARSE_ALLOC_LIMIT: u64 = 2;

/// The smoke query's budget: the paper's evaluation platform at a
/// Table-1 scale, sized to take long enough cold that a warm hit is
/// clearly distinguishable.
const SMOKE_BUDGET: usize = 320;

/// A loopback server and a client connected to it.
fn serve() -> (Server, Client) {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .or_exit("cannot bind loopback server");
    let client = Client::connect_tcp(server.tcp_addr().expect("tcp server"))
        .or_exit("cannot connect to the loopback server");
    (server, client)
}

/// One timed round trip.
fn timed_size(
    client: &mut Client,
    arch: &socbuf_soc::Architecture,
    config: &SizingConfig,
    budget: usize,
) -> (socbuf_serve::SizeReply, Duration) {
    best_of(1, || {
        client
            .size(arch, config, budget)
            .or_exit("size request failed")
    })
}

/// The allocation gate: parsing the figure1 `small()` `size` request
/// frame, as the server does for every request, with the reply's parse
/// and decode reported beside it.
fn check_frame_allocations(gate: &mut Gate) {
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let budget = 24;
    let request = Request::Size {
        arch: arch.clone(),
        config: config.clone(),
        budget,
    }
    .to_json();
    let (parsed, parse) = alloc::count(|| JsonDocument::parse(&request).map(drop));
    parsed.or_exit("the size frame must parse");
    let outcome = size_buffers(&arch, budget, &config).or_exit("direct solve");
    let trace = Trace {
        warm: true,
        pivots: 0,
        queue_wait_us: 12,
        solve_us: 345,
    };
    let reply = Response::for_outcome(&outcome, trace).to_json();
    let (decoded, decode) = alloc::count(|| SizeReply::parse(&reply, &arch).map(drop));
    decoded.or_exit("the size reply must decode");
    println!(
        "figure1 small() size frame ({} bytes): parse {} allocations ({} bytes); \
         reply ({} bytes) parse + decode {} allocations",
        request.len(),
        parse.allocs,
        parse.bytes,
        reply.len(),
        decode.allocs
    );
    gate.check(
        parse.allocs <= FRAME_PARSE_ALLOC_LIMIT,
        format_args!(
            "parsing the size frame made {} allocations (limit {FRAME_PARSE_ALLOC_LIMIT})",
            parse.allocs
        ),
    );
}

/// CI-sized gate.
fn smoke(gate: &mut Gate) {
    check_frame_allocations(gate);

    const SMOKE_REPEATS: usize = 3;

    let arch = templates::network_processor();
    let config = smoke_sizing();
    let (server, mut client) = serve();

    // The reference bytes from the direct, in-process pipeline.
    let direct = size_buffers(&arch, SMOKE_BUDGET, &config).expect("direct solve");
    let want = sizing_outcome_semantic_json(&direct);

    // --- Byte parity + warm cache on a repeated query. -----------------
    let (cold, cold_rt) = timed_size(&mut client, &arch, &config, SMOKE_BUDGET);
    gate.check(
        cold.result_json == want,
        "cold served bytes differ from the direct pipeline",
    );
    gate.check(!cold.trace.warm, "first query reported a warm cache hit");
    let (warm, warm_rt) = timed_size(&mut client, &arch, &config, SMOKE_BUDGET);
    gate.check(
        warm.result_json == want,
        "warm served bytes differ from the direct pipeline",
    );
    gate.check(warm.trace.warm, "repeated query missed the warm cache");
    gate.check(
        warm.trace.pivots <= 1,
        format_args!(
            "warm hit on an identical query spent {} pivots (expected ~0; cold spent {})",
            warm.trace.pivots, cold.trace.pivots
        ),
    );
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
    gate.check(
        retarget.result_json == want_nearby,
        format_args!("warm retarget to budget {nearby} diverged from the pipeline"),
    );
    gate.check(retarget.trace.warm, "nearby budget missed the warm cache");

    // --- Warm-hit latency < cold (multi-core hosts). -------------------
    let mut best_cold = cold_rt;
    let mut best_warm = warm_rt;
    for _ in 0..SMOKE_REPEATS {
        // A fresh server gives a genuinely cold first query each round.
        let (fresh, mut fresh_client) = serve();
        let (_, tc) = timed_size(&mut fresh_client, &arch, &config, SMOKE_BUDGET);
        let (_, tw) = timed_size(&mut fresh_client, &arch, &config, SMOKE_BUDGET);
        best_cold = best_cold.min(tc);
        best_warm = best_warm.min(tw);
        fresh.shutdown();
    }
    println!(
        "best round trips: cold {best_cold:?} vs warm {best_warm:?} ({:.1}x)",
        ratio(best_cold, best_warm)
    );
    gate.timed(
        "latency",
        best_warm < best_cold,
        format_args!("warm-hit round trip {best_warm:?} not faster than cold {best_cold:?}"),
    );

    let health = client.health().or_exit("health request failed");
    println!(
        "health: {} hits / {} misses, {} warm vs {} cold pivots",
        health.hits, health.misses, health.warm_pivots, health.cold_pivots
    );
    server.shutdown();
}

/// Full table: round-trip latency across budgets and templates, cold
/// then warm, with the server's own counters at the end.
fn full_probe() {
    let config = smoke_sizing();
    let (server, mut client) = serve();

    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>8} {:>8}",
        "architecture", "budget", "cold", "warm", "cold pv", "warm pv"
    );
    for (name, arch) in probe::named_templates() {
        for budget in [160usize, 320, 640] {
            let (cold, cold_rt) = timed_size(&mut client, &arch, &config, budget);
            let (warm, warm_rt) = timed_size(&mut client, &arch, &config, budget);
            println!(
                "{name:<20} {budget:>7} {:>12?} {:>12?} {:>8} {:>8}",
                cold_rt, warm_rt, cold.trace.pivots, warm.trace.pivots
            );
        }
    }
    let health = client.health().or_exit("health request failed");
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
    probe::run(smoke, full_probe);
}

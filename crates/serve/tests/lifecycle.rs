//! Server lifecycle contract, over real sockets:
//!
//! * concurrent clients get byte-identical responses to the serial
//!   pipeline for the same request;
//! * cache eviction never changes answers (warm ≡ cold);
//! * drain completes in-flight requests and refuses new ones;
//! * backpressure refuses with `busy` + a retry hint, then recovers;
//! * protocol v1 frames and the verbs v2 removed are refused by name;
//! * `sweep_stream` on a pooled server keeps the requested order and
//!   the serial bytes;
//! * malformed `size` frames keep their exact error text, which wins
//!   over draining and backpressure, and equivalent spellings of one
//!   query (a partial config, reordered fields, whitespace) share one
//!   warm context, with every cache and per-verb counter pinned.

use socbuf_core::wire::{
    architecture_to_json, sizing_config_to_json, sizing_outcome_semantic_json, CampaignManifest,
    ChunkReport, JsonValue,
};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_serve::{
    ChunkReply, Client, ClientConfig, ClientError, Health, Request, RetryPolicy, Server,
    ServerConfig, ShardFleet, StreamEndReply,
};
use socbuf_soc::templates;
use socbuf_sweep::{
    execute_manifest_chunk_traced, merge_chunk_reports, run_manifest, BudgetSweep, ReportStream,
    SweepReport, VecSink, WorkPool,
};

/// The semantic bytes the server must reproduce for (arch, budget).
fn expected(arch: &socbuf_soc::Architecture, budget: usize, config: &SizingConfig) -> String {
    sizing_outcome_semantic_json(&size_buffers(arch, budget, config).expect("direct solve"))
}

/// A budget manifest for `arch` under `config`.
fn budget_manifest(
    arch: &socbuf_soc::Architecture,
    config: &SizingConfig,
    budgets: Vec<usize>,
) -> CampaignManifest {
    let mut sweep = BudgetSweep::new(arch, budgets);
    sweep.sizing = config.clone();
    sweep.manifest().unwrap()
}

/// Streams `chunks` of `manifest`, collecting every chunk frame.
fn stream(
    client: &mut Client,
    manifest: &CampaignManifest,
    chunks: Option<&[usize]>,
) -> Result<(Vec<ChunkReply>, StreamEndReply), ClientError> {
    let mut frames = Vec::new();
    let end = client.sweep_stream(manifest, chunks, |reply| {
        frames.push(reply);
        Ok(())
    })?;
    Ok((frames, end))
}

/// A heavy whole-manifest stream on its own connection, so it is still
/// in flight (holding its in-flight token) while the test pokes the
/// server from another.
fn heavy_stream(
    addr: std::net::SocketAddr,
) -> std::thread::JoinHandle<Result<(Vec<ChunkReply>, StreamEndReply), ClientError>> {
    let heavy_config = SizingConfig {
        state_cap: 16,
        ..SizingConfig::small()
    };
    let manifest = budget_manifest(&templates::amba(), &heavy_config, (20..60).collect());
    std::thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        stream(&mut client, &manifest, None)
    })
}

#[test]
fn repeated_size_queries_answer_byte_identically_and_hit_the_warm_cache() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let arch = templates::amba();
    let config = SizingConfig::small();
    let want = expected(&arch, 24, &config);

    let first = client.size(&arch, &config, 24).unwrap();
    assert_eq!(
        first.result_json, want,
        "cold answer must match the direct pipeline"
    );
    assert!(!first.trace.warm, "first query must be a cache miss");
    assert!(first.trace.pivots > 0, "a cold solve spends pivots");

    let second = client.size(&arch, &config, 24).unwrap();
    assert_eq!(
        second.result_json, want,
        "warm answer must be byte-identical"
    );
    assert!(second.trace.warm, "repeated query must hit the warm cache");
    assert!(
        second.trace.pivots <= 1,
        "a warm hit on an identical query should re-solve in ~0 pivots, spent {}",
        second.trace.pivots
    );

    // A nearby budget warm-retargets off the same context.
    let nearby = client.size(&arch, &config, 26).unwrap();
    assert!(nearby.trace.warm);
    assert_eq!(nearby.result_json, expected(&arch, 26, &config));

    let health = client.health().unwrap();
    assert_eq!(health.misses, 1);
    assert_eq!(health.hits, 2);
    assert!(health.warm_pivots <= health.cold_pivots);
    server.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.tcp_addr().unwrap();
    let config = SizingConfig::small();
    let arch = templates::figure1();
    let budgets = [18usize, 22, 26];
    let want: Vec<String> = budgets
        .iter()
        .map(|&b| expected(&arch, b, &config))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let (arch, config, want) = (&arch, &config, &want);
                scope.spawn(move || {
                    let mut client = Client::connect_tcp(addr).unwrap();
                    // Each client walks the budgets in a different
                    // rotation, so identical keys race in the cache.
                    for round in 0..3 {
                        let i = (worker + round) % budgets.len();
                        let reply = client.size(arch, config, budgets[i]).unwrap();
                        assert_eq!(
                            reply.result_json, want[i],
                            "client {worker} round {round} diverged from the serial pipeline"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    server.shutdown();
}

#[test]
fn cache_eviction_never_changes_answers() {
    // Capacity 1: every alternation between two architectures evicts.
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let config = SizingConfig::small();
    let (a, b) = (templates::amba(), templates::figure1());
    let want_a = expected(&a, 24, &config);
    let want_b = expected(&b, 24, &config);

    for round in 0..3 {
        let ra = client.size(&a, &config, 24).unwrap();
        let rb = client.size(&b, &config, 24).unwrap();
        assert_eq!(
            ra.result_json, want_a,
            "round {round}: evicted-and-resolved answer drifted"
        );
        assert_eq!(
            rb.result_json, want_b,
            "round {round}: evicted-and-resolved answer drifted"
        );
        assert!(
            !ra.trace.warm && !rb.trace.warm,
            "capacity 1 + alternation = all misses"
        );
    }
    let health = client.health().unwrap();
    assert!(
        health.evictions >= 5,
        "alternation must evict, saw {}",
        health.evictions
    );
    assert_eq!(health.cache_entries, 1);
    server.shutdown();
}

#[test]
fn drain_completes_inflight_requests_and_refuses_new_ones() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.tcp_addr().unwrap();
    // A deliberately heavy request so it is still in flight when the
    // drain lands (and still correct if it finishes first — the
    // assertions below hold either way).
    let sweeper = heavy_stream(addr);
    // Give the sweep a moment to enter the server.
    std::thread::sleep(std::time::Duration::from_millis(30));

    let mut client = Client::connect_tcp(addr).unwrap();
    client.drain().unwrap();

    // New solve requests are refused…
    let refused = client.size(&templates::amba(), &SizingConfig::small(), 24);
    match refused {
        Err(ClientError::Remote { message, .. }) => assert_eq!(message, "draining"),
        other => panic!("expected a draining refusal, got {other:?}"),
    }
    // …health still answers and reports the drain…
    assert!(client.health().unwrap().draining);
    // …and the in-flight sweep completes normally.
    let (frames, end) = sweeper
        .join()
        .unwrap()
        .expect("in-flight sweep must complete");
    assert_eq!(end.points, 40);
    for frame in &frames {
        assert!(frame.report_json.contains("\"points\":[{"));
    }
    server.shutdown();
}

#[test]
fn backpressure_refuses_with_busy_then_recovers() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 1,
            retry_after_ms: 7,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let sweeper = heavy_stream(addr);
    std::thread::sleep(std::time::Duration::from_millis(30));

    // While the only in-flight slot is held, size requests bounce.
    let mut client = Client::connect_tcp(addr).unwrap();
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let mut saw_busy = false;
    for _ in 0..50 {
        match client.size(&arch, &config, 24) {
            Err(ClientError::Remote {
                message,
                retry_after_ms,
            }) => {
                assert_eq!(message, "busy");
                assert_eq!(
                    retry_after_ms,
                    Some(7),
                    "the configured retry hint must arrive"
                );
                saw_busy = true;
                break;
            }
            Ok(_) => {
                // The sweep finished before we got a slot conflict;
                // keep probing only while it is still running.
                if sweeper.is_finished() {
                    break;
                }
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    let sweep_result = sweeper.join().unwrap();
    assert!(
        sweep_result.is_ok(),
        "backpressure must not break the in-flight request"
    );
    if !saw_busy {
        // Machine too fast to observe the overlap — the recovery
        // assertion below still validates the path end to end.
        eprintln!("note: sweep completed before a busy refusal could be observed");
    }

    // With the slot free again, the same request succeeds and matches
    // the serial pipeline.
    let reply = client.size(&arch, &config, 24).unwrap();
    assert_eq!(reply.result_json, expected(&arch, 24, &config));
    server.shutdown();
}

#[test]
fn malformed_and_mismatched_requests_fail_without_killing_the_connection() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let reply = client.request_raw("this is not json").unwrap();
    assert!(
        reply.contains("\"ok\":false"),
        "malformed JSON must be refused: {reply}"
    );

    let reply = client.request_raw("{\"v\":9,\"req\":\"health\"}").unwrap();
    assert!(
        reply.contains("version"),
        "version mismatch must be named: {reply}"
    );

    // A protocol v1 frame gets the named version error…
    let reply = client.request_raw("{\"v\":1,\"req\":\"health\"}").unwrap();
    assert!(
        reply.contains("\"ok\":false") && reply.contains("unsupported protocol version 1"),
        "a v1 frame must be refused by version: {reply}"
    );
    // …and each verb v2 removed, sent as v2, gets its removal error.
    for verb in [
        "sweep",
        "frontier",
        "sweep_chunk",
        "snapshot_export",
        "snapshot_import",
    ] {
        let reply = client
            .request_raw(&format!("{{\"v\":2,\"req\":\"{verb}\"}}"))
            .unwrap();
        let named = format!("verb \\\"{verb}\\\" was removed in protocol v2");
        assert!(
            reply.contains("\"ok\":false") && reply.contains(&named),
            "removed verb {verb} must be refused by name: {reply}"
        );
    }

    // Domain validation surfaces the pipeline's own message…
    let arch = templates::amba();
    let config = SizingConfig::small();
    match client.size(&arch, &config, 0) {
        Err(ClientError::Remote { message, .. }) => {
            assert!(
                message.contains("budget must be positive"),
                "got: {message}"
            )
        }
        other => panic!("budget 0 must be refused, got {other:?}"),
    }
    // …and the connection (and the cached context) survive all of it.
    let reply = client.size(&arch, &config, 24).unwrap();
    assert_eq!(reply.result_json, expected(&arch, 24, &config));
    server.shutdown();
}

/// Every counter in `Health` that is defined as "since start" must be
/// monotone non-decreasing between two snapshots.
fn assert_monotone(before: &Health, after: &Health, at: &str) {
    assert!(after.hits >= before.hits, "{at}: hits decreased");
    assert!(after.misses >= before.misses, "{at}: misses decreased");
    assert!(
        after.evictions >= before.evictions,
        "{at}: evictions decreased"
    );
    assert!(
        after.warm_pivots >= before.warm_pivots,
        "{at}: warm_pivots decreased"
    );
    assert!(
        after.cold_pivots >= before.cold_pivots,
        "{at}: cold_pivots decreased"
    );
    for (name, b, a) in [
        ("size", before.requests.size, after.requests.size),
        (
            "sweep_stream",
            before.requests.sweep_stream,
            after.requests.sweep_stream,
        ),
        ("health", before.requests.health, after.requests.health),
        ("drain", before.requests.drain, after.requests.drain),
    ] {
        assert!(a >= b, "{at}: requests.{name} decreased ({b} -> {a})");
    }
    for (name, b, a) in [
        ("frames", before.streaming.frames, after.streaming.frames),
        ("bytes", before.streaming.bytes, after.streaming.bytes),
        (
            "peak_resident_points",
            before.streaming.peak_resident_points,
            after.streaming.peak_resident_points,
        ),
    ] {
        assert!(a >= b, "{at}: streaming.{name} decreased ({b} -> {a})");
    }
}

#[test]
fn health_counters_stay_monotone_across_warm_cold_and_evicting_traffic() {
    // Capacity 1 forces the full lifecycle: cold miss, warm hit,
    // evicting miss — with a health snapshot between every step.
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let config = SizingConfig::small();
    let (a, b) = (templates::amba(), templates::figure1());

    let h0 = client.health().unwrap();
    assert_eq!(h0.requests.size, 0);
    assert_eq!(h0.requests.health, 1, "health must count itself");

    let cold = client.size(&a, &config, 24).unwrap();
    assert!(!cold.trace.warm);
    let h1 = client.health().unwrap();
    assert_monotone(&h0, &h1, "after cold solve");
    assert_eq!(h1.misses, h0.misses + 1);
    assert!(
        h1.cold_pivots > h0.cold_pivots,
        "a cold solve spends pivots"
    );

    let warm = client.size(&a, &config, 24).unwrap();
    assert!(warm.trace.warm);
    let h2 = client.health().unwrap();
    assert_monotone(&h1, &h2, "after warm hit");
    assert_eq!(h2.hits, h1.hits + 1);
    assert_eq!(h2.misses, h1.misses, "a warm hit must not count as a miss");

    let evicting = client.size(&b, &config, 24).unwrap();
    assert!(!evicting.trace.warm);
    let h3 = client.health().unwrap();
    assert_monotone(&h2, &h3, "after evicting solve");
    assert_eq!(h3.evictions, h2.evictions + 1);
    assert_eq!(h3.misses, h2.misses + 1);

    assert_eq!(h3.requests.size, 3, "three size requests were issued");
    assert_eq!(h3.requests.health, 4, "four health requests were issued");
    assert_eq!(h3.requests.sweep_stream, 0);
    server.shutdown();
}

#[test]
fn a_stalled_server_times_out_instead_of_hanging_the_client() {
    // A raw listener that accepts the connection and then never
    // answers — the failure mode a read bound exists for.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the connection open, reading but never replying, until
        // the client gives up and drops its end.
        let mut stream = stream;
        let mut sink = [0u8; 256];
        use std::io::Read;
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let bound = std::time::Duration::from_millis(150);
    let mut client = Client::connect_tcp_with(
        addr,
        ClientConfig {
            connect_timeout: Some(std::time::Duration::from_secs(2)),
            read_timeout: Some(bound),
        },
    )
    .unwrap();
    let start = std::time::Instant::now();
    match client.health() {
        Err(ClientError::Io(e)) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::TimedOut,
            "stall must surface as a timeout, got {e}"
        ),
        other => panic!("expected a timeout, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed >= bound,
        "timed out before the bound: {elapsed:?} < {bound:?}"
    );
    assert!(
        elapsed < bound * 10,
        "timeout wildly overshot the bound: {elapsed:?}"
    );
    drop(client);
    stall.join().unwrap();
}

#[test]
fn fleet_fan_out_merges_byte_identically() {
    let arch = templates::amba();
    let config = SizingConfig::small();
    let manifest = budget_manifest(&arch, &config, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();

    let shard_a = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let shard_b = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr_a = shard_a.tcp_addr().unwrap();
    let addr_b = shard_b.tcp_addr().unwrap();

    // Coordinator fan-out over both shards reproduces the serial bytes.
    let mut fleet = ShardFleet::new(
        vec![
            Client::connect_tcp(addr_a).unwrap(),
            Client::connect_tcp(addr_b).unwrap(),
        ],
        RetryPolicy::default(),
    );
    let (sink, stats) = fleet
        .run_manifest_to_sink(&manifest, VecSink::new())
        .unwrap();
    let merged = SweepReport {
        kind: serial.kind,
        points: sink.into_points(),
    };
    assert_eq!(merged.to_csv(), serial.to_csv());
    assert_eq!(merged.to_jsonl(), serial.to_jsonl());
    assert_eq!(stats.chunks, manifest.chunks.len());

    // A fresh shard serving one chunk alone answers the bytes the
    // in-process chunk execution renders.
    let shard_c = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client_c = Client::connect_tcp(shard_c.tcp_addr().unwrap()).unwrap();
    let (frames, _) = stream(&mut client_c, &manifest, Some(&[0])).unwrap();
    let (local, _) = execute_manifest_chunk_traced(&manifest, 0, &WorkPool::serial()).unwrap();
    assert_eq!(frames.len(), 1);
    assert!(!frames[0].trace.warm, "a chunk's warm chain starts cold");
    assert_eq!(
        frames[0].report_json,
        local.to_json(),
        "a served chunk changed a rendered byte"
    );
    let health_c = client_c.health().unwrap();
    assert_eq!(health_c.requests.sweep_stream, 1);

    shard_a.shutdown();
    shard_b.shutdown();
    shard_c.shutdown();
}

/// Each chunk of a serial run of `manifest`: its chunk-report JSON (the
/// run's JSONL lines, parsed, without the merged report's global
/// frontier flag) and its summed pivots.
fn serial_chunks(manifest: &CampaignManifest) -> Vec<(String, usize)> {
    let serial = run_manifest(manifest, &WorkPool::serial()).unwrap();
    let parsed: Vec<JsonValue> = serial
        .to_jsonl()
        .lines()
        .map(|line| match JsonValue::parse(line).unwrap() {
            JsonValue::Obj(fields) => JsonValue::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "frontier")
                    .collect(),
            ),
            other => panic!("a point renders as an object, got {other:?}"),
        })
        .collect();
    manifest
        .chunks
        .iter()
        .enumerate()
        .map(|(chunk, range)| {
            let json = ChunkReport {
                config_hash: manifest.config_hash,
                kind: serial.kind.tag().into(),
                chunk,
                start: range.start,
                end: range.end,
                points: parsed[range.start..range.end].to_vec(),
            }
            .to_json();
            let pivots = serial.points[range.start..range.end]
                .iter()
                .map(|p| p.lp_iterations)
                .sum();
            (json, pivots)
        })
        .collect()
}

#[test]
fn pooled_subset_streams_without_chunk_zero_keep_the_serial_bytes() {
    // Every chunk of a warm budget campaign starts from the campaign's
    // point 0, so a stream that never runs chunk 0 still solves it once
    // and seeds its chunks from it: same bytes and same pivots as the
    // serial run.
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let manifest = budget_manifest(&arch, &config, (0..24).map(|i| 10 + 3 * (i % 16)).collect());
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let order = [4usize, 1, 3];
    let (frames, end) = stream(&mut client, &manifest, Some(&order)).unwrap();
    assert_eq!(end.frames, 3);
    let serial = serial_chunks(&manifest);
    for (frame, &chunk) in frames.iter().zip(&order) {
        assert_eq!(frame.report.chunk, chunk);
        let (json, pivots) = &serial[chunk];
        assert_eq!(&frame.report_json, json, "chunk {chunk} changed a byte");
        assert_eq!(frame.trace.pivots, *pivots, "chunk {chunk} was not seeded");
    }
    server.shutdown();
}

#[test]
fn pooled_streams_keep_the_requested_order_and_the_serial_bytes() {
    let arch = templates::amba();
    let config = SizingConfig::small();
    let manifest = budget_manifest(&arch, &config, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    assert_eq!(manifest.chunks.len(), 3);
    let on = |workers| {
        Server::bind_tcp(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let (pooled, serial_server) = (on(4), on(1));
    let mut client = Client::connect_tcp(pooled.tcp_addr().unwrap()).unwrap();
    let mut serial_client = Client::connect_tcp(serial_server.tcp_addr().unwrap()).unwrap();

    // A non-monotone subset arrives in the requested order.
    let order = [2usize, 0];
    let (frames, end) = stream(&mut client, &manifest, Some(&order)).unwrap();
    let (serial_frames, _) = stream(&mut serial_client, &manifest, Some(&order)).unwrap();
    let arrived: Vec<usize> = frames.iter().map(|f| f.report.chunk).collect();
    assert_eq!(arrived, order, "frames must arrive in the requested order");
    assert_eq!(end.frames, 2);

    let serial = serial_chunks(&manifest);
    for (frame, serial_frame) in frames.iter().zip(&serial_frames) {
        assert_eq!(
            frame.report_json, serial_frame.report_json,
            "chunk {}: a 4-worker server changed a byte",
            frame.report.chunk
        );
        let want = &serial[frame.report.chunk].0;
        assert_eq!(&frame.report_json, want, "chunk {}", frame.report.chunk);
    }

    // The raw frame on the wire, before any client re-rendering, carries
    // exactly those bytes.
    let mut raw = Client::connect_tcp(pooled.tcp_addr().unwrap()).unwrap();
    let first = raw
        .request_raw(
            &Request::SweepStream {
                manifest: manifest.clone(),
                chunks: Some(vec![2]),
            }
            .to_json(),
        )
        .unwrap();
    let embedded = format!("\"chunk_report\":{},\"trace\":", frames[0].report_json);
    assert!(first.contains(&embedded), "raw chunk frame: {first}");

    // An out-of-range index ends the stream with an error frame, and
    // the connection keeps serving.
    match stream(&mut client, &manifest, Some(&[0, 7])) {
        Err(ClientError::Remote { message, .. }) => {
            assert!(message.contains("out of range"), "got: {message}")
        }
        other => panic!("an out-of-range chunk must be refused, got {other:?}"),
    }
    assert_eq!(client.health().unwrap().requests.sweep_stream, 3);

    pooled.shutdown();
    serial_server.shutdown();
}

#[test]
fn sweep_stream_reproduces_batch_bytes_and_moves_the_streaming_gauges() {
    let arch = templates::amba();
    let config = SizingConfig::small();
    let manifest = budget_manifest(&arch, &config, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let h0 = client.health().unwrap();
    assert_eq!(h0.streaming.frames, 0);
    assert_eq!(h0.streaming.bytes, 0);

    // A full stream delivers one frame per chunk; the frames merge to
    // the serial bytes.
    let mut reports = Vec::new();
    let end = client
        .sweep_stream(&manifest, None, |reply| {
            reports.push(reply.report);
            Ok(())
        })
        .unwrap();
    assert_eq!(end.frames as usize, manifest.chunks.len());
    assert_eq!(end.points as usize, manifest.items());
    let merged = merge_chunk_reports(&manifest, &reports).unwrap();
    assert_eq!(merged.to_csv(), serial.to_csv());
    assert_eq!(merged.to_jsonl(), serial.to_jsonl());

    // A subset stream answers exactly the requested chunks, with the
    // same bytes the full stream carried.
    let mut subset = Vec::new();
    let end = client
        .sweep_stream(&manifest, Some(&[1]), |reply| {
            subset.push(reply.report);
            Ok(())
        })
        .unwrap();
    assert_eq!(end.frames, 1);
    assert_eq!(subset.len(), 1);
    assert_eq!(subset[0].chunk, 1);
    assert_eq!(subset[0].to_json(), reports[1].to_json());

    let h1 = client.health().unwrap();
    assert_monotone(&h0, &h1, "after streaming");
    assert_eq!(h1.requests.sweep_stream, 2);
    assert!(
        h1.streaming.frames > manifest.chunks.len() as u64,
        "every chunk frame and both summaries count, saw {}",
        h1.streaming.frames
    );
    assert!(h1.streaming.bytes > 0);
    assert!(
        h1.streaming.peak_resident_points >= 1,
        "a streamed chunk holds at least one point resident"
    );
    server.shutdown();
}

#[test]
fn fleet_streaming_merge_is_byte_identical_to_the_batch_path() {
    let arch = templates::amba();
    let config = SizingConfig::small();
    let manifest = budget_manifest(&arch, &config, vec![10, 12, 14, 16, 18, 20, 24, 28, 32, 40]);
    let serial = run_manifest(&manifest, &WorkPool::serial()).unwrap();

    let shard_a = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let shard_b = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut fleet = ShardFleet::new(
        vec![
            Client::connect_tcp(shard_a.tcp_addr().unwrap()).unwrap(),
            Client::connect_tcp(shard_b.tcp_addr().unwrap()).unwrap(),
        ],
        RetryPolicy::default(),
    );

    // Stream both shards straight into a CSV renderer: no chunk-report
    // vector, no point vector — and still the serial bytes.
    let stream = ReportStream::csv(serial.kind, Vec::new());
    let (stream, stats) = fleet.run_manifest_to_sink(&manifest, stream).unwrap();
    let (bytes, summary) = stream.finish().unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), serial.to_csv());
    assert_eq!(stats.chunks, manifest.chunks.len());
    assert_eq!(stats.points, manifest.items());
    assert_eq!(summary.points, manifest.items());
    assert!(
        stats.peak_resident_points < manifest.items(),
        "the reducer must not hold the whole campaign resident"
    );

    shard_a.shutdown();
    shard_b.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_identically() {
    let path = std::env::temp_dir().join(format!("socbuf-serve-test-{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, ServerConfig::default()).unwrap();
    let mut client = Client::connect_unix(&path).unwrap();
    let arch = templates::coreconnect();
    let config = SizingConfig::small();

    let reply = client.size(&arch, &config, 30).unwrap();
    assert_eq!(reply.result_json, expected(&arch, 30, &config));
    let again = client.size(&arch, &config, 30).unwrap();
    assert_eq!(again.result_json, reply.result_json);
    assert!(again.trace.warm);

    let manifest = budget_manifest(&arch, &config, vec![24, 28, 32]);
    let (frames, _) = stream(&mut client, &manifest, None).unwrap();
    let reports: Vec<ChunkReport> = frames.into_iter().map(|f| f.report).collect();
    let frontier = merge_chunk_reports(&manifest, &reports).unwrap();
    assert!(!frontier.pareto_frontier().is_empty());
    assert!(frontier.frontier_table().contains("budget"));

    server.shutdown();
    assert!(!path.exists(), "shutdown must remove the socket file");
}

// ---------------------------------------------------------------------
// Pinned frame handling: the exact reply text of malformed `size`
// frames, their precedence over draining and backpressure, and the
// cache and per-verb counters each frame moves.
// ---------------------------------------------------------------------

/// One `size` frame with its fields spelled exactly as given; `None`
/// leaves the field out.
fn size_frame(arch: Option<&str>, config: Option<&str>, budget: Option<&str>) -> String {
    let mut out = String::from("{\"v\":2,\"req\":\"size\"");
    for (key, value) in [("arch", arch), ("config", config), ("budget", budget)] {
        if let Some(value) = value {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
    }
    out.push('}');
    out
}

/// The canonical figure1 architecture and `small()` config texts.
fn canonical_texts() -> (String, String) {
    (
        architecture_to_json(&templates::figure1()),
        sizing_config_to_json(&SizingConfig::small()),
    )
}

/// The `size` frames whose arch, config or budget (or version) is
/// malformed, each with its pinned error text. Every one is refused
/// while decoding, so it counts under no verb and touches no cache
/// counter.
fn malformed_size_frames() -> Vec<(&'static str, String, &'static str)> {
    let (a, c) = canonical_texts();
    let negative_rate = a.replacen("\"service_rate\":", "\"service_rate\":-", 1);
    vec![
        (
            "missing arch",
            size_frame(None, Some(&c), Some("24")),
            r#"{"v":2,"ok":false,"error":"schema error: request: missing field \"arch\""}"#,
        ),
        (
            "missing config",
            size_frame(Some(&a), None, Some("24")),
            r#"{"v":2,"ok":false,"error":"schema error: request: missing field \"config\""}"#,
        ),
        (
            "missing budget",
            size_frame(Some(&a), Some(&c), None),
            r#"{"v":2,"ok":false,"error":"schema error: request: missing field \"budget\""}"#,
        ),
        (
            "arch without processors",
            size_frame(Some("{\"buses\":[]}"), Some(&c), Some("24")),
            r#"{"v":2,"ok":false,"error":"schema error: architecture: missing field \"processors\""}"#,
        ),
        (
            "arch with a negative rate",
            size_frame(Some(&negative_rate), Some(&c), Some("24")),
            r#"{"v":2,"ok":false,"error":"schema error: architecture: rate of bus 'a' must be positive, got -1"}"#,
        ),
        (
            "config with a string state_cap",
            size_frame(Some(&a), Some("{\"state_cap\":\"eight\"}"), Some("24")),
            r#"{"v":2,"ok":false,"error":"schema error: state_cap: expected a finite number, got a string"}"#,
        ),
        (
            "config with an unknown field",
            size_frame(Some(&a), Some("{\"cap\":8}"), Some("24")),
            concat!(
                r#"{"v":2,"ok":false,"error":"schema error: config: unknown field \"cap\" "#,
                r#"(expected one of [\"state_cap\", \"effort_levels\", \"alpha\", "#,
                r#"\"quantile\", \"bus_effort_limit\", \"engine\", \"equilibrate\"])"}"#
            ),
        ),
        (
            "fractional budget",
            size_frame(Some(&a), Some(&c), Some("24.5")),
            r#"{"v":2,"ok":false,"error":"schema error: budget: expected a non-negative integer, got 24.5"}"#,
        ),
        (
            "wrong version",
            size_frame(Some(&a), Some(&c), Some("24")).replacen("\"v\":2", "\"v\":3", 1),
            r#"{"v":2,"ok":false,"error":"schema error: unsupported protocol version 3 (this server speaks 2)"}"#,
        ),
        (
            "invalid arch and invalid budget",
            size_frame(Some("{\"buses\":[]}"), Some(&c), Some("-1")),
            r#"{"v":2,"ok":false,"error":"schema error: architecture: missing field \"processors\""}"#,
        ),
    ]
}

/// `size` frames that decode: the pipeline refuses the first two when
/// it solves, the last two are answerable. Each counts as one `size`
/// request.
fn decodable_size_frames() -> Vec<(&'static str, String)> {
    let (a, c) = canonical_texts();
    vec![
        ("budget 0", size_frame(Some(&a), Some(&c), Some("0"))),
        (
            "state_cap 1",
            size_frame(Some(&a), Some("{\"state_cap\":1}"), Some("24")),
        ),
        ("canonical", size_frame(Some(&a), Some(&c), Some("24"))),
        (
            "partial config",
            size_frame(
                Some(&a),
                Some("{\"state_cap\":8,\"effort_levels\":3}"),
                Some("24"),
            ),
        ),
    ]
}

/// Sends every malformed frame and checks its pinned reply.
fn assert_malformed_replies(client: &mut Client, at: &str) {
    for (name, frame, want) in malformed_size_frames() {
        let reply = client.request_raw(&frame).unwrap();
        assert_eq!(reply, want, "{at}: {name}");
    }
}

#[test]
fn malformed_size_frames_get_pinned_replies_and_move_no_counter() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    assert_malformed_replies(&mut client, "serving");
    let h = client.health().unwrap();
    assert_eq!((h.hits, h.misses, h.cache_entries), (0, 0, 0));
    assert_eq!(h.requests.size, 0, "a refused frame counts under no verb");
    assert_eq!(h.requests.health, 1);

    // Frames that decode but fail in the pipeline count, miss, and
    // leave their context cached for the next caller.
    let frames = decodable_size_frames();
    let budget_zero = client.request_raw(&frames[0].1).unwrap();
    assert_eq!(
        budget_zero,
        r#"{"v":2,"ok":false,"error":"bad sizing config: budget must be positive"}"#
    );
    let bad_cap = client.request_raw(&frames[1].1).unwrap();
    assert_eq!(
        bad_cap,
        r#"{"v":2,"ok":false,"error":"bad sizing config: state_cap must be ≥ 2"}"#
    );
    let h = client.health().unwrap();
    assert_eq!((h.hits, h.misses, h.cache_entries), (0, 2, 2));
    assert_eq!((h.requests.size, h.requests.health), (2, 2));

    // The same refusals again: now warm hits, the same text.
    assert_eq!(client.request_raw(&frames[0].1).unwrap(), budget_zero);
    assert_eq!(client.request_raw(&frames[1].1).unwrap(), bad_cap);
    let h = client.health().unwrap();
    assert_eq!((h.hits, h.misses, h.cache_entries), (2, 2, 2));
    assert_eq!((h.requests.size, h.requests.health), (4, 3));

    // The context a budget-0 frame left behind answers warm.
    let reply = client
        .size(&templates::figure1(), &SizingConfig::small(), 24)
        .unwrap();
    assert!(reply.trace.warm);
    assert_eq!(
        reply.result_json,
        expected(&templates::figure1(), 24, &SizingConfig::small())
    );
    let h = client.health().unwrap();
    assert_eq!((h.hits, h.misses, h.cache_entries), (3, 2, 2));
    assert_eq!((h.requests.size, h.requests.health), (5, 4));
    server.shutdown();
}

#[test]
fn request_frames_with_unknown_keys_get_pinned_replies_and_move_no_counter() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let manifest = budget_manifest(
        &templates::figure1(),
        &SizingConfig::small(),
        vec![16, 20, 24, 28, 32],
    );
    // A misspelt `chunks` must not stream the whole campaign.
    let misspelt = format!(
        "{{\"v\":2,\"req\":\"sweep_stream\",\"manifest\":{},\"chunk\":[1]}}",
        manifest.to_json()
    );
    assert_eq!(
        client.request_raw(&misspelt).unwrap(),
        concat!(
            r#"{"v":2,"ok":false,"error":"schema error: request: unknown field \"chunk\" "#,
            r#"(expected one of [\"v\", \"req\", \"manifest\", \"chunks\"])"}"#
        )
    );
    assert_eq!(
        client
            .request_raw(r#"{"v":2,"req":"health","verbose":true}"#)
            .unwrap(),
        concat!(
            r#"{"v":2,"ok":false,"error":"schema error: request: unknown field \"verbose\" "#,
            r#"(expected one of [\"v\", \"req\"])"}"#
        )
    );
    let h = client.health().unwrap();
    assert_eq!((h.requests.sweep_stream, h.requests.health), (0, 1));
    assert_eq!(h.streaming.frames, 0, "nothing was streamed");
    server.shutdown();
}

#[test]
fn malformed_size_frames_keep_their_replies_while_draining() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    // Warm the canonical key first, so a draining refusal is not a
    // side effect of an empty cache.
    client
        .size(&templates::figure1(), &SizingConfig::small(), 24)
        .unwrap();
    client.drain().unwrap();
    let before = client.health().unwrap();
    assert_eq!((before.hits, before.misses), (0, 1));

    // Decoding still settles first: a malformed frame keeps its own
    // error rather than the drain's.
    assert_malformed_replies(&mut client, "draining");
    for (name, frame) in decodable_size_frames() {
        let reply = client.request_raw(&frame).unwrap();
        assert_eq!(
            reply, r#"{"v":2,"ok":false,"error":"draining"}"#,
            "draining: {name}"
        );
    }
    let after = client.health().unwrap();
    assert_eq!(
        (after.hits, after.misses),
        (0, 1),
        "a refusal checks nothing out"
    );
    assert_eq!(after.requests.size, before.requests.size + 4);
    assert_eq!(after.requests.health, before.requests.health + 1);
    assert_eq!(after.requests.drain, 1);
    server.shutdown();
}

/// A whole-manifest stream whose reader stops reading after the first
/// frame and closes the connection once `release` fires. The server
/// keeps writing until the socket buffers fill and then blocks, so the
/// stream holds its in-flight token for as long as the test wants,
/// whatever a point costs. The manifest renders to far more bytes than
/// loopback buffers hold (tens of MB against a few), so the stream
/// cannot end on its own first.
fn stalled_stream(
    addr: std::net::SocketAddr,
) -> (std::thread::JoinHandle<()>, std::sync::mpsc::Sender<()>) {
    let manifest = budget_manifest(
        &templates::figure1(),
        &SizingConfig::small(),
        (0..50_000).map(|i| 10 + i % 40).collect(),
    );
    let (release, released) = std::sync::mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        let stopped = client.sweep_stream(&manifest, None, |_| {
            let _ = released.recv();
            Err(ClientError::Io(std::io::Error::other("released")))
        });
        assert!(stopped.is_err(), "the stream ended before its release");
        // Dropping the client closes the connection; the server's next
        // write fails and the stream gives its token back.
    });
    (reader, release)
}

#[test]
fn malformed_size_frames_keep_their_replies_while_busy() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 1,
            retry_after_ms: 7,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    client
        .size(&templates::figure1(), &SizingConfig::small(), 24)
        .unwrap();
    // A stalled stream holds the only in-flight slot until released.
    let (reader, release) = stalled_stream(addr);
    let held = |client: &mut Client| client.health().unwrap();
    let mut before = held(&mut client);
    while before.inflight == 0 {
        assert!(!reader.is_finished(), "the stalled stream never started");
        std::thread::sleep(std::time::Duration::from_millis(2));
        before = held(&mut client);
    }
    let malformed: Vec<_> = malformed_size_frames()
        .into_iter()
        .map(|(name, frame, want)| (name, client.request_raw(&frame).unwrap(), want))
        .collect();
    let decodable: Vec<_> = decodable_size_frames()
        .into_iter()
        .map(|(name, frame)| (name, client.request_raw(&frame).unwrap()))
        .collect();
    let after = held(&mut client);
    release.send(()).unwrap();
    reader.join().unwrap();
    assert_eq!(
        (before.inflight, after.inflight),
        (1, 1),
        "the stalled stream held the slot"
    );
    for (name, reply, want) in malformed {
        assert_eq!(reply, want, "busy: {name}");
    }
    for (name, reply) in decodable {
        assert_eq!(
            reply, r#"{"v":2,"ok":false,"error":"busy","retry_after_ms":7}"#,
            "busy: {name}"
        );
    }
    assert_eq!((after.hits, after.misses), (before.hits, before.misses));
    assert_eq!(after.requests.size, before.requests.size + 4);
    assert_eq!(after.requests.health, before.requests.health + 1);
    // The released slot serves again.
    while held(&mut client).inflight != 0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    client
        .size(&templates::figure1(), &SizingConfig::small(), 24)
        .unwrap();
    server.shutdown();
}

#[test]
fn equivalent_spellings_of_a_query_share_one_warm_context() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let arch = templates::figure1();
    let config = SizingConfig::small();
    let want = expected(&arch, 24, &config);
    let (a, _) = canonical_texts();

    let canonical = client.size(&arch, &config, 24).unwrap();
    assert_eq!(canonical.result_json, want);
    assert!(!canonical.trace.warm);
    let h = client.health().unwrap();
    assert_eq!((h.hits, h.misses, h.cache_entries), (0, 1, 1));
    assert_eq!((h.requests.size, h.requests.health), (1, 1));

    // Reordered top-level arch fields, and a bus object with its keys
    // swapped: the same architecture, so the same warm context.
    let reordered = match JsonValue::parse(&a).unwrap() {
        JsonValue::Obj(mut fields) => {
            fields.reverse();
            JsonValue::Obj(fields).render()
        }
        other => panic!("architecture JSON is an object, got {other:?}"),
    };
    assert_ne!(reordered, a);
    let spellings = [
        (
            "partial config",
            size_frame(Some(&a), Some("{\"state_cap\":8,\"effort_levels\":3}"), Some("24")),
        ),
        (
            "reordered arch",
            size_frame(
                Some(&reordered),
                Some(&sizing_config_to_json(&config)),
                Some("24"),
            ),
        ),
        (
            "padded frame",
            format!(
                "{{ \"v\" : 2 , \"req\" : \"size\" , \"arch\" : {a} , \"config\" : {{ }} , \"budget\" : 24 }}"
            )
            .replace("\"config\" : { }", "\"config\" : {\"state_cap\": 8, \"effort_levels\": 3}"),
        ),
    ];
    for (step, (name, frame)) in spellings.iter().enumerate() {
        let reply = client.request_raw(frame).unwrap();
        match socbuf_serve::Response::parse(&reply).unwrap() {
            socbuf_serve::Response::Size { result, trace } => {
                assert_eq!(result, want, "{name}: answered different bytes");
                assert!(trace.warm, "{name}: must hit the warm context");
            }
            other => panic!("{name}: expected a size reply, got {other:?}"),
        }
        let h = client.health().unwrap();
        let hits = step as u64 + 1;
        assert_eq!((h.hits, h.misses, h.cache_entries), (hits, 1, 1), "{name}");
        assert_eq!(
            (h.requests.size, h.requests.health),
            (hits + 1, hits + 1),
            "{name}"
        );
    }
    server.shutdown();
}

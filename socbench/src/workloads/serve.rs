//! `serve_mixed`: an in-process `Server` on loopback TCP, driven as a
//! closed loop by one `Client` connection per core, each on its own
//! thread. The seeded mix is mostly `size` at `SizingConfig::small()`,
//! some `sweep_stream` of a small manifest and a periodic `health`. The
//! key set is larger than the cache, so a share of requests miss and
//! evict; the cache is filled during set-up.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use socbuf_core::wire::{
    architecture_from_json, architecture_to_json, sizing_outcome_from_json,
    sizing_outcome_semantic_json, CampaignManifest, JsonValue,
};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_serve::{Client, ClientError, Request, Response, Server, ServerConfig, Trace};
use socbuf_soc::templates;
use socbuf_soc::Architecture;
use socbuf_sweep::BudgetSweep;

use super::{Measured, Pairs, Traced};
use crate::host::{RefClock, REF_EVERY};
use crate::rng::SplitMix64;
use crate::stats::{mean, Tally};
use crate::trace::{Tracer, ROOT};

/// Warm contexts the server keeps.
const CACHE_CAPACITY: usize = 8;

/// Keys each connection keeps warm.
const HOT_PER_CLIENT: usize = 3;

/// Keys that only ever miss: together with the hot keys they outnumber
/// the cache.
const COLD_KEYS: usize = 18;

/// Share of requests that go to a cold key.
const MISS_SHARE: f64 = 0.08;

/// Share of requests that stream a manifest.
const STREAM_SHARE: f64 = 0.01;

/// Every this many requests a connection asks for `health`. Odd, so a
/// traced run's alternating halves each get their share.
const HEALTH_EVERY: u64 = 49;

/// One cache key (architecture × config) and the budgets asked of it.
struct Key {
    arch: Architecture,
    budgets: [usize; 2],
    /// `sizing_outcome_semantic_json` of the direct call, per budget.
    expected: [String; 2],
}

/// What one request asks for.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Size { key: usize, budget: usize },
    Stream,
    Health,
}

/// How one request ended. A `busy` refusal is a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered correctly.
    Ok,
    /// Answered, but not with the expected bytes.
    Wrong,
    /// Refused with `busy`.
    Busy,
    /// Any other error.
    Error,
}

impl Outcome {
    /// Classifies a reply; `correct` judges a successful one.
    pub fn of<T>(reply: &Result<T, ClientError>, correct: impl FnOnce(&T) -> bool) -> Outcome {
        match reply {
            Ok(v) if correct(v) => Outcome::Ok,
            Ok(_) => Outcome::Wrong,
            Err(ClientError::Remote { message, .. }) if message == "busy" => Outcome::Busy,
            Err(_) => Outcome::Error,
        }
    }

    /// Whether the request counts as a success.
    pub fn ok(self) -> bool {
        self == Outcome::Ok
    }
}

/// Set-up state. Clients are declared before the server so they
/// disconnect before it shuts down.
pub struct ServeMixed {
    clients: Vec<Client>,
    server: Server,
    lanes: usize,
    config: SizingConfig,
    keys: Vec<Key>,
    stream: CampaignManifest,
    seed: u64,
}

/// Per-connection results of one pass.
#[derive(Default)]
struct Lane {
    tally: Tally,
    latencies_ms: Vec<f64>,
    busy: u64,
    /// Server traces of answered `size` requests with their round trips.
    size_traces: Vec<(Trace, Duration)>,
    stream_points: u64,
    stream_time: Duration,
}

/// The cache keys: three templates at load factors 1, 0.95, 0.9, …
/// The first `hot` keys stay warm; the rest only miss. Keys are fixed so
/// a miss costs the same for every seed; the seed draws the request mix.
///
/// Each key is the architecture as the server decodes it: a
/// `scale_rates` result is not a fixed point of the wire codec (some
/// scaled templates size differently after an encode/decode round
/// trip), and the direct answer must be computed on what is served.
fn key_archs(n: usize) -> Result<Vec<Architecture>, String> {
    let bases = [
        templates::figure1(),
        templates::amba(),
        templates::coreconnect(),
    ];
    (0..n)
        .map(|k| {
            let factor = 1.0 - 0.05 * (k / bases.len()) as f64;
            let scaled = bases[k % bases.len()]
                .scale_rates(factor, 1.0)
                .map_err(|e| format!("scale: {e}"))?;
            JsonValue::parse(&architecture_to_json(&scaled))
                .and_then(|v| architecture_from_json(&v))
                .map_err(|e| format!("architecture codec: {e}"))
        })
        .collect()
}

/// Binds the server, connects the clients, computes every expected
/// answer directly and fills the cache with the hot keys.
pub fn setup(seed: u64) -> Result<ServeMixed, String> {
    let lanes = crate::host::cores();
    let config = SizingConfig::small();
    let hot = lanes * HOT_PER_CLIENT;
    let mut keys = Vec::with_capacity(hot + COLD_KEYS);
    for arch in key_archs(hot + COLD_KEYS)? {
        let q = arch.num_queues();
        let budgets = [2 * q, 3 * q];
        let mut expected = [String::new(), String::new()];
        for (slot, &budget) in expected.iter_mut().zip(&budgets) {
            let outcome =
                size_buffers(&arch, budget, &config).map_err(|e| format!("direct solve: {e}"))?;
            *slot = sizing_outcome_semantic_json(&outcome);
        }
        keys.push(Key {
            arch,
            budgets,
            expected,
        });
    }
    let mut sweep = BudgetSweep::new(&keys[1].arch, (0..8).map(|i| 10 + 2 * i).collect());
    sweep.sizing = config.clone();
    let stream = sweep.manifest().map_err(|e| format!("manifest: {e}"))?;
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: CACHE_CAPACITY,
            max_inflight: 8,
            workers: lanes,
            retry_after_ms: 25,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr: SocketAddr = server.tcp_addr().ok_or("server has no TCP address")?;
    let mut clients = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        clients.push(Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let mut state = ServeMixed {
        clients,
        server,
        lanes,
        config,
        keys,
        stream,
        seed,
    };
    for k in 0..hot {
        let key = &state.keys[k];
        let reply = state.clients[0]
            .size(&key.arch, &state.config, key.budgets[0])
            .map_err(|e| format!("cache fill: {e}"))?;
        if reply.result_json != key.expected[0] {
            return Err("cache fill answered different bytes than the direct call".into());
        }
    }
    Ok(state)
}

impl ServeMixed {
    fn hot(&self) -> usize {
        self.lanes * HOT_PER_CLIENT
    }

    /// The request stream of connection `lane`, a pure function of the
    /// seed and the connection.
    fn asks(&self, lane: usize) -> impl FnMut(u64) -> Ask + '_ {
        let mut rng = SplitMix64::new(self.seed ^ (0x9e37 * (lane as u64 + 1)));
        let hot = self.hot();
        move |n| {
            let r = rng.unit();
            let budget = rng.below(2) as usize;
            if n % HEALTH_EVERY == HEALTH_EVERY - 1 {
                Ask::Health
            } else if r < STREAM_SHARE {
                Ask::Stream
            } else if r < STREAM_SHARE + MISS_SHARE {
                let key = hot + rng.below((self.keys.len() - hot) as u64) as usize;
                Ask::Size { key, budget }
            } else {
                let key = lane * HOT_PER_CLIENT + rng.below(HOT_PER_CLIENT as u64) as usize;
                Ask::Size { key, budget }
            }
        }
    }

    /// Serves one request under `tracer` (no root span of its own).
    /// Traced requests also feed the lane's per-layer samples.
    fn serve(
        &self,
        client: &mut Client,
        ask: Ask,
        lane: &mut Lane,
        tracer: &Tracer,
        op: u64,
        root: u64,
    ) -> Outcome {
        let outcome = match ask {
            Ask::Size { key, budget } => self.size(client, key, budget, lane, tracer, op, root),
            Ask::Stream => {
                let reply = tracer.span("serve.stream", op, root, |id| {
                    let mut solve = Duration::ZERO;
                    let t = Instant::now();
                    let reply = client.sweep_stream(&self.stream, None, |chunk| {
                        solve += Duration::from_micros(chunk.trace.solve_us);
                        Ok(())
                    });
                    let dt = t.elapsed();
                    tracer.estimate("sweep.stream_chunks", op, id, solve);
                    if let (true, Ok(end)) = (tracer.on(), &reply) {
                        lane.stream_points += end.points;
                        lane.stream_time += dt;
                    }
                    reply
                });
                Outcome::of(&reply, |end| end.points == self.stream.items() as u64)
            }
            Ask::Health => {
                let reply = tracer.span("serve.health", op, root, |_| client.health());
                Outcome::of(&reply, |h| h.workers == self.lanes)
            }
        };
        if outcome == Outcome::Busy {
            lane.busy += 1;
        }
        outcome
    }

    /// A `size` request. Untraced it is one `Client::size` call; traced
    /// it is taken apart at the same public seams `Client::size` uses:
    /// encode, round trip, decode. The server's own solve and queue
    /// wait, from the reply's `Trace`, are estimates inside the round
    /// trip.
    #[allow(clippy::too_many_arguments)]
    fn size(
        &self,
        client: &mut Client,
        key: usize,
        budget: usize,
        lane: &mut Lane,
        tracer: &Tracer,
        op: u64,
        root: u64,
    ) -> Outcome {
        let k = &self.keys[key];
        let units = k.budgets[budget];
        let correct = |result: &str, total: usize| result == k.expected[budget] && total == units;
        if !tracer.on() {
            let reply = client.size(&k.arch, &self.config, units);
            return Outcome::of(&reply, |r| {
                correct(&r.result_json, r.outcome.allocation.total())
            });
        }
        let payload = tracer.span("wire.encode", op, root, |_| {
            Request::Size {
                arch: k.arch.clone(),
                config: self.config.clone(),
                budget: units,
            }
            .to_json()
        });
        let t = Instant::now();
        let (reply, trip) = tracer.span("serve.round_trip", op, root, |id| {
            (client.request_raw(&payload), id)
        });
        let round_trip = t.elapsed();
        let decoded = reply.and_then(|text| {
            tracer.span("wire.decode", op, root, |_| match Response::parse(&text)? {
                Response::Size { result, trace } => {
                    let outcome = sizing_outcome_from_json(&JsonValue::parse(&result)?, &k.arch)?;
                    Ok((result, trace, outcome))
                }
                Response::Busy { retry_after_ms } => Err(ClientError::Remote {
                    message: "busy".into(),
                    retry_after_ms: Some(retry_after_ms),
                }),
                Response::Error { message } => Err(ClientError::Remote {
                    message,
                    retry_after_ms: None,
                }),
                _ => Err(ClientError::Remote {
                    message: "unexpected reply to size".into(),
                    retry_after_ms: None,
                }),
            })
        });
        if let Ok((_, trace, _)) = &decoded {
            let us = Duration::from_micros;
            tracer.estimate("core.server_solve", op, trip, us(trace.solve_us));
            tracer.estimate("serve.queue_wait", op, trip, us(trace.queue_wait_us));
            lane.size_traces.push((*trace, round_trip));
        }
        Outcome::of(&decoded, |(result, _, outcome)| {
            correct(result, outcome.allocation.total())
        })
    }

    /// Every connection runs its request stream until `deadline`:
    /// timed one request at a time, or, under a recording tracer,
    /// alternately untraced and traced. A given clock is sampled every
    /// [`REF_EVERY`] with every connection held between requests, so the
    /// kernel never competes with the server.
    fn pass(
        &mut self,
        deadline: Instant,
        on: Option<&Tracer>,
        clock: Option<&mut RefClock>,
    ) -> Vec<(Lane, Pairs)> {
        let mut clients = std::mem::take(&mut self.clients);
        let next_op = AtomicU64::new(0);
        let gate = RwLock::new(());
        let this = &*self;
        let lanes = std::thread::scope(|s| {
            if let Some(clock) = clock {
                let gate = &gate;
                s.spawn(move || {
                    while Instant::now() < deadline {
                        std::thread::sleep(REF_EVERY);
                        let _held = gate.write().expect("gate poisoned");
                        clock.sample();
                    }
                });
            }
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let next_op = &next_op;
                    let gate = &gate;
                    s.spawn(move || {
                        let off = Tracer::new(false);
                        let mut asks = this.asks(i);
                        let mut lane = Lane::default();
                        let mut pairs = Pairs::new();
                        let mut n = 0;
                        while Instant::now() < deadline {
                            let ask = asks(n);
                            let op = next_op.fetch_add(1, Ordering::Relaxed);
                            match on {
                                None => {
                                    let _open = gate.read().expect("gate poisoned");
                                    let t = Instant::now();
                                    let outcome =
                                        this.serve(client, ask, &mut lane, &off, op, ROOT);
                                    lane.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                    lane.tally.record(outcome.ok());
                                }
                                // Alternate rather than repeat: a repeat
                                // would find the cache the first run warmed.
                                Some(_) if n % 2 == 0 => pairs.untraced(|tracer, root| {
                                    this.serve(client, ask, &mut lane, tracer, op, root).ok()
                                }),
                                Some(on) => pairs.traced(on, "op.request", op, |tracer, root| {
                                    this.serve(client, ask, &mut lane, tracer, op, root).ok()
                                }),
                            }
                            n += 1;
                        }
                        (lane, pairs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.clients = clients;
        lanes
    }

    /// Checks outside the timed region: the streamed manifest passes
    /// its `stream_end` verification (the client checks the summary)
    /// and every expected answer totals its budget.
    pub fn validate(&mut self) -> Tally {
        let mut tally = Tally::default();
        for k in &self.keys {
            for (&budget, expected) in k.budgets.iter().zip(&k.expected) {
                let total = JsonValue::parse(expected)
                    .ok()
                    .and_then(|v| sizing_outcome_from_json(&v, &k.arch).ok())
                    .map(|o| o.allocation.total());
                tally.record(total == Some(budget));
            }
        }
        let stream = &self.stream;
        let reply = self.clients[0].sweep_stream(stream, None, |_| Ok(()));
        tally.record(Outcome::of(&reply, |e| e.points == stream.items() as u64).ok());
        tally
    }

    /// The closed loop for `budget`. Throughput adds up the connections'
    /// request rates over their own request time.
    pub fn measure(&mut self, budget: Duration, clock: &mut RefClock) -> Measured {
        clock.reset();
        let lanes = self.pass(Instant::now() + budget, None, Some(&mut *clock));
        let mut tally = Tally::default();
        let mut latencies_ms = Vec::new();
        let mut reqs_per_s = 0.0;
        for (lane, _) in lanes {
            tally.merge(lane.tally);
            reqs_per_s +=
                lane.latencies_ms.len() as f64 / lane.latencies_ms.iter().sum::<f64>() * 1e3;
            latencies_ms.extend(lane.latencies_ms);
        }
        Measured {
            tally,
            latencies_ms,
            wanted_tail: 0.99,
            throughput_per_s: reqs_per_s,
            slowdown: (clock.mean_slowdown(), clock.median_slowdown()),
            op_name: "req",
            aliases: vec![("reqs_per_s", reqs_per_s)],
        }
    }

    /// The traced run: requests alternately untraced and traced.
    pub fn trace(&mut self, budget: Duration) -> Traced {
        let on = Tracer::new(true);
        let evictions = self.server.health().evictions;
        let lanes = self.pass(Instant::now() + budget, Some(&on), None);
        let evictions = self.server.health().evictions - evictions;
        let mut pairs = Pairs::new();
        let mut busy = 0;
        let mut traces = Vec::new();
        let (mut stream_points, mut stream_time) = (0, Duration::ZERO);
        for (lane, lane_pairs) in lanes {
            pairs.merge(lane_pairs);
            busy += lane.busy;
            traces.extend(lane.size_traces);
            stream_points += lane.stream_points;
            stream_time += lane.stream_time;
        }
        let mean_of = |f: &dyn Fn(&(Trace, Duration)) -> f64| {
            mean(&traces.iter().map(f).collect::<Vec<f64>>())
        };
        let layer = vec![
            ("serve.solve_us", mean_of(&|(t, _)| t.solve_us as f64)),
            (
                "serve.queue_wait_us",
                mean_of(&|(t, _)| t.queue_wait_us as f64),
            ),
            (
                "serve.overhead_us",
                mean_of(&|(t, rt)| {
                    rt.as_secs_f64() * 1e6 - t.queue_wait_us as f64 - t.solve_us as f64
                }),
            ),
            (
                "serve.warm_hit_frac",
                mean_of(&|(t, _)| f64::from(u8::from(t.warm))),
            ),
            ("serve.evictions", evictions as f64),
            (
                "serve.busy_frac",
                busy as f64 / pairs.attempted().max(1) as f64,
            ),
            (
                "serve.stream_points_per_s",
                stream_points as f64 / stream_time.as_secs_f64().max(1e-9),
            ),
        ];
        pairs.into_traced(on.into_spans(), layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_counts_as_a_failure() {
        let busy: Result<(), ClientError> = Err(ClientError::Remote {
            message: "busy".into(),
            retry_after_ms: Some(25),
        });
        let outcome = Outcome::of(&busy, |_| true);
        assert_eq!(outcome, Outcome::Busy);
        let mut tally = Tally::default();
        tally.record(outcome.ok());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn wrong_bytes_and_errors_fail_too() {
        let ok: Result<u32, ClientError> = Ok(3);
        assert_eq!(Outcome::of(&ok, |&v| v == 3), Outcome::Ok);
        assert_eq!(Outcome::of(&ok, |&v| v == 4), Outcome::Wrong);
        let err: Result<u32, ClientError> = Err(ClientError::Remote {
            message: "draining".into(),
            retry_after_ms: None,
        });
        assert_eq!(Outcome::of(&err, |_| true), Outcome::Error);
        assert!(!Outcome::Wrong.ok() && !Outcome::Error.ok() && Outcome::Ok.ok());
    }
}

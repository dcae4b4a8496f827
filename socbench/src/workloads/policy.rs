//! `policy_eval`: repeated Figure-3 evaluations. Each sizes the
//! buffers at `SizingConfig::small()`, then runs
//! `evaluate_policies_sized` with the paper's `PipelineConfig` (10
//! replications, horizon 1000) through a timing `ReplicationPool` over a
//! `WorkPool` as wide as the host. `SimEngine::Auto` sends the four
//! plain templates to the legacy engine and the extended architecture
//! to the actor engine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use socbuf_core::{
    evaluate_policies_sized, size_buffers, PipelineConfig, PolicyComparison, ReplicationPool,
    SimEngine, SizingConfig,
};
use socbuf_sim::SimReport;
use socbuf_soc::{
    templates, Architecture, ArchitectureBuilder, BusArbitration, FlowTarget, TrafficShape,
};
use socbuf_sweep::WorkPool;

use super::{paired, Measured, Traced};
use crate::host::RefClock;
use crate::rng::SplitMix64;
use crate::stats::Tally;
use crate::trace::{union_ns, Tracer, ROOT};

/// The paper's simulation settings (Figure 3, Table 1).
pub fn paper_config() -> PipelineConfig {
    PipelineConfig {
        sizing: SizingConfig::small(),
        horizon: 1000.0,
        warmup: 100.0,
        seed: 2005,
        replications: 10,
        sim_engine: SimEngine::Auto,
    }
}

/// Priority and locked buses, bursty and on/off sources and a bridge
/// with latency: every extended declaration the actor engine serves.
fn extended_arch() -> Result<Architecture, String> {
    let err = |e: socbuf_soc::SocError| e.to_string();
    let mut b = ArchitectureBuilder::new();
    let x = b
        .add_bus_with_arbitration("x", 4.0, BusArbitration::Priority)
        .map_err(err)?;
    let y = b
        .add_bus_with_arbitration("y", 4.0, BusArbitration::Locked { max_batch: 4 })
        .map_err(err)?;
    let p = b.add_processor("p", &[x], 1.0).map_err(err)?;
    let q = b.add_processor("q", &[x], 1.0).map_err(err)?;
    let r = b.add_processor("r", &[y], 1.0).map_err(err)?;
    b.add_bridge_with_latency("g", x, y, 0.25).map_err(err)?;
    b.add_flow_shaped(
        p,
        FlowTarget::Processor(r),
        0.8,
        TrafficShape::Burst { batch: 4 },
    )
    .map_err(err)?;
    b.add_flow(q, FlowTarget::Bus(x), 0.7).map_err(err)?;
    b.add_flow_shaped(
        r,
        FlowTarget::Bus(y),
        0.5,
        TrafficShape::OnOff {
            mean_on: 2.0,
            mean_off: 6.0,
        },
    )
    .map_err(err)?;
    b.build().map_err(err)
}

/// One replication as the timing pool saw it.
#[derive(Debug, Clone, Copy)]
struct Rep {
    actors: bool,
    dur: Duration,
    offered: f64,
}

/// A `ReplicationPool` that spans every replication it runs.
struct TimingPool<'a> {
    inner: WorkPool,
    tracer: &'a Tracer,
    op: AtomicU64,
    parent: AtomicU64,
    actors: AtomicBool,
    reps: Mutex<Vec<Rep>>,
}

impl TimingPool<'_> {
    fn enter(&self, op: u64, parent: u64, actors: bool) {
        self.op.store(op, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
        self.actors.store(actors, Ordering::Relaxed);
    }
}

impl ReplicationPool for TimingPool<'_> {
    fn run_replications(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> SimReport + Sync),
    ) -> Vec<SimReport> {
        let op = self.op.load(Ordering::Relaxed);
        let parent = self.parent.load(Ordering::Relaxed);
        let actors = self.actors.load(Ordering::Relaxed);
        let name = if actors {
            "sim.actors_rep"
        } else {
            "sim.legacy_rep"
        };
        self.inner.run(n, |i| {
            self.tracer.span(name, op, parent, |_| {
                let t = Instant::now();
                let report = f(i);
                if self.tracer.on() {
                    let rep = Rep {
                        actors,
                        dur: t.elapsed(),
                        offered: report.total_offered,
                    };
                    self.reps.lock().expect("rep list poisoned").push(rep);
                }
                report
            })
        })
    }
}

struct Input {
    arch: Architecture,
    budget: usize,
    reference: PolicyComparison,
}

/// Set-up state.
pub struct PolicyEval {
    config: PipelineConfig,
    inputs: Vec<Input>,
}

fn conserved(r: &SimReport) -> bool {
    let residual = r.total_offered - r.total_delivered - r.total_lost - r.in_flight;
    residual.abs() <= 1e-9 * r.total_offered.max(1.0) && r.in_flight >= 0.0
}

fn same_reports(a: &PolicyComparison, b: &PolicyComparison) -> bool {
    a.pre == b.pre && a.post == b.post && a.timeout == b.timeout
}

fn evaluate(
    arch: &Architecture,
    budget: usize,
    config: &PipelineConfig,
    pool: &TimingPool,
    op: u64,
    root: u64,
) -> Result<PolicyComparison, String> {
    let tracer = pool.tracer;
    let outcome = tracer
        .span("core.eval_size", op, root, |_| {
            size_buffers(arch, budget, &config.sizing)
        })
        .map_err(|e| e.to_string())?;
    tracer
        .span("core.evaluate", op, root, |id| {
            pool.enter(op, id, arch.uses_extended_semantics());
            evaluate_policies_sized(arch, budget, config, outcome, pool)
        })
        .map_err(|e| e.to_string())
}

/// Builds the inputs from `seed` and evaluates each once; those reports
/// are what every repeat must reproduce bit for bit.
pub fn setup(seed: u64) -> Result<PolicyEval, String> {
    let mut rng = SplitMix64::new(seed);
    let config = paper_config();
    let mut archs = vec![
        templates::figure1(),
        templates::amba(),
        templates::coreconnect(),
        templates::network_processor(),
        extended_arch()?,
    ];
    rng.shuffle(&mut archs);
    let off = Tracer::new(false);
    let pool = timing_pool(&off);
    let mut inputs = Vec::new();
    for arch in archs {
        let budget = (2 + rng.below(3) as usize) * arch.num_queues();
        let reference = evaluate(&arch, budget, &config, &pool, 0, ROOT)?;
        inputs.push(Input {
            arch,
            budget,
            reference,
        });
    }
    Ok(PolicyEval { config, inputs })
}

fn timing_pool(tracer: &Tracer) -> TimingPool<'_> {
    TimingPool {
        inner: WorkPool::new(crate::host::cores()),
        tracer,
        op: AtomicU64::new(0),
        parent: AtomicU64::new(ROOT),
        actors: AtomicBool::new(false),
        reps: Mutex::new(Vec::new()),
    }
}

impl PolicyEval {
    fn input(&self, op: u64) -> &Input {
        &self.inputs[op as usize % self.inputs.len()]
    }

    fn check(&self, input: &Input, got: &PolicyComparison) -> bool {
        got.outcome.allocation.total() == input.budget
            && [&got.pre, &got.post, &got.timeout]
                .into_iter()
                .all(conserved)
            && same_reports(got, &input.reference)
    }

    /// Checks outside the timed region: every reference conserves
    /// requests and totals its budget, and on the plain templates the
    /// actor engine reproduces the legacy engine's reports exactly.
    pub fn validate(&self) -> Tally {
        let mut tally = Tally::default();
        let off = Tracer::new(false);
        let pool = timing_pool(&off);
        let actors = PipelineConfig {
            sim_engine: SimEngine::Actors,
            ..self.config.clone()
        };
        for input in &self.inputs {
            let r = &input.reference;
            tally.record(r.outcome.allocation.total() == input.budget);
            tally.record([&r.pre, &r.post, &r.timeout].into_iter().all(conserved));
            if !input.arch.uses_extended_semantics() {
                let same = evaluate(&input.arch, input.budget, &actors, &pool, 0, ROOT)
                    .is_ok_and(|c| same_reports(&c, r));
                if !same {
                    eprintln!("budget {}: actor and legacy engines disagree", input.budget);
                }
                tally.record(same);
            }
        }
        tally
    }

    /// Evaluations for `budget`.
    pub fn measure(&self, budget: Duration, clock: &mut RefClock) -> Measured {
        clock.reset();
        let off = Tracer::new(false);
        let pool = timing_pool(&off);
        let mut tally = Tally::default();
        let mut latencies_ms = Vec::new();
        let mut busy = Duration::ZERO;
        let start = Instant::now();
        let mut op = 0;
        while start.elapsed() < budget {
            let input = self.input(op);
            let t = Instant::now();
            let got = evaluate(&input.arch, input.budget, &self.config, &pool, op, ROOT);
            let dt = t.elapsed();
            busy += dt;
            latencies_ms.push(dt.as_secs_f64() * 1e3);
            clock.tick();
            tally.record(got.is_ok_and(|c| self.check(input, &c)));
            op += 1;
        }
        let evals_per_s = latencies_ms.len() as f64 / busy.as_secs_f64();
        Measured {
            tally,
            latencies_ms,
            wanted_tail: 0.9,
            throughput_per_s: evals_per_s,
            slowdown: (clock.mean_slowdown(), clock.median_slowdown()),
            op_name: "eval",
            aliases: vec![("evals_per_s", evals_per_s)],
        }
    }

    /// The traced run: each evaluation untraced, then traced.
    pub fn trace(&self, budget: Duration) -> Traced {
        let mut reps = Vec::new();
        let (pairs, spans) = paired(budget, "op.eval", |op, tracer, root| {
            let input = self.input(op);
            let pool = timing_pool(tracer);
            let got = evaluate(&input.arch, input.budget, &self.config, &pool, op, root);
            reps.extend(pool.reps.into_inner().expect("rep list poisoned"));
            got.is_ok_and(|c| self.check(input, &c))
        });
        let per_engine = |actors: bool| {
            let (secs, offered) = reps
                .iter()
                .filter(|r| r.actors == actors)
                .fold((0.0, 0.0), |(s, o), r| {
                    (s + r.dur.as_secs_f64(), o + r.offered)
                });
            if secs > 0.0 {
                offered / secs
            } else {
                0.0
            }
        };
        // Replication time (parallel replications count once) over the
        // evaluation's wall time.
        let mut eval_ns = 0;
        let mut rep_ns = 0;
        for root in spans.iter().filter(|s| s.name == "op.eval") {
            eval_ns += root.dur_ns();
            let mut reps: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.op == root.op && s.name.starts_with("sim."))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            rep_ns += union_ns(&mut reps);
        }
        let share = rep_ns as f64 / eval_ns.max(1) as f64;
        pairs.into_traced(
            spans,
            vec![
                ("sim.legacy_offered_per_s", per_engine(false)),
                ("sim.actors_offered_per_s", per_engine(true)),
                ("sim.share", share),
                ("sim.actors_over_legacy", self.engine_ratio()),
            ],
        )
    }

    /// Simulation time of the actor engine over the legacy engine on
    /// the plain templates, where both apply and agree bit for bit.
    /// `Auto` never sends a plain template to the actors, so the timed
    /// evaluations alone cannot give this ratio.
    fn engine_ratio(&self) -> f64 {
        let off = Tracer::new(false);
        let pool = timing_pool(&off);
        let (mut legacy, mut actors) = (Duration::ZERO, Duration::ZERO);
        for input in self
            .inputs
            .iter()
            .filter(|i| !i.arch.uses_extended_semantics())
        {
            for engine in [SimEngine::Legacy, SimEngine::Actors] {
                let config = PipelineConfig {
                    sim_engine: engine,
                    ..self.config.clone()
                };
                let outcome = input.reference.outcome.clone();
                let t = Instant::now();
                let done =
                    evaluate_policies_sized(&input.arch, input.budget, &config, outcome, &pool);
                let dt = t.elapsed();
                if done.is_err() {
                    return 0.0;
                }
                match engine {
                    SimEngine::Actors => actors += dt,
                    _ => legacy += dt,
                }
            }
        }
        actors.as_secs_f64() / legacy.as_secs_f64().max(1e-12)
    }
}

//! `sweep_budget` and `sweep_load`: a sizing-only manifest on
//! `figure1` at `SizingConfig::small()` with default `WARM_CHAIN`
//! chunking, run through `run_manifest_sink` on a `WorkPool` as wide as
//! the host into a CSV `ReportStream`.
//!
//! Budget points are rhs-only retargets of the warm LP; load points are
//! coefficient deltas. Each lives in its own workload so a gain on one
//! delta type cannot hide a loss on the other.

use std::time::{Duration, Instant};

use socbuf_core::wire::CampaignManifest;
use socbuf_core::{size_buffers, SizingConfig, SizingLp, SizingOutcome, SolveContext};
use socbuf_lp::PreparedLp;
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{
    run_manifest, run_manifest_sink, BudgetSweep, LoadSweep, PointSink, ReportStream, SweepKind,
    SweepPoint, WorkPool,
};

use super::{paired, Measured, Traced};
use crate::host::RefClock;
use crate::rng::SplitMix64;
use crate::stats::{mean, Tally};
use crate::trace::Tracer;

/// Points per manifest: 32 warm chains of four.
const POINTS: usize = 128;

/// Cold re-solves the validation compares warm points against.
const COLD_SAMPLE: usize = 32;

/// Which delta type the manifest exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// A tight-to-slack budget sawtooth (rhs-only retargets).
    Budget,
    /// A load-factor sawtooth at one budget (coefficient deltas).
    Load,
}

/// Set-up state of one sweep workload.
pub struct Sweep {
    delta: Delta,
    arch: Architecture,
    config: SizingConfig,
    /// `(budget, load factor)` per point.
    grid: Vec<(usize, f64)>,
    manifest: CampaignManifest,
    pool: WorkPool,
    reference: Vec<u8>,
    peak_parked_chunks: usize,
    seed: u64,
}

fn kind(delta: Delta) -> SweepKind {
    match delta {
        Delta::Budget => SweepKind::Budget,
        Delta::Load => SweepKind::Load,
    }
}

/// Builds the manifest from `seed` and runs it once; the rendered bytes
/// of that run are the reference every later run must reproduce.
pub fn setup(delta: Delta, seed: u64) -> Result<Sweep, String> {
    let mut rng = SplitMix64::new(seed);
    let arch = templates::figure1();
    let config = SizingConfig::small();
    // The seed rotates each tooth by whole warm chains, so every seed
    // solves the same chains (the same work) in a different order.
    let phase = 4 * rng.below(4) as usize;
    let grid: Vec<(usize, f64)> = match delta {
        Delta::Budget => {
            // Teeth of 16 points climbing from a tight budget to a slack
            // one in steps of 3 units.
            (0..POINTS)
                .map(|i| (10 + 3 * ((i + phase) % 16), 1.0))
                .collect()
        }
        Delta::Load => (0..POINTS)
            .map(|i| (22, 0.6 + 0.025 * ((i + phase) % 32) as f64))
            .collect(),
    };
    let manifest = match delta {
        Delta::Budget => {
            let mut sweep = BudgetSweep::new(&arch, grid.iter().map(|g| g.0).collect());
            sweep.sizing = config.clone();
            sweep.manifest()
        }
        Delta::Load => {
            let mut sweep = LoadSweep::new(&arch, grid[0].0, grid.iter().map(|g| g.1).collect());
            sweep.sizing = config.clone();
            sweep.manifest()
        }
    }
    .map_err(|e| format!("manifest: {e}"))?;
    let pool = WorkPool::new(crate::host::cores());
    let mut sweep = Sweep {
        delta,
        arch,
        config,
        grid,
        manifest,
        pool,
        reference: Vec::new(),
        peak_parked_chunks: 0,
        seed,
    };
    let (bytes, parked) = sweep.run_once()?;
    sweep.reference = bytes;
    sweep.peak_parked_chunks = parked;
    Ok(sweep)
}

impl Sweep {
    /// One campaign through the streaming path: rendered bytes and the
    /// parked-chunk high-water mark.
    fn run_once(&self) -> Result<(Vec<u8>, usize), String> {
        let mut stream =
            ReportStream::csv(kind(self.delta), Vec::with_capacity(self.reference.len()));
        let run = run_manifest_sink(&self.manifest, &self.pool, &mut stream)
            .map_err(|e| format!("campaign: {e}"))?;
        let (bytes, _) = stream.finish().map_err(|e| format!("render: {e}"))?;
        Ok((bytes, run.peak_parked_chunks))
    }

    fn point_arch(&self, factor: f64) -> Result<Architecture, String> {
        match self.delta {
            Delta::Budget => Ok(self.arch.clone()),
            Delta::Load => self
                .arch
                .scale_rates(factor, 1.0)
                .map_err(|e| format!("scale: {e}")),
        }
    }

    /// Checks outside the timed region: the batch rendering equals the
    /// streamed reference, every allocation totals its budget, and a
    /// seeded sample of warm points matches a cold `size_buffers`.
    pub fn validate(&self) -> Tally {
        let mut tally = Tally::default();
        let report = match run_manifest(&self.manifest, &self.pool) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("validation campaign failed: {e}");
                tally.record(false);
                return tally;
            }
        };
        tally.record(report.to_csv().as_bytes() == self.reference.as_slice());
        for p in &report.points {
            tally.record(p.allocation.iter().sum::<usize>() == p.budget);
        }
        let mut rng = SplitMix64::new(self.seed ^ 0x5eed);
        for _ in 0..COLD_SAMPLE {
            let i = rng.below(report.points.len() as u64) as usize;
            let p = &report.points[i];
            let ok = self
                .point_arch(p.load_factor)
                .and_then(|a| {
                    size_buffers(&a, p.budget, &self.config).map_err(|e| format!("cold: {e}"))
                })
                .map(|cold| {
                    let c = cold.predicted_loss_rate;
                    (p.predicted_loss - c).abs() <= 1e-9 * (1.0 + c.abs())
                })
                .unwrap_or(false);
            if !ok {
                eprintln!("point {i}: warm answer disagrees with a cold size_buffers");
            }
            tally.record(ok);
        }
        tally
    }

    /// Runs campaigns for `budget`; each must render the reference bytes.
    pub fn measure(&self, budget: Duration, clock: &mut RefClock) -> Measured {
        clock.reset();
        let mut tally = Tally::default();
        let mut latencies_ms = Vec::new();
        let mut busy = Duration::ZERO;
        let start = Instant::now();
        while start.elapsed() < budget {
            let t = Instant::now();
            let run = self.run_once();
            let dt = t.elapsed();
            busy += dt;
            latencies_ms.push(dt.as_secs_f64() * 1e3);
            clock.tick();
            tally.record(matches!(run, Ok((ref bytes, _)) if *bytes == self.reference));
        }
        let points_per_s = (latencies_ms.len() * POINTS) as f64 / busy.as_secs_f64();
        let alias = match self.delta {
            Delta::Budget => "budget_points_per_s",
            Delta::Load => "load_points_per_s",
        };
        Measured {
            tally,
            latencies_ms,
            wanted_tail: 0.9,
            throughput_per_s: points_per_s,
            slowdown: (clock.mean_slowdown(), clock.median_slowdown()),
            op_name: "campaign",
            aliases: vec![(alias, points_per_s)],
        }
    }

    /// Replays each manifest chunk through `SolveContext` in chunk order,
    /// spanning every call, and renders through the same `ReportStream`.
    fn replay(&self, op: u64, tracer: &Tracer, root: u64, samples: &mut ReplaySamples) -> bool {
        let mut stream =
            ReportStream::csv(kind(self.delta), Vec::with_capacity(self.reference.len()));
        for chunk in &self.manifest.chunks {
            let mut ctx = SolveContext::new(&self.arch, &self.config);
            for i in chunk.start..chunk.end {
                let (budget, factor) = self.grid[i];
                let scaled = match self.delta {
                    Delta::Budget => None,
                    Delta::Load => {
                        match tracer.span("soc.scale", op, root, |_| {
                            self.arch.scale_rates(factor, 1.0)
                        }) {
                            Ok(a) => Some(a),
                            Err(_) => return false,
                        }
                    }
                };
                let point_arch = scaled.as_ref().unwrap_or(&self.arch);
                let name = match (i == chunk.start, self.delta) {
                    (true, _) => "core.chain_start",
                    (false, Delta::Budget) => "core.warm_point",
                    (false, Delta::Load) => "core.load_point",
                };
                let (solved, id): (Result<SizingOutcome, _>, u64) =
                    tracer.span(name, op, root, |id| {
                        let out = match &scaled {
                            None => ctx.size_buffers(budget),
                            Some(a) => ctx.size_buffers_scaled(a, factor, budget),
                        };
                        (out, id)
                    });
                if i == chunk.start {
                    // Split the chain start: what it does before its
                    // solve, replayed off the timeline.
                    let lp = tracer.replay("core.build", op, id, || {
                        SizingLp::build(point_arch, budget, &self.config)
                    });
                    if let Some((Ok(lp), _)) = lp {
                        tracer.replay("lp.assemble", op, id, || {
                            PreparedLp::new_with_scaling(
                                lp.problem().clone(),
                                self.config.equilibrate,
                            )
                        });
                    }
                }
                let Ok(outcome) = solved else {
                    return false;
                };
                if tracer.on() && i != chunk.start {
                    samples.warm_pivots.push(outcome.lp_iterations as f64);
                }
                let point = SweepPoint {
                    index: i,
                    budget,
                    load_factor: factor,
                    arch_seed: None,
                    queues: point_arch.num_queues(),
                    offered_rate: point_arch.total_offered_rate(),
                    predicted_loss: outcome.predicted_loss_rate,
                    shadow_price: outcome.budget_shadow_price,
                    budget_row_relaxed: outcome.budget_row_relaxed,
                    lp_iterations: outcome.lp_iterations,
                    allocation: outcome.allocation.as_slice().to_vec(),
                    sim: None,
                };
                if tracer
                    .span("sweep.render", op, root, |_| stream.accept(point))
                    .is_err()
                {
                    return false;
                }
            }
        }
        match tracer.span("sweep.render", op, root, |_| stream.finish()) {
            Ok((bytes, _)) => bytes == self.reference,
            Err(_) => false,
        }
    }

    /// The traced run: each campaign replayed untraced, then traced.
    pub fn trace(&self, budget: Duration) -> Traced {
        let mut samples = ReplaySamples::default();
        let (pairs, spans) = paired(budget, "op.campaign", |op, tracer, root| {
            self.replay(op, tracer, root, &mut samples)
        });
        let pivots = &samples.warm_pivots;
        let zero = pivots.iter().filter(|&&p| p == 0.0).count() as f64;
        let pivot_name = match self.delta {
            Delta::Budget => "lp.pivots_warm",
            Delta::Load => "lp.pivots_load",
        };
        let points = (pairs.ops as usize * POINTS) as f64;
        let render_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "sweep.render")
            .map(|s| s.dur_ns())
            .sum();
        let mut layer = vec![
            (pivot_name, mean(pivots)),
            ("sweep.render_us", render_ns as f64 / 1e3 / points.max(1.0)),
            ("sweep.peak_parked_chunks", self.peak_parked_chunks as f64),
        ];
        if self.delta == Delta::Budget {
            layer.push(("lp.zero_pivot_frac", zero / pivots.len().max(1) as f64));
        }
        pairs.into_traced(spans, layer)
    }
}

/// Counts the replay collects alongside its spans.
#[derive(Default)]
struct ReplaySamples {
    warm_pivots: Vec<f64>,
}

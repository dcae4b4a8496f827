//! The campaign layer: sweep-shaped workloads over the sizing pipeline.
//!
//! Each campaign expands into an explicit, index-ordered work list
//! (budget grid, load-factor grid, or architecture seeds), fans the
//! items out over a [`WorkPool`], and reduces the per-item
//! [`SweepPoint`]s back into a [`SweepReport`] by slot. Nothing in a
//! point depends on scheduling: sizing is deterministic, simulation
//! seeds derive from replication indices, and error selection (when
//! several points fail) picks the lowest index.

use std::sync::OnceLock;

use socbuf_core::wire::{CampaignManifest, ManifestShape};
use socbuf_core::{
    evaluate_policies_sized, ChunkPolicy, CoreError, PipelineConfig, ReplicationPool, SerialPool,
    SizingConfig, SolveContext,
};
use socbuf_sim::SimReport;
use socbuf_soc::templates::{random_architecture, RandomArchParams};
use socbuf_soc::{Architecture, SocError};

use crate::pool::WorkPool;
use crate::report::{SimSummary, SweepKind, SweepPoint, SweepReport};
use crate::stream::{PointSink, VecSink};

/// Number of consecutive work items a warm-start chain spans in a
/// budget or load campaign — the length of
/// [`ChunkPolicy::WARM_CHAIN`], the workspace's shared scheduling
/// policy. Chunk boundaries are fixed by **item index** — chunk `c`
/// always covers items `c·WARM_CHUNK .. (c+1)·WARM_CHUNK` — never by
/// worker count (or shard assignment), so the chain each item
/// participates in (and therefore its solver path, pivot count and
/// rendered bytes) is identical whether the campaign runs on 1, 2 or 8
/// workers, or split across shard processes. Workers claim whole
/// chunks; within a chunk the items run in index order sharing one
/// [`SolveContext`], the rest warm-started from their predecessor's
/// basis. How the first item starts depends on the campaign:
///
/// * a load campaign solves it cold (a cold
///   [`socbuf_core::size_buffers`] is exactly a fresh context's first
///   solve);
/// * a budget campaign solves point 0 cold once, its *anchor*, and
///   starts every other chunk from [`SolveContext::seeded`]: the
///   anchor's basis factor answers the first item outright or the item
///   is solved cold. A chunk's points then depend only on point 0 and
///   the chunk's own points, which no schedule changes.
///
/// The value trades warm-chain length against scheduling granularity: a
/// campaign of `n` items exposes `⌈n / WARM_CHUNK⌉` parallel units.
pub const WARM_CHUNK: usize = ChunkPolicy::WARM_CHAIN.chunk_len();

/// Failure of one campaign work item (the lowest-index failure when
/// several items fail).
#[derive(Debug)]
pub enum SweepError {
    /// A sizing/simulation failure at one point.
    Point {
        /// Work-list index of the failing point.
        index: usize,
        /// Human-readable description of the point (budget, factor, seed).
        label: String,
        /// The underlying pipeline error.
        source: CoreError,
    },
    /// Building or rescaling an architecture failed.
    Arch {
        /// Work-list index of the failing point.
        index: usize,
        /// The underlying architecture error.
        source: SocError,
    },
    /// The campaign definition itself is unusable.
    BadConfig(String),
    /// Writing a point into the campaign's [`PointSink`] failed.
    Sink {
        /// The underlying I/O error reported by the sink.
        source: std::io::Error,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Point {
                index,
                label,
                source,
            } => {
                write!(f, "sweep point {index} ({label}) failed: {source}")
            }
            SweepError::Arch { index, source } => {
                write!(f, "sweep point {index}: architecture error: {source}")
            }
            SweepError::BadConfig(msg) => write!(f, "bad sweep config: {msg}"),
            SweepError::Sink { source } => write!(f, "sweep sink failed: {source}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Point { source, .. } => Some(source),
            SweepError::Arch { source, .. } => Some(source),
            SweepError::BadConfig(_) => None,
            SweepError::Sink { source } => Some(source),
        }
    }
}

/// The pipeline hook: simulation replications of `evaluate_policies`
/// run through the same pool as the sweep's points.
impl ReplicationPool for WorkPool {
    fn run_replications(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> SimReport + Sync),
    ) -> Vec<SimReport> {
        self.run(n, f)
    }
}

/// Sizes one point on `ctx` (its architecture is `arch`, the chain's
/// nominal one scaled by `load_factor`) and records it. When `simulate`
/// is set, the point additionally runs the paper's three-policy
/// comparison on that sizing (replications serial here — the *points*
/// are the parallel axis; [`socbuf_core::evaluate_policies_with`] on a
/// [`WorkPool`] parallelizes a single comparison instead). A warm chain
/// changes pivot counts and wall time, never statuses or (beyond
/// solver precision) objectives.
fn size_point(
    ctx: &mut SolveContext,
    arch: &Architecture,
    index: usize,
    budget: usize,
    load_factor: f64,
    arch_seed: Option<u64>,
    simulate: Option<&PipelineConfig>,
) -> Result<SweepPoint, SweepError> {
    let fail = |source| SweepError::Point {
        index,
        label: match arch_seed {
            Some(s) => format!("seed={s} budget={budget}"),
            None => format!("budget={budget} load={load_factor}"),
        },
        source,
    };
    let outcome = ctx
        .size_buffers_scaled(arch, load_factor, budget)
        .map_err(fail)?;
    let (outcome, sim) = match simulate {
        None => (outcome, None),
        Some(pipeline) => {
            let cmp = evaluate_policies_sized(arch, budget, pipeline, outcome, &SerialPool)
                .map_err(fail)?;
            let sim = SimSummary {
                pre_loss: cmp.pre.total_lost,
                post_loss: cmp.post.total_lost,
                timeout_loss: cmp.timeout.total_lost,
                improvement_vs_pre: cmp.improvement_vs_pre(),
            };
            (cmp.outcome, Some(sim))
        }
    };
    Ok(SweepPoint {
        index,
        budget,
        load_factor,
        arch_seed,
        queues: arch.num_queues(),
        offered_rate: arch.total_offered_rate(),
        predicted_loss: outcome.predicted_loss_rate,
        shadow_price: outcome.budget_shadow_price,
        budget_row_relaxed: outcome.budget_row_relaxed,
        lp_iterations: outcome.lp_iterations,
        allocation: outcome.allocation.as_slice().to_vec(),
        sim,
    })
}

/// Point 0 of a warm budget campaign and the context that sized it,
/// solved once per plan. `None` in the cell when point 0 failed.
struct Anchor {
    point: SweepPoint,
    ctx: SolveContext,
}

/// Sizes a chunk range of a budget or load campaign over `arch`. A warm
/// campaign runs the range as one [`SolveContext`] chain; otherwise
/// every point gets a fresh context — a cold point is a one-point
/// chain, even inside a coarsened range.
///
/// With an `anchor` cell (warm budget campaigns), the chain does not
/// start cold. Chunk 0 emits the anchor's point 0 and continues on a
/// copy of its context; any other chunk starts from
/// [`SolveContext::seeded`], which answers on the anchor's basis factor
/// or solves cold. Whoever needs the anchor first solves it, so a run
/// that skips chunk 0 still pays that one cold solve. When point 0
/// failed, every chunk starts cold and chunk 0 reproduces the failure.
fn run_chain(
    range: std::ops::Range<usize>,
    warm_start: bool,
    arch: &Architecture,
    sizing: &SizingConfig,
    anchor: Option<&OnceLock<Option<Anchor>>>,
    mut point: impl FnMut(&mut SolveContext, usize) -> Result<SweepPoint, SweepError>,
) -> Vec<Result<SweepPoint, SweepError>> {
    let mut out = Vec::with_capacity(range.len());
    let mut ctx = None;
    let mut rest = range.clone();
    if let Some(cell) = anchor {
        let anchor = cell.get_or_init(|| {
            let mut ctx = SolveContext::new(arch, sizing);
            point(&mut ctx, 0).ok().map(|point| Anchor { point, ctx })
        });
        match anchor {
            Some(a) if range.start == 0 => {
                out.push(Ok(a.point.clone()));
                ctx = Some(a.ctx.clone());
                rest.start = 1;
            }
            Some(a) => ctx = Some(a.ctx.seeded()),
            None => {}
        }
    }
    out.extend(rest.map(|i| {
        if !warm_start {
            ctx = None;
        }
        point(
            ctx.get_or_insert_with(|| SolveContext::new(arch, sizing)),
            i,
        )
    }));
    out
}

/// Prepares a campaign's sizing config for `pool`: when the decomposed
/// LP engine is selected and no block executor was attached explicitly,
/// the campaign's own pool doubles as the block executor — per-block
/// solves fan out over idle workers, while points already running on a
/// pool worker solve their blocks serially (see the pool's
/// `SolveExecutor` impl for the oversubscription guard). Results are
/// identical either way; only wall time changes.
fn attach_pool(sizing: &SizingConfig, pool: &WorkPool) -> SizingConfig {
    let mut sizing = sizing.clone();
    if sizing.engine == socbuf_core::LpEngine::Decomposed && !sizing.executor.is_set() {
        sizing.executor = socbuf_core::ExecutorHandle::new(std::sync::Arc::new(pool.clone()));
    }
    sizing
}

/// A campaign lowered to its chunk-execution core: an index-ordered
/// work list, the chunk ranges that partition it, and one closure that
/// executes any chunk range. Every campaign — local pool run, single
/// chunk on a remote shard, smoke probe — is planned from its
/// [`ManifestShape`] by one constructor, so chunk semantics (warm-chain
/// boundaries, how a chunk's first point starts — cold, or seeded from
/// a budget campaign's point 0 — and by-index reduction) live in exactly
/// one place, and every execution goes through
/// [`CampaignPlan::run_chunks`].
pub struct CampaignPlan {
    kind: SweepKind,
    /// The chunk partition: the shape's [`ChunkPolicy`] partition, or a
    /// manifest's declared one once
    /// [`CampaignManifest::validate_chunks`] has accepted it.
    pub(crate) ranges: Vec<std::ops::Range<usize>>,
    exec: ChunkExec,
}

/// The plan's chunk executor: runs one index range.
type ChunkExec = Box<dyn Fn(std::ops::Range<usize>) -> Vec<Result<SweepPoint, SweepError>> + Sync>;

impl std::fmt::Debug for CampaignPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPlan")
            .field("kind", &self.kind)
            .field("ranges", &self.ranges)
            .finish_non_exhaustive()
    }
}

impl CampaignPlan {
    /// Plans `shape`: checks it with [`ManifestShape::validate`],
    /// partitions it with [`ManifestShape::chunk_policy`] and moves it
    /// into the executor, so the shape is copied at most once per plan
    /// (by the caller) and never per chunk. The sizing config is cloned
    /// in with `pool` attached as the block-solve executor; `simulate`
    /// adds the per-point policy comparison (see [`BudgetSweep`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an unusable campaign (empty grid,
    /// zero per-queue budget).
    pub(crate) fn new(
        shape: ManifestShape,
        sizing: &SizingConfig,
        simulate: Option<PipelineConfig>,
        pool: &WorkPool,
    ) -> Result<CampaignPlan, SweepError> {
        shape.validate().map_err(manifest_err)?;
        let kind = SweepKind::of(&shape);
        let ranges = shape.chunk_policy().ranges(shape.items());
        let warm_start = shape.warm_start();
        let sizing = attach_pool(sizing, pool);
        let anchor = OnceLock::new();
        let exec: ChunkExec = Box::new(move |range| match &shape {
            ManifestShape::Budget { arch, budgets, .. } => {
                let anchor = warm_start.then_some(&anchor);
                run_chain(range, warm_start, arch, &sizing, anchor, |ctx, i| {
                    size_point(ctx, arch, i, budgets[i], 1.0, None, simulate.as_ref())
                })
            }
            ManifestShape::Load {
                arch,
                budget,
                factors,
                ..
            } => run_chain(range, warm_start, arch, &sizing, None, |ctx, i| {
                let factor = factors[i];
                let scaled = arch
                    .scale_rates(factor, 1.0)
                    .map_err(|source| SweepError::Arch { index: i, source })?;
                size_point(ctx, &scaled, i, *budget, factor, None, simulate.as_ref())
            }),
            ManifestShape::Random {
                params,
                seeds,
                units_per_queue,
            } => range
                .map(|i| {
                    let seed = seeds[i];
                    let arch = random_architecture(seed, params);
                    let budget = units_per_queue * arch.num_queues();
                    size_point(
                        &mut SolveContext::new(&arch, &sizing),
                        &arch,
                        i,
                        budget,
                        1.0,
                        Some(seed),
                        simulate.as_ref(),
                    )
                })
                .collect(),
        });
        Ok(CampaignPlan { kind, ranges, exec })
    }

    /// Runs every chunk across `pool` and reduces the points into a
    /// report. A thin wrapper over [`CampaignPlan::run_sink`]
    /// collecting into a [`VecSink`].
    ///
    /// # Errors
    ///
    /// The lowest-index point failure.
    pub fn run(&self, pool: &WorkPool) -> Result<SweepReport, SweepError> {
        let mut sink = VecSink::new();
        self.run_sink(pool, &mut sink)?;
        Ok(SweepReport {
            kind: self.kind,
            points: sink.into_points(),
        })
    }

    /// Runs every chunk across `pool`, emitting points into `sink` **in
    /// index order as each chunk completes** — [`CampaignPlan::run_chunks`]
    /// over all chunks, so the sink observes the exact sequence a
    /// serial run would emit, for any worker count.
    ///
    /// # Errors
    ///
    /// The lowest-index point failure (identical error selection to the
    /// batch path, because consumption is index-ordered), or
    /// [`SweepError::Sink`] when the sink rejects a point.
    pub fn run_sink(
        &self,
        pool: &WorkPool,
        sink: &mut dyn PointSink,
    ) -> Result<SinkRun, SweepError> {
        let all: Vec<usize> = (0..self.ranges.len()).collect();
        self.run_chunks(pool, &all, |_chunk, points| {
            for point in points {
                sink.accept(point)
                    .map_err(|source| SweepError::Sink { source })?;
            }
            Ok(())
        })
    }

    /// Runs the chunks named by `chunks` across `pool` and hands each
    /// one's points, in index order, to `consume` **strictly in the
    /// order given** ([`WorkPool::run_ranges_ordered`]), on the calling
    /// thread, as soon as that chunk is next. Chunks execute in
    /// parallel, but `consume` observes the sequence a serial run over
    /// `chunks` would, for any worker count. This is the one execution
    /// path: the local campaign runs, a shard's `sweep_stream` answer
    /// and a single-chunk execution are all calls to it.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] before anything runs when an index is
    /// out of range; else the first failure in consumption order —
    /// a chunk's lowest-index point failure, or `consume`'s own error.
    pub fn run_chunks<E: From<SweepError>>(
        &self,
        pool: &WorkPool,
        chunks: &[usize],
        mut consume: impl FnMut(usize, Vec<SweepPoint>) -> Result<(), E>,
    ) -> Result<SinkRun, E> {
        let ranges = chunks
            .iter()
            .map(|&c| {
                self.ranges.get(c).cloned().ok_or_else(|| {
                    SweepError::BadConfig(format!(
                        "chunk {c} is out of range for a {}-chunk campaign",
                        self.ranges.len()
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let run = pool.run_ranges_ordered(&ranges, &self.exec, |i, results| {
            let points = results.into_iter().collect::<Result<Vec<_>, _>>()?;
            consume(chunks[i], points)
        })?;
        Ok(SinkRun {
            chunks: run.chunks,
            peak_parked_chunks: run.peak_parked,
        })
    }
}

/// Counters returned by [`CampaignPlan::run_chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkRun {
    /// Chunks executed and consumed.
    pub chunks: usize,
    /// Largest number of finished chunks parked awaiting ordered
    /// consumption — the campaign's resident-point bound is this (plus
    /// in-flight chunks) times the chunk length, independent of
    /// campaign size.
    pub peak_parked_chunks: usize,
}

/// Shared manifest-construction guard: manifests describe sizing-only
/// campaigns (simulation campaigns remain single-host).
fn reject_simulate(simulate: &Option<PipelineConfig>) -> Result<(), SweepError> {
    if simulate.is_some() {
        return Err(SweepError::BadConfig(
            "manifests describe sizing-only campaigns; drop `simulate` before sharding".into(),
        ));
    }
    Ok(())
}

/// Maps a manifest or shape refusal into the campaign error space.
pub(crate) fn manifest_err(source: socbuf_core::wire::WireError) -> SweepError {
    SweepError::BadConfig(source.to_string())
}

/// Loss/allocation/shadow-price across a budget grid on one
/// architecture — the Pareto-frontier campaign (the paper's Table 1,
/// generalized).
#[derive(Debug, Clone)]
pub struct BudgetSweep<'a> {
    /// The architecture to size.
    pub arch: &'a Architecture,
    /// Budget grid (one work item per entry).
    pub budgets: Vec<usize>,
    /// Sizing configuration shared by every point.
    pub sizing: SizingConfig,
    /// When set, each point also runs the three-policy simulation
    /// comparison with this pipeline configuration (its `sizing` field
    /// is overridden by the sweep's).
    pub simulate: Option<PipelineConfig>,
    /// Warm-start the LP re-solves along index-fixed chunks of
    /// [`WARM_CHUNK`] points (the default; see the constant's docs for
    /// the determinism argument). Disable to cold-start every point as
    /// a one-point chain ([`ChunkPolicy::INDEPENDENT`]) — e.g. when
    /// pinning a point bit-for-bit against a standalone
    /// [`socbuf_core::size_buffers`] call, whose pivot path a warm chain
    /// legitimately changes.
    pub warm_start: bool,
}

impl<'a> BudgetSweep<'a> {
    /// A sizing-only sweep of `budgets` under the default configuration,
    /// warm starts enabled.
    pub fn new(arch: &'a Architecture, budgets: Vec<usize>) -> Self {
        BudgetSweep {
            arch,
            budgets,
            sizing: SizingConfig::default(),
            simulate: None,
            warm_start: true,
        }
    }

    /// The campaign this sweep describes.
    fn shape(&self) -> ManifestShape {
        ManifestShape::Budget {
            arch: self.arch.clone(),
            budgets: self.budgets.clone(),
            warm_start: self.warm_start,
        }
    }

    /// Lowers the sweep to its chunk-execution core. The plan owns a
    /// copy of the campaign and its configuration (with `pool` attached
    /// as the block-solve executor), so it outlives the sweep value it
    /// came from.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an empty grid.
    pub fn plan(&self, pool: &WorkPool) -> Result<CampaignPlan, SweepError> {
        CampaignPlan::new(self.shape(), &self.sizing, self.simulate.clone(), pool)
    }

    /// The sweep's sharding contract (see
    /// [`CampaignManifest`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an empty grid, an integer above
    /// 2⁵³ (the largest the wire carries exactly) or a simulation
    /// campaign (manifests are sizing-only).
    pub fn manifest(&self) -> Result<CampaignManifest, SweepError> {
        reject_simulate(&self.simulate)?;
        CampaignManifest::new(self.shape(), self.sizing.clone()).map_err(manifest_err)
    }

    /// Runs the sweep on `pool`.
    ///
    /// # Errors
    ///
    /// The lowest-index point failure, or [`SweepError::BadConfig`] for
    /// an empty grid.
    pub fn run(&self, pool: &WorkPool) -> Result<SweepReport, SweepError> {
        self.plan(pool)?.run(pool)
    }

    /// Streams the sweep's points into `sink` in index order without
    /// materializing the report (see [`CampaignPlan::run_sink`]).
    ///
    /// # Errors
    ///
    /// As [`BudgetSweep::run`], plus [`SweepError::Sink`].
    pub fn run_sink(
        &self,
        pool: &WorkPool,
        sink: &mut dyn PointSink,
    ) -> Result<SinkRun, SweepError> {
        self.plan(pool)?.run_sink(pool, sink)
    }
}

/// One budget, a grid of load factors: every point sizes the
/// architecture with all λ scaled by the factor (μ untouched).
#[derive(Debug, Clone)]
pub struct LoadSweep<'a> {
    /// The nominal architecture.
    pub arch: &'a Architecture,
    /// Buffer budget shared by every point.
    pub budget: usize,
    /// λ multipliers (one work item per entry).
    pub factors: Vec<f64>,
    /// Sizing configuration shared by every point.
    pub sizing: SizingConfig,
    /// Optional per-point simulation comparison (see [`BudgetSweep`]).
    pub simulate: Option<PipelineConfig>,
    /// Warm-start chunked re-solves (see [`BudgetSweep::warm_start`]);
    /// on by default. Along a load chain the warm solver re-scales the
    /// cached LP's rate coefficients in place instead of reassembling.
    pub warm_start: bool,
}

impl<'a> LoadSweep<'a> {
    /// A sizing-only sweep of `factors` at `budget`, warm starts
    /// enabled.
    pub fn new(arch: &'a Architecture, budget: usize, factors: Vec<f64>) -> Self {
        LoadSweep {
            arch,
            budget,
            factors,
            sizing: SizingConfig::default(),
            simulate: None,
            warm_start: true,
        }
    }

    /// The campaign this sweep describes.
    fn shape(&self) -> ManifestShape {
        ManifestShape::Load {
            arch: self.arch.clone(),
            budget: self.budget,
            factors: self.factors.clone(),
            warm_start: self.warm_start,
        }
    }

    /// Lowers the sweep to its chunk-execution core (see
    /// [`BudgetSweep::plan`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an empty grid.
    pub fn plan(&self, pool: &WorkPool) -> Result<CampaignPlan, SweepError> {
        CampaignPlan::new(self.shape(), &self.sizing, self.simulate.clone(), pool)
    }

    /// The sweep's sharding contract (see [`CampaignManifest`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an empty grid, a non-finite factor
    /// (the wire carries finite factors only), an integer above 2⁵³ or
    /// a simulation campaign (manifests are sizing-only).
    pub fn manifest(&self) -> Result<CampaignManifest, SweepError> {
        reject_simulate(&self.simulate)?;
        CampaignManifest::new(self.shape(), self.sizing.clone()).map_err(manifest_err)
    }

    /// Runs the sweep on `pool`.
    ///
    /// # Errors
    ///
    /// The lowest-index point failure (a factor that makes the LP
    /// infeasible surfaces here), or [`SweepError::BadConfig`] for an
    /// empty grid.
    pub fn run(&self, pool: &WorkPool) -> Result<SweepReport, SweepError> {
        self.plan(pool)?.run(pool)
    }

    /// Streams the sweep's points into `sink` in index order without
    /// materializing the report (see [`CampaignPlan::run_sink`]).
    ///
    /// # Errors
    ///
    /// As [`LoadSweep::run`], plus [`SweepError::Sink`].
    pub fn run_sink(
        &self,
        pool: &WorkPool,
        sink: &mut dyn PointSink,
    ) -> Result<SinkRun, SweepError> {
        self.plan(pool)?.run_sink(pool, sink)
    }
}

/// Fan-out over [`random_architecture`] seeds: one sizing problem per
/// seed, with the budget scaled to each architecture's queue count.
#[derive(Debug, Clone)]
pub struct RandomCampaign {
    /// Generator knobs shared by every seed.
    pub params: RandomArchParams,
    /// Architecture seeds (one work item per entry).
    pub seeds: Vec<u64>,
    /// Budget granted per queue (total = `units_per_queue × queues`, so
    /// differently-sized architectures are budgeted comparably).
    pub units_per_queue: usize,
    /// Sizing configuration shared by every point.
    pub sizing: SizingConfig,
    /// Optional per-point simulation comparison (see [`BudgetSweep`]).
    pub simulate: Option<PipelineConfig>,
}

impl RandomCampaign {
    /// A sizing-only campaign over `seeds` with default params and
    /// 3 units per queue.
    pub fn new(seeds: Vec<u64>) -> Self {
        RandomCampaign {
            params: RandomArchParams::default(),
            seeds,
            units_per_queue: 3,
            sizing: SizingConfig::default(),
            simulate: None,
        }
    }

    /// The campaign this fan-out describes.
    fn shape(&self) -> ManifestShape {
        ManifestShape::Random {
            params: self.params.clone(),
            seeds: self.seeds.clone(),
            units_per_queue: self.units_per_queue,
        }
    }

    /// Lowers the campaign to its chunk-execution core (see
    /// [`BudgetSweep::plan`]). Random campaigns never warm-chain (every
    /// seed is a different architecture), so the plan uses
    /// [`ChunkPolicy::INDEPENDENT`].
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an empty seed list or a zero
    /// per-queue budget.
    pub fn plan(&self, pool: &WorkPool) -> Result<CampaignPlan, SweepError> {
        CampaignPlan::new(self.shape(), &self.sizing, self.simulate.clone(), pool)
    }

    /// The campaign's sharding contract (see [`CampaignManifest`]).
    ///
    /// # Errors
    ///
    /// [`SweepError::BadConfig`] for an unusable campaign, a seed or
    /// another rendered integer above 2⁵³ (the largest integer the wire
    /// carries exactly) or a simulation campaign (manifests are
    /// sizing-only).
    pub fn manifest(&self) -> Result<CampaignManifest, SweepError> {
        reject_simulate(&self.simulate)?;
        CampaignManifest::new(self.shape(), self.sizing.clone()).map_err(manifest_err)
    }

    /// Runs the campaign on `pool`.
    ///
    /// # Errors
    ///
    /// The lowest-index point failure, or [`SweepError::BadConfig`] for
    /// an empty seed list or a zero per-queue budget.
    pub fn run(&self, pool: &WorkPool) -> Result<SweepReport, SweepError> {
        self.plan(pool)?.run(pool)
    }

    /// Streams the campaign's points into `sink` in index order without
    /// materializing the report (see [`CampaignPlan::run_sink`]).
    ///
    /// # Errors
    ///
    /// As [`RandomCampaign::run`], plus [`SweepError::Sink`].
    pub fn run_sink(
        &self,
        pool: &WorkPool,
        sink: &mut dyn PointSink,
    ) -> Result<SinkRun, SweepError> {
        self.plan(pool)?.run_sink(pool, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_core::{evaluate_policies, evaluate_policies_with, size_buffers};
    use socbuf_soc::templates;

    fn small() -> SizingConfig {
        SizingConfig::small()
    }

    #[test]
    fn budget_sweep_points_match_single_shot_sizing() {
        // With warm starts OFF every point is a standalone cold solve,
        // so the match against `size_buffers` is exact (bitwise).
        let arch = templates::amba();
        let sweep = BudgetSweep {
            arch: &arch,
            budgets: vec![12, 16, 24],
            sizing: small(),
            simulate: None,
            warm_start: false,
        };
        let report = sweep.run(&WorkPool::serial()).unwrap();
        assert_eq!(report.kind, SweepKind::Budget);
        assert_eq!(report.points.len(), 3);
        for (i, &budget) in [12usize, 16, 24].iter().enumerate() {
            let p = &report.points[i];
            let solo = size_buffers(&arch, budget, &small()).unwrap();
            assert_eq!(p.index, i);
            assert_eq!(p.budget, budget);
            assert_eq!(p.allocation, solo.allocation.as_slice());
            assert_eq!(p.predicted_loss, solo.predicted_loss_rate);
            assert_eq!(p.load_factor, 1.0);
            assert_eq!(p.arch_seed, None);
        }
    }

    #[test]
    fn warm_budget_sweep_agrees_with_cold_to_solver_precision() {
        // Warm chains may land on a different optimal vertex (and pivot
        // count), but statuses and objectives must match the cold sweep:
        // the optimal objective of an LP is unique.
        let arch = templates::amba();
        let budgets = vec![10, 12, 16, 20, 24, 32, 40]; // spans 2 chunks
        let mut warm = BudgetSweep::new(&arch, budgets.clone());
        warm.sizing = small();
        let mut cold = BudgetSweep::new(&arch, budgets);
        cold.sizing = small();
        cold.warm_start = false;
        let warm = warm.run(&WorkPool::serial()).unwrap();
        let cold = cold.run(&WorkPool::serial()).unwrap();
        for (w, c) in warm.points.iter().zip(&cold.points) {
            assert_eq!(w.budget_row_relaxed, c.budget_row_relaxed);
            assert!(
                (w.predicted_loss - c.predicted_loss).abs()
                    <= 1e-9 * (1.0 + c.predicted_loss.abs()),
                "budget {}: warm {} vs cold {}",
                w.budget,
                w.predicted_loss,
                c.predicted_loss
            );
            assert_eq!(w.allocation.iter().sum::<usize>(), w.budget);
        }
        // Index 0 is the campaign's anchor, a cold solve, and must match
        // bit for bit, pivot count included.
        assert_eq!(warm.points[0], cold.points[0], "anchor point drifted");
        // Index 4 starts its chain from the anchor's basis, so it is warm
        // by design; every rendered field must still match bit for bit.
        // `lp_iterations` is trace-only.
        let (w, c) = (&warm.points[4], &cold.points[4]);
        let rendered = |p: &SweepPoint| SweepPoint {
            lp_iterations: 0,
            ..p.clone()
        };
        assert_eq!(rendered(w), rendered(c), "chunk start 4 drifted");
        assert_eq!(w.predicted_loss.to_bits(), c.predicted_loss.to_bits());
        assert_eq!(w.shadow_price.to_bits(), c.shadow_price.to_bits());
        assert_eq!(w.offered_rate.to_bits(), c.offered_rate.to_bits());
    }

    #[test]
    fn warm_load_sweep_agrees_with_cold_to_solver_precision() {
        let arch = templates::coreconnect();
        let factors = vec![0.5, 0.75, 1.0, 1.25, 1.5];
        let mut warm = LoadSweep::new(&arch, 20, factors.clone());
        warm.sizing = small();
        let mut cold = LoadSweep::new(&arch, 20, factors);
        cold.sizing = small();
        cold.warm_start = false;
        let warm = warm.run(&WorkPool::serial()).unwrap();
        let cold = cold.run(&WorkPool::serial()).unwrap();
        for (w, c) in warm.points.iter().zip(&cold.points) {
            assert_eq!(w.budget_row_relaxed, c.budget_row_relaxed);
            assert!(
                (w.predicted_loss - c.predicted_loss).abs()
                    <= 1e-9 * (1.0 + c.predicted_loss.abs()),
                "factor {}: warm {} vs cold {}",
                w.load_factor,
                w.predicted_loss,
                c.predicted_loss
            );
        }
    }

    #[test]
    fn load_sweep_scales_offered_rate() {
        let arch = templates::amba();
        let sweep = LoadSweep {
            arch: &arch,
            budget: 16,
            factors: vec![0.5, 1.0],
            sizing: small(),
            simulate: None,
            warm_start: true,
        };
        let report = sweep.run(&WorkPool::serial()).unwrap();
        assert_eq!(report.kind, SweepKind::Load);
        let nominal = arch.total_offered_rate();
        assert!((report.points[0].offered_rate - 0.5 * nominal).abs() < 1e-12);
        assert!((report.points[1].offered_rate - nominal).abs() < 1e-12);
        // Lighter load must not predict more loss at the same budget.
        assert!(report.points[0].predicted_loss <= report.points[1].predicted_loss + 1e-12);
    }

    #[test]
    fn random_campaign_budgets_scale_with_queue_count() {
        let campaign = RandomCampaign {
            params: RandomArchParams::default(),
            seeds: vec![3, 5],
            units_per_queue: 3,
            sizing: small(),
            simulate: None,
        };
        let report = campaign.run(&WorkPool::serial()).unwrap();
        assert_eq!(report.kind, SweepKind::Random);
        for p in &report.points {
            assert_eq!(p.budget, 3 * p.queues);
            assert_eq!(p.allocation.iter().sum::<usize>(), p.budget);
            assert!(p.arch_seed.is_some());
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        let arch = templates::amba();
        assert!(matches!(
            BudgetSweep::new(&arch, vec![]).run(&WorkPool::serial()),
            Err(SweepError::BadConfig(_))
        ));
        assert!(matches!(
            LoadSweep::new(&arch, 10, vec![]).run(&WorkPool::serial()),
            Err(SweepError::BadConfig(_))
        ));
        assert!(matches!(
            RandomCampaign::new(vec![]).run(&WorkPool::serial()),
            Err(SweepError::BadConfig(_))
        ));
    }

    #[test]
    fn point_failures_carry_the_lowest_failing_index() {
        let arch = templates::amba();
        // A negative load factor fails at the architecture-scaling step.
        let sweep = LoadSweep {
            arch: &arch,
            budget: 16,
            factors: vec![1.0, -1.0, -2.0],
            sizing: small(),
            simulate: None,
            warm_start: true,
        };
        match sweep.run(&WorkPool::new(4)) {
            Err(SweepError::Arch { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected Arch error, got {other:?}"),
        }
    }

    #[test]
    fn simulated_points_attach_policy_losses() {
        let arch = templates::amba();
        let sweep = BudgetSweep {
            arch: &arch,
            budgets: vec![16],
            sizing: small(),
            simulate: Some(PipelineConfig::small()),
            warm_start: true,
        };
        let report = sweep.run(&WorkPool::serial()).unwrap();
        let sim = report.points[0].sim.as_ref().expect("sim attached");
        assert!(sim.pre_loss >= 0.0 && sim.post_loss >= 0.0);
        // The attached summary matches a direct evaluate_policies call
        // under the same (overridden) sizing config.
        let mut pipeline = PipelineConfig::small();
        pipeline.sizing = small();
        let cmp = evaluate_policies(&arch, 16, &pipeline).unwrap();
        assert_eq!(sim.pre_loss, cmp.pre.total_lost);
        assert_eq!(sim.post_loss, cmp.post.total_lost);
        assert_eq!(sim.timeout_loss, cmp.timeout.total_lost);
    }

    #[test]
    fn pooled_policy_comparison_matches_serial() {
        let arch = templates::amba();
        let cfg = PipelineConfig::small();
        let serial = evaluate_policies(&arch, 16, &cfg).unwrap();
        let pooled = evaluate_policies_with(&arch, 16, &cfg, &WorkPool::new(4)).unwrap();
        assert_eq!(serial.pre, pooled.pre);
        assert_eq!(serial.post, pooled.post);
        assert_eq!(serial.timeout, pooled.timeout);
    }
}

//! The actor ensemble: construction, message dispatch, shared context.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use socbuf_soc::{Architecture, BufferAllocation, TrafficShape};

use crate::actors::bridge::BridgeActor;
use crate::actors::bus::BusActor;
use crate::actors::queue::QueueActor;
use crate::actors::scheduler::{index, Envelope, EventQueue, Msg};
use crate::actors::source::SourceActor;
use crate::arbiter::Arbiter;
use crate::engine::{SimConfig, TimeoutSpec};
use crate::stats::{ProcStats, SimReport};

/// All simulation state: the actors, the scheduler's event queue, the
/// shared RNG and the per-processor counters (each queue counts on
/// itself).
///
/// Actors own their dynamic state (buffers, bus grants, source phases).
/// A hand-off that takes time travels as an [`EventQueue`] envelope;
/// one that happens at once is a direct call between handlers (see the
/// `scheduler` module). The `World` is the context every handler runs
/// in. The RNG is a single shared stream so the draw order — fixed by
/// the envelope order — is reproducible. What the architecture and the
/// timeout policy fix for the run (routes, service rates, thresholds) is
/// resolved once here and held by the actor that reads it.
pub(super) struct World<'a> {
    pub arbiter: &'a mut Arbiter,
    pub warmup: f64,
    pub rng: SmallRng,
    pub evq: EventQueue,
    pub sources: Vec<SourceActor<'a>>,
    pub queues: Vec<QueueActor>,
    pub buses: Vec<BusActor<'a>>,
    pub bridges: Vec<BridgeActor>,
    pub procs: Vec<ProcStats>,
}

impl<'a> World<'a> {
    pub fn new(
        arch: &'a Architecture,
        alloc: &BufferAllocation,
        arbiter: &'a mut Arbiter,
        timeout: Option<&TimeoutSpec>,
        config: &SimConfig,
    ) -> Self {
        let queues = arch
            .queues()
            .iter()
            .map(|spec| {
                let threshold = timeout.map_or(f64::INFINITY, |to| to.threshold(spec.id));
                QueueActor::new(spec.bus.index(), alloc.units(spec.id), threshold)
            })
            .collect();
        let buses = arch
            .bus_ids()
            .map(|b| {
                let bus = arch.bus(b);
                BusActor::new(bus.arbitration(), bus.service_rate(), arch.bus_queue_ids(b))
            })
            .collect();
        let bridges = arch
            .bridge_ids()
            .map(|g| BridgeActor::new(arch.bridge(g).latency()))
            .collect();
        let sources = arch
            .flow_ids()
            .map(|f| SourceActor::new(arch.flow(f), arch.flow_path(f), &arch.route(f).bridges))
            .collect();
        World {
            arbiter,
            warmup: config.warmup,
            rng: SmallRng::seed_from_u64(config.seed),
            evq: EventQueue::default(),
            sources,
            queues,
            buses,
            bridges,
            procs: vec![ProcStats::default(); arch.num_processors()],
        }
    }

    /// An exponential sample at `rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    }

    /// `true` when `t` is inside the measured window.
    pub fn measure(&self, t: f64) -> bool {
        t >= self.warmup
    }

    /// Seeds the initial self-messages of every source, in flow order.
    pub fn init_sources(&mut self) {
        for fi in 0..self.sources.len() {
            let flow = index(fi);
            // Every shape starts with an arrival; an on-off source starts
            // in the ON phase, so its first toggle follows.
            let dt = self.exp(self.sources[fi].epoch_rate());
            self.evq.send(dt, Msg::Tick { flow, epoch: 0 });
            if let TrafficShape::OnOff { mean_on, .. } = self.sources[fi].shape {
                let dtg = self.exp(1.0 / mean_on);
                self.evq.send(dtg, Msg::Toggle { flow });
            }
        }
    }

    /// Delivers one envelope to its actor.
    pub fn dispatch(&mut self, env: Envelope) {
        let t = env.time;
        match env.msg {
            Msg::Tick { flow, epoch } => self.source_tick(flow as usize, epoch, t),
            Msg::Toggle { flow } => self.source_toggle(flow as usize, t),
            Msg::Offer {
                queue,
                flow,
                hop,
                counted_origin,
            } => self.queue_offer(
                queue as usize,
                flow as usize,
                hop as usize,
                Some(counted_origin),
                t,
            ),
            Msg::Complete { bus } => self.bus_complete(bus as usize, t),
        }
    }

    /// Closes the occupancy integrals and assembles the report.
    pub fn into_report(self, config: &SimConfig) -> SimReport {
        let per_queue = self
            .queues
            .into_iter()
            .map(|q| q.into_stats(config.warmup, config.horizon))
            .collect();
        SimReport::new(config.horizon - config.warmup, per_queue, self.procs)
    }
}

use std::collections::HashMap;

use crate::ids::{BridgeId, BusId, FlowId, ProcId, QueueId};
use crate::SocError;

/// How a bus grants service among its queues.
///
/// The default, [`BusArbitration::External`], leaves the choice to the
/// simulator's runtime arbiter (the paper's model). The other variants
/// are *declared on the architecture*, and the simulator executes them
/// in place of the runtime arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusArbitration {
    /// Arbitration is chosen at simulation time (`socbuf-sim`'s
    /// `Arbiter`). The default — every pre-existing architecture uses it.
    External,
    /// Strict fixed-priority arbitration: every queue on the bus has a
    /// unique priority given by its declaration order (first declared =
    /// highest), and the bus always serves the highest-priority
    /// non-empty queue.
    Priority,
    /// Locked transfers: once a queue is granted (by the runtime
    /// arbiter), it holds the bus for up to `max_batch` consecutive
    /// services — or until it drains — before arbitration reopens.
    Locked {
        /// Maximum consecutive services per grant (≥ 1).
        max_batch: usize,
    },
}

/// A shared bus: one request served at a time at an exponential rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    name: String,
    service_rate: f64,
    arbitration: BusArbitration,
}

impl Bus {
    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Exponential service rate μ (requests per unit time).
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// The declared arbitration mode.
    pub fn arbitration(&self) -> BusArbitration {
        self.arbitration
    }
}

/// A processor (IP core) attached to one or more buses.
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    name: String,
    buses: Vec<BusId>,
    weight: f64,
}

impl Processor {
    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Buses this processor can transmit on.
    pub fn buses(&self) -> &[BusId] {
        &self.buses
    }

    /// Loss weight `w_p`: how much a lost request of this processor
    /// contributes to the objective (the paper suggests weighing losses;
    /// `1.0` treats all processors equally).
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// A unidirectional bridge with a buffer on the downstream bus.
///
/// Requests crossing `from → to` are deposited by bus `from` into the
/// bridge buffer and drained by bus `to`. The buffer is exactly the
/// paper's "buffer inserted for the bridge": it decouples the two buses'
/// steady-state equations.
#[derive(Debug, Clone, PartialEq)]
pub struct Bridge {
    name: String,
    from: BusId,
    to: BusId,
    latency: f64,
}

impl Bridge {
    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Upstream bus (the depositor).
    pub fn from(&self) -> BusId {
        self.from
    }

    /// Downstream bus (the drainer; the bridge buffer is its client).
    pub fn to(&self) -> BusId {
        self.to
    }

    /// Deterministic forwarding latency: the delay between a request
    /// finishing service on the upstream bus and being offered to the
    /// bridge buffer. `0` (the default) is the paper's instantaneous
    /// crossing; positive latencies extend the paper's model.
    pub fn latency(&self) -> f64 {
        self.latency
    }
}

/// Destination of a traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowTarget {
    /// Another processor (delivered once the request is served on a bus
    /// that processor is attached to).
    Processor(ProcId),
    /// A resource that lives on a specific bus (e.g. a shared memory
    /// port): delivered once served on that bus.
    Bus(BusId),
}

/// The arrival process of a flow.
///
/// Every shape preserves the flow's declared *average* rate λ, so
/// LP-sized buffers can be cross-validated under burstiness at the same
/// offered load. [`TrafficShape::Poisson`] is the default and the
/// paper's model; the other shapes extend it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficShape {
    /// Memoryless Poisson arrivals at rate λ (the default).
    Poisson,
    /// Batched arrivals: bursts of `batch` back-to-back requests at
    /// Poisson epochs of rate `λ / batch` (average rate still λ).
    /// `batch = 1` is exactly Poisson.
    Burst {
        /// Requests per burst (≥ 1).
        batch: usize,
    },
    /// A two-state on-off MMPP: exponential ON sojourns of mean
    /// `mean_on` alternating with silent OFF sojourns of mean
    /// `mean_off`; while ON, arrivals are Poisson at rate
    /// `λ · (mean_on + mean_off) / mean_on` (average rate still λ).
    OnOff {
        /// Mean ON-phase duration (> 0, finite).
        mean_on: f64,
        /// Mean OFF-phase duration (> 0, finite).
        mean_off: f64,
    },
}

impl TrafficShape {
    /// `true` for the default memoryless shape.
    pub fn is_poisson(&self) -> bool {
        matches!(self, TrafficShape::Poisson) || matches!(self, TrafficShape::Burst { batch: 1 })
    }
}

/// A traffic flow from a source processor to a target.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    src: ProcId,
    target: FlowTarget,
    rate: f64,
    shape: TrafficShape,
}

impl Flow {
    /// Source processor.
    pub fn src(&self) -> ProcId {
        self.src
    }

    /// Destination.
    pub fn target(&self) -> FlowTarget {
        self.target
    }

    /// Average arrival rate λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The declared arrival process shape.
    pub fn shape(&self) -> TrafficShape {
        self.shape
    }
}

/// The entity whose requests wait in a queue: a processor transmitting on
/// a bus, or a bridge buffer drained by its downstream bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Client {
    /// A processor's transmit queue.
    Processor(ProcId),
    /// A bridge's buffer.
    Bridge(BridgeId),
}

/// A buffer-insertion point: one (client, bus) contention queue.
///
/// Fields are public: this is passive, derived data.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSpec {
    /// This queue's identifier.
    pub id: QueueId,
    /// Who owns the waiting requests.
    pub client: Client,
    /// The bus that serves this queue.
    pub bus: BusId,
    /// Flows passing through this queue.
    pub flows: Vec<FlowId>,
    /// Total nominal offered rate (Σ of flow rates; ignores upstream
    /// thinning by losses, which only the simulator resolves exactly).
    pub offered_rate: f64,
}

/// The bus-level route of a flow: the buses it is served on, in order,
/// and the bridges crossed between consecutive buses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Buses traversed (at least one).
    pub buses: Vec<BusId>,
    /// Bridges crossed; `bridges.len() == buses.len() - 1`.
    pub bridges: Vec<BridgeId>,
}

/// An immutable, validated SoC communication architecture with routed
/// traffic and enumerated buffer-insertion points.
///
/// Create one with [`ArchitectureBuilder`] or a
/// [`crate::templates`] function.
#[derive(Debug, Clone)]
pub struct Architecture {
    buses: Vec<Bus>,
    processors: Vec<Processor>,
    bridges: Vec<Bridge>,
    flows: Vec<Flow>,
    routes: Vec<Route>,
    queues: Vec<QueueSpec>,
    flow_paths: Vec<Vec<QueueId>>,
    bus_queues: Vec<Vec<QueueId>>,
}

impl Architecture {
    /// Number of buses.
    pub fn num_buses(&self) -> usize {
        self.buses.len()
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.processors.len()
    }

    /// Number of bridges.
    pub fn num_bridges(&self) -> usize {
        self.bridges.len()
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of queues (buffer-insertion points).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// A bus by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn bus(&self, id: BusId) -> &Bus {
        &self.buses[id.0]
    }

    /// A processor by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn processor(&self, id: ProcId) -> &Processor {
        &self.processors[id.0]
    }

    /// A bridge by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn bridge(&self, id: BridgeId) -> &Bridge {
        &self.bridges[id.0]
    }

    /// A flow by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.0]
    }

    /// The route of a flow.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn route(&self, id: FlowId) -> &Route {
        &self.routes[id.0]
    }

    /// A queue by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn queue(&self, id: QueueId) -> &QueueSpec {
        &self.queues[id.0]
    }

    /// All queues.
    pub fn queues(&self) -> &[QueueSpec] {
        &self.queues
    }

    /// Queue handles served by `bus`.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn bus_queue_ids(&self, bus: BusId) -> &[QueueId] {
        &self.bus_queues[bus.0]
    }

    /// The queue sequence a flow traverses: its processor queue first,
    /// then one bridge buffer per crossing.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn flow_path(&self, id: FlowId) -> &[QueueId] {
        &self.flow_paths[id.0]
    }

    /// Iterates over bus handles.
    pub fn bus_ids(&self) -> impl Iterator<Item = BusId> + '_ {
        (0..self.buses.len()).map(BusId)
    }

    /// Iterates over processor handles.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.processors.len()).map(ProcId)
    }

    /// Iterates over bridge handles.
    pub fn bridge_ids(&self) -> impl Iterator<Item = BridgeId> + '_ {
        (0..self.bridges.len()).map(BridgeId)
    }

    /// Iterates over flow handles.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        (0..self.flows.len()).map(FlowId)
    }

    /// Iterates over queue handles.
    pub fn queue_ids(&self) -> impl Iterator<Item = QueueId> + '_ {
        (0..self.queues.len()).map(QueueId)
    }

    /// Human-readable name of a queue's client.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn queue_name(&self, id: QueueId) -> String {
        let q = &self.queues[id.0];
        match q.client {
            Client::Processor(p) => {
                format!("{}@{}", self.processors[p.0].name, self.buses[q.bus.0].name)
            }
            Client::Bridge(b) => format!("{}@{}", self.bridges[b.0].name, self.buses[q.bus.0].name),
        }
    }

    /// Nominal utilization of a bus: Σ offered rates of its queues over
    /// its service rate. Values near (or above) 1 mean the bus is
    /// saturated and losses are inevitable somewhere.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this architecture.
    pub fn bus_utilization_estimate(&self, bus: BusId) -> f64 {
        let offered: f64 = self.bus_queues[bus.0]
            .iter()
            .map(|q| self.queues[q.0].offered_rate)
            .sum();
        offered / self.buses[bus.0].service_rate
    }

    /// Total offered traffic over all flows.
    pub fn total_offered_rate(&self) -> f64 {
        self.flows.iter().map(|f| f.rate).sum()
    }

    /// `true` when the architecture declares behavior beyond the paper's
    /// model: a non-Poisson traffic shape (`Burst { batch: 1 }` counts as
    /// Poisson — it is the same process), a
    /// non-[`BusArbitration::External`] bus, or a bridge with positive
    /// forwarding latency. The simulator executes these declarations;
    /// the CTMDP sizing model does not see them.
    pub fn uses_extended_semantics(&self) -> bool {
        self.flows.iter().any(|f| !f.shape.is_poisson())
            || self
                .buses
                .iter()
                .any(|b| b.arbitration != BusArbitration::External)
            || self.bridges.iter().any(|g| g.latency > 0.0)
    }

    /// A copy of this architecture with every flow rate multiplied by
    /// `lambda_factor` and every bus service rate by `mu_factor`.
    ///
    /// Structure (processors, bridges, routes, queue enumeration) is
    /// unchanged — only the rates move, which is exactly what load
    /// sweeps and the time-rescaling metamorphic property need. Scaling
    /// both factors by the same value is a pure change of time unit: the
    /// steady-state occupancy laws, and therefore the optimal buffer
    /// allocation, are invariant under it.
    ///
    /// # Errors
    ///
    /// [`SocError::BadRate`] if either factor is not positive and finite.
    pub fn scale_rates(&self, lambda_factor: f64, mu_factor: f64) -> Result<Self, SocError> {
        for (what, factor) in [("lambda_factor", lambda_factor), ("mu_factor", mu_factor)] {
            if factor <= 0.0 || !factor.is_finite() {
                return Err(SocError::BadRate {
                    what: what.into(),
                    value: factor,
                });
            }
        }
        let mut scaled = self.clone();
        for bus in &mut scaled.buses {
            bus.service_rate *= mu_factor;
        }
        for flow in &mut scaled.flows {
            flow.rate *= lambda_factor;
            // On-off sojourns are arrival-side durations: scaling λ by a
            // factor shrinks the arrival time unit by the same factor, so
            // the mean phase lengths divide by it. Burst batch counts are
            // dimensionless and stay put.
            if let TrafficShape::OnOff { mean_on, mean_off } = &mut flow.shape {
                *mean_on /= lambda_factor;
                *mean_off /= lambda_factor;
            }
        }
        // Bridge latency is a service-side duration, so it divides by the
        // service-rate factor: scaling both factors together remains a
        // pure change of time unit even on extended architectures.
        for bridge in &mut scaled.bridges {
            bridge.latency /= mu_factor;
        }
        // `offered_rate` is Σ of flow rates. Re-sum the scaled rates in
        // the builder's order rather than scaling the old sum: `(Σ r)·f`
        // and `Σ (r·f)` can differ in the last ulp, and a wire round trip
        // (which rebuilds through the builder) must reproduce this value.
        for queue in &mut scaled.queues {
            queue.offered_rate = queue
                .flows
                .iter()
                .fold(0.0, |sum, f| sum + scaled.flows[f.0].rate);
        }
        Ok(scaled)
    }
}

/// Incremental builder for [`Architecture`].
///
/// # Examples
///
/// ```
/// use socbuf_soc::{ArchitectureBuilder, FlowTarget};
///
/// # fn main() -> Result<(), socbuf_soc::SocError> {
/// let mut b = ArchitectureBuilder::new();
/// let ahb = b.add_bus("ahb", 2.0)?;
/// let apb = b.add_bus("apb", 0.5)?;
/// let cpu = b.add_processor("cpu", &[ahb], 1.0)?;
/// let _bridge = b.add_bridge("ahb2apb", ahb, apb)?;
/// b.add_flow(cpu, FlowTarget::Bus(apb), 0.2)?;
/// let arch = b.build()?;
/// assert_eq!(arch.num_queues(), 2); // cpu@ahb and the bridge buffer@apb
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArchitectureBuilder {
    buses: Vec<Bus>,
    processors: Vec<Processor>,
    bridges: Vec<Bridge>,
    flows: Vec<Flow>,
}

impl ArchitectureBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bus indices a processor is attached to (used by the random
    /// template generator for routability checks before `build`).
    pub(crate) fn processor_buses(&self, proc_index: usize) -> Vec<usize> {
        self.processors[proc_index]
            .buses
            .iter()
            .map(|b| b.0)
            .collect()
    }

    /// Adds a bus with exponential service rate `service_rate`.
    ///
    /// # Errors
    ///
    /// [`SocError::BadRate`] if the rate is not positive and finite.
    pub fn add_bus(
        &mut self,
        name: impl Into<String>,
        service_rate: f64,
    ) -> Result<BusId, SocError> {
        let name = name.into();
        if service_rate <= 0.0 || !service_rate.is_finite() {
            return Err(SocError::BadRate {
                what: format!("bus '{name}'"),
                value: service_rate,
            });
        }
        self.buses.push(Bus {
            name,
            service_rate,
            arbitration: BusArbitration::External,
        });
        Ok(BusId(self.buses.len() - 1))
    }

    /// Adds a bus with an explicit [`BusArbitration`] mode. Non-default
    /// modes require the actor-based simulator.
    ///
    /// # Errors
    ///
    /// [`SocError::BadRate`] if the rate is not positive and finite, or
    /// if the mode is `Locked { max_batch: 0 }`.
    pub fn add_bus_with_arbitration(
        &mut self,
        name: impl Into<String>,
        service_rate: f64,
        arbitration: BusArbitration,
    ) -> Result<BusId, SocError> {
        let name = name.into();
        if let BusArbitration::Locked { max_batch: 0 } = arbitration {
            return Err(SocError::BadRate {
                what: format!("bus '{name}' locked max_batch"),
                value: 0.0,
            });
        }
        let id = self.add_bus(name, service_rate)?;
        self.buses[id.0].arbitration = arbitration;
        Ok(id)
    }

    /// Adds a processor attached to `buses` with loss weight `weight`.
    ///
    /// # Errors
    ///
    /// * [`SocError::UnattachedProcessor`] if `buses` is empty.
    /// * [`SocError::UnknownComponent`] for a foreign bus handle.
    /// * [`SocError::BadRate`] if the weight is negative or not finite.
    pub fn add_processor(
        &mut self,
        name: impl Into<String>,
        buses: &[BusId],
        weight: f64,
    ) -> Result<ProcId, SocError> {
        let name = name.into();
        if buses.is_empty() {
            return Err(SocError::UnattachedProcessor(name));
        }
        for b in buses {
            if b.0 >= self.buses.len() {
                return Err(SocError::UnknownComponent(b.to_string()));
            }
        }
        if weight < 0.0 || !weight.is_finite() {
            return Err(SocError::BadRate {
                what: format!("weight of processor '{name}'"),
                value: weight,
            });
        }
        self.processors.push(Processor {
            name,
            buses: buses.to_vec(),
            weight,
        });
        Ok(ProcId(self.processors.len() - 1))
    }

    /// Adds a unidirectional bridge from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownComponent`] for foreign handles, or
    /// [`SocError::BadRate`] for a self-bridge (`from == to`).
    pub fn add_bridge(
        &mut self,
        name: impl Into<String>,
        from: BusId,
        to: BusId,
    ) -> Result<BridgeId, SocError> {
        let name = name.into();
        if from.0 >= self.buses.len() {
            return Err(SocError::UnknownComponent(from.to_string()));
        }
        if to.0 >= self.buses.len() {
            return Err(SocError::UnknownComponent(to.to_string()));
        }
        if from == to {
            return Err(SocError::BadRate {
                what: format!("bridge '{name}' endpoints (from == to)"),
                value: from.0 as f64,
            });
        }
        self.bridges.push(Bridge {
            name,
            from,
            to,
            latency: 0.0,
        });
        Ok(BridgeId(self.bridges.len() - 1))
    }

    /// Adds a unidirectional bridge with a deterministic forwarding
    /// latency. A positive latency requires the actor-based simulator.
    ///
    /// # Errors
    ///
    /// Same as [`ArchitectureBuilder::add_bridge`], plus
    /// [`SocError::BadRate`] for a negative or non-finite latency.
    pub fn add_bridge_with_latency(
        &mut self,
        name: impl Into<String>,
        from: BusId,
        to: BusId,
        latency: f64,
    ) -> Result<BridgeId, SocError> {
        let name = name.into();
        if latency < 0.0 || !latency.is_finite() {
            return Err(SocError::BadRate {
                what: format!("bridge '{name}' latency"),
                value: latency,
            });
        }
        let id = self.add_bridge(name, from, to)?;
        self.bridges[id.0].latency = latency;
        Ok(id)
    }

    /// Adds both directions of a bridge pair (`a → b` and `b → a`),
    /// suffixing the names with `_fw`/`_bw`.
    ///
    /// # Errors
    ///
    /// Same as [`ArchitectureBuilder::add_bridge`].
    pub fn add_bidirectional_bridge(
        &mut self,
        name: impl Into<String>,
        a: BusId,
        b: BusId,
    ) -> Result<(BridgeId, BridgeId), SocError> {
        let name = name.into();
        let fw = self.add_bridge(format!("{name}_fw"), a, b)?;
        let bw = self.add_bridge(format!("{name}_bw"), b, a)?;
        Ok((fw, bw))
    }

    /// Adds a Poisson flow from `src` to `target` at rate `rate`.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownComponent`] for foreign handles or
    /// [`SocError::BadRate`] for a non-positive rate. Routability is
    /// checked at [`ArchitectureBuilder::build`] time.
    pub fn add_flow(
        &mut self,
        src: ProcId,
        target: FlowTarget,
        rate: f64,
    ) -> Result<FlowId, SocError> {
        if src.0 >= self.processors.len() {
            return Err(SocError::UnknownComponent(src.to_string()));
        }
        match target {
            FlowTarget::Processor(p) if p.0 >= self.processors.len() => {
                return Err(SocError::UnknownComponent(p.to_string()));
            }
            FlowTarget::Bus(b) if b.0 >= self.buses.len() => {
                return Err(SocError::UnknownComponent(b.to_string()));
            }
            _ => {}
        }
        if rate <= 0.0 || !rate.is_finite() {
            return Err(SocError::BadRate {
                what: format!("flow from {src}"),
                value: rate,
            });
        }
        self.flows.push(Flow {
            src,
            target,
            rate,
            shape: TrafficShape::Poisson,
        });
        Ok(FlowId(self.flows.len() - 1))
    }

    /// Adds a flow with an explicit [`TrafficShape`]. Non-Poisson shapes
    /// require the actor-based simulator.
    ///
    /// # Errors
    ///
    /// Same as [`ArchitectureBuilder::add_flow`], plus
    /// [`SocError::BadRate`] for `Burst { batch: 0 }` or for on-off mean
    /// sojourns that are not positive and finite.
    pub fn add_flow_shaped(
        &mut self,
        src: ProcId,
        target: FlowTarget,
        rate: f64,
        shape: TrafficShape,
    ) -> Result<FlowId, SocError> {
        match shape {
            TrafficShape::Poisson => {}
            TrafficShape::Burst { batch } => {
                if batch == 0 {
                    return Err(SocError::BadRate {
                        what: format!("flow from {src} burst batch"),
                        value: 0.0,
                    });
                }
            }
            TrafficShape::OnOff { mean_on, mean_off } => {
                for (what, v) in [("mean_on", mean_on), ("mean_off", mean_off)] {
                    if v <= 0.0 || !v.is_finite() {
                        return Err(SocError::BadRate {
                            what: format!("flow from {src} on-off {what}"),
                            value: v,
                        });
                    }
                }
            }
        }
        let id = self.add_flow(src, target, rate)?;
        self.flows[id.0].shape = shape;
        Ok(id)
    }

    /// Routes every flow (shortest bridge path), enumerates the queues
    /// and freezes the architecture.
    ///
    /// # Errors
    ///
    /// * [`SocError::Empty`] if there are no buses, processors or flows.
    /// * [`SocError::Unroutable`] if some flow has no bridge path.
    pub fn build(self) -> Result<Architecture, SocError> {
        if self.buses.is_empty() {
            return Err(SocError::Empty("buses".into()));
        }
        if self.processors.is_empty() {
            return Err(SocError::Empty("processors".into()));
        }
        if self.flows.is_empty() {
            return Err(SocError::Empty("flows".into()));
        }

        // Directed bus adjacency through bridges.
        let nb = self.buses.len();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb]; // (to_bus, bridge)
        for (gi, g) in self.bridges.iter().enumerate() {
            adj[g.from.0].push((g.to.0, gi));
        }

        // Route every flow: BFS from each source bus, stop at any target bus.
        let mut routes = Vec::with_capacity(self.flows.len());
        for (fi, f) in self.flows.iter().enumerate() {
            let src_buses: Vec<usize> =
                self.processors[f.src.0].buses.iter().map(|b| b.0).collect();
            let target_buses: Vec<usize> = match f.target {
                FlowTarget::Processor(p) => {
                    self.processors[p.0].buses.iter().map(|b| b.0).collect()
                }
                FlowTarget::Bus(b) => vec![b.0],
            };
            let route = shortest_route(nb, &adj, &src_buses, &target_buses);
            match route {
                Some((buses, bridges)) => routes.push(Route {
                    buses: buses.into_iter().map(BusId).collect(),
                    bridges: bridges.into_iter().map(BridgeId).collect(),
                }),
                None => {
                    return Err(SocError::Unroutable {
                        flow: format!(
                            "FlowId{fi} ({} -> {:?})",
                            self.processors[f.src.0].name, f.target
                        ),
                    });
                }
            }
        }

        // Enumerate queues and flow paths.
        let mut queue_index: HashMap<(Client, BusId), usize> = HashMap::new();
        let mut queues: Vec<QueueSpec> = Vec::new();
        let mut flow_paths: Vec<Vec<QueueId>> = Vec::with_capacity(self.flows.len());
        for (fi, f) in self.flows.iter().enumerate() {
            let route = &routes[fi];
            let mut path = Vec::with_capacity(route.buses.len());
            // First hop: the processor's queue on the first bus.
            let mut hop_clients: Vec<(Client, BusId)> =
                vec![(Client::Processor(f.src), route.buses[0])];
            for (leg, &bridge) in route.bridges.iter().enumerate() {
                hop_clients.push((Client::Bridge(bridge), route.buses[leg + 1]));
            }
            for (client, bus) in hop_clients {
                let next = queues.len();
                let qi = *queue_index.entry((client, bus)).or_insert_with(|| {
                    queues.push(QueueSpec {
                        id: QueueId(next),
                        client,
                        bus,
                        flows: Vec::new(),
                        offered_rate: 0.0,
                    });
                    next
                });
                queues[qi].flows.push(FlowId(fi));
                queues[qi].offered_rate += f.rate;
                path.push(QueueId(qi));
            }
            flow_paths.push(path);
        }

        let mut bus_queues: Vec<Vec<QueueId>> = vec![Vec::new(); nb];
        for q in &queues {
            bus_queues[q.bus.0].push(q.id);
        }

        Ok(Architecture {
            buses: self.buses,
            processors: self.processors,
            bridges: self.bridges,
            flows: self.flows,
            routes,
            queues,
            flow_paths,
            bus_queues,
        })
    }
}

/// BFS over the bridge graph from any of `srcs` to any of `dsts`.
/// Returns the bus sequence and crossed bridges of a shortest path.
fn shortest_route(
    nb: usize,
    adj: &[Vec<(usize, usize)>],
    srcs: &[usize],
    dsts: &[usize],
) -> Option<(Vec<usize>, Vec<usize>)> {
    // Zero-hop: a source bus that is already a destination bus.
    for &s in srcs {
        if dsts.contains(&s) {
            return Some((vec![s], vec![]));
        }
    }
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; nb]; // (prev bus, bridge)
    let mut seen = vec![false; nb];
    let mut frontier: Vec<usize> = Vec::new();
    for &s in srcs {
        if !seen[s] {
            seen[s] = true;
            frontier.push(s);
        }
    }
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for &u in &frontier {
            for &(v, g) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some((u, g));
                    if dsts.contains(&v) {
                        // Reconstruct.
                        let mut buses = vec![v];
                        let mut bridges = Vec::new();
                        let mut cur = v;
                        while let Some((p, g)) = prev[cur] {
                            bridges.push(g);
                            buses.push(p);
                            cur = p;
                        }
                        buses.reverse();
                        bridges.reverse();
                        return Some((buses, bridges));
                    }
                    next_frontier.push(v);
                }
            }
        }
        frontier = next_frontier;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bus() -> ArchitectureBuilder {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 2.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.3).unwrap();
        b
    }

    #[test]
    fn builds_and_routes_across_bridge() {
        let a = two_bus().build().unwrap();
        assert_eq!(a.num_queues(), 2);
        let f = FlowId(0);
        let r = a.route(f);
        assert_eq!(r.buses.len(), 2);
        assert_eq!(r.bridges.len(), 1);
        let path = a.flow_path(f);
        assert_eq!(path.len(), 2);
        assert!(matches!(a.queue(path[0]).client, Client::Processor(_)));
        assert!(matches!(a.queue(path[1]).client, Client::Bridge(_)));
        // Bridge queue is served by the downstream bus.
        assert_eq!(a.queue(path[1]).bus, BusId(1));
    }

    #[test]
    fn local_flow_has_single_hop() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[x], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Processor(q), 0.5).unwrap();
        let a = b.build().unwrap();
        assert_eq!(a.num_queues(), 1);
        assert_eq!(a.route(FlowId(0)).buses.len(), 1);
    }

    #[test]
    fn queues_are_shared_between_flows() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.2).unwrap();
        let a = b.build().unwrap();
        // Same processor queue and same bridge buffer for both flows.
        assert_eq!(a.num_queues(), 2);
        let q0 = a.queue(QueueId(0));
        assert_eq!(q0.flows.len(), 2);
        assert!((q0.offered_rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unroutable_flow_is_rejected() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        // Bridge goes the wrong way.
        b.add_bridge("g", y, x).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        assert!(matches!(b.build(), Err(SocError::Unroutable { .. })));
    }

    #[test]
    fn multi_homed_source_picks_reachable_bus() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let z = b.add_bus("z", 1.0).unwrap();
        let p = b.add_processor("p", &[x, y], 1.0).unwrap();
        b.add_bridge("g", y, z).unwrap();
        b.add_flow(p, FlowTarget::Bus(z), 0.1).unwrap();
        let a = b.build().unwrap();
        // Route must start on y (x has no path to z).
        assert_eq!(a.route(FlowId(0)).buses[0], y);
        assert_eq!(a.route(FlowId(0)).buses.len(), 2);
    }

    #[test]
    fn shortest_path_is_chosen() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let m1 = b.add_bus("m1", 1.0).unwrap();
        let m2 = b.add_bus("m2", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        // Long way: x → m1 → m2 → y. Short way: x → y.
        b.add_bridge("a", x, m1).unwrap();
        b.add_bridge("b", m1, m2).unwrap();
        b.add_bridge("c", m2, y).unwrap();
        b.add_bridge("d", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        let a = b.build().unwrap();
        assert_eq!(a.route(FlowId(0)).buses.len(), 2);
        assert_eq!(a.route(FlowId(0)).bridges.len(), 1);
    }

    #[test]
    fn validation_errors() {
        let mut b = ArchitectureBuilder::new();
        assert!(b.add_bus("x", 0.0).is_err());
        assert!(b.add_bus("x", f64::NAN).is_err());
        let x = b.add_bus("x", 1.0).unwrap();
        assert!(b.add_processor("p", &[], 1.0).is_err());
        assert!(b.add_processor("p", &[BusId(9)], 1.0).is_err());
        assert!(b.add_processor("p", &[x], -1.0).is_err());
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        assert!(b.add_bridge("g", x, x).is_err());
        assert!(b.add_bridge("g", x, BusId(9)).is_err());
        assert!(b.add_flow(p, FlowTarget::Bus(BusId(9)), 1.0).is_err());
        assert!(b.add_flow(p, FlowTarget::Bus(x), 0.0).is_err());
        assert!(b.add_flow(ProcId(9), FlowTarget::Bus(x), 1.0).is_err());
    }

    #[test]
    fn empty_architectures_are_rejected() {
        assert!(matches!(
            ArchitectureBuilder::new().build(),
            Err(SocError::Empty(_))
        ));
        let mut b = ArchitectureBuilder::new();
        b.add_bus("x", 1.0).unwrap();
        assert!(matches!(b.clone().build(), Err(SocError::Empty(_))));
        b.add_processor("p", &[BusId(0)], 1.0).unwrap();
        assert!(matches!(b.build(), Err(SocError::Empty(_))));
    }

    #[test]
    fn utilization_estimate() {
        let a = two_bus().build().unwrap();
        assert!((a.bus_utilization_estimate(BusId(0)) - 0.3).abs() < 1e-12);
        assert!((a.bus_utilization_estimate(BusId(1)) - 0.15).abs() < 1e-12);
        assert!((a.total_offered_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn queue_names_are_descriptive() {
        let a = two_bus().build().unwrap();
        assert_eq!(a.queue_name(QueueId(0)), "p@x");
        assert_eq!(a.queue_name(QueueId(1)), "g@y");
    }

    #[test]
    fn scale_rates_scales_flows_buses_and_queue_sums() {
        let a = two_bus().build().unwrap();
        let s = a.scale_rates(2.0, 0.5).unwrap();
        assert_eq!(s.num_queues(), a.num_queues());
        assert_eq!(s.num_bridges(), a.num_bridges());
        for f in a.flow_ids() {
            assert_eq!(s.flow(f).rate(), 2.0 * a.flow(f).rate());
            assert_eq!(s.route(f), a.route(f), "routes must not move");
        }
        for b in a.bus_ids() {
            assert_eq!(s.bus(b).service_rate(), 0.5 * a.bus(b).service_rate());
        }
        for q in a.queue_ids() {
            assert_eq!(s.queue(q).offered_rate, 2.0 * a.queue(q).offered_rate);
        }
        // Utilization estimate scales by λ/μ factor ratio.
        let u0 = a.bus_utilization_estimate(BusId(0));
        let u1 = s.bus_utilization_estimate(BusId(0));
        assert!((u1 - 4.0 * u0).abs() < 1e-12);
    }

    #[test]
    fn scale_rates_rejects_bad_factors() {
        let a = two_bus().build().unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(a.scale_rates(bad, 1.0).is_err());
            assert!(a.scale_rates(1.0, bad).is_err());
        }
    }

    #[test]
    fn extended_semantics_detection_and_validation() {
        // Defaults: nothing extended.
        let a = two_bus().build().unwrap();
        assert!(!a.uses_extended_semantics());
        assert_eq!(a.bus(BusId(0)).arbitration(), BusArbitration::External);
        assert_eq!(a.bridge(BridgeId(0)).latency(), 0.0);
        assert_eq!(a.flow(FlowId(0)).shape(), TrafficShape::Poisson);

        // Burst { batch: 1 } is Poisson, so still not extended.
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[x], 1.0).unwrap();
        b.add_flow_shaped(
            p,
            FlowTarget::Processor(q),
            0.5,
            TrafficShape::Burst { batch: 1 },
        )
        .unwrap();
        assert!(!b.build().unwrap().uses_extended_semantics());

        // Each extension flips the flag on its own.
        let mut b = ArchitectureBuilder::new();
        let x = b
            .add_bus_with_arbitration("x", 1.0, BusArbitration::Priority)
            .unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[x], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Processor(q), 0.5).unwrap();
        assert!(b.build().unwrap().uses_extended_semantics());

        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge_with_latency("g", x, y, 0.25).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        assert!(b.build().unwrap().uses_extended_semantics());

        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[x], 1.0).unwrap();
        b.add_flow_shaped(
            p,
            FlowTarget::Processor(q),
            0.5,
            TrafficShape::OnOff {
                mean_on: 1.0,
                mean_off: 3.0,
            },
        )
        .unwrap();
        assert!(b.build().unwrap().uses_extended_semantics());

        // Validation of the extended declarations.
        let mut b = ArchitectureBuilder::new();
        assert!(b
            .add_bus_with_arbitration("x", 1.0, BusArbitration::Locked { max_batch: 0 })
            .is_err());
        let x = b
            .add_bus_with_arbitration("x", 1.0, BusArbitration::Locked { max_batch: 4 })
            .unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        assert!(b.add_bridge_with_latency("g", x, y, -1.0).is_err());
        assert!(b.add_bridge_with_latency("g", x, y, f64::NAN).is_err());
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let tgt = FlowTarget::Bus(x);
        assert!(b
            .add_flow_shaped(p, tgt, 0.5, TrafficShape::Burst { batch: 0 })
            .is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(b
                .add_flow_shaped(
                    p,
                    tgt,
                    0.5,
                    TrafficShape::OnOff {
                        mean_on: bad,
                        mean_off: 1.0
                    }
                )
                .is_err());
            assert!(b
                .add_flow_shaped(
                    p,
                    tgt,
                    0.5,
                    TrafficShape::OnOff {
                        mean_on: 1.0,
                        mean_off: bad
                    }
                )
                .is_err());
        }
    }

    #[test]
    fn scale_rates_rescales_extended_durations() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 2.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge_with_latency("g", x, y, 0.5).unwrap();
        b.add_flow_shaped(
            p,
            FlowTarget::Bus(y),
            0.3,
            TrafficShape::OnOff {
                mean_on: 2.0,
                mean_off: 6.0,
            },
        )
        .unwrap();
        let a = b.build().unwrap();
        let s = a.scale_rates(4.0, 2.0).unwrap();
        assert_eq!(s.bridge(BridgeId(0)).latency(), 0.25);
        match s.flow(FlowId(0)).shape() {
            TrafficShape::OnOff { mean_on, mean_off } => {
                assert_eq!(mean_on, 0.5);
                assert_eq!(mean_off, 1.5);
            }
            other => panic!("shape changed: {other:?}"),
        }
    }

    #[test]
    fn bidirectional_bridge_creates_two() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let (fw, bw) = b.add_bidirectional_bridge("g", x, y).unwrap();
        assert_ne!(fw, bw);
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[y], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Processor(q), 0.1).unwrap();
        b.add_flow(q, FlowTarget::Processor(p), 0.1).unwrap();
        let a = b.build().unwrap();
        assert_eq!(a.num_bridges(), 2);
        assert_eq!(a.num_queues(), 4);
    }
}

//! The paper's subsystem-splitting algorithm (Figure 2).
//!
//! Bridges couple the steady-state equations of their two buses: an
//! un-buffered transfer needs both buses at once, which puts *products*
//! of the two buses' decision variables into the balance equations
//! (see `socbuf-core::coupled` for the explicit quadratic system). The
//! paper's fix is structural: insert a buffer at every bridge, which
//! makes the hand-off asynchronous, then *cut the architecture at the
//! buffers*. What remains are independent linear subsystems — buses that
//! stay connected only through shared (multi-homed) processors — whose
//! CTMDP equations can all be solved jointly in one LP.

use crate::ids::{BridgeId, BusId, ProcId, QueueId};
use crate::Architecture;

/// One linear subsystem: a maximal set of buses not separated by a
/// bridge buffer, with everything attached to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subsystem {
    /// Position in [`SplitResult::subsystems`].
    pub index: usize,
    /// Buses of this subsystem.
    pub buses: Vec<BusId>,
    /// Processors attached to at least one bus of the subsystem.
    pub processors: Vec<ProcId>,
    /// Queues served by this subsystem's buses (processor queues and
    /// incoming bridge buffers).
    pub queues: Vec<QueueId>,
    /// Bridges whose *downstream* bus lies here (their buffers are
    /// clients of this subsystem).
    pub incoming_bridges: Vec<BridgeId>,
    /// Bridges whose *upstream* bus lies here (this subsystem deposits
    /// into buffers owned by a neighbour).
    pub outgoing_bridges: Vec<BridgeId>,
}

/// Result of [`split`]: the subsystems plus lookup tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitResult {
    /// The linear subsystems, in discovery order.
    pub subsystems: Vec<Subsystem>,
    /// Subsystem index of every bus.
    pub bus_subsystem: Vec<usize>,
    /// Subsystem index of every queue (a bridge buffer belongs to its
    /// downstream bus's subsystem).
    pub queue_subsystem: Vec<usize>,
}

impl SplitResult {
    /// Subsystem containing `bus`.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to the split architecture.
    pub fn subsystem_of_bus(&self, bus: BusId) -> &Subsystem {
        &self.subsystems[self.bus_subsystem[bus.index()]]
    }
}

/// Splits `arch` into linear subsystems by cutting every bridge.
///
/// Two buses end up in the same subsystem iff they are connected by a
/// chain of *shared processors* (a multi-homed processor couples the
/// buses it sits on); bridge edges are exactly the cut set.
///
/// # Examples
///
/// ```
/// use socbuf_soc::templates;
/// use socbuf_soc::split::split;
///
/// let arch = templates::figure1();
/// let parts = split(&arch);
/// assert_eq!(parts.subsystems.len(), 4);
/// // Every queue lands in exactly one subsystem.
/// let total: usize = parts.subsystems.iter().map(|s| s.queues.len()).sum();
/// assert_eq!(total, arch.num_queues());
/// ```
pub fn split(arch: &Architecture) -> SplitResult {
    let nb = arch.num_buses();

    // Union-find over buses; union buses sharing a processor.
    let mut parent: Vec<usize> = (0..nb).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for p in arch.proc_ids() {
        let buses = arch.processor(p).buses();
        for w in buses.windows(2) {
            let (a, b) = (
                find(&mut parent, w[0].index()),
                find(&mut parent, w[1].index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
    }

    // Number the components in first-appearance order.
    let mut comp_of_root: Vec<Option<usize>> = vec![None; nb];
    let mut bus_subsystem = vec![0usize; nb];
    let mut n_comp = 0;
    for b in 0..nb {
        let r = find(&mut parent, b);
        let c = *comp_of_root[r].get_or_insert_with(|| {
            let c = n_comp;
            n_comp += 1;
            c
        });
        bus_subsystem[b] = c;
    }

    let mut subsystems: Vec<Subsystem> = (0..n_comp)
        .map(|index| Subsystem {
            index,
            buses: Vec::new(),
            processors: Vec::new(),
            queues: Vec::new(),
            incoming_bridges: Vec::new(),
            outgoing_bridges: Vec::new(),
        })
        .collect();

    for b in arch.bus_ids() {
        subsystems[bus_subsystem[b.index()]].buses.push(b);
    }
    for p in arch.proc_ids() {
        // A processor's buses are all in one component by construction;
        // attach it to that component.
        let c = bus_subsystem[arch.processor(p).buses()[0].index()];
        subsystems[c].processors.push(p);
    }
    let mut queue_subsystem = vec![0usize; arch.num_queues()];
    for q in arch.queues() {
        let c = bus_subsystem[q.bus.index()];
        queue_subsystem[q.id.index()] = c;
        subsystems[c].queues.push(q.id);
    }
    for g in arch.bridge_ids() {
        let bridge = arch.bridge(g);
        let up = bus_subsystem[bridge.from().index()];
        let down = bus_subsystem[bridge.to().index()];
        subsystems[up].outgoing_bridges.push(g);
        subsystems[down].incoming_bridges.push(g);
    }

    SplitResult {
        subsystems,
        bus_subsystem,
        queue_subsystem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchitectureBuilder, FlowTarget};

    #[test]
    fn single_bus_is_one_subsystem() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[x], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Processor(q), 0.1).unwrap();
        let a = b.build().unwrap();
        let s = split(&a);
        assert_eq!(s.subsystems.len(), 1);
        assert_eq!(s.subsystems[0].processors.len(), 2);
        assert!(s.subsystems[0].incoming_bridges.is_empty());
    }

    #[test]
    fn bridge_separates_buses() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let g = b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        let a = b.build().unwrap();
        let s = split(&a);
        assert_eq!(s.subsystems.len(), 2);
        // The bridge buffer queue lives with the downstream bus.
        let down = s.subsystem_of_bus(y);
        assert_eq!(down.queues.len(), 1);
        assert_eq!(down.incoming_bridges, vec![g]);
        let up = s.subsystem_of_bus(x);
        assert_eq!(up.outgoing_bridges, vec![g]);
    }

    #[test]
    fn shared_processor_fuses_buses() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let p = b.add_processor("p", &[x, y], 1.0).unwrap();
        let q = b.add_processor("q", &[y], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Processor(q), 0.1).unwrap();
        let a = b.build().unwrap();
        let s = split(&a);
        assert_eq!(s.subsystems.len(), 1);
        assert_eq!(s.subsystems[0].buses.len(), 2);
    }

    #[test]
    fn intra_subsystem_bridge_is_both_incoming_and_outgoing() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        // p fuses x and y; the bridge is then internal to the subsystem.
        let p = b.add_processor("p", &[x, y], 1.0).unwrap();
        let g = b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
        let a = b.build().unwrap();
        let s = split(&a);
        assert_eq!(s.subsystems.len(), 1);
        assert_eq!(s.subsystems[0].incoming_bridges, vec![g]);
        assert_eq!(s.subsystems[0].outgoing_bridges, vec![g]);
    }

    #[test]
    fn partition_invariants_on_a_chain() {
        // x -g1-> y -g2-> z: three singleton subsystems.
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 1.0).unwrap();
        let y = b.add_bus("y", 1.0).unwrap();
        let z = b.add_bus("z", 1.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g1", x, y).unwrap();
        b.add_bridge("g2", y, z).unwrap();
        b.add_flow(p, FlowTarget::Bus(z), 0.1).unwrap();
        let a = b.build().unwrap();
        let s = split(&a);
        assert_eq!(s.subsystems.len(), 3);
        // Buses partition.
        let nbuses: usize = s.subsystems.iter().map(|c| c.buses.len()).sum();
        assert_eq!(nbuses, a.num_buses());
        // Queues partition.
        let nqueues: usize = s.subsystems.iter().map(|c| c.queues.len()).sum();
        assert_eq!(nqueues, a.num_queues());
        // Flow path visits subsystems x, y, z in order.
        let path = a.flow_path(crate::FlowId(0));
        let subs: Vec<usize> = path.iter().map(|&q| s.queue_subsystem[q.index()]).collect();
        assert_eq!(subs.len(), 3);
        assert_ne!(subs[0], subs[1]);
        assert_ne!(subs[1], subs[2]);
    }
}

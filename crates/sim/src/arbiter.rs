use rand::rngs::SmallRng;
use rand::Rng;

use socbuf_soc::QueueId;

/// Snapshot of one candidate queue offered to the arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueView {
    /// The queue's identifier.
    pub id: QueueId,
    /// Current occupancy (> 0 for candidates).
    pub len: usize,
    /// Allocated capacity.
    pub capacity: usize,
}

/// Bus arbitration policies.
///
/// The arbiter is asked, whenever a bus becomes free, which of its
/// queues to serve next. All variants are `Clone`, so a fresh copy per
/// replication keeps runs independent and deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Arbiter {
    /// TDMA-style fixed slotting: every slot is granted uniformly among
    /// **all** of the bus's clients, backlog-blind; a slot granted to an
    /// empty queue idles the bus. Each client thus gets a fixed `μ/n`
    /// share of the bus no matter how hot it runs — the static bus
    /// controller the paper's "constant buffer sizing" baseline implies
    /// (its hot processors keep losing even with ample buffer space).
    FixedSlot,
    /// Pick uniformly at random among non-empty queues (work-conserving
    /// equal sharing).
    RandomNonempty,
    /// Serve the longest queue (work-conserving heuristic).
    LongestQueue,
    /// Cycle deterministically over the bus's queues.
    RoundRobin {
        /// Rotating pointer per bus (indexed by bus position).
        next: Vec<usize>,
    },
    /// The CTMDP K-switching policy: each queue carries a service-effort
    /// curve over its occupancy; the arbiter serves the non-empty queue
    /// whose curve value at its current occupancy is highest (ties
    /// broken uniformly at random). Queues below their switching
    /// threshold have effort 0 and are only served when no queue is
    /// above threshold — the work-conserving completion of the policy.
    WeightedEffort {
        /// `efforts[queue index][occupancy]`, clamped at the last entry.
        efforts: Vec<Vec<f64>>,
    },
}

impl Arbiter {
    /// Creates a round-robin arbiter for an architecture with `num_buses`
    /// buses.
    pub fn round_robin(num_buses: usize) -> Self {
        Arbiter::RoundRobin {
            next: vec![0; num_buses],
        }
    }

    /// `true` for backlog-blind arbiters that must be offered *all*
    /// queues (empty ones included) and may burn an idle slot.
    pub fn is_slotted(&self) -> bool {
        matches!(self, Arbiter::FixedSlot)
    }

    /// Picks the index (into `candidates`) of the queue to serve, or
    /// `None` when `candidates` is empty.
    ///
    /// `bus_index` is the position of the bus making the decision;
    /// `candidates` are its non-empty queues in a stable order — except
    /// for slotted arbiters ([`Arbiter::is_slotted`]), which are offered
    /// every queue and may select an empty one (an idle slot).
    pub fn select(
        &mut self,
        bus_index: usize,
        candidates: &[QueueView],
        rng: &mut SmallRng,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            Arbiter::FixedSlot => Some(rng.gen_range(0..candidates.len())),
            Arbiter::RandomNonempty => Some(rng.gen_range(0..candidates.len())),
            Arbiter::LongestQueue => {
                let mut best = 0;
                for (i, c) in candidates.iter().enumerate().skip(1) {
                    if c.len > candidates[best].len {
                        best = i;
                    }
                }
                Some(best)
            }
            Arbiter::RoundRobin { next } => {
                let ptr = &mut next[bus_index];
                // Serve the first candidate whose queue index is >= ptr
                // (cyclically), then advance the pointer past it.
                let chosen = candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.id.index() >= *ptr)
                    .map(|(i, _)| i)
                    .next()
                    .unwrap_or(0);
                *ptr = candidates[chosen].id.index() + 1;
                Some(chosen)
            }
            Arbiter::WeightedEffort { efforts } => {
                let weight = |c: &QueueView| -> f64 {
                    let curve = &efforts[c.id.index()];
                    if curve.is_empty() {
                        return 0.0;
                    }
                    let idx = c.len.min(curve.len() - 1);
                    curve[idx].max(0.0)
                };
                let best = candidates.iter().map(weight).fold(0.0_f64, f64::max);
                if best <= 1e-12 {
                    // All below threshold: stay work-conserving.
                    return Some(rng.gen_range(0..candidates.len()));
                }
                // Max-priority with uniform tie-breaking: count the ties,
                // draw one, and walk to it (no per-decision buffer).
                let is_tie = |c: &&QueueView| weight(c) >= best - 1e-12;
                let ties = candidates.iter().filter(is_tie).count();
                let k = rng.gen_range(0..ties);
                candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| is_tie(c))
                    .nth(k)
                    .map(|(i, _)| i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn views(lens: &[usize]) -> Vec<QueueView> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| QueueView {
                id: queue_id(i),
                len,
                capacity: 10,
            })
            .collect()
    }

    fn queue_id(i: usize) -> QueueId {
        // QueueIds can only be minted by an Architecture; recover them
        // from a tiny real architecture to stay honest with the newtype.
        use socbuf_soc::{ArchitectureBuilder, FlowTarget};
        let mut b = ArchitectureBuilder::new();
        let buses: Vec<_> = (0..8)
            .map(|k| b.add_bus(format!("b{k}"), 1.0).unwrap())
            .collect();
        let p = b.add_processor("p", &[buses[0]], 1.0).unwrap();
        for k in 1..8 {
            b.add_bridge(format!("g{k}"), buses[k - 1], buses[k])
                .unwrap();
        }
        b.add_flow(p, FlowTarget::Bus(buses[7]), 0.1).unwrap();
        let a = b.build().unwrap();
        let id = a.queue_ids().nth(i).unwrap();
        id
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(Arbiter::RandomNonempty.select(0, &[], &mut rng), None);
        assert_eq!(Arbiter::LongestQueue.select(0, &[], &mut rng), None);
    }

    #[test]
    fn longest_queue_picks_max() {
        let mut rng = SmallRng::seed_from_u64(1);
        let v = views(&[2, 7, 3]);
        assert_eq!(Arbiter::LongestQueue.select(0, &v, &mut rng), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = Arbiter::round_robin(1);
        let v = views(&[1, 1, 1]);
        let a = rr.select(0, &v, &mut rng).unwrap();
        let b = rr.select(0, &v, &mut rng).unwrap();
        let c = rr.select(0, &v, &mut rng).unwrap();
        let d = rr.select(0, &v, &mut rng).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(d, 0); // wrapped around
    }

    #[test]
    fn weighted_effort_prefers_above_threshold() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Queue 0: threshold at 5 (effort 0 below); queue 1: always on.
        let mut arb = Arbiter::WeightedEffort {
            efforts: vec![
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                vec![1.0; 6],
                vec![1.0; 6],
                vec![1.0; 6],
                vec![1.0; 6],
                vec![1.0; 6],
                vec![1.0; 6],
                vec![1.0; 6],
            ],
        };
        // Queue 0 below threshold: never selected.
        let v = views(&[3, 4]);
        for _ in 0..50 {
            assert_eq!(arb.select(0, &v, &mut rng), Some(1));
        }
        // Queue 0 above threshold: both selectable.
        let v = views(&[5, 4]);
        let mut saw0 = false;
        for _ in 0..100 {
            if arb.select(0, &v, &mut rng) == Some(0) {
                saw0 = true;
            }
        }
        assert!(saw0);
    }

    #[test]
    fn weighted_effort_all_zero_falls_back_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut arb = Arbiter::WeightedEffort {
            efforts: vec![vec![0.0; 4]; 8],
        };
        let v = views(&[1, 2]);
        let mut counts = [0usize; 2];
        for _ in 0..200 {
            counts[arb.select(0, &v, &mut rng).unwrap()] += 1;
        }
        assert!(counts[0] > 50 && counts[1] > 50, "{counts:?}");
    }

    #[test]
    fn random_nonempty_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(9);
        let v = views(&[1, 9, 3]);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[Arbiter::RandomNonempty.select(0, &v, &mut rng).unwrap()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }
}

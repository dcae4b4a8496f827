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

    /// `true` for backlog-blind arbiters that pick among *all* of a
    /// bus's queues (empty ones included) and may burn an idle slot.
    pub fn is_slotted(&self) -> bool {
        matches!(self, Arbiter::FixedSlot)
    }

    /// Picks the queue to serve among the views of a bus's `queues`, or
    /// `None` when there is none to pick.
    ///
    /// `bus_index` is the position of the bus making the decision;
    /// `queues` views every one of its queues in a stable order. Slotted
    /// arbiters ([`Arbiter::is_slotted`]) pick among all of them and may
    /// select an empty one (an idle slot); every other arbiter picks
    /// among the non-empty ones. A decision reads the views in place and
    /// allocates nothing: each arbiter makes its passes over clones of
    /// the iterator, and a random pick counts its candidates (a slotted
    /// arbiter takes the iterator's length), draws an index and takes
    /// the candidate at it.
    #[inline]
    pub fn select<I>(
        &mut self,
        bus_index: usize,
        queues: I,
        rng: &mut SmallRng,
    ) -> Option<QueueView>
    where
        I: IntoIterator<Item = QueueView>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let queues = queues.into_iter();
        let mut nonempty = queues.clone().filter(|c| c.len > 0);
        match self {
            Arbiter::FixedSlot => uniform(queues.clone(), queues.len(), rng),
            Arbiter::RandomNonempty => uniform(nonempty.clone(), nonempty.count(), rng),
            Arbiter::LongestQueue => {
                nonempty.reduce(|best, c| if c.len > best.len { c } else { best })
            }
            Arbiter::RoundRobin { next } => {
                let ptr = &mut next[bus_index];
                // Serve the first candidate whose queue index is >= ptr
                // (cyclically), then advance the pointer past it.
                let chosen = nonempty
                    .clone()
                    .find(|c| c.id.index() >= *ptr)
                    .or_else(|| nonempty.next())?;
                *ptr = chosen.id.index() + 1;
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
                let best = nonempty.clone().map(|c| weight(&c)).fold(0.0_f64, f64::max);
                if best <= 1e-12 {
                    // All below threshold: stay work-conserving.
                    return uniform(nonempty.clone(), nonempty.count(), rng);
                }
                // Max-priority with uniform tie-breaking.
                let ties = nonempty.filter(|c| weight(c) >= best - 1e-12);
                uniform(ties.clone(), ties.count(), rng)
            }
        }
    }
}

/// A uniform pick among the `n` `candidates`: draw an index (no draw
/// when there is none) and walk to it.
#[inline]
fn uniform(
    mut candidates: impl Iterator<Item = QueueView>,
    n: usize,
    rng: &mut SmallRng,
) -> Option<QueueView> {
    if n == 0 {
        return None;
    }
    candidates.nth(rng.gen_range(0..n))
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

    /// The position in `views` of the queue `arb` selects among them.
    fn pick(arb: &mut Arbiter, views: &[QueueView], rng: &mut SmallRng) -> Option<usize> {
        let picked = arb.select(0, views.iter().copied(), rng)?;
        views.iter().position(|v| *v == picked)
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
        assert_eq!(pick(&mut Arbiter::RandomNonempty, &[], &mut rng), None);
        assert_eq!(pick(&mut Arbiter::LongestQueue, &[], &mut rng), None);
    }

    #[test]
    fn only_slotted_arbiters_pick_empty_queues() {
        let mut rng = SmallRng::seed_from_u64(5);
        let v = views(&[0, 3, 0, 2]);
        let mut slots = [0usize; 4];
        for _ in 0..400 {
            let pick_nonempty = pick(&mut Arbiter::RandomNonempty, &v, &mut rng);
            assert!(matches!(pick_nonempty, Some(1 | 3)), "{pick_nonempty:?}");
            slots[pick(&mut Arbiter::FixedSlot, &v, &mut rng).unwrap()] += 1;
        }
        assert!(slots.iter().all(|&n| n > 50), "{slots:?}");
        assert_eq!(pick(&mut Arbiter::LongestQueue, &v, &mut rng), Some(1));
        let mut rr = Arbiter::round_robin(1);
        assert_eq!(pick(&mut rr, &v, &mut rng), Some(1));
        assert_eq!(pick(&mut rr, &v, &mut rng), Some(3));
        let idle = views(&[0, 0]);
        assert_eq!(pick(&mut Arbiter::RandomNonempty, &idle, &mut rng), None);
        assert!(pick(&mut Arbiter::FixedSlot, &idle, &mut rng).is_some());
    }

    #[test]
    fn longest_queue_picks_max() {
        let mut rng = SmallRng::seed_from_u64(1);
        let v = views(&[2, 7, 3]);
        assert_eq!(pick(&mut Arbiter::LongestQueue, &v, &mut rng), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = Arbiter::round_robin(1);
        let v = views(&[1, 1, 1]);
        let a = pick(&mut rr, &v, &mut rng).unwrap();
        let b = pick(&mut rr, &v, &mut rng).unwrap();
        let c = pick(&mut rr, &v, &mut rng).unwrap();
        let d = pick(&mut rr, &v, &mut rng).unwrap();
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
            assert_eq!(pick(&mut arb, &v, &mut rng), Some(1));
        }
        // Queue 0 above threshold: both selectable.
        let v = views(&[5, 4]);
        let mut saw0 = false;
        for _ in 0..100 {
            if pick(&mut arb, &v, &mut rng) == Some(0) {
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
            counts[pick(&mut arb, &v, &mut rng).unwrap()] += 1;
        }
        assert!(counts[0] > 50 && counts[1] > 50, "{counts:?}");
    }

    #[test]
    fn random_nonempty_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(9);
        let v = views(&[1, 9, 3]);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[pick(&mut Arbiter::RandomNonempty, &v, &mut rng).unwrap()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }
}

//! Bus actors: arbitration, service timing, and the grant state machine.
//!
//! A bus reads its queues' lengths directly and resolves a grant in
//! place: it sheds the granted queue's timed-out heads and starts
//! service in the same call. Only the passage of time (`Complete`)
//! travels as an envelope; a completion re-arms the bus in place.

use socbuf_soc::{BusArbitration, QueueId};

use crate::actors::scheduler::{index, Msg};
use crate::actors::world::World;
use crate::arbiter::QueueView;

/// The bus's grant state machine.
///
/// ```text
///           offer to an idle bus, or re-arm:
///           arbitrate, grant, draw exp(μ)
/// Unlocked ─────────────────────────────────▶ Busy │ Locked
///     ▲                                            │
///     │   Complete: finish the head, hand it on,   │
///     │   then re-arm                              │
///     └────────────────────────────────────────────┘
/// ```
///
/// The re-arm after a `Locked` leg gives the locked queue first refusal
/// on the next leg without a new arbitration draw; once the lock is
/// spent or the queue is empty it reopens arbitration. A grant whose
/// timeout sheds empty the queue leaves the bus `Unlocked` and
/// re-arbitrates at once.
///
/// Between envelopes an `Unlocked` bus has every queue empty: each
/// arbitration grants a nonempty queue when there is one, and a
/// `FixedSlot` bus sleeps only when all its queues are empty. So an
/// offer to an idle bus arbitrates in place with its request as the only
/// candidate. An offer to a `Busy` or `Locked` bus does nothing: that
/// bus is freed only by its `Complete`, which re-arms it, and which
/// lands at the instant of an offer only on an exact float tie between
/// independent exponential samples (set aside; see the `scheduler`
/// module).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum BusState {
    /// Idle and open to arbitration.
    Unlocked,
    /// Serving `queue` since `start`; `queue = None` is an idle slot
    /// burnt by a slotted (TDMA-style) arbiter.
    Busy {
        /// Queue in service, if any.
        queue: Option<usize>,
        /// Service start time.
        start: f64,
    },
    /// Serving one leg of a locked transfer for `queue` since `start`,
    /// with `left` more legs claimable after this one.
    Locked {
        /// Queue holding the lock.
        queue: usize,
        /// Service start time.
        start: f64,
        /// Legs remaining after the current one.
        left: usize,
    },
}

/// One bus: its arbitration mode, grant state and queues.
#[derive(Debug)]
pub(super) struct BusActor {
    pub mode: BusArbitration,
    pub state: BusState,
    /// The bus's queues in declaration order (= priority order).
    pub queue_ids: Vec<QueueId>,
}

impl BusActor {
    pub fn new(mode: BusArbitration, queue_ids: &[QueueId]) -> Self {
        BusActor {
            mode,
            state: BusState::Unlocked,
            queue_ids: queue_ids.to_vec(),
        }
    }
}

impl World<'_> {
    /// Runs one arbitration decision and grants the winner (if any).
    pub(super) fn bus_arbitrate(&mut self, b: usize, t: f64) {
        match self.buses[b].mode {
            BusArbitration::Priority => {
                // Strict declaration-order priority: first backlogged
                // queue wins, no randomness consumed.
                let pick = self.buses[b]
                    .queue_ids
                    .iter()
                    .map(|id| id.index())
                    .find(|&q| !self.queues[q].buf.is_empty());
                if let Some(q) = pick {
                    self.grant(b, q, None, t);
                }
            }
            BusArbitration::External | BusArbitration::Locked { .. } => {
                let slotted = self.arbiter.is_slotted();
                self.candidates.clear();
                self.candidates.extend(
                    self.buses[b]
                        .queue_ids
                        .iter()
                        .map(|&id| QueueView {
                            id,
                            len: self.queues[id.index()].buf.len(),
                            capacity: self.queues[id.index()].cap,
                        })
                        .filter(|c| slotted || c.len > 0),
                );
                // Slotted arbiters only spin when at least one queue
                // waits; otherwise the bus sleeps until the next offer.
                if slotted && self.candidates.iter().all(|c| c.len == 0) {
                    return;
                }
                let Some(pick) = self.arbiter.select(b, &self.candidates, &mut self.rng) else {
                    return; // nothing to serve
                };
                let picked = self.candidates[pick];
                if slotted && picked.len == 0 {
                    // Idle slot: hold the bus one service time for
                    // nothing.
                    self.buses[b].state = BusState::Busy {
                        queue: None,
                        start: t,
                    };
                    let dt = self.exp(self.bus_rate(b));
                    self.evq.send(t + dt, Msg::Complete { bus: index(b) });
                    return;
                }
                let q = picked.id.index();
                let lock_left = match self.buses[b].mode {
                    BusArbitration::Locked { max_batch } => Some(max_batch - 1),
                    _ => None,
                };
                self.grant(b, q, lock_left, t);
            }
        }
    }

    /// Grants queue `q`: shed its timed-out heads, then start service
    /// (the next leg of a locked transfer when `lock_left` is `Some`).
    /// A grant only goes to a nonempty queue, so if timeouts emptied it
    /// the sheds changed the backlog and arbitration reopens.
    fn grant(&mut self, b: usize, q: usize, lock_left: Option<usize>, t: f64) {
        let shed = self.queue_shed(q, t);
        if self.queues[q].buf.is_empty() {
            self.buses[b].state = BusState::Unlocked;
            if shed {
                self.bus_arbitrate(b, t);
            }
            return;
        }
        self.buses[b].state = match lock_left {
            Some(left) if left > 0 => BusState::Locked {
                queue: q,
                start: t,
                left,
            },
            _ => BusState::Busy {
                queue: Some(q),
                start: t,
            },
        };
        let dt = self.exp(self.bus_rate(b));
        self.evq.send(t + dt, Msg::Complete { bus: index(b) });
    }

    /// The scheduled service completes: free the bus, finish the served
    /// queue's head (which commits statistics and hands the request on,
    /// arbitrating the downstream bus if it is idle), then re-arm — the
    /// order `legacy_pins` freezes. The re-arm honours a live lock first,
    /// otherwise it reopens arbitration.
    pub(super) fn bus_complete(&mut self, b: usize, t: f64) {
        let lock = match std::mem::replace(&mut self.buses[b].state, BusState::Unlocked) {
            // Idle slot elapsed.
            BusState::Busy { queue: None, .. } => None,
            BusState::Busy {
                queue: Some(q),
                start,
            } => {
                self.queue_finish(q, start, t);
                None
            }
            BusState::Locked { queue, start, left } => {
                self.queue_finish(queue, start, t);
                Some((queue, left))
            }
            BusState::Unlocked => unreachable!("Complete on idle bus {b}"),
        };
        // A bridge joins two different buses, so handing the request on
        // never engages this one.
        debug_assert_eq!(self.buses[b].state, BusState::Unlocked);
        match lock {
            // Continuation leg: the locked queue keeps the bus without a
            // new arbitration draw.
            Some((queue, left)) if !self.queues[queue].buf.is_empty() => {
                self.grant(b, queue, Some(left - 1), t);
            }
            _ => self.bus_arbitrate(b, t),
        }
    }

    /// Service rate of bus `b`.
    fn bus_rate(&self, b: usize) -> f64 {
        self.arch
            .bus(self.arch.bus_ids().nth(b).expect("bus in range"))
            .service_rate()
    }
}

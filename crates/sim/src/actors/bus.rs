//! Bus actors: arbitration, service timing, and the grant state machine.
//!
//! A bus reads its queues' lengths directly and resolves a grant in
//! place: it sheds the granted queue's timed-out heads and starts
//! service in the same call. The passage of time (`Complete`) travels
//! as an envelope; so does the re-arbitration after a completion
//! (`Rearm`), but only when it must wait behind a same-instant `Kick`.

use socbuf_soc::{BusArbitration, QueueId};

use crate::actors::scheduler::{ActorId, Class, Msg};
use crate::actors::world::World;
use crate::arbiter::QueueView;

/// The bus's grant state machine.
///
/// ```text
///           Kick/re-arm: arbitrate, grant, draw exp(μ)
/// Unlocked ──────────────────────────────────────────▶ Busy │ Locked
///     ▲                                                  │       │
///     │                  Complete                        │       │
///     └──────────────────────────────────────────────────┘       │
///     ▲                                                          │
///     │       re-arm (lock spent or queue empty)      Complete   │
///     └───────────────────────────────── FreeNext ◀──────────────┘
/// ```
///
/// A grant whose timeout sheds empty the queue leaves the bus
/// `Unlocked` and re-arbitrates at once.
///
/// `FreeNext` is the locked-transfer hold: the bus has completed one leg
/// of a locked batch and, at its re-arm point, gives the locked queue
/// first refusal on the next leg without a new arbitration draw.
///
/// Only an `Unlocked` bus is sent a `Kick`. A `FreeNext` bus would
/// ignore it: an offer sees that state only while the bus's `Rearm` is
/// queued at this instant (an in-place re-arm leaves it at once), and
/// every `Kick` of the instant is delivered before that `Rearm`. A
/// `Busy` or `Locked` bus is freed only by its `Complete`; that lands at
/// the instant of an offer only on an exact float tie between
/// independent exponential samples, the case the in-place hand-offs
/// already set aside (see the `scheduler` module). So skipping those
/// kicks moves no draw.
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
    /// Between legs of a locked transfer: `queue` may claim the bus
    /// again (up to `left` more times) before arbitration reopens.
    FreeNext {
        /// Queue holding the lock.
        queue: usize,
        /// Legs remaining.
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
    /// A queue solicits service. Only an unlocked bus reacts: the bus
    /// was unlocked when the kick was sent, but a kick delivered earlier
    /// in the same instant may have engaged it since.
    pub(super) fn bus_kick(&mut self, b: usize, t: f64) {
        if self.buses[b].state == BusState::Unlocked {
            self.bus_arbitrate(b, t);
        }
    }

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
                // waits; otherwise the bus sleeps until the next kick.
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
                    self.evq
                        .send(t + dt, Class::Data, ActorId::Bus(b), Msg::Complete);
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
        self.evq
            .send(t + dt, Class::Data, ActorId::Bus(b), Msg::Complete);
    }

    /// The scheduled service completes: finish the served queue's head
    /// (which commits statistics and forwards the request), then
    /// re-arbitrate *after* the downstream cascade settles. The cascade
    /// is the `Kick` a zero-latency crossing may send; only then does
    /// the re-arm wait behind it as a `Rearm` envelope. Otherwise that
    /// envelope would be the next one delivered, so the re-arm runs in
    /// place.
    pub(super) fn bus_complete(&mut self, b: usize, t: f64) {
        let kicked = match self.buses[b].state {
            BusState::Busy { queue: None, .. } => {
                // Idle slot elapsed.
                self.buses[b].state = BusState::Unlocked;
                false
            }
            BusState::Busy {
                queue: Some(q),
                start,
            } => {
                self.buses[b].state = BusState::Unlocked;
                self.queue_finish(q, start, t)
            }
            BusState::Locked { queue, start, left } => {
                self.buses[b].state = BusState::FreeNext { queue, left };
                self.queue_finish(queue, start, t)
            }
            state => unreachable!("Complete on bus {b} in state {state:?}"),
        };
        if kicked {
            self.evq.send(t, Class::Rearm, ActorId::Bus(b), Msg::Rearm);
        } else {
            self.bus_rearm(b, t);
        }
    }

    /// Post-completion re-arm: honour a live lock first, otherwise reopen
    /// arbitration.
    pub(super) fn bus_rearm(&mut self, b: usize, t: f64) {
        match self.buses[b].state {
            BusState::FreeNext { queue, left } => {
                if left > 0 && !self.queues[queue].buf.is_empty() {
                    // Continuation leg: the locked queue keeps the bus
                    // without a new arbitration draw.
                    self.grant(b, queue, Some(left - 1), t);
                } else {
                    self.buses[b].state = BusState::Unlocked;
                    self.bus_arbitrate(b, t);
                }
            }
            BusState::Unlocked => self.bus_arbitrate(b, t),
            // A same-instant cascade already re-engaged the bus between
            // the completion and this re-arm; nothing to do.
            _ => {}
        }
    }

    /// Service rate of bus `b`.
    fn bus_rate(&self, b: usize) -> f64 {
        self.arch
            .bus(self.arch.bus_ids().nth(b).expect("bus in range"))
            .service_rate()
    }
}

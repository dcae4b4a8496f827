//! The deterministic time-ordered scheduler: envelopes and the event
//! queue.
//!
//! # Determinism contract
//!
//! Every hand-off that takes simulated time travels as an [`Envelope`]
//! through one shared [`EventQueue`], ordered by the pair `(time, seq)`
//! — the same rule as the legacy engine's event heap:
//!
//! 1. **time** — simulated delivery time (`f64`, total order via
//!    `total_cmp`).
//! 2. **seq** — a globally monotone emission counter breaking ties in
//!    send order.
//!
//! Because `seq` is assigned at send time from a single counter and the
//! queue is drained by a single dispatch loop, a run is a pure function
//! of `(architecture, allocation, arbiter, timeout, config)` — there is
//! no global mutable state, no iteration-order dependence and no
//! wall-clock input anywhere.
//!
//! Only four messages remain: a source's next arrival (`Tick`), its
//! phase flip (`Toggle`), a crossing over a bridge with a forwarding
//! latency (`Offer`) and a bus's service completion (`Complete`). Every
//! hand-off at the sender's own instant is a direct call, resolved in
//! place in the order the legacy loop makes the same calls:
//!
//! * an offer accepted into a queue whose bus is idle arbitrates that
//!   bus at once (and grants: shed, then start service);
//! * a completion finishes its queue's head, hands it across a
//!   zero-latency bridge into the next queue — whose offer may arbitrate
//!   the downstream bus — and only then re-arms the completing bus.
//!
//! So at a completion instant the downstream bus draws its arbitration
//! and service samples before the completing bus re-arbitrates, exactly
//! as the monolithic loop does. A source's burst arbitrates its bus at
//! the first request rather than after the whole batch; that reads the
//! same candidate set and makes the same draw, because an idle bus has
//! every queue empty between envelopes (see the bus module's
//! `BusState`). Exact float ties between independent continuous samples
//! are set aside, as they are for the legacy heap's own `seq` order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Destination of an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ActorId {
    /// Traffic source of flow *i*.
    Source(usize),
    /// Queue actor of queue *i*.
    Queue(usize),
    /// Bus actor of bus *i*.
    Bus(usize),
}

/// A message between actors.
#[derive(Debug, Clone, Copy)]
pub(super) enum Msg {
    /// Source self-message: emit the next arrival (epoch-stamped so a
    /// phase toggle can invalidate in-flight ticks).
    Tick {
        /// Source epoch this tick belongs to.
        epoch: u64,
    },
    /// Source self-message: flip the on-off phase.
    Toggle,
    /// Bridge → queue: a request of `flow` arrives at its `hop`-th path
    /// stop after the bridge's (non-zero) forwarding latency.
    Offer {
        /// Flow index.
        flow: usize,
        /// Path position of the receiving queue.
        hop: usize,
        /// The request's origin-window flag, frozen at its hop-0 offer.
        counted_origin: bool,
    },
    /// Bus self-message: the scheduled service completes now.
    Complete,
}

/// One scheduled message.
#[derive(Debug, Clone, Copy)]
pub(super) struct Envelope {
    /// Delivery time.
    pub time: f64,
    /// Emission counter (global, monotone).
    pub seq: u64,
    /// Receiver.
    pub dest: ActorId,
    /// Payload.
    pub msg: Msg,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Envelope {}
impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour inside BinaryHeap.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The single shared message queue all actors send through.
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Envelope>,
    seq: u64,
}

impl EventQueue {
    /// Schedules `msg` for `dest` at `time`.
    pub fn send(&mut self, time: f64, dest: ActorId, msg: Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Envelope {
            time,
            seq,
            dest,
            msg,
        });
    }

    /// Next envelope in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Envelope> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_pop_in_time_seq_order() {
        let mut q = EventQueue::default();
        // Emitted out of time order on purpose; the three t=1 envelopes
        // must leave in send order whatever their message kind.
        q.send(2.0, ActorId::Bus(0), Msg::Complete);
        q.send(1.0, ActorId::Bus(1), Msg::Complete);
        q.send(0.5, ActorId::Source(2), Msg::Toggle);
        q.send(1.0, ActorId::Source(3), Msg::Tick { epoch: 0 });
        q.send(
            1.0,
            ActorId::Queue(4),
            Msg::Offer {
                flow: 0,
                hop: 1,
                counted_origin: true,
            },
        );
        let order: Vec<(ActorId, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.dest, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (ActorId::Source(2), 2), // t=0.5
                (ActorId::Bus(1), 1),    // t=1, first emitted
                (ActorId::Source(3), 3), // t=1, second emitted
                (ActorId::Queue(4), 4),  // t=1, third emitted
                (ActorId::Bus(0), 0),    // t=2
            ]
        );
    }
}

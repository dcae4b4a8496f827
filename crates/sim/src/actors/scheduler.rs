//! The deterministic time-ordered scheduler: envelopes, ordering
//! classes and the event queue.
//!
//! # Determinism contract
//!
//! Every hand-off that crosses time — or that a class must order
//! behind other same-instant work — travels as an [`Envelope`] through
//! one shared [`EventQueue`], ordered by the triple `(time, class, seq)`:
//!
//! 1. **time** — simulated delivery time (`f64`, total order via
//!    `total_cmp`).
//! 2. **class** — a coarse priority for same-instant cascades:
//!    [`Class::Data`] (arrivals, phase toggles, bridge offers and
//!    service completions) before [`Class::Kick`] (queue → bus service
//!    solicitations) before [`Class::Rearm`] (a bus's own
//!    post-completion re-arbitration).
//! 3. **seq** — a globally monotone emission counter breaking the
//!    remaining ties in send order.
//!
//! Because `seq` is assigned at send time from a single counter and the
//! queue is drained by a single dispatch loop, a run is a pure function
//! of `(architecture, allocation, arbiter, timeout, config)` — there is
//! no global mutable state, no iteration-order dependence and no
//! wall-clock input anywhere.
//!
//! Hand-offs that happen at the sender's own instant with nothing able
//! to run in between are direct calls, not envelopes: a source offering
//! its batch, a bus granting a queue (shed, then start service), a
//! completion finishing its queue's head and handing it across a
//! zero-latency bridge into the next queue. Such a message would always
//! be the very next envelope delivered: it is `Data` at the current
//! instant, sent while a `Data`, `Kick` or `Rearm` envelope of that
//! instant is handled, and by then no other `Data` envelope of the
//! instant is left (short of an exact tie between independent
//! continuous samples). Calling it in place keeps the draw order. A
//! bus's re-arm after a completion is direct for the same reason unless
//! the completion's crossing kicked a bus: then the re-arm waits behind
//! that `Kick` as a `Rearm` envelope. A `Kick` goes only to an idle bus;
//! the bus module's `BusState` says why the others can skip it.
//!
//! The class layer is what lets the actor decomposition reproduce the
//! legacy event loop's RNG draw order *exactly* on shared workloads: at
//! a completion instant, the freed request first crosses into its
//! downstream queue and kicks the downstream bus (`Kick`, drawing that
//! bus's arbitration and service samples), and only then does the
//! completing bus re-arbitrate (`Rearm`) — the same order the
//! monolithic loop executes those draws in. A source's burst likewise
//! lands whole before its bus arbitrates.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Same-instant ordering tier of an envelope (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Class {
    /// Arrivals, phase toggles, bridge offers and service completions.
    Data = 0,
    /// A queue soliciting service from its bus.
    Kick = 1,
    /// A bus's own re-arbitration after one of its completions.
    Rearm = 2,
}

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
    /// Queue → bus: work may be waiting.
    Kick,
    /// Bus self-message: the scheduled service completes now.
    Complete,
    /// Bus self-message: re-arbitrate after a completion whose crossing
    /// kicked a bus at the same instant.
    Rearm,
}

/// One scheduled message.
#[derive(Debug, Clone, Copy)]
pub(super) struct Envelope {
    /// Delivery time.
    pub time: f64,
    /// Same-instant tier.
    pub class: Class,
    /// Emission counter (global, monotone).
    pub seq: u64,
    /// Receiver.
    pub dest: ActorId,
    /// Payload.
    pub msg: Msg,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.class == other.class && self.seq == other.seq
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
            .then_with(|| other.class.cmp(&self.class))
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
    /// Schedules `msg` for `dest` at `time` in tier `class`.
    pub fn send(&mut self, time: f64, class: Class, dest: ActorId, msg: Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Envelope {
            time,
            class,
            seq,
            dest,
            msg,
        });
    }

    /// Next envelope in `(time, class, seq)` order.
    pub fn pop(&mut self) -> Option<Envelope> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_pop_in_time_class_seq_order() {
        let mut q = EventQueue::default();
        // Emitted out of order on purpose.
        q.send(2.0, Class::Data, ActorId::Bus(0), Msg::Kick);
        q.send(1.0, Class::Rearm, ActorId::Bus(1), Msg::Rearm);
        q.send(1.0, Class::Data, ActorId::Bus(2), Msg::Kick);
        q.send(1.0, Class::Kick, ActorId::Bus(3), Msg::Kick);
        q.send(1.0, Class::Data, ActorId::Bus(4), Msg::Kick);
        let order: Vec<ActorId> = std::iter::from_fn(|| q.pop()).map(|e| e.dest).collect();
        assert_eq!(
            order,
            vec![
                ActorId::Bus(2), // t=1 Data, first emitted
                ActorId::Bus(4), // t=1 Data, second emitted
                ActorId::Bus(3), // t=1 Kick
                ActorId::Bus(1), // t=1 Rearm
                ActorId::Bus(0), // t=2
            ]
        );
    }
}

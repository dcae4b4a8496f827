//! The deterministic time-ordered scheduler: envelopes and the event
//! queue.
//!
//! # Determinism contract
//!
//! Every hand-off that takes simulated time travels as an [`Envelope`]
//! through one shared [`EventQueue`], ordered by the pair `(time, seq)`:
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
//! place in the order whose draws `legacy_pins` freezes:
//!
//! * an offer accepted into a queue whose bus is idle arbitrates that
//!   bus at once (and grants: shed, then start service);
//! * a completion finishes its queue's head, hands it across a
//!   zero-latency bridge into the next queue — whose offer may arbitrate
//!   the downstream bus — and only then re-arms the completing bus.
//!
//! So at a completion instant the downstream bus draws its arbitration
//! and service samples before the completing bus re-arbitrates. A
//! source's burst arbitrates its bus at the first request rather than
//! after the whole batch; that reads the same candidate set and makes
//! the same draw, because an idle bus has every queue empty between
//! envelopes (see the bus module's `BusState`). Exact float ties between independent continuous samples
//! are set aside: `seq` orders them by send.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A message between actors. Each kind has exactly one kind of
/// receiver, and its index travels in the payload, so a message cannot
/// reach the wrong actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Msg {
    /// Source self-message: emit the next arrival (epoch-stamped so a
    /// phase toggle can invalidate in-flight ticks).
    Tick {
        /// Flow index of the source.
        flow: u32,
        /// Source epoch this tick belongs to.
        epoch: u64,
    },
    /// Source self-message: flip the on-off phase.
    Toggle {
        /// Flow index of the source.
        flow: u32,
    },
    /// Bridge → queue: a request of `flow` arrives at its `hop`-th path
    /// stop, `queue`, after the bridge's (non-zero) forwarding latency.
    Offer {
        /// Receiving queue index.
        queue: u32,
        /// Flow index.
        flow: u32,
        /// Path position of the receiving queue.
        hop: u32,
        /// The request's origin-window flag, frozen at its hop-0 offer.
        counted_origin: bool,
    },
    /// Bus self-message: the scheduled service completes now.
    Complete {
        /// Bus index.
        bus: u32,
    },
}

/// One scheduled message.
#[derive(Debug, Clone, Copy)]
pub(super) struct Envelope {
    /// Delivery time.
    pub time: f64,
    /// Emission counter (global, monotone).
    pub seq: u64,
    /// Payload, receiver included.
    pub msg: Msg,
}

/// An actor index as a message carries it.
pub(super) fn index(i: usize) -> u32 {
    u32::try_from(i).expect("actor index fits in u32")
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
    /// Schedules `msg` for delivery at `time`.
    pub fn send(&mut self, time: f64, msg: Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Envelope { time, seq, msg });
    }

    /// Envelopes sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
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
        let offer = Msg::Offer {
            queue: 4,
            flow: 0,
            hop: 1,
            counted_origin: true,
        };
        q.send(2.0, Msg::Complete { bus: 0 });
        q.send(1.0, Msg::Complete { bus: 1 });
        q.send(0.5, Msg::Toggle { flow: 2 });
        q.send(1.0, Msg::Tick { flow: 3, epoch: 0 });
        q.send(1.0, offer);
        let order: Vec<(Msg, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.msg, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (Msg::Toggle { flow: 2 }, 2),         // t=0.5
                (Msg::Complete { bus: 1 }, 1),        // t=1, first emitted
                (Msg::Tick { flow: 3, epoch: 0 }, 3), // t=1, second emitted
                (offer, 4),                           // t=1, third emitted
                (Msg::Complete { bus: 0 }, 0),        // t=2
            ]
        );
    }

    #[test]
    fn an_envelope_is_as_small_as_its_time_seq_and_payload() {
        assert_eq!(std::mem::size_of::<Msg>(), 16);
        assert_eq!(std::mem::size_of::<Envelope>(), 32);
    }
}

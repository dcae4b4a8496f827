//! The deterministic time-ordered scheduler: envelopes and the event
//! queue.
//!
//! # Determinism contract
//!
//! Every hand-off that takes simulated time travels as an [`Envelope`]
//! through one shared [`EventQueue`], ordered by the pair `(time, seq)`:
//!
//! 1. **time** — simulated delivery time, compared by its bits. Every
//!    send is at `t + dt` with `dt > 0` from a non-negative start (the
//!    first arrivals at `dt`), so times are finite and non-negative, and
//!    there the IEEE-754 bit pattern, read as an integer, orders as the
//!    number does. `send` checks this in debug builds.
//! 2. **seq** — a globally monotone emission counter breaking ties in
//!    send order.
//!
//! `seq` makes every key unique, so the order in which envelopes pop
//! depends only on the keys, never on the heap's shape. The dispatch
//! loop leaves the envelope it dispatches on top of the heap, and the
//! handler's first send overwrites it in place (one sift-down instead
//! of a pop's sift plus a push); it is popped only if the handler sent
//! nothing. That pops what pop-then-push pops: the dispatched envelope
//! is the minimum, and every send during its dispatch is at a time no
//! earlier and with a larger `seq`, so it stays the minimum until it is
//! replaced, and the heap then holds the same set of keys.
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
//! envelopes (see the bus module's `BusState`). Exact float ties between
//! independent continuous samples are set aside: `seq` orders them by
//! send.

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
        // Reversed for min-heap behaviour inside BinaryHeap. Times are
        // finite and non-negative (checked at send), where bit order is
        // numeric order.
        (other.time.to_bits(), other.seq).cmp(&(self.time.to_bits(), self.seq))
    }
}

/// The single shared message queue all actors send through.
///
/// The envelope being dispatched stays on top of the heap until its
/// handler's first send overwrites it in place, or until the next
/// [`EventQueue::next`] removes it if the handler sent nothing.
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Envelope>,
    seq: u64,
    /// The heap's top is the envelope being dispatched, not yet
    /// replaced by a send.
    top_dispatched: bool,
    /// Time of the envelope being dispatched (0 before the first).
    now: f64,
}

impl EventQueue {
    /// Schedules `msg` for delivery at `time`. The first send of a
    /// dispatch takes the dispatched envelope's slot on top of the heap.
    pub fn send(&mut self, time: f64, msg: Msg) {
        debug_assert!(
            time.is_finite() && time.is_sign_positive() && time >= self.now,
            "envelope sent for t={time} while dispatching t={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let env = Envelope { time, seq, msg };
        if std::mem::take(&mut self.top_dispatched) {
            *self.heap.peek_mut().expect("dispatched envelope on top") = env;
        } else {
            self.heap.push(env);
        }
    }

    /// Envelopes sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }

    /// Next envelope in `(time, seq)` order, to be dispatched now: it
    /// stays on top of the heap until a send replaces it.
    pub fn next(&mut self) -> Option<Envelope> {
        if std::mem::take(&mut self.top_dispatched) {
            self.heap.pop();
        }
        let env = *self.heap.peek()?;
        self.top_dispatched = true;
        self.now = env.time;
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The queue a plain dispatch loop keeps: pop the next envelope,
    /// then push whatever its handler sends.
    #[derive(Default)]
    struct PopThenPush {
        heap: BinaryHeap<Envelope>,
        seq: u64,
    }

    impl PopThenPush {
        fn send(&mut self, time: f64, msg: Msg) {
            self.heap.push(Envelope {
                time,
                seq: self.seq,
                msg,
            });
            self.seq += 1;
        }
    }

    fn key(env: Option<Envelope>) -> Option<(u64, u64, Msg)> {
        env.map(|e| (e.time.to_bits(), e.seq, e.msg))
    }

    #[test]
    fn in_place_dispatch_pops_in_the_pop_then_push_order() {
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut q, mut reference) = (EventQueue::default(), PopThenPush::default());
            for flow in 0..rng.gen_range(1..5usize) {
                let t = 0.25 * rng.gen_range(1..4usize) as f64;
                let msg = Msg::Toggle { flow: index(flow) };
                q.send(t, msg);
                reference.send(t, msg);
            }
            let mut dispatched = 0;
            loop {
                let (env, expected) = (q.next(), reference.heap.pop());
                assert_eq!(
                    key(env),
                    key(expected),
                    "seed {seed}, dispatch {dispatched}"
                );
                let Some(env) = env else { break };
                dispatched += 1;
                // The handler sends nothing, one envelope or several, at
                // the dispatched time itself, on a coarse grid that ties
                // other pending envelopes, or anywhere later; past 300
                // dispatches it only drains.
                let sends = match rng.gen_range(0..6usize) {
                    _ if dispatched > 300 => 0,
                    0 | 1 => 0,
                    2 | 3 => 1,
                    k => k - 2,
                };
                for bus in 0..sends {
                    let t = match rng.gen_range(0..3usize) {
                        0 => env.time,
                        1 => env.time + 0.25 * rng.gen_range(1..4usize) as f64,
                        _ => env.time + rng.gen_range(0.0..2.0),
                    };
                    let msg = Msg::Complete { bus: index(bus) };
                    q.send(t, msg);
                    reference.send(t, msg);
                }
                assert_eq!(q.sent(), reference.seq, "seed {seed}");
            }
            assert!(dispatched > 0, "seed {seed} dispatched nothing");
        }
    }

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
        // One more than the five sent: a queue that stops removing what
        // it hands out fails the assertion instead of never ending.
        let order: Vec<(Msg, u64)> = std::iter::from_fn(|| q.next())
            .take(6)
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

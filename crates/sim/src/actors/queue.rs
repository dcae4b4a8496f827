//! Queue actors: bounded buffers with offer/shed/finish hand-offs and
//! timeout shedding.

use crate::actors::bus::BusState;
use crate::actors::world::World;
use crate::request::Request;
use crate::stats::QueueStats;

/// One bounded contention buffer (a processor's transmit queue or a
/// bridge buffer).
///
/// The queue owns the waiting [`Request`]s. Its bus reads the buffer's
/// length directly. Hand-offs:
///
/// * offer — accept or drop (full-buffer loss) and, on acceptance,
///   arbitrate the bus in place if it is idle (a busy bus reaches its
///   own arbitration point; see [`BusState`]). A source's arrivals and
///   zero-latency bridge crossings are direct calls; a crossing with a
///   latency arrives as an `Offer` envelope after it.
/// * shed — called by the bus as it grants this queue: drop stale heads
///   under the timeout policy. A surviving head stays in the buffer
///   until it finishes, so occupancy counts the request in service.
/// * finish — called by the bus at service completion: pop the head,
///   commit `served` and the wait sample together (see
///   [`crate::QueueStats`]'s measurement convention), and hand the
///   request to its bridge or count the delivery.
///
/// The queue keeps its own [`QueueStats`]. Until the horizon,
/// `mean_wait` holds the sum of the counted waits and `time_avg_len`
/// the occupancy area; [`QueueActor::into_stats`] divides them.
#[derive(Debug)]
pub(super) struct QueueActor {
    pub bus: usize,
    pub cap: usize,
    /// The timeout policy's threshold; infinite without the policy.
    pub threshold: f64,
    pub buf: std::collections::VecDeque<Request>,
    stats: QueueStats,
    /// When the occupancy area was last brought up to date.
    last_t: f64,
}

impl QueueActor {
    pub fn new(bus: usize, cap: usize, threshold: f64) -> Self {
        QueueActor {
            bus,
            cap,
            threshold,
            buf: std::collections::VecDeque::new(),
            stats: QueueStats::default(),
            last_t: 0.0,
        }
    }

    /// Adds the occupancy area up to `t`, clipped to the window that
    /// starts at `warmup`.
    pub fn touch(&mut self, t: f64, warmup: f64) {
        let from = self.last_t.max(warmup);
        if t > from {
            self.stats.time_avg_len += self.buf.len() as f64 * (t - from);
        }
        self.last_t = t;
    }

    /// The queue's statistics over the window `[warmup, horizon]`.
    pub fn into_stats(mut self, warmup: f64, horizon: f64) -> QueueStats {
        self.touch(horizon, warmup);
        let mut s = self.stats;
        s.mean_wait = if s.served > 0.0 {
            s.mean_wait / s.served
        } else {
            0.0
        };
        s.time_avg_len /= horizon - warmup;
        s
    }
}

impl World<'_> {
    /// A request is offered to queue `q` (fresh arrival or bridge
    /// crossing). Measurement flags are frozen here (see [`Request`]).
    /// An accepted request arbitrates an idle bus at once.
    pub(super) fn queue_offer(
        &mut self,
        q: usize,
        flow: usize,
        hop: usize,
        carried_origin: Option<bool>,
        t: f64,
    ) {
        let counted = self.measure(t);
        let counted_origin = carried_origin.unwrap_or(counted);
        let origin = self.sources[flow].origin;
        if counted && carried_origin.is_none() {
            self.procs[origin].offered += 1.0;
        }
        let queue = &mut self.queues[q];
        if counted {
            queue.stats.offered += 1.0;
        }
        if queue.buf.len() >= queue.cap {
            if counted {
                queue.stats.lost_full += 1.0;
            }
            if counted_origin {
                self.procs[origin].lost += 1.0;
            }
            return;
        }
        queue.touch(t, self.warmup);
        queue.buf.push_back(Request {
            flow,
            hop,
            enqueued_at: t,
            counted,
            counted_origin,
        });
        if counted {
            queue.stats.accepted += 1.0;
        }
        // Only an idle bus arbitrates here; a busy one reaches its own
        // arbitration point (see `BusState`). An idle bus leaves no
        // queue backlogged, so this request is the only candidate:
        // arbitrating now, rather than after the rest of a burst, makes
        // the same draw.
        let bus = self.queues[q].bus;
        if self.buses[bus].state == BusState::Unlocked {
            debug_assert!(
                self.buses[bus].queue_ids.iter().all(|id| {
                    let len = self.queues[id.index()].buf.len();
                    len == usize::from(id.index() == q)
                }),
                "idle bus {bus} had a backlog before queue {q}'s offer at t={t}"
            );
            self.bus_arbitrate(bus, t);
        }
    }

    /// The bus is granting queue `q`: shed stale heads under the
    /// timeout policy (none without it: no wait exceeds an infinite
    /// threshold). Returns whether any head was shed.
    pub(super) fn queue_shed(&mut self, q: usize, t: f64) -> bool {
        let queue = &mut self.queues[q];
        let mut shed = false;
        while let Some(&head) = queue.buf.front() {
            if t - head.enqueued_at <= queue.threshold {
                break;
            }
            queue.touch(t, self.warmup);
            queue.buf.pop_front();
            if head.counted {
                queue.stats.lost_timeout += 1.0;
            }
            if head.counted_origin {
                self.procs[self.sources[head.flow].origin].lost += 1.0;
            }
            shed = true;
        }
        shed
    }

    /// Service of queue `q`'s head (started at `start`) completed.
    pub(super) fn queue_finish(&mut self, q: usize, start: f64, t: f64) {
        let queue = &mut self.queues[q];
        queue.touch(t, self.warmup);
        let req = queue.buf.pop_front().expect("finished queue nonempty");
        if req.counted {
            queue.stats.served += 1.0;
            queue.stats.mean_wait += start - req.enqueued_at;
        }
        let source = &self.sources[req.flow];
        let (path, bridges, origin) = (source.path, source.bridges, source.origin);
        if req.hop + 1 < path.len() {
            let dest_queue = path[req.hop + 1].index();
            self.bridge_forward(bridges[req.hop].index(), req, dest_queue, t);
        } else if req.counted_origin {
            self.procs[origin].delivered += 1.0;
        }
    }
}

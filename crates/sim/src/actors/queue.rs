//! Queue actors: bounded buffers with offer/shed/finish hand-offs and
//! timeout shedding.

use crate::actors::bus::BusState;
use crate::actors::world::World;
use crate::request::Request;

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
#[derive(Debug)]
pub(super) struct QueueActor {
    pub bus: usize,
    pub cap: usize,
    pub buf: std::collections::VecDeque<Request>,
}

impl QueueActor {
    pub fn new(bus: usize, cap: usize) -> Self {
        QueueActor {
            bus,
            cap,
            buf: std::collections::VecDeque::new(),
        }
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
        let origin = self.origin_of(flow);
        if counted {
            self.stats.q_offered[q] += 1.0;
            if carried_origin.is_none() {
                self.stats.p_offered[origin] += 1.0;
            }
        }
        if self.queues[q].buf.len() >= self.queues[q].cap {
            if counted {
                self.stats.q_lost_full[q] += 1.0;
            }
            if counted_origin {
                self.stats.p_lost[origin] += 1.0;
            }
            return;
        }
        self.touch_queue(q, t);
        self.queues[q].buf.push_back(Request {
            flow,
            hop,
            enqueued_at: t,
            counted,
            counted_origin,
        });
        if counted {
            self.stats.q_accepted[q] += 1.0;
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
    /// timeout policy. Returns whether any head was shed.
    pub(super) fn queue_shed(&mut self, q: usize, t: f64) -> bool {
        let Some(spec) = self.timeout else {
            return false;
        };
        let threshold = spec.threshold(self.queue_id(q));
        let mut shed = false;
        while let Some(&head) = self.queues[q].buf.front() {
            if t - head.enqueued_at <= threshold {
                break;
            }
            self.touch_queue(q, t);
            self.queues[q].buf.pop_front();
            if head.counted {
                self.stats.q_lost_timeout[q] += 1.0;
            }
            if head.counted_origin {
                let origin = self.origin_of(head.flow);
                self.stats.p_lost[origin] += 1.0;
            }
            shed = true;
        }
        shed
    }

    /// Service of queue `q`'s head (started at `start`) completed.
    pub(super) fn queue_finish(&mut self, q: usize, start: f64, t: f64) {
        self.touch_queue(q, t);
        let req = self.queues[q]
            .buf
            .pop_front()
            .expect("finished queue nonempty");
        if req.counted {
            self.stats.q_served[q] += 1.0;
            self.stats.q_wait_sum[q] += start - req.enqueued_at;
        }
        let fid = self.arch.flow_ids().nth(req.flow).expect("flow in range");
        let path = self.arch.flow_path(fid);
        if req.hop + 1 < path.len() {
            let bridge = self.arch.route(fid).bridges[req.hop].index();
            let dest_queue = path[req.hop + 1].index();
            self.bridge_forward(bridge, req, dest_queue, t);
        } else if req.counted_origin {
            let origin = self.origin_of(req.flow);
            self.stats.p_delivered[origin] += 1.0;
        }
    }
}

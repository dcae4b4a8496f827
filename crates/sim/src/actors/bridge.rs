//! Bridge actors: per-hop forwarding latency between buses.

use crate::actors::scheduler::{ActorId, Msg};
use crate::actors::world::World;
use crate::request::Request;

/// One unidirectional bridge. The bridge holds no queue of its own — the
/// destination bus's bridge queue does the buffering — it only delays
/// each crossing request by its forwarding latency.
#[derive(Debug)]
pub(super) struct BridgeActor {
    /// Deterministic forwarding delay per crossing (0 = immediate).
    pub latency: f64,
}

impl BridgeActor {
    pub fn new(latency: f64) -> Self {
        BridgeActor { latency }
    }
}

impl World<'_> {
    /// Carries `req`, just served at its `hop`-th path stop, across
    /// bridge `g` into `dest_queue`, offering it there after the
    /// forwarding latency. The offer carries the request's origin flag
    /// so end-to-end accounting stays tied to the hop-0 measurement
    /// window (see [`Request`]).
    ///
    /// A zero-latency crossing is offered in place, so the downstream
    /// bus arbitrates before the bus that served the request re-arms.
    pub(super) fn bridge_forward(&mut self, g: usize, req: Request, dest_queue: usize, t: f64) {
        let latency = self.bridges[g].latency;
        if latency == 0.0 {
            let origin = Some(req.counted_origin);
            self.queue_offer(dest_queue, req.flow, req.hop + 1, origin, t);
            return;
        }
        self.evq.send(
            t + latency,
            ActorId::Queue(dest_queue),
            Msg::Offer {
                flow: req.flow,
                hop: req.hop + 1,
                counted_origin: req.counted_origin,
            },
        );
    }
}

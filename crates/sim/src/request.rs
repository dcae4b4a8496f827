//! The in-flight request record.

/// One request making its way along a flow's queue path.
///
/// # Measurement flags
///
/// Statistics are windowed: only what happens after warmup counts. Two
/// flags, both frozen at *offer* time, key every counter so that a request
/// straddling the warmup boundary can never be counted on one side of a
/// ledger but not the other:
///
/// * [`counted`](Request::counted) — this hop's offer happened inside the
///   measured window. Keys all **per-queue** accounting (`offered`,
///   `accepted`, `lost_*`, `served` and the waits behind `mean_wait`).
///   Reset at every hop.
/// * [`counted_origin`](Request::counted_origin) — the *fresh* offer (hop
///   0) happened inside the window. Keys all **per-processor** accounting
///   (`offered`, `lost`, `delivered`) and is carried unchanged across
///   bridge crossings.
///
/// Keying losses and services on these flags (instead of on the clock at
/// the moment of the loss/service) guarantees `lost ≤ offered` per queue,
/// `lost + delivered ≤ offered` per processor, and a non-negative
/// `in_flight` residual.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    /// Flow index (position in `Architecture::flow_ids` order).
    pub flow: usize,
    /// Position along the flow's queue path (0 = source queue).
    pub hop: usize,
    /// Time this request entered its current queue.
    pub enqueued_at: f64,
    /// This hop's offer fell inside the measured window.
    pub counted: bool,
    /// The fresh (hop 0) offer fell inside the measured window.
    pub counted_origin: bool,
}

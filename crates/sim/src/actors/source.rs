//! Traffic-source actors: Poisson, batched-burst and on-off MMPP
//! arrival processes, driven by their own `Tick` and `Toggle`
//! envelopes; every offer a source makes is a direct call.

use socbuf_soc::TrafficShape;

use crate::actors::scheduler::{index, Msg};
use crate::actors::world::World;

/// One flow's arrival process.
///
/// The source drives itself with `Tick` self-messages (one per arrival
/// epoch) and, for the on-off shape, `Toggle` self-messages flipping the
/// phase. Ticks are stamped with an `epoch` counter; a toggle bumps the
/// counter, which orphans any in-flight tick of the old phase — the
/// memorylessness of the exponential makes dropping it statistically
/// exact, and the counter makes it deterministic.
///
/// Every shape preserves the declared average rate λ:
///
/// * `Poisson` — epochs at rate λ, one request each.
/// * `Burst { batch }` — epochs at rate λ/batch, `batch` back-to-back
///   requests each. `batch = 1` replays the Poisson draw sequence
///   exactly.
/// * `OnOff { mean_on, mean_off }` — exponential phase sojourns; while
///   ON, epochs at rate λ·(mean_on+mean_off)/mean_on; silent while OFF.
#[derive(Debug)]
pub(super) struct SourceActor {
    pub rate: f64,
    pub shape: TrafficShape,
    pub phase_on: bool,
    pub epoch: u64,
}

impl SourceActor {
    pub fn new(rate: f64, shape: TrafficShape) -> Self {
        SourceActor {
            rate,
            shape,
            phase_on: true,
            epoch: 0,
        }
    }

    /// Arrival-epoch rate while the source is active.
    pub fn epoch_rate(&self) -> f64 {
        match self.shape {
            TrafficShape::Poisson => self.rate,
            TrafficShape::Burst { batch } => self.rate / batch as f64,
            TrafficShape::OnOff { mean_on, mean_off } => self.rate * (mean_on + mean_off) / mean_on,
        }
    }

    /// Requests emitted per epoch.
    fn batch(&self) -> usize {
        match self.shape {
            TrafficShape::Burst { batch } => batch,
            _ => 1,
        }
    }
}

impl World<'_> {
    /// An arrival epoch fires: schedule the next one (drawn *before* the
    /// offers), then offer the
    /// batch to the flow's first queue. The first accepted request of a
    /// batch arbitrates an idle bus in place; that makes the same draw as
    /// arbitrating after the whole batch (see the `scheduler` module).
    pub(super) fn source_tick(&mut self, f: usize, epoch: u64, t: f64) {
        if epoch != self.sources[f].epoch || !self.sources[f].phase_on {
            return; // orphaned by a phase toggle
        }
        let dt = self.exp(self.sources[f].epoch_rate());
        let flow = index(f);
        self.evq.send(t + dt, Msg::Tick { flow, epoch });
        let fid = self.arch.flow_ids().nth(f).expect("flow in range");
        let q0 = self.arch.flow_path(fid)[0].index();
        for _ in 0..self.sources[f].batch() {
            self.queue_offer(q0, f, 0, None, t);
        }
    }

    /// A phase boundary fires: flip ON↔OFF, orphan pending ticks, and
    /// re-seed the arrival stream when entering ON.
    pub(super) fn source_toggle(&mut self, f: usize, t: f64) {
        let TrafficShape::OnOff { mean_on, mean_off } = self.sources[f].shape else {
            return;
        };
        self.sources[f].phase_on = !self.sources[f].phase_on;
        self.sources[f].epoch += 1;
        let (flow, epoch) = (index(f), self.sources[f].epoch);
        if self.sources[f].phase_on {
            let dt = self.exp(self.sources[f].epoch_rate());
            self.evq.send(t + dt, Msg::Tick { flow, epoch });
            let dtg = self.exp(1.0 / mean_on);
            self.evq.send(t + dtg, Msg::Toggle { flow });
        } else {
            let dtg = self.exp(1.0 / mean_off);
            self.evq.send(t + dtg, Msg::Toggle { flow });
        }
    }
}

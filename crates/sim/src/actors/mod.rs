//! The actor-based simulator core: the one engine behind
//! [`crate::simulate_with`].
//!
//! This engine decomposes the simulation into component actors —
//! traffic sources (`source`), queues (`queue`), buses (`bus`) and
//! bridges (`bridge`) — that each own their state, sequenced by a
//! deterministic `(time, seq)`-ordered scheduler (`scheduler`). A
//! hand-off that takes simulated time is a message; one that happens at
//! once is a direct call. A run is a pure function of its inputs (see
//! the `scheduler` module source for which hand-offs are which, and for
//! the exact determinism contract).
//!
//! # Oracles
//!
//! The paper's model — Poisson flows, externally-arbitrated buses,
//! zero-latency bridges — was first executed by a monolithic event loop.
//! This engine reproduces that loop's per-seed results *exactly*: every
//! same-instant hand-off runs in place, in the order the loop made the
//! same calls, so the shared RNG's draw sequence is identical. The
//! loop's output is frozen bit for bit in `tests/legacy_pins.rs` (the
//! four templates and 24 seeded random architectures, every arbiter,
//! with and without the timeout policy), and the M/M/1/K closed form
//! checks the statistics analytically. On top of that core, the actors
//! execute what the paper's model leaves out, pinned in
//! `tests/actor_pins.rs`:
//!
//! * **declared arbitration** — `BusArbitration::Priority` (strict
//!   declaration-order priority) and `BusArbitration::Locked`
//!   (multi-leg locked transfers holding the bus across completions);
//! * **traffic shapes** — `TrafficShape::Burst` batched arrivals and
//!   `TrafficShape::OnOff` two-phase MMPP sources;
//! * **bridge forwarding latency** — per-hop deterministic delay.

mod bridge;
mod bus;
mod queue;
mod scheduler;
mod source;
mod world;

use socbuf_soc::{Architecture, BufferAllocation};

use crate::arbiter::Arbiter;
use crate::engine::{SimConfig, TimeoutSpec};
use crate::stats::SimReport;
use world::World;

/// Runs one simulation on validated inputs; returns its report and the
/// number of envelopes it sent.
pub(crate) fn run(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &mut Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
) -> (SimReport, u64) {
    let mut world = World::new(arch, alloc, arbiter, timeout, config);
    world.init_sources();
    // Each envelope stays on the heap's top while it is dispatched; its
    // handler's first send takes its place (see the `scheduler` module).
    while let Some(env) = world.evq.next() {
        if env.time > config.horizon {
            break;
        }
        world.dispatch(env);
    }
    let sent = world.evq.sent();
    (world.into_report(config), sent)
}

#[cfg(test)]
mod tests {
    use crate::{simulate, Arbiter, SimConfig};
    use socbuf_soc::{Architecture, ArchitectureBuilder, BufferAllocation, FlowTarget};

    fn single_queue(lambda: f64, mu: f64) -> Architecture {
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", mu).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        b.add_flow(p, FlowTarget::Bus(bus), lambda).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn determinism_per_seed() {
        let arch = single_queue(0.8, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 4);
        let cfg = SimConfig::new(500.0, 99);
        let a = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let b = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "warmup must be shorter")]
    fn malformed_window_panics() {
        let arch = single_queue(0.5, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 4);
        let cfg = SimConfig {
            horizon: 10.0,
            warmup: 10.0,
            seed: 0,
        };
        simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
    }

    #[test]
    #[should_panic(expected = "warmup must not be negative")]
    fn a_negative_warmup_panics() {
        // Occupancy integrates from t = 0 while the window would span
        // `horizon - warmup`: a warmup of -1000 over a horizon of 1000
        // halved `time_avg_len` (0.8027 against 1.6054 at warmup 0).
        let arch = single_queue(0.8, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 4);
        let cfg = SimConfig {
            horizon: 1000.0,
            warmup: -1000.0,
            seed: 3,
        };
        simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
    }
}

//! The actor-based simulator core.
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
//! # Relation to the legacy engine
//!
//! [`crate::simulate_with`] remains as the monolithic regression oracle.
//! On architectures without extended semantics — Poisson flows,
//! externally-arbitrated buses, zero-latency bridges — this engine
//! reproduces the legacy engine's per-seed results *exactly*: every
//! same-instant hand-off runs in place, in the order the legacy loop
//! makes the same calls, so the shared RNG's draw sequence is identical
//! (verified by the equivalence test suite). On top of that shared
//! core, the actors execute what the legacy loop cannot:
//!
//! * **declared arbitration** — `BusArbitration::Priority` (strict
//!   declaration-order priority) and `BusArbitration::Locked`
//!   (multi-leg locked transfers holding the bus across completions);
//! * **traffic shapes** — `TrafficShape::Burst` batched arrivals and
//!   `TrafficShape::OnOff` two-phase MMPP sources;
//! * **bridge forwarding latency** — per-hop deterministic delay.
//!
//! Use [`SimEngine`] to select an engine generically; its
//! [`SimEngine::Auto`] variant picks the actor engine exactly when the
//! architecture declares extended semantics.

mod bridge;
mod bus;
mod queue;
mod scheduler;
mod source;
mod world;

use socbuf_soc::{Architecture, BufferAllocation};

use crate::arbiter::Arbiter;
use crate::engine::{simulate_with, SimConfig, TimeoutSpec};
use crate::stats::SimReport;
use world::World;

/// Runs one actor-engine simulation with the given arbiter and no
/// timeout policy.
pub fn simulate_actors(
    arch: &Architecture,
    alloc: &BufferAllocation,
    mut arbiter: Arbiter,
    config: &SimConfig,
) -> SimReport {
    simulate_actors_with(arch, alloc, &mut arbiter, None, config)
}

/// Runs one actor-engine simulation with full control over arbiter state
/// and the timeout policy.
///
/// Accepts every architecture the legacy engine accepts (with per-seed
/// identical results) plus those declaring extended semantics.
///
/// # Panics
///
/// Panics if `alloc` or the timeout spec do not match the architecture's
/// queue count, or `config` is malformed (`warmup ≥ horizon`).
pub fn simulate_actors_with(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &mut Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
) -> SimReport {
    assert!(
        config.warmup < config.horizon,
        "warmup must be shorter than the horizon"
    );
    let nq = arch.num_queues();
    assert_eq!(alloc.as_slice().len(), nq, "allocation shape mismatch");
    if let Some(spec) = timeout {
        assert_eq!(spec.arity(), nq, "timeout spec shape mismatch");
    }
    let mut world = World::new(arch, alloc, arbiter, timeout, config);
    world.init_sources();
    while let Some(env) = world.evq.pop() {
        if env.time > config.horizon {
            break;
        }
        world.dispatch(env);
    }
    world.into_report(config)
}

/// Which simulator core executes a run.
///
/// Both engines agree per-seed on every architecture the legacy engine
/// accepts, so the choice is about capability and auditability, not
/// results: `Legacy` refuses extended semantics loudly, `Actors` executes
/// them, and `Auto` dispatches on what the architecture declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Dispatch on [`Architecture::uses_extended_semantics`]: the legacy
    /// engine for plain architectures, the actor engine otherwise.
    #[default]
    Auto,
    /// The monolithic event loop ([`crate::simulate_with`]). Panics on
    /// architectures declaring extended semantics.
    Legacy,
    /// The actor-based core ([`simulate_actors_with`]).
    Actors,
}

impl SimEngine {
    /// Runs one simulation on the selected engine.
    pub fn simulate_with(
        self,
        arch: &Architecture,
        alloc: &BufferAllocation,
        arbiter: &mut Arbiter,
        timeout: Option<&TimeoutSpec>,
        config: &SimConfig,
    ) -> SimReport {
        let actors = match self {
            SimEngine::Auto => arch.uses_extended_semantics(),
            SimEngine::Legacy => false,
            SimEngine::Actors => true,
        };
        if actors {
            simulate_actors_with(arch, alloc, arbiter, timeout, config)
        } else {
            simulate_with(arch, alloc, arbiter, timeout, config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::{ArchitectureBuilder, FlowTarget, TrafficShape};

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
        let a = simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let b = simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_legacy_on_plain_single_queue() {
        let arch = single_queue(0.9, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 3);
        for seed in 0..20 {
            let cfg = SimConfig::new(400.0, seed);
            let legacy = crate::simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
            let actors = simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
            assert_eq!(legacy, actors, "seed {seed}");
        }
    }

    #[test]
    fn auto_engine_dispatches_on_declared_semantics() {
        let plain = single_queue(0.5, 1.0);
        let alloc = BufferAllocation::uniform(&plain, 4);
        let cfg = SimConfig::new(300.0, 7);
        let mut arb = Arbiter::RandomNonempty;
        // Plain architecture: Auto == Legacy == Actors.
        let via_auto = SimEngine::Auto.simulate_with(&plain, &alloc, &mut arb, None, &cfg);
        let via_legacy = SimEngine::Legacy.simulate_with(&plain, &alloc, &mut arb, None, &cfg);
        assert_eq!(via_auto, via_legacy);
        // Extended architecture: Auto routes to the actor engine instead
        // of panicking.
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        b.add_flow_shaped(
            p,
            FlowTarget::Bus(bus),
            0.5,
            TrafficShape::Burst { batch: 3 },
        )
        .unwrap();
        let bursty = b.build().unwrap();
        let alloc = BufferAllocation::uniform(&bursty, 4);
        let r = SimEngine::Auto.simulate_with(&bursty, &alloc, &mut arb, None, &cfg);
        assert!(r.total_offered > 0.0);
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
        simulate_actors(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
    }
}

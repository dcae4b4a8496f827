//! The simulator's entry points, its window and seed, and the timeout
//! policy.

use socbuf_soc::{Architecture, BufferAllocation, QueueId};

use crate::arbiter::Arbiter;
use crate::stats::SimReport;

/// Simulation window and seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total simulated time (positive and finite).
    pub horizon: f64,
    /// Initial transient to discard from statistics (`0 ≤ warmup <
    /// horizon`).
    pub warmup: f64,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl SimConfig {
    /// A config with 10% warmup.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn new(horizon: f64, seed: u64) -> Self {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive"
        );
        SimConfig {
            horizon,
            warmup: horizon * 0.1,
            seed,
        }
    }
}

/// The paper's timeout policy: when a queue is selected for service, any
/// head-of-line request that has waited longer than the queue's threshold
/// is dropped instead of served. The paper sets the threshold to *"the
/// average time spent by a request in a buffer"* — use
/// [`TimeoutSpec::from_calibration`] to reproduce that.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutSpec {
    thresholds: Vec<f64>,
}

impl TimeoutSpec {
    /// Explicit per-queue thresholds (indexed by queue position).
    ///
    /// # Panics
    ///
    /// Panics if any threshold is negative or NaN.
    pub fn new(thresholds: Vec<f64>) -> Self {
        assert!(
            thresholds
                .iter()
                .all(|t| t.is_finite() && *t >= 0.0 || t.is_infinite() && *t > 0.0),
            "thresholds must be non-negative"
        );
        TimeoutSpec { thresholds }
    }

    /// The paper's choice: threshold = mean waiting time per queue, read
    /// off a calibration run. Queues that never served a request get an
    /// infinite threshold (no timeouts).
    pub fn from_calibration(report: &SimReport) -> Self {
        TimeoutSpec {
            thresholds: report
                .per_queue
                .iter()
                .map(|q| {
                    if q.served > 0.0 && q.mean_wait > 0.0 {
                        q.mean_wait
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
        }
    }

    /// Threshold of `queue`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range for the calibrated shape.
    pub fn threshold(&self, queue: QueueId) -> f64 {
        self.thresholds[queue.index()]
    }
}

/// Runs one simulation with the given arbiter and no timeout policy.
///
/// See the [crate-level documentation](crate) for an example.
pub fn simulate(
    arch: &Architecture,
    alloc: &BufferAllocation,
    mut arbiter: Arbiter,
    config: &SimConfig,
) -> SimReport {
    simulate_with(arch, alloc, &mut arbiter, None, config)
}

/// Runs one simulation with full control over arbiter state and the
/// timeout policy.
///
/// # Panics
///
/// Panics if `alloc` or the timeout spec do not match the architecture's
/// queue count, or `config` is malformed: the horizon must be positive
/// and finite (sources re-arm forever, so an infinite horizon never
/// ends), and `0 ≤ warmup < horizon` (occupancy integrates from t = 0,
/// so a negative warmup would stretch the window past the time
/// simulated).
pub fn simulate_with(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &mut Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
) -> SimReport {
    simulate_counted(arch, alloc, arbiter, timeout, config).0
}

/// [`simulate_with`], also returning how many envelopes the run sent:
/// the work it did, which depends only on its inputs. A same-instant
/// hand-off routed back through the event queue shows up here as a
/// larger count.
///
/// # Panics
///
/// As [`simulate_with`].
pub fn simulate_counted(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &mut Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
) -> (SimReport, u64) {
    assert!(
        config.horizon > 0.0 && config.horizon.is_finite(),
        "horizon must be positive and finite"
    );
    assert!(config.warmup >= 0.0, "warmup must not be negative");
    assert!(
        config.warmup < config.horizon,
        "warmup must be shorter than the horizon"
    );
    let nq = arch.num_queues();
    assert_eq!(alloc.as_slice().len(), nq, "allocation shape mismatch");
    if let Some(spec) = timeout {
        assert_eq!(spec.thresholds.len(), nq, "timeout spec shape mismatch");
    }
    crate::actors::run(arch, alloc, arbiter, timeout, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::{ArchitectureBuilder, FlowTarget};

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
    fn conservation_identity() {
        let arch = single_queue(0.9, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 3);
        let cfg = SimConfig::new(800.0, 3);
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert!((r.total_offered - r.total_delivered - r.total_lost - r.in_flight).abs() < 1e-9);
        // Accounting is keyed on offer-time flags, so the residual is the
        // number of in-window requests still stored at the horizon: never
        // negative, never more than the system can hold.
        assert!(r.in_flight >= 0.0);
        assert!(r.in_flight <= alloc.total() as f64 + arch.num_buses() as f64);
    }

    #[test]
    fn loss_fraction_bounded_across_warmup_straddles() {
        // Regression for the warmup-boundary loss over-count: an
        // overloaded queue builds a deep pre-warmup backlog, and an
        // aggressive timeout sheds the whole backlog at the first
        // service start after warmup. The old code charged every shed to
        // the measured window (`measure(t)` at drop time) without those
        // requests ever counting as offered in-window, so `lost_timeout`
        // exceeded `offered` and `loss_fraction()` exceeded 1 on seeds
        // where a completion lands inside the short window. Keying on
        // offer-time flags bounds both on every seed.
        let arch = single_queue(3.0, 0.1);
        let alloc = BufferAllocation::new(&arch, vec![30]).unwrap();
        let spec = TimeoutSpec::new(vec![0.01]);
        let mut seen_shed = false;
        for seed in 0..40 {
            let cfg = SimConfig {
                horizon: 25.0,
                warmup: 20.0,
                seed,
            };
            let mut arb = Arbiter::RandomNonempty;
            let r = simulate_with(&arch, &alloc, &mut arb, Some(&spec), &cfg);
            let q = &r.per_queue[0];
            assert!(
                q.lost_full + q.lost_timeout <= q.offered + 1e-9,
                "seed {seed}: queue lost {} > offered {}",
                q.lost_full + q.lost_timeout,
                q.offered
            );
            let lf = r.loss_fraction();
            assert!(
                (0.0..=1.0).contains(&lf),
                "seed {seed}: loss_fraction {lf} out of [0, 1]"
            );
            let p = &r.per_proc[0];
            assert!(
                p.lost + p.delivered <= p.offered + 1e-9,
                "seed {seed}: proc lost+delivered {} > offered {}",
                p.lost + p.delivered,
                p.offered
            );
            assert!(
                r.in_flight >= -1e-9,
                "seed {seed}: in_flight {}",
                r.in_flight
            );
            seen_shed |= q.lost_timeout > 0.0;
        }
        assert!(seen_shed, "scenario never exercised the timeout policy");
    }

    #[test]
    fn wait_and_served_commit_together_across_warmup_boundary() {
        // Regression for the served/wait_sum straddle. Slow service
        // (mean 50) against a 30-unit warmup in a 60-unit horizon: hunt
        // (deterministically, with warmup-free probe runs) for a seed
        // where the only completion in the measured window belongs to a
        // request offered before warmup, and the service that then
        // starts in-window on a long-waiting backlog request completes
        // past the horizon.
        let arch = single_queue(0.2, 0.02);
        let alloc = BufferAllocation::new(&arch, vec![10]).unwrap();
        let seed = (0..10_000u64)
            .find(|&s| {
                let pre = simulate(
                    &arch,
                    &alloc,
                    Arbiter::RandomNonempty,
                    &SimConfig {
                        horizon: 30.0,
                        warmup: 0.0,
                        seed: s,
                    },
                );
                let full = simulate(
                    &arch,
                    &alloc,
                    Arbiter::RandomNonempty,
                    &SimConfig {
                        horizon: 60.0,
                        warmup: 0.0,
                        seed: s,
                    },
                );
                pre.per_queue[0].served == 0.0
                    && pre.per_queue[0].accepted >= 2.0
                    && full.per_queue[0].served == 1.0
            })
            .expect("a straddling seed exists");
        let r = simulate(
            &arch,
            &alloc,
            Arbiter::RandomNonempty,
            &SimConfig {
                horizon: 60.0,
                warmup: 30.0,
                seed,
            },
        );
        // New semantics: the pre-warmup request's completion is not
        // counted, and the in-window service start has not completed, so
        // both statistics stay zero together. The old code reported
        // served = 1 (completion clock post-warmup) while `mean_wait`
        // held the *other* request's backlog delay — inflating
        // calibration thresholds on short windows.
        assert_eq!(r.per_queue[0].served, 0.0);
        assert_eq!(r.per_queue[0].mean_wait, 0.0);
        assert!(r.per_queue[0].offered > 0.0);
    }

    #[test]
    fn zero_capacity_loses_everything() {
        let arch = single_queue(1.0, 1.0);
        let alloc = BufferAllocation::new(&arch, vec![0]).unwrap();
        let cfg = SimConfig::new(300.0, 1);
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert!(r.total_offered > 0.0);
        assert_eq!(r.total_lost, r.total_offered);
        assert_eq!(r.total_delivered, 0.0);
    }

    #[test]
    fn mm1k_blocking_matches_analytics() {
        // M/M/1/4 with ρ = 0.8: blocking ≈ 0.1218 (socbuf-markov oracle).
        let (lambda, mu, k) = (0.8, 1.0, 4usize);
        let arch = single_queue(lambda, mu);
        let alloc = BufferAllocation::new(&arch, vec![k]).unwrap();
        let cfg = SimConfig {
            horizon: 60_000.0,
            warmup: 2_000.0,
            seed: 12345,
        };
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let q = socbuf_markov::MM1K::new(lambda, mu, k).unwrap();
        let simulated = r.per_queue[0].lost_full / r.per_queue[0].offered;
        let exact = q.blocking_probability();
        assert!(
            (simulated - exact).abs() < 0.01,
            "simulated {simulated} vs exact {exact}"
        );
        // Mean occupancy also matches.
        let occ = r.per_queue[0].time_avg_len;
        assert!(
            (occ - q.mean_occupancy()).abs() < 0.08,
            "simulated {occ} vs exact {}",
            q.mean_occupancy()
        );
    }

    #[test]
    fn mm1k_mean_wait_matches_littles_law() {
        let (lambda, mu, k) = (0.7, 1.0, 6usize);
        let arch = single_queue(lambda, mu);
        let alloc = BufferAllocation::new(&arch, vec![k]).unwrap();
        let cfg = SimConfig {
            horizon: 60_000.0,
            warmup: 2_000.0,
            seed: 777,
        };
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let q = socbuf_markov::MM1K::new(lambda, mu, k).unwrap();
        // Engine waits measure time-to-service-start; Little's law mean
        // sojourn = wait + 1/μ.
        let sim_sojourn = r.per_queue[0].mean_wait + 1.0 / mu;
        assert!(
            (sim_sojourn - q.mean_wait()).abs() < 0.12,
            "simulated {sim_sojourn} vs exact {}",
            q.mean_wait()
        );
    }

    #[test]
    fn bridge_crossing_delivers_end_to_end() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 2.0).unwrap();
        let y = b.add_bus("y", 2.0).unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.4).unwrap();
        let arch = b.build().unwrap();
        let alloc = BufferAllocation::uniform(&arch, 12);
        let cfg = SimConfig::new(2000.0, 5);
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert!(r.total_delivered > 0.9 * r.total_offered * 0.9);
        // Both queues saw traffic.
        assert!(r.per_queue[0].offered > 0.0);
        assert!(r.per_queue[1].offered > 0.0);
    }

    #[test]
    fn full_bridge_buffer_attributes_loss_to_origin() {
        let mut b = ArchitectureBuilder::new();
        let x = b.add_bus("x", 5.0).unwrap();
        let y = b.add_bus("y", 0.2).unwrap(); // slow downstream bus
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_bridge("g", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 1.0).unwrap();
        let arch = b.build().unwrap();
        // Large source buffer, tiny bridge buffer: losses happen at the
        // bridge but must be charged to processor p.
        let alloc = BufferAllocation::new(&arch, vec![50, 1]).unwrap();
        let cfg = SimConfig::new(2000.0, 8);
        let r = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        assert!(r.per_queue[1].lost_full > 0.0, "bridge should overflow");
        assert!(
            (r.per_proc[0].lost - (r.per_queue[0].lost_full + r.per_queue[1].lost_full)).abs()
                < 1e-9
        );
    }

    #[test]
    fn timeout_policy_sheds_stale_requests() {
        let arch = single_queue(1.5, 1.0); // overloaded
        let alloc = BufferAllocation::new(&arch, vec![10]).unwrap();
        let cfg = SimConfig::new(3000.0, 21);
        let base = simulate(&arch, &alloc, Arbiter::RandomNonempty, &cfg);
        let spec = TimeoutSpec::from_calibration(&base);
        let mut arb = Arbiter::RandomNonempty;
        let with_to = simulate_with(&arch, &alloc, &mut arb, Some(&spec), &cfg);
        assert!(with_to.per_queue[0].lost_timeout > 0.0);
        // Timeouts shed load, so the time spent waiting shrinks.
        assert!(with_to.per_queue[0].mean_wait < base.per_queue[0].mean_wait);
    }

    #[test]
    fn weighted_effort_prioritizes_hot_queue() {
        // Two processors share one bus; give all effort to p0's queue
        // once it has any backlog.
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let p0 = b.add_processor("p0", &[bus], 1.0).unwrap();
        let p1 = b.add_processor("p1", &[bus], 1.0).unwrap();
        b.add_flow(p0, FlowTarget::Bus(bus), 0.45).unwrap();
        b.add_flow(p1, FlowTarget::Bus(bus), 0.45).unwrap();
        let arch = b.build().unwrap();
        let alloc = BufferAllocation::uniform(&arch, 12);
        let cfg = SimConfig::new(4000.0, 17);
        let mut favor_p0 = Arbiter::WeightedEffort {
            efforts: vec![vec![0.0, 1.0, 1.0, 1.0], vec![0.0, 0.05, 0.05, 0.05]],
        };
        let r = simulate_with(&arch, &alloc, &mut favor_p0, None, &cfg);
        assert!(
            r.per_queue[0].mean_wait < r.per_queue[1].mean_wait,
            "favored queue should wait less: {} vs {}",
            r.per_queue[0].mean_wait,
            r.per_queue[1].mean_wait
        );
    }

    #[test]
    #[should_panic(expected = "allocation shape mismatch")]
    fn shape_mismatch_panics() {
        let arch = single_queue(1.0, 1.0);
        let other = {
            let mut b = ArchitectureBuilder::new();
            let x = b.add_bus("x", 1.0).unwrap();
            let y = b.add_bus("y", 1.0).unwrap();
            let p = b.add_processor("p", &[x], 1.0).unwrap();
            b.add_bridge("g", x, y).unwrap();
            b.add_flow(p, FlowTarget::Bus(y), 0.1).unwrap();
            b.build().unwrap()
        };
        let alloc = BufferAllocation::uniform(&other, 8);
        simulate(
            &arch,
            &alloc,
            Arbiter::RandomNonempty,
            &SimConfig::new(10.0, 0),
        );
    }

    #[test]
    fn warmup_discards_initial_transient() {
        let arch = single_queue(0.5, 1.0);
        let alloc = BufferAllocation::uniform(&arch, 5);
        let no_warm = SimConfig {
            horizon: 100.0,
            warmup: 0.0,
            seed: 4,
        };
        let with_warm = SimConfig {
            horizon: 100.0,
            warmup: 50.0,
            seed: 4,
        };
        let a = simulate(&arch, &alloc, Arbiter::RandomNonempty, &no_warm);
        let b = simulate(&arch, &alloc, Arbiter::RandomNonempty, &with_warm);
        // Same trajectory, smaller measured window.
        assert!(b.total_offered < a.total_offered);
        assert!(b.measured_time < a.measured_time);
    }
}

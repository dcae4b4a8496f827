use socbuf_soc::{Architecture, BufferAllocation};

use crate::engine::{SimConfig, TimeoutSpec};
use crate::Arbiter;

/// Per-queue counters over the measured window (post-warmup).
///
/// Counts are `f64` so replication averages keep their fractional parts.
///
/// # Measurement convention
///
/// Every counter is keyed on the request's **offer time** at this queue:
/// a request offered (fresh arrival or bridge crossing) after warmup is
/// counted, wherever its later fate falls; a request offered before
/// warmup is invisible to this queue's statistics even if it is served,
/// shed or dropped inside the window. In particular `served` and the
/// waiting-time samples behind `mean_wait` commit *together* at service
/// completion for exactly the counted population, so
/// `lost_full + lost_timeout ≤ offered` and `mean_wait` averages over
/// precisely `served` requests on every window, however short.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueStats {
    /// Requests that attempted to enter this queue (fresh arrivals or
    /// bridge crossings).
    pub offered: f64,
    /// Requests accepted into the buffer.
    pub accepted: f64,
    /// Requests dropped because the buffer was full.
    pub lost_full: f64,
    /// Requests dropped by the timeout policy.
    pub lost_timeout: f64,
    /// Service completions (of requests offered inside the window).
    pub served: f64,
    /// Mean waiting time until service start, averaged over exactly the
    /// `served` population.
    pub mean_wait: f64,
    /// Time-average buffer occupancy.
    pub time_avg_len: f64,
}

/// Per-processor counters, attributed to the *originating* processor as
/// in the paper's Figure 3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Requests generated by this processor's flows.
    pub offered: f64,
    /// Requests lost anywhere along their route (full buffers at the
    /// source, full bridge buffers downstream, or timeouts).
    pub lost: f64,
    /// Requests delivered to their destination.
    pub delivered: f64,
}

/// Result of one simulation run (or an average of several).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Length of the measured window (horizon − warmup).
    pub measured_time: f64,
    /// Stats per queue, indexed by queue position.
    pub per_queue: Vec<QueueStats>,
    /// Stats per processor, indexed by processor position.
    pub per_proc: Vec<ProcStats>,
    /// Total requests generated.
    pub total_offered: f64,
    /// Total requests delivered.
    pub total_delivered: f64,
    /// Total requests lost (all causes).
    pub total_lost: f64,
    /// Residual `offered − delivered − lost`: requests offered inside
    /// the window and still queued or in service at the horizon. All
    /// per-processor counters are keyed on the *fresh-offer* time (see
    /// [`QueueStats`]'s measurement convention), so this is always
    /// non-negative and bounded by the system's storage capacity plus
    /// the number of buses.
    pub in_flight: f64,
}

impl SimReport {
    /// The report of one run over a window of `measured_time`: its
    /// finished per-queue records and its per-processor counters, whose
    /// totals it sums.
    pub(crate) fn new(
        measured_time: f64,
        per_queue: Vec<QueueStats>,
        per_proc: Vec<ProcStats>,
    ) -> Self {
        let total_offered: f64 = per_proc.iter().map(|p| p.offered).sum();
        let total_delivered: f64 = per_proc.iter().map(|p| p.delivered).sum();
        let total_lost: f64 = per_proc.iter().map(|p| p.lost).sum();
        SimReport {
            measured_time,
            per_queue,
            per_proc,
            total_offered,
            total_delivered,
            total_lost,
            in_flight: total_offered - total_delivered - total_lost,
        }
    }

    /// Total loss fraction (lost / offered); `0` when nothing was offered.
    pub fn loss_fraction(&self) -> f64 {
        if self.total_offered <= 0.0 {
            0.0
        } else {
            self.total_lost / self.total_offered
        }
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix on 64-bit words.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The RNG seed of replication `i` under campaign base seed `base`.
///
/// Replication streams must be independent not only *within* one
/// [`replicate`] call but *across* calls with nearby base seeds. The
/// naive `base + i` scheme fails that: replication 1 of base seed 7 is
/// the same simulation as replication 0 of base seed 8, so a sweep that
/// steps its base seed by one per point shares almost all of its
/// supposedly independent replications between adjacent points. Hashing
/// the `(base, i)` pair through two SplitMix64 finalizer rounds makes a
/// collision require a full 64-bit coincidence instead of an arithmetic
/// one.
pub fn replication_seed(base: u64, replication: u64) -> u64 {
    mix64(mix64(base) ^ replication.wrapping_mul(0x9e3779b97f4a7c15))
}

/// The per-replication simulation config [`replicate`] runs: identical
/// to `config` except for the derived [`replication_seed`].
pub fn replication_config(config: &SimConfig, replication: usize) -> SimConfig {
    SimConfig {
        seed: replication_seed(config.seed, replication as u64),
        ..config.clone()
    }
}

/// Runs `n` independent replications (seeds derived per replication by
/// [`replication_seed`]) and returns each report. The paper repeats its
/// experiment 10 times.
pub fn replicate(
    arch: &Architecture,
    alloc: &BufferAllocation,
    arbiter: &Arbiter,
    timeout: Option<&TimeoutSpec>,
    config: &SimConfig,
    n: usize,
) -> Vec<SimReport> {
    (0..n)
        .map(|i| {
            let cfg = replication_config(config, i);
            let mut arb = arbiter.clone();
            crate::simulate_with(arch, alloc, &mut arb, timeout, &cfg)
        })
        .collect()
}

/// Pointwise average of replication reports.
///
/// Counts (`offered`, `served`, losses, …) are plain means across
/// replications. The two *ratio* statistics pool their underlying sums
/// instead: `mean_wait` is weighted by each replication's `served` count
/// and `time_avg_len` by its `measured_time`, which reconstructs
/// `Σ wait / Σ served` and `Σ area / Σ time` over the pooled sample. An
/// unweighted mean would let a replication that served 2 requests pull
/// as hard as one that served 2000 — exactly the bias that skewed
/// [`TimeoutSpec`]`::from_calibration` thresholds.
///
/// # Panics
///
/// Panics if `reports` is empty or shapes differ.
pub fn average_reports(reports: &[SimReport]) -> SimReport {
    assert!(!reports.is_empty(), "no reports to average");
    let n = reports.len() as f64;
    let nq = reports[0].per_queue.len();
    let np = reports[0].per_proc.len();
    let mut avg = SimReport {
        measured_time: 0.0,
        per_queue: vec![QueueStats::default(); nq],
        per_proc: vec![ProcStats::default(); np],
        total_offered: 0.0,
        total_delivered: 0.0,
        total_lost: 0.0,
        in_flight: 0.0,
    };
    // The ratio statistics pool in place: `mean_wait` sums waits and
    // `time_avg_len` sums area until the division below.
    let mut served_sum = vec![0.0; nq];
    let mut time_sum = 0.0;
    for r in reports {
        assert_eq!(r.per_queue.len(), nq, "queue shape mismatch");
        assert_eq!(r.per_proc.len(), np, "processor shape mismatch");
        avg.measured_time += r.measured_time / n;
        avg.total_offered += r.total_offered / n;
        avg.total_delivered += r.total_delivered / n;
        avg.total_lost += r.total_lost / n;
        avg.in_flight += r.in_flight / n;
        time_sum += r.measured_time;
        for ((a, s), served) in avg
            .per_queue
            .iter_mut()
            .zip(&r.per_queue)
            .zip(&mut served_sum)
        {
            a.offered += s.offered / n;
            a.accepted += s.accepted / n;
            a.lost_full += s.lost_full / n;
            a.lost_timeout += s.lost_timeout / n;
            a.served += s.served / n;
            a.mean_wait += s.mean_wait * s.served;
            *served += s.served;
            a.time_avg_len += s.time_avg_len * r.measured_time;
        }
        for (a, p) in avg.per_proc.iter_mut().zip(&r.per_proc) {
            a.offered += p.offered / n;
            a.lost += p.lost / n;
            a.delivered += p.delivered / n;
        }
    }
    for (a, served) in avg.per_queue.iter_mut().zip(served_sum) {
        a.mean_wait = if served > 0.0 {
            a.mean_wait / served
        } else {
            0.0
        };
        a.time_avg_len = if time_sum > 0.0 {
            a.time_avg_len / time_sum
        } else {
            0.0
        };
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbuf_soc::templates;

    #[test]
    fn replicate_produces_distinct_but_deterministic_runs() {
        let arch = templates::amba();
        let alloc = BufferAllocation::uniform(&arch, 21);
        let cfg = SimConfig::new(300.0, 11);
        let a = replicate(&arch, &alloc, &Arbiter::RandomNonempty, None, &cfg, 3);
        let b = replicate(&arch, &alloc, &Arbiter::RandomNonempty, None, &cfg, 3);
        assert_eq!(a, b);
        // Different seeds → (almost surely) different trajectories.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn replicate_runs_architectures_with_extended_semantics() {
        // A bursty flow on a strict-priority bus: the builder accepts it
        // and the pipeline simulates it, so `replicate` must run it too,
        // calibrating a timeout policy off its own average.
        use socbuf_soc::{ArchitectureBuilder, BusArbitration, FlowTarget, TrafficShape};
        let mut b = ArchitectureBuilder::new();
        let bus = b
            .add_bus_with_arbitration("bus", 1.0, BusArbitration::Priority)
            .unwrap();
        let hot = b.add_processor("hot", &[bus], 1.0).unwrap();
        let cold = b.add_processor("cold", &[bus], 1.0).unwrap();
        b.add_flow_shaped(
            hot,
            FlowTarget::Bus(bus),
            0.6,
            TrafficShape::Burst { batch: 4 },
        )
        .unwrap();
        b.add_flow(cold, FlowTarget::Bus(bus), 0.3).unwrap();
        let arch = b.build().unwrap();
        assert!(arch.uses_extended_semantics());
        let alloc = BufferAllocation::uniform(&arch, 8);
        let cfg = SimConfig::new(400.0, 5);
        let base = replicate(&arch, &alloc, &Arbiter::RandomNonempty, None, &cfg, 3);
        let spec = TimeoutSpec::from_calibration(&average_reports(&base));
        let timed = replicate(&arch, &alloc, &Arbiter::FixedSlot, Some(&spec), &cfg, 3);
        for r in base.iter().chain(&timed) {
            assert!(r.total_offered > 0.0);
            assert!(r.total_lost > 0.0, "bursts into 4-unit buffers lose");
            let residual = r.total_offered - r.total_delivered - r.total_lost - r.in_flight;
            assert!(residual.abs() < 1e-9, "requests not conserved: {residual}");
            assert!(r.in_flight >= 0.0);
        }
    }

    #[test]
    fn replication_streams_do_not_overlap_across_base_seeds() {
        // The regression this pins: under `base + i` seeding, replication
        // sets of adjacent base seeds shared all but one member
        // (base 1's runs 1..n were base 2's runs 0..n-1). Every pair of
        // replications across the two campaigns must now be distinct.
        let arch = templates::amba();
        let alloc = BufferAllocation::uniform(&arch, 21);
        let a = replicate(
            &arch,
            &alloc,
            &Arbiter::RandomNonempty,
            None,
            &SimConfig::new(300.0, 1),
            4,
        );
        let b = replicate(
            &arch,
            &alloc,
            &Arbiter::RandomNonempty,
            None,
            &SimConfig::new(300.0, 2),
            4,
        );
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                assert_ne!(
                    ra, rb,
                    "replication {i} of base 1 equals replication {j} of base 2"
                );
            }
        }
        // And the derived seeds themselves are pairwise distinct.
        let mut seeds: Vec<u64> = (0..4)
            .flat_map(|i| [replication_seed(1, i), replication_seed(2, i)])
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "replication seeds collided");
    }

    #[test]
    fn averaging_means_totals() {
        let arch = templates::amba();
        let alloc = BufferAllocation::uniform(&arch, 21);
        let cfg = SimConfig::new(200.0, 5);
        let reports = replicate(&arch, &alloc, &Arbiter::LongestQueue, None, &cfg, 4);
        let avg = average_reports(&reports);
        let manual: f64 = reports.iter().map(|r| r.total_offered).sum::<f64>() / 4.0;
        assert!((avg.total_offered - manual).abs() < 1e-9);
        assert_eq!(avg.per_proc.len(), arch.num_processors());
    }

    #[test]
    #[should_panic(expected = "no reports")]
    fn averaging_empty_panics() {
        average_reports(&[]);
    }

    fn synthetic_report(
        measured_time: f64,
        served: f64,
        mean_wait: f64,
        time_avg_len: f64,
    ) -> SimReport {
        SimReport {
            measured_time,
            per_queue: vec![QueueStats {
                offered: served,
                accepted: served,
                lost_full: 0.0,
                lost_timeout: 0.0,
                served,
                mean_wait,
                time_avg_len,
            }],
            per_proc: vec![ProcStats {
                offered: served,
                lost: 0.0,
                delivered: served,
            }],
            total_offered: served,
            total_delivered: served,
            total_lost: 0.0,
            in_flight: 0.0,
        }
    }

    #[test]
    fn averaging_weights_ratio_statistics_by_sample_size() {
        // Regression for the unweighted replication average: a run that
        // served 2 requests must not pull on `mean_wait` as hard as one
        // that served 2000. The weighted average reconstructs the pooled
        // ratios Σwait/Σserved and Σarea/Σtime.
        let a = synthetic_report(10.0, 2.0, 10.0, 5.0);
        let b = synthetic_report(1000.0, 2000.0, 1.0, 2.0);
        let avg = average_reports(&[a, b]);
        let q = &avg.per_queue[0];
        let pooled_wait = (2.0 * 10.0 + 2000.0 * 1.0) / 2002.0;
        let pooled_len = (5.0 * 10.0 + 2.0 * 1000.0) / 1010.0;
        assert!((q.mean_wait - pooled_wait).abs() < 1e-12, "{}", q.mean_wait);
        assert!(
            (q.time_avg_len - pooled_len).abs() < 1e-12,
            "{}",
            q.time_avg_len
        );
        // The old unweighted means (5.5 and 3.5) sit far from the pooled
        // values — this test fails on that code.
        assert!((q.mean_wait - 5.5).abs() > 1.0);
        assert!((q.time_avg_len - 3.5).abs() > 1.0);
        // Counts stay plain means.
        assert!((q.served - 1001.0).abs() < 1e-12);
        assert!((avg.total_offered - 1001.0).abs() < 1e-12);
    }

    #[test]
    fn averaging_idle_queues_keeps_zero_ratios() {
        let a = synthetic_report(10.0, 0.0, 0.0, 0.0);
        let b = synthetic_report(10.0, 0.0, 0.0, 0.0);
        let avg = average_reports(&[a, b]);
        assert_eq!(avg.per_queue[0].mean_wait, 0.0);
        assert_eq!(avg.per_queue[0].time_avg_len, 0.0);
    }
}

//! The harness every developer probe (`*_probe`) is built on: flag
//! dispatch, best-of and alternated timing, gate accounting and the
//! shared fixtures.
//!
//! A probe's `main` ends in one call, `probe::run(smoke, full)`
//! (after [`crate::ShardProcess::worker_if_asked`] in the probes that
//! spawn shard workers). Without `--smoke` it runs `full`, the
//! human-readable table. With `--smoke` it runs `smoke` against a
//! [`Gate`], prints `smoke OK` when no gate failed, and exits with the
//! failure count, so CI fails on any regression.
//!
//! # Smokes decide from counts
//!
//! Every smoke gate is a [`Gate::check`] on something that does not
//! depend on the host: byte identity, engine agreement, certificates,
//! and exact counts of the work a claim rests on (pivots, multiplier
//! sweeps, cache hits, simulator envelopes, allocations). A smoke
//! therefore gives the same verdict on any host, whatever its core
//! count or load. Wall-time ratios, the parallel ones above all, are
//! printed by the full mode as the median and quartiles of
//! [`RATIO_PAIRS`] alternated pairs ([`alternated_ratio`]); no gate
//! reads them.

use std::fmt::Display;
use std::time::{Duration, Instant};

use socbuf_core::SizingConfig;
use socbuf_soc::{templates, Architecture};

/// Dispatches on the probe's flags: `--smoke` runs `smoke` against a
/// fresh [`Gate`] and exits with its failure count (see
/// [`Gate::finish`]); otherwise `full` runs and the probe returns.
pub fn run(smoke: impl FnOnce(&mut Gate), full: impl FnOnce()) {
    if !flag("--smoke") {
        full();
        return;
    }
    let mut gate = Gate::new();
    smoke(&mut gate);
    std::process::exit(gate.finish());
}

/// Whether `name` is among the probe's command-line arguments.
pub fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// A smoke run's failure count. Every failed gate prints one
/// `SMOKE FAIL: …` line on stderr.
#[derive(Debug, Default)]
pub struct Gate {
    failures: usize,
}

impl Gate {
    /// A gate with no failures.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Failures recorded so far.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Records a failure.
    pub fn fail(&mut self, msg: impl Display) {
        eprintln!("SMOKE FAIL: {msg}");
        self.failures += 1;
    }

    /// Records a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, msg: impl Display) -> bool {
        if !ok {
            self.fail(msg);
        }
        ok
    }

    /// Prints `smoke OK` when nothing failed and returns the exit code:
    /// the failure count, capped at 255 so it never wraps to success.
    pub fn finish(&self) -> i32 {
        if self.failures == 0 {
            println!("smoke OK");
        }
        self.failures.min(255) as i32
    }
}

/// Runs `f` `repeats` times (at least once) and returns the value and
/// wall time of the fastest run; `best_of(1, f)` times a single run.
pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best: Option<(T, Duration)> = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let value = f();
        let time = t.elapsed();
        if best.as_ref().is_none_or(|(_, b)| time < *b) {
            best = Some((value, time));
        }
    }
    best.expect("at least one run")
}

/// `a / b` as a speed ratio, safe against a zero `b`.
pub fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-12)
}

/// How many alternated pairs a full-mode wall-time ratio is measured
/// over.
pub const RATIO_PAIRS: usize = 5;

/// The median and quartiles of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples` (at least one), each quantile linearly
    /// interpolated between the order statistics around it.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

impl Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}x (quartiles {:.2}-{:.2})",
            self.median, self.q1, self.q3
        )
    }
}

/// Times `a` and `b` over `pairs` pairs (at least one), alternating
/// which of the two runs first so neither always inherits the other's
/// warm caches, and returns the spread of the per-pair speed ratio
/// `time(a) / time(b)`.
pub fn alternated_ratio(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Spread {
    let ratios: Vec<f64> = (0..pairs.max(1))
        .map(|pair| {
            let (ta, tb) = if pair % 2 == 0 {
                let ta = best_of(1, &mut a).1;
                (ta, best_of(1, &mut b).1)
            } else {
                let tb = best_of(1, &mut b).1;
                (best_of(1, &mut a).1, tb)
            };
            ratio(ta, tb)
        })
        .collect();
    Spread::of(&ratios)
}

/// Exits the probe with status 2 and `what: <error>` on stderr when a
/// step the gates depend on fails outright.
pub trait OrExit<T> {
    /// The value, or the exit.
    fn or_exit(self, what: impl Display) -> T;
}

impl<T, E: Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, what: impl Display) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("{what}: {e}");
            std::process::exit(2);
        })
    }
}

/// The sizing granularity of the `network_processor` smoke gates:
/// heavy enough per point that warm starts, cache hits and fan-out are
/// measurable, light enough for CI.
pub fn smoke_sizing() -> SizingConfig {
    SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    }
}

/// The four named templates, smallest first.
pub fn named_templates() -> [(&'static str, Architecture); 4] {
    [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
        ("network_processor", templates::network_processor()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_and_fail_count_toward_the_exit_code() {
        let mut gate = Gate::new();
        assert!(gate.check(true, "fine"));
        assert_eq!(gate.finish(), 0);
        assert!(!gate.check(false, "broken"));
        gate.fail("also broken");
        assert_eq!(gate.finish(), 2);
        for _ in 0..300 {
            gate.fail("many");
        }
        assert_eq!(gate.finish(), 255, "a large count must not wrap to 0");
    }

    #[test]
    fn best_of_returns_the_fastest_runs_value() {
        let mut run = 0;
        let (value, time) = best_of(3, || {
            run += 1;
            if run != 2 {
                std::thread::sleep(Duration::from_millis(30));
            }
            run
        });
        assert_eq!((value, run), (2, 3));
        assert!(time < Duration::from_millis(30));
    }

    #[test]
    fn best_of_runs_once_at_zero_repeats() {
        let mut runs = 0;
        let (value, _) = best_of(0, || {
            runs += 1;
            "ran"
        });
        assert_eq!((value, runs), ("ran", 1));
    }

    #[test]
    fn spread_interpolates_the_quartiles() {
        let five = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((five.q1, five.median, five.q3), (2.0, 3.0, 4.0));
        let four = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((four.q1, four.median, four.q3), (1.75, 2.5, 3.25));
        let one = Spread::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(five.to_string(), "3.00x (quartiles 2.00-4.00)");
    }

    #[test]
    fn alternated_ratio_swaps_the_order_every_pair() {
        let order = std::cell::RefCell::new(String::new());
        alternated_ratio(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "abbaabba");
    }

    #[test]
    fn alternated_ratio_divides_the_first_runs_time_by_the_seconds() {
        let slow = alternated_ratio(
            RATIO_PAIRS,
            || std::thread::sleep(Duration::from_millis(20)),
            || {},
        );
        assert!(slow.q1 > 1.0, "{slow}");
        assert!(slow.q1 <= slow.median && slow.median <= slow.q3);
        let fast = alternated_ratio(0, || {}, || std::thread::sleep(Duration::from_millis(20)));
        assert!(fast.q3 < 1.0, "one pair at zero: {fast}");
    }
}

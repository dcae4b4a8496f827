//! The harness every developer probe (`*_probe`) is built on: flag
//! dispatch, best-of timing, gate accounting and the shared fixtures.
//!
//! A probe's `main` ends in one call, `probe::run(smoke, full)`
//! (after [`crate::ShardProcess::worker_if_asked`] in the probes that
//! spawn shard workers). Without `--smoke` it runs `full`, the
//! human-readable table. With `--smoke` it runs `smoke` against a
//! [`Gate`], prints `smoke OK` when no gate failed, and exits with the
//! failure count, so CI fails on any regression.
//!
//! # The single-core skip policy
//!
//! Correctness gates (byte identity, engine agreement, certificates)
//! hold everywhere and use [`Gate::check`]. Wall-time gates that need
//! parallelism to win, or that shared single-core runners are too noisy
//! to judge even at best of several repeats, use [`Gate::timed`]: it
//! is enforced on hosts with ≥ 2 cores and prints one
//! `<gate> gate SKIPPED: single-core host (…)` line otherwise. Ratio
//! gates between two runs on the same host that are robust to runner
//! speed (`actor_probe`'s slowdown bound, `lp_scaling_probe`'s 1.15×
//! margin) stay [`Gate::check`]s.

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
#[derive(Debug)]
pub struct Gate {
    cores: usize,
    failures: usize,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate::new()
    }
}

impl Gate {
    /// A gate with no failures, keyed to this host's core count.
    pub fn new() -> Gate {
        Gate::on(crate::cores())
    }

    fn on(cores: usize) -> Gate {
        Gate { cores, failures: 0 }
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

    /// The wall-time gate `name`: a [`Gate::check`] whose failure names
    /// the host's core count, on hosts with ≥ 2 cores. On one core it
    /// records nothing and prints a `SKIPPED` line (see the module
    /// docs).
    pub fn timed(&mut self, name: &str, ok: bool, msg: impl Display) {
        if self.cores < 2 {
            println!("{name} gate SKIPPED: single-core host (every other gate still enforced)");
        } else {
            let cores = self.cores;
            self.check(ok, format_args!("{msg} on a {cores}-core host"));
        }
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
    fn timed_fails_on_two_cores_and_only_skips_on_one() {
        let mut multi = Gate::on(2);
        multi.timed("speedup", false, "too slow");
        multi.timed("speedup", true, "fast enough");
        assert_eq!(multi.finish(), 1);

        let mut single = Gate::on(1);
        single.timed("speedup", false, "too slow");
        assert_eq!(single.finish(), 0);
        single.check(false, "bytes differ");
        assert_eq!(single.finish(), 1, "only the timed gate skips");
    }

    #[test]
    fn check_and_fail_count_toward_the_exit_code() {
        let mut gate = Gate::on(2);
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
}

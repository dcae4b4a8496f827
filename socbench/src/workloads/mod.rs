//! The workloads and what they hand back to the driver loop in
//! `main.rs`.

pub mod policy;
pub mod serve;
pub mod size_cold;
pub mod sweep;

use std::time::{Duration, Instant};

use crate::stats::Tally;
use crate::trace::{Span, Tracer, ROOT};

/// What an untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// Operations attempted and failed (checks included).
    pub tally: Tally,
    /// Latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The tail percentile this workload reports when the samples
    /// support it.
    pub wanted_tail: f64,
    /// Work items per second of operation time.
    pub throughput_per_s: f64,
    /// The reference clock's mean and median slowdown over the
    /// measurement.
    pub slowdown: (f64, f64),
    /// What one timed operation is called in the latency aliases
    /// (`size` gives `size_p50_ms`).
    pub op_name: &'static str,
    /// The throughput under its workload-specific name, printed in the
    /// header line.
    pub aliases: Vec<(&'static str, f64)>,
}

/// What a traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// Operations attempted and failed, untraced and traced.
    pub tally: Tally,
    /// Spans of the traced operations.
    pub spans: Vec<Span>,
    /// Time inside the traced operations, replays excluded.
    pub traced_ns: u64,
    /// Time inside the same operations run untraced.
    pub untraced_ns: u64,
    /// Operations run each way.
    pub ops: u64,
    /// Workload-specific per-layer metrics.
    pub layer: Vec<(&'static str, f64)>,
}

/// Operations run untraced and traced in alternation, so both modes
/// meet the same machine conditions and the difference in their times
/// is the tracing overhead.
#[derive(Debug)]
pub struct Pairs {
    off: Tracer,
    tally: Tally,
    untraced_ns: u64,
    traced_ns: u64,
    /// Operations run traced.
    pub ops: u64,
}

impl Pairs {
    /// No operations yet.
    pub fn new() -> Pairs {
        Pairs {
            off: Tracer::new(false),
            tally: Tally::default(),
            untraced_ns: 0,
            traced_ns: 0,
            ops: 0,
        }
    }

    /// Runs operation `id` untraced, then traced under `on` inside a
    /// root span `root_name`. `op(tracer, root)` returns whether the
    /// operation answered correctly.
    pub fn pair(
        &mut self,
        on: &Tracer,
        root_name: &'static str,
        id: u64,
        mut op: impl FnMut(&Tracer, u64) -> bool,
    ) {
        self.untraced(&mut op);
        self.traced(on, root_name, id, op);
    }

    /// Runs one operation untraced.
    pub fn untraced(&mut self, mut op: impl FnMut(&Tracer, u64) -> bool) {
        let t = Instant::now();
        let ok = op(&self.off, ROOT);
        self.untraced_ns += t.elapsed().as_nanos() as u64;
        self.tally.record(ok);
    }

    /// Runs one operation traced; replays are not counted as time.
    pub fn traced(
        &mut self,
        on: &Tracer,
        root_name: &'static str,
        id: u64,
        mut op: impl FnMut(&Tracer, u64) -> bool,
    ) {
        let replayed = on.replay_ns();
        let t = Instant::now();
        let ok = on.span(root_name, id, ROOT, |root| op(on, root));
        let replay = on.replay_ns() - replayed;
        self.traced_ns += (t.elapsed().as_nanos() as u64).saturating_sub(replay);
        self.tally.record(ok);
        self.ops += 1;
    }

    /// Operations attempted, untraced and traced.
    pub fn attempted(&self) -> u64 {
        self.tally.attempted
    }

    /// Adds another set of pairs (another connection's).
    pub fn merge(&mut self, other: Pairs) {
        self.tally.merge(other.tally);
        self.untraced_ns += other.untraced_ns;
        self.traced_ns += other.traced_ns;
        self.ops += other.ops;
    }

    /// The traced run: these pairs, their spans and the workload's own
    /// per-layer metrics.
    pub fn into_traced(self, spans: Vec<Span>, layer: Vec<(&'static str, f64)>) -> Traced {
        Traced {
            tally: self.tally,
            spans,
            traced_ns: self.traced_ns,
            untraced_ns: self.untraced_ns,
            ops: self.ops,
            layer,
        }
    }
}

/// Pairs operations `0, 1, …` of a single caller until `budget` has
/// passed; returns the pairs and the spans recorded.
pub fn paired(
    budget: Duration,
    root_name: &'static str,
    mut op: impl FnMut(u64, &Tracer, u64) -> bool,
) -> (Pairs, Vec<Span>) {
    let on = Tracer::new(true);
    let mut pairs = Pairs::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let id = pairs.ops;
        pairs.pair(&on, root_name, id, |tracer, root| op(id, tracer, root));
    }
    (pairs, on.into_spans())
}

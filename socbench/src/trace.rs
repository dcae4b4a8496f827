//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Two kinds exist:
//!
//! * **timed** spans sit on the wall-clock timeline: name, start, end,
//!   parent, operation id;
//! * **estimates** carry a duration but no position. They split a timed
//!   parent whose inside the benchmark cannot reach: a replay of the
//!   inner call on the same input (the LP solve inside
//!   `SizingLp::solve_with_options`), or a duration the server reports
//!   in its reply `Trace`. An estimate takes its time out of the
//!   parent's self time and gives it to its own layer.
//!
//! Replays run outside the measured timeline: the recorder keeps their
//! total in [`Tracer::replay_ns`] so the caller can subtract it from the
//! traced wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Id of "no parent" (an operation's root span has this parent).
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u64,
    /// Enclosing span, or [`ROOT`].
    pub parent: u64,
    /// The benchmark operation the span belongs to.
    pub op: u64,
    /// `layer.call`, e.g. `core.build`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started (`end - start` is the
    /// duration for estimates too, which start at 0).
    pub end_ns: u64,
    /// Whether this is an estimate rather than a timed span.
    pub estimate: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) a span is charged to: the name's prefix, with
    /// the wire codec counted inside `core`, where it lives.
    pub fn layer(&self) -> &'static str {
        let prefix = self.name.split('.').next().unwrap_or(self.name);
        match prefix {
            "wire" => "core",
            other => other,
        }
    }
}

/// The recorder. Disabled recorders run every closure untouched and
/// record nothing, so the same operation code serves both passes.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    replay_ns: AtomicU64,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            replay_ns: AtomicU64::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a timed span; `f` receives the span's id so it
    /// can parent children.
    pub fn span<R>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            estimate: false,
        });
        out
    }

    /// Records an estimate of `dur` inside `parent` and returns its id
    /// ([`ROOT`] on a disabled recorder).
    pub fn estimate(&self, name: &'static str, op: u64, parent: u64, dur: Duration) -> u64 {
        if !self.on {
            return ROOT;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: 0,
            end_ns: dur.as_nanos() as u64,
            estimate: true,
        });
        id
    }

    /// Runs `f` off the measured timeline (only when recording) and
    /// records its duration as an estimate inside `parent`. Returns the
    /// result with the estimate's id (a parent for finer replays), or
    /// `None` on a disabled recorder, which skips the replay.
    pub fn replay<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> Option<(R, u64)> {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        self.replay_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        Some((out, self.estimate(name, op, parent, dur)))
    }

    /// Total time spent in replays.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns.load(Ordering::Relaxed)
    }

    /// The recorded spans, sorted by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span list poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total length of the union of `intervals`.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span, indexed like `spans`: a span's duration
/// minus the part of it its timed children cover (children on several
/// threads may overlap; their union counts once) minus its estimates.
/// Never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut estimated: Vec<u64> = vec![0; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if s.estimate {
                estimated[p] += s.dur_ns();
            } else {
                let parent = &spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = union_ns(&mut children[i]);
            s.dur_ns()
                .saturating_sub(covered)
                .saturating_sub(estimated[i])
        })
        .collect()
}

/// Time covered by named layer spans: per operation, the union of its
/// timed spans other than the operation root (`op.*`), summed over
/// operations. Operations on different threads may overlap in time;
/// each counts against its own duration.
pub fn attributed_ns(spans: &[Span]) -> u64 {
    let mut by_op: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if !s.estimate && !s.name.starts_with("op.") {
            by_op.entry(s.op).or_default().push((s.start_ns, s.end_ns));
        }
    }
    by_op.values_mut().map(|v| union_ns(v)).sum()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"estimate\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.estimate
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            estimate: false,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            timed(1, ROOT, "core.solve", 0, 100),
            timed(2, 1, "lp.solve", 10, 40),
            timed(3, 1, "lp.solve", 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two replications running in parallel on two threads.
        let spans = vec![
            timed(1, ROOT, "core.evaluate", 0, 100),
            timed(2, 1, "sim.legacy_rep", 0, 60),
            timed(3, 1, "sim.legacy_rep", 20, 90),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn estimates_move_time_to_their_layer() {
        let mut spans = vec![timed(1, ROOT, "core.solve", 0, 100)];
        spans.push(Span {
            id: 2,
            parent: 1,
            op: 1,
            name: "lp.solve",
            start_ns: 0,
            end_ns: 70,
            estimate: true,
        });
        assert_eq!(self_times(&spans), vec![30, 70]);
        assert_eq!(spans[1].layer(), "lp");
        // An estimate larger than its parent clamps the parent at 0.
        spans[1].end_ns = 130;
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            timed(1, ROOT, "serve.round_trip", 10, 20),
            timed(2, 1, "wire.decode", 15, 40),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn attribution_skips_operation_roots() {
        let spans = vec![
            timed(1, ROOT, "op.size", 0, 100),
            timed(2, 1, "core.build", 0, 30),
            timed(3, 1, "core.solve", 30, 90),
        ];
        assert_eq!(attributed_ns(&spans), 90);
    }

    #[test]
    fn concurrent_operations_are_attributed_separately() {
        let mut spans = vec![
            timed(1, ROOT, "op.request", 0, 100),
            timed(2, 1, "serve.round_trip", 0, 80),
        ];
        let mut other = timed(4, 3, "serve.round_trip", 10, 60);
        other.op = 2;
        spans.push(other);
        assert_eq!(attributed_ns(&spans), 80 + 50);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_skips_replays() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.build", 1, ROOT, |id| id + 5), 5);
        assert_eq!(t.replay("lp.solve", 1, ROOT, || 3), None);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_accounts_replays() {
        let t = Tracer::new(true);
        t.span("op.size", 7, ROOT, |root| {
            t.span("core.solve", 7, root, |id| {
                let (out, lp) = t.replay("lp.solve", 7, id, || 1).expect("recording");
                assert_eq!(out, 1);
                t.replay("lp.assemble", 7, lp, || ());
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].name, "core.solve");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[2].estimate && spans[2].parent == spans[1].id);
        assert!(spans[3].estimate && spans[3].parent == spans[2].id);
        // A finer replay comes out of the coarser one's self time.
        let own = self_times(&spans);
        assert_eq!(own[2], spans[2].dur_ns().saturating_sub(spans[3].dur_ns()));
    }
}

//! Structured sweep results: per-point records, Pareto-frontier
//! extraction, and deterministic CSV / JSON / JSON-lines rendering.
//!
//! Every float in every renderer goes through the workspace's one
//! shared number writer, [`socbuf_core::wire::num`]: finite
//! values render via `f64`'s `Display` (shortest round-trip decimal),
//! so two reports with bit-identical numbers serialize to
//! byte-identical text — the property the determinism suite compares —
//! and **non-finite values render as `null`**, so a `NaN` loss from a
//! degenerate point can no longer corrupt a JSON-lines document with a
//! bare `NaN`/`inf` token (which is not JSON). CSV cells use the same
//! writer, so a non-finite float reads `null` there too.

use std::fmt::{self, Display, Write as _};

#[cfg(test)]
use socbuf_core::wire::JsonValue;
use socbuf_core::wire::{num, JsonRead, ManifestShape, ObjWriter, WireError};

use crate::stream::ReportStream;

/// Which campaign produced a report (decides the Pareto cost axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Budget grid on one architecture: cost = budget.
    Budget,
    /// Load-factor grid on one architecture: cost = −load factor (more
    /// load carried at equal loss is better).
    Load,
    /// Random-architecture fan-out: cost = −total offered rate.
    Random,
}

impl SweepKind {
    /// Stable lowercase tag used in rendered output.
    pub fn tag(&self) -> &'static str {
        match self {
            SweepKind::Budget => "budget",
            SweepKind::Load => "load",
            SweepKind::Random => "random",
        }
    }

    /// Parses the stable tag back ([`SweepKind::tag`]'s inverse);
    /// `None` for unknown tags.
    pub fn from_tag(tag: &str) -> Option<SweepKind> {
        match tag {
            "budget" => Some(SweepKind::Budget),
            "load" => Some(SweepKind::Load),
            "random" => Some(SweepKind::Random),
            _ => None,
        }
    }

    /// The kind of campaign `shape` describes.
    pub fn of(shape: &ManifestShape) -> SweepKind {
        SweepKind::from_tag(shape.kind_tag()).expect("manifest kind tags mirror SweepKind")
    }
}

/// Simulated policy-comparison summary attached to a point when the
/// campaign also re-simulates (the paper's step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Constant-sizing baseline loss (averaged over replications).
    pub pre_loss: f64,
    /// CTMDP-sized loss.
    pub post_loss: f64,
    /// Timeout-policy loss.
    pub timeout_loss: f64,
    /// Relative loss reduction vs the constant baseline.
    pub improvement_vs_pre: f64,
}

/// One sizing problem solved by a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the campaign's work list (also the tie-breaking key
    /// everywhere, so reports are independent of scheduling).
    pub index: usize,
    /// Total buffer budget of this point.
    pub budget: usize,
    /// λ multiplier relative to the nominal architecture (`1` when the
    /// campaign does not scale load).
    pub load_factor: f64,
    /// Seed of the random architecture (random campaigns only).
    pub arch_seed: Option<u64>,
    /// Queue count of the sized architecture.
    pub queues: usize,
    /// Total offered traffic (Σ λ) of the sized architecture.
    pub offered_rate: f64,
    /// LP-predicted weighted loss rate.
    pub predicted_loss: f64,
    /// Shadow price of the buffer-budget row (≤ 0).
    pub shadow_price: f64,
    /// Whether the LP budget row had to be relaxed.
    pub budget_row_relaxed: bool,
    /// Simplex pivots used by the joint LP. **Trace-only**: carried on
    /// the struct for in-process diagnostics (bench probes, serve
    /// traces) but excluded from every rendered form — CSV, JSONL,
    /// chunk wire — because pivot counts vary with warm-start seeding
    /// and chunk boundaries while the solution does not. Keeping them
    /// out of the bytes is what lets coarsely chunked and seeded
    /// executions render byte-identically to the defaults.
    pub lp_iterations: usize,
    /// Integer buffer allocation (queue order).
    pub allocation: Vec<usize>,
    /// Simulation summary, when the campaign re-simulated the point.
    pub sim: Option<SimSummary>,
}

impl SweepPoint {
    /// Loss coordinate used for frontier extraction: the simulated
    /// post-sizing loss when the campaign simulated, else the
    /// LP-predicted loss rate.
    ///
    /// The distinction matters for budget sweeps: the joint LP's
    /// occupancy-budget row is either slack or infeasible-and-relaxed
    /// across almost the whole budget axis, so the *predicted* loss is
    /// nearly budget-flat by construction — the budget buys losses back
    /// through the translated integer allocation, which only the
    /// re-simulation (the paper's step 4) observes.
    pub fn effective_loss(&self) -> f64 {
        match &self.sim {
            Some(s) => s.post_loss,
            None => self.predicted_loss,
        }
    }
}

/// A campaign's complete, index-ordered result set.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Which campaign shape produced the points.
    pub kind: SweepKind,
    /// One record per work item, in work-list order.
    pub points: Vec<SweepPoint>,
}

/// Pareto cost of a point under `kind`: lower is better at equal loss.
pub(crate) fn cost_of(kind: SweepKind, p: &SweepPoint) -> f64 {
    match kind {
        SweepKind::Budget => p.budget as f64,
        SweepKind::Load => -p.load_factor,
        SweepKind::Random => -p.offered_rate,
    }
}

impl SweepReport {
    /// Indices of the Pareto-efficient points of the loss-vs-cost
    /// trade-off, in increasing cost order.
    ///
    /// A point is kept iff no other point has both lower-or-equal cost
    /// and lower-or-equal [`SweepPoint::effective_loss`] (with at least
    /// one strict).
    ///
    /// **Tie rule:** points with *exactly* equal (bitwise `f64`-equal)
    /// cost and effective loss dominate each other only vacuously, so
    /// **all** of them are flagged as frontier members, ordered by
    /// index. (Before this rule only the lowest-index duplicate was
    /// kept, which made the rendered `frontier` column silently hide
    /// equivalent allocations — two budgets reaching the same loss are
    /// both worth reporting.) Ties at *different* costs still resolve
    /// in favor of the cheaper point.
    ///
    /// The extraction runs the streaming dominance pass of
    /// [`crate::stream::FrontierTracker`] — the same one the
    /// incremental renderers use, so batch and streamed flags cannot
    /// diverge — which keeps only the current frontier staircase
    /// resident and reproduces the historical sort-and-scan exactly
    /// (the scan survives as the executable specification in the
    /// `stream` module's tests). Membership depends only on each
    /// point's `(cost, loss, position)`, so it inherits the campaign's
    /// scheduling independence.
    pub fn pareto_frontier(&self) -> Vec<usize> {
        let mut tracker = crate::stream::FrontierTracker::new();
        for (i, p) in self.points.iter().enumerate() {
            tracker.observe(cost_of(self.kind, p), p.effective_loss(), i);
        }
        let index = tracker.finish();
        let mut frontier: Vec<usize> = (0..self.points.len())
            .filter(|&i| {
                let p = &self.points[i];
                index.is_frontier(cost_of(self.kind, p), p.effective_loss(), i)
            })
            .collect();
        // The historical scan reported members in kept order:
        // increasing cost, then loss, then position.
        frontier.sort_by(|&a, &b| {
            let (pa, pb) = (&self.points[a], &self.points[b]);
            cost_of(self.kind, pa)
                .total_cmp(&cost_of(self.kind, pb))
                .then(pa.effective_loss().total_cmp(&pb.effective_loss()))
                .then(a.cmp(&b))
        });
        frontier
    }

    /// CSV rendering: header plus one line per point, allocation joined
    /// with `|`, empty cells for absent optionals, `frontier` flagging
    /// membership in [`SweepReport::pareto_frontier`]. Floats go
    /// through the shared wire writer, so non-finite values read
    /// `null` instead of `NaN`/`inf`.
    ///
    /// A thin wrapper over the incremental
    /// [`crate::stream::ReportStream`] writer, so batch and streamed
    /// CSV bytes are identical by construction.
    pub fn to_csv(&self) -> String {
        self.render(ReportStream::csv(self.kind, Vec::new()))
    }

    /// JSON-lines rendering: one self-contained object per point. Every
    /// line parses as valid JSON even when a point carries non-finite
    /// floats (they render as `null`).
    ///
    /// A thin wrapper over the incremental
    /// [`crate::stream::ReportStream`] writer, so batch and streamed
    /// JSONL bytes are identical by construction.
    pub fn to_jsonl(&self) -> String {
        self.render(ReportStream::jsonl(self.kind, Vec::new()))
    }

    /// Every point through `stream`, as the rendered text.
    fn render(&self, mut stream: ReportStream<Vec<u8>>) -> String {
        for p in &self.points {
            stream.push(p).expect("in-memory stream cannot fail");
        }
        let (buf, _) = stream.finish().expect("in-memory stream cannot fail");
        String::from_utf8(buf).expect("renderers emit UTF-8")
    }

    /// Single-document rendering: the whole report as one JSON object,
    /// `{"kind":…,"points":[…]}`, with the same per-point objects as
    /// [`SweepReport::to_jsonl`].
    pub fn to_json(&self) -> String {
        let points = self.points.iter().zip(self.frontier_mask());
        ObjWriter::render(|w| {
            w.str("kind", self.kind.tag())
                .list("points", points, |out, (p, flag)| {
                    push_point_json(out, self.kind, p, Some(flag))
                });
        })
    }

    /// A fixed-width text table of the Pareto frontier (budget, loss,
    /// shadow price per frontier point) — what the frontier example
    /// prints. The `loss` column is [`SweepPoint::effective_loss`].
    pub fn frontier_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>14} {:>14} {:>10}",
            "point", "budget", "load_factor", "loss", "shadow"
        );
        for i in self.pareto_frontier() {
            let p = &self.points[i];
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>14.3} {:>14.6e} {:>10.4}",
                p.index,
                p.budget,
                p.load_factor,
                p.effective_loss(),
                p.shadow_price
            );
        }
        out
    }

    fn frontier_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.points.len()];
        for i in self.pareto_frontier() {
            mask[i] = true;
        }
        mask
    }
}

/// Displays what its closure writes, in place: a rendered point
/// formats each number and list straight into its output.
struct Show<F>(F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> Display for Show<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
    }
}

/// `xs` separated by `sep`.
fn join<'x>(xs: &'x [usize], sep: &'x str) -> impl Display + 'x {
    Show(move |f: &mut fmt::Formatter<'_>| {
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                f.write_str(sep)?;
            }
            write!(f, "{x}")?;
        }
        Ok(())
    })
}

/// The CSV header line shared by the batch and streaming renderers.
pub(crate) fn csv_header() -> &'static str {
    "index,kind,budget,load_factor,arch_seed,queues,offered_rate,predicted_loss,\
     shadow_price,budget_row_relaxed,allocation,frontier,\
     pre_loss,post_loss,timeout_loss,improvement_vs_pre\n"
}

/// Appends the CSV cells preceding the `frontier` flag (trailing comma
/// included). Split from [`push_csv_suffix`] so the streaming renderer
/// can spool both halves before the global frontier is known.
pub(crate) fn push_csv_prefix(out: &mut String, kind: SweepKind, p: &SweepPoint) {
    let seed = p.arch_seed.map(|s| s.to_string()).unwrap_or_default();
    let alloc = join(&p.allocation, "|");
    let _ = write!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{},",
        p.index,
        kind.tag(),
        p.budget,
        num(p.load_factor),
        seed,
        p.queues,
        num(p.offered_rate),
        num(p.predicted_loss),
        num(p.shadow_price),
        p.budget_row_relaxed,
        alloc,
    );
}

/// Appends the CSV cells following the `frontier` flag (the simulation
/// columns, empty when absent), newline included.
pub(crate) fn push_csv_suffix(out: &mut String, p: &SweepPoint) {
    match &p.sim {
        Some(s) => {
            let _ = writeln!(
                out,
                ",{},{},{},{}",
                num(s.pre_loss),
                num(s.post_loss),
                num(s.timeout_loss),
                num(s.improvement_vs_pre)
            );
        }
        None => out.push_str(",,,,\n"),
    }
}

/// Appends the JSON object fields preceding the optional `frontier`
/// flag — everything through the `allocation` array, unterminated.
pub(crate) fn push_json_prefix(out: &mut String, kind: SweepKind, p: &SweepPoint) {
    let _ = write!(
        out,
        "{{\"index\":{},\"kind\":\"{}\",\"budget\":{},\"load_factor\":{},",
        p.index,
        kind.tag(),
        p.budget,
        num(p.load_factor)
    );
    match p.arch_seed {
        Some(s) => {
            let _ = write!(out, "\"arch_seed\":{s},");
        }
        None => out.push_str("\"arch_seed\":null,"),
    }
    let _ = write!(
        out,
        "\"queues\":{},\"offered_rate\":{},\"predicted_loss\":{},\
         \"shadow_price\":{},\"budget_row_relaxed\":{},\
         \"allocation\":[{}]",
        p.queues,
        num(p.offered_rate),
        num(p.predicted_loss),
        num(p.shadow_price),
        p.budget_row_relaxed,
        join(&p.allocation, ","),
    );
}

/// Appends the JSON object fields following the optional `frontier`
/// flag (the `sim` field) and closes the object.
pub(crate) fn push_json_suffix(out: &mut String, p: &SweepPoint) {
    match &p.sim {
        Some(s) => {
            let _ = write!(
                out,
                ",\"sim\":{{\"pre_loss\":{},\"post_loss\":{},\"timeout_loss\":{},\
                 \"improvement_vs_pre\":{}}}}}",
                num(s.pre_loss),
                num(s.post_loss),
                num(s.timeout_loss),
                num(s.improvement_vs_pre)
            );
        }
        None => out.push_str(",\"sim\":null}"),
    }
}

/// Appends one point as a self-contained JSON object. `frontier: None`
/// omits the flag entirely — the form chunk reports carry, because the
/// frontier is a global property of the merged report that no single
/// chunk can know; the reducer re-renders with `Some(flag)` computed
/// over the full point set.
pub(crate) fn push_point_json(
    out: &mut String,
    kind: SweepKind,
    p: &SweepPoint,
    frontier: Option<bool>,
) {
    push_json_prefix(out, kind, p);
    if let Some(flag) = frontier {
        let _ = write!(out, ",\"frontier\":{flag}");
    }
    push_json_suffix(out, p);
}

/// Parses a point object (either form — a stray `frontier` flag is
/// tolerated here and simply dropped; the chunk-report codec rejects it
/// earlier, at the framing layer, where it is actually illegal).
///
/// The parse inverts [`push_point_json`] exactly: every float survives
/// bit-for-bit (shortest-round-trip rendering), `null` floats come back
/// as `NaN`, so `render ∘ parse ∘ render = render` — the identity the
/// byte-identical merge rests on. `lp_iterations` is not on the wire
/// (it is trace-only; see [`SweepPoint::lp_iterations`]), so parsed
/// points carry a zero count and payloads from the era that rendered
/// it are rejected by name.
pub(crate) fn sweep_point_from_json<'a>(
    v: impl JsonRead<'a>,
    expect_kind: SweepKind,
) -> Result<SweepPoint, WireError> {
    let f = v.fields(
        "point",
        &[
            "index",
            "kind",
            "budget",
            "load_factor",
            "arch_seed",
            "queues",
            "offered_rate",
            "predicted_loss",
            "shadow_price",
            "budget_row_relaxed",
            "allocation",
            "frontier",
            "sim",
        ],
    )?;
    let kind = f.str("kind")?;
    if SweepKind::from_tag(kind) != Some(expect_kind) {
        return Err(WireError::Schema(format!(
            "point: kind \"{kind}\" does not match the campaign kind \"{}\"",
            expect_kind.tag()
        )));
    }
    let arch_seed = f.nullable("arch_seed")?;
    let arch_seed = arch_seed.map(|s| s.u64("arch_seed")).transpose()?;
    let allocation = f.list("allocation", |u| u.usize("allocation unit"))?;
    let sim = match f.nullable("sim")? {
        None => None,
        Some(s) => {
            let s = s.fields(
                "sim",
                &[
                    "pre_loss",
                    "post_loss",
                    "timeout_loss",
                    "improvement_vs_pre",
                ],
            )?;
            Some(SimSummary {
                pre_loss: s.f64("pre_loss")?,
                post_loss: s.f64("post_loss")?,
                timeout_loss: s.f64("timeout_loss")?,
                improvement_vs_pre: s.f64("improvement_vs_pre")?,
            })
        }
    };
    Ok(SweepPoint {
        index: f.usize("index")?,
        budget: f.usize("budget")?,
        load_factor: f.f64("load_factor")?,
        arch_seed,
        queues: f.usize("queues")?,
        offered_rate: f.f64("offered_rate")?,
        predicted_loss: f.f64("predicted_loss")?,
        shadow_price: f.f64("shadow_price")?,
        budget_row_relaxed: f.bool("budget_row_relaxed")?,
        lp_iterations: 0,
        allocation,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: usize, budget: usize, loss: f64) -> SweepPoint {
        SweepPoint {
            index,
            budget,
            load_factor: 1.0,
            arch_seed: None,
            queues: 3,
            offered_rate: 0.5,
            predicted_loss: loss,
            shadow_price: -0.01,
            budget_row_relaxed: false,
            lp_iterations: 10,
            allocation: vec![1, 1, budget - 2],
            sim: None,
        }
    }

    fn report(points: Vec<SweepPoint>) -> SweepReport {
        SweepReport {
            kind: SweepKind::Budget,
            points,
        }
    }

    #[test]
    fn frontier_keeps_only_strict_improvements() {
        // budget 10 → loss 0.5, 12 → 0.5 (no better), 14 → 0.2, 16 → 0.3
        // (worse than 14 at higher cost).
        let r = report(vec![
            point(0, 10, 0.5),
            point(1, 12, 0.5),
            point(2, 14, 0.2),
            point(3, 16, 0.3),
        ]);
        assert_eq!(r.pareto_frontier(), vec![0, 2]);
    }

    #[test]
    fn frontier_flags_all_exact_cost_loss_ties() {
        // Identical (cost, loss): equally efficient, both reported.
        let r = report(vec![point(0, 10, 0.5), point(1, 10, 0.5)]);
        assert_eq!(r.pareto_frontier(), vec![0, 1]);
        // Same loss at higher cost is still dominated, tie or not.
        let r = report(vec![point(0, 10, 0.5), point(1, 12, 0.5)]);
        assert_eq!(r.pareto_frontier(), vec![0]);
        // A duplicate of a *dominated* point stays off the frontier.
        let r = report(vec![
            point(0, 10, 0.2),
            point(1, 10, 0.5),
            point(2, 10, 0.5),
        ]);
        assert_eq!(r.pareto_frontier(), vec![0]);
    }

    #[test]
    fn load_kind_prefers_higher_factors() {
        let mut a = point(0, 10, 0.1);
        a.load_factor = 1.0;
        let mut b = point(1, 10, 0.1);
        b.load_factor = 2.0;
        let r = SweepReport {
            kind: SweepKind::Load,
            points: vec![a, b],
        };
        // Factor 2 at equal loss dominates factor 1.
        assert_eq!(r.pareto_frontier(), vec![1]);
    }

    #[test]
    fn csv_shape_and_optional_cells() {
        let mut p1 = point(0, 10, 0.5);
        p1.sim = Some(SimSummary {
            pre_loss: 9.0,
            post_loss: 4.5,
            timeout_loss: 7.0,
            improvement_vs_pre: 0.5,
        });
        let p2 = point(1, 12, 0.4);
        let r = report(vec![p1, p2]);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[1].contains("1|1|8"));
        assert!(lines[1].ends_with("9,4.5,7,0.5"));
        assert!(lines[2].ends_with(",,,,"));
    }

    #[test]
    fn jsonl_is_one_object_per_point() {
        let mut p = point(0, 10, 0.5);
        p.arch_seed = Some(42);
        let r = report(vec![p, point(1, 12, 0.25)]);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"index\":0,"));
        assert!(lines[0].contains("\"arch_seed\":42"));
        assert!(lines[0].contains("\"allocation\":[1,1,8]"));
        assert!(lines[1].contains("\"arch_seed\":null"));
        assert!(lines[1].contains("\"sim\":null"));
        for line in lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn non_finite_floats_render_as_null_in_every_renderer() {
        // Regression: these used to render bare as `NaN` / `inf` /
        // `-inf` via Display, making the JSONL document unparseable.
        let mut p = point(0, 10, f64::NAN);
        p.shadow_price = f64::NEG_INFINITY;
        p.offered_rate = f64::INFINITY;
        p.sim = Some(SimSummary {
            pre_loss: 1.0,
            post_loss: f64::NAN,
            timeout_loss: f64::INFINITY,
            improvement_vs_pre: f64::NAN,
        });
        let r = report(vec![p, point(1, 12, 0.25)]);

        let jsonl = r.to_jsonl();
        for bad in ["NaN", "inf"] {
            assert!(!jsonl.contains(bad), "bare {bad} leaked into JSONL");
        }
        for line in jsonl.lines() {
            let parsed = socbuf_core::wire::JsonValue::parse(line)
                .expect("every JSONL line must be valid JSON");
            assert!(parsed.get("predicted_loss").is_some());
        }
        let first = socbuf_core::wire::JsonValue::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("predicted_loss"),
            Some(&socbuf_core::wire::JsonValue::Null)
        );
        assert_eq!(
            first.get("sim").unwrap().get("timeout_loss"),
            Some(&socbuf_core::wire::JsonValue::Null)
        );

        // The single-document rendering parses too, with both points.
        let doc = socbuf_core::wire::JsonValue::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("points").unwrap().arr("points").unwrap().len(), 2);

        // CSV cells use the same writer.
        let csv = r.to_csv();
        assert!(!csv.contains("NaN") && !csv.contains("inf"));
        assert!(csv.lines().nth(1).unwrap().contains("null"));
    }

    #[test]
    fn to_json_wraps_the_same_point_objects_as_jsonl() {
        let mut p = point(0, 10, 0.5);
        p.arch_seed = Some(42);
        let r = report(vec![p, point(1, 12, 0.25)]);
        let jsonl = r.to_jsonl();
        let expected = format!(
            "{{\"kind\":\"budget\",\"points\":[{}]}}",
            jsonl.lines().collect::<Vec<_>>().join(",")
        );
        assert_eq!(r.to_json(), expected);
    }

    #[test]
    fn frontier_table_lists_frontier_points() {
        let r = report(vec![point(0, 10, 0.5), point(1, 14, 0.2)]);
        let table = r.frontier_table();
        assert!(table.contains("budget"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn simulated_points_use_post_loss_as_the_frontier_coordinate() {
        // Predicted losses are budget-flat (the LP's budget row is slack
        // or relaxed almost everywhere); the simulated post-sizing loss
        // is what actually descends. The frontier must follow the
        // latter when it is available.
        let mut cheap = point(0, 10, 0.3);
        cheap.sim = Some(SimSummary {
            pre_loss: 20.0,
            post_loss: 9.0,
            timeout_loss: 15.0,
            improvement_vs_pre: 0.55,
        });
        let mut rich = point(1, 20, 0.3); // same predicted loss…
        rich.sim = Some(SimSummary {
            pre_loss: 20.0,
            post_loss: 4.0, // …but simulation shows the budget paying off
            timeout_loss: 15.0,
            improvement_vs_pre: 0.8,
        });
        let r = report(vec![cheap, rich]);
        assert_eq!(r.pareto_frontier(), vec![0, 1]);
        assert_eq!(r.points[1].effective_loss(), 4.0);
    }

    /// `doc` with the point, or its `nested` object, edited by `edit`.
    fn edited(
        doc: &JsonValue,
        nested: Option<&str>,
        edit: impl FnOnce(&mut Vec<(String, JsonValue)>),
    ) -> JsonValue {
        let mut doc = doc.clone();
        let mut v = &mut doc;
        if let Some(key) = nested {
            let JsonValue::Obj(fields) = v else {
                unreachable!("a point is an object")
            };
            v = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let JsonValue::Obj(fields) = v else {
            panic!("{nested:?} is not an object")
        };
        edit(fields);
        doc
    }

    /// The point's field rules, on the canonical rendering of a
    /// simulated random-campaign point: an extra key `zz` in the point
    /// or its `sim` object is refused by name, and dropping a required
    /// key gives `<parent>: missing field "<key>"`.
    #[test]
    fn point_decoder_refuses_unknown_keys_and_names_missing_ones() {
        let mut p = point(4, 12, 0.25);
        p.lp_iterations = 0;
        p.arch_seed = Some(7);
        p.sim = Some(SimSummary {
            pre_loss: 0.5,
            post_loss: 0.25,
            timeout_loss: 0.375,
            improvement_vs_pre: 0.5,
        });
        let mut text = String::new();
        push_point_json(&mut text, SweepKind::Random, &p, Some(true));
        let doc = JsonValue::parse(&text).unwrap();
        let decode = |v: &JsonValue| sweep_point_from_json(v, SweepKind::Random);
        assert_eq!(decode(&doc).unwrap(), p);
        for (nested, parent) in [(None, "point"), (Some("sim"), "sim")] {
            let extra = edited(&doc, nested, |f| f.push(("zz".into(), JsonValue::Num(1.0))));
            let msg = decode(&extra).unwrap_err().to_string();
            let want = format!("schema error: {parent}: unknown field \"zz\" (expected one of [");
            assert!(msg.starts_with(&want), "{msg}");
            let JsonValue::Obj(fields) = nested.map_or(&doc, |key| doc.get(key).unwrap()) else {
                panic!("{parent} is not an object")
            };
            for (key, _) in fields {
                let got = decode(&edited(&doc, nested, |f| f.retain(|(k, _)| k != key)));
                if key == "frontier" {
                    assert!(got.is_ok(), "the frontier flag is optional: {got:?}");
                } else {
                    let want = format!("{parent}: missing field \"{key}\"");
                    assert_eq!(got, Err(WireError::Schema(want)));
                }
            }
        }
    }
}

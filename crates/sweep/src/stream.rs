//! Streaming result pipeline: the sink abstraction campaigns emit
//! into, plus incremental CSV / JSON-lines writers that render one
//! point at a time while keeping only the Pareto frontier resident.
//!
//! The batch renderers ([`crate::SweepReport::to_csv`] /
//! [`crate::SweepReport::to_jsonl`]) are thin wrappers over
//! [`ReportStream`], so streamed bytes are byte-identical to batch
//! bytes **by construction** — there is exactly one rendering path.
//!
//! # Why a spool?
//!
//! Every rendered line carries a `frontier` flag, and the frontier is
//! a global property of the whole campaign: the last point observed
//! can evict the first from the frontier. No single pass can emit
//! final lines as points arrive. [`ReportStream`] therefore renders
//! each point immediately into a [`Spool`] (an append-only byte log —
//! in memory by default, a temp file for campaigns that outgrow RAM),
//! keeps only the streaming dominance staircase of
//! [`FrontierTracker`] resident, and on [`ReportStream::finish`]
//! replays the spool once, splicing each point's final flag between
//! its pre-rendered prefix and suffix. Resident state is the frontier
//! staircase (one entry per kept cost class), never the point set.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use crate::report::{
    cost_of, csv_header, push_csv_prefix, push_csv_suffix, push_json_prefix, push_json_suffix,
    SweepKind, SweepPoint,
};

/// Receives campaign points one at a time, in work-list (index) order.
///
/// This is the seam the whole streaming refactor threads through: the
/// solve loop emits into a sink as each chunk completes, renderers and
/// reducers are sinks, and the batch APIs are sinks that collect.
/// Implementations may assume points arrive in strictly increasing
/// index order (the ordered executor and the streaming reducer both
/// guarantee it).
pub trait PointSink {
    /// Accepts the next point. An `Err` aborts the producing campaign.
    fn accept(&mut self, point: SweepPoint) -> io::Result<()>;
}

impl<T: PointSink + ?Sized> PointSink for &mut T {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        (**self).accept(point)
    }
}

impl<T: PointSink + ?Sized> PointSink for Box<T> {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        (**self).accept(point)
    }
}

/// The collecting sink: batch APIs are this sink plus a wrapper.
#[derive(Debug, Default)]
pub struct VecSink {
    points: Vec<SweepPoint>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The collected points, in arrival (= index) order.
    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }
}

impl PointSink for VecSink {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        self.points.push(point);
        Ok(())
    }
}

/// Maps a float to an unsigned key whose `u64` order equals
/// [`f64::total_cmp`] order (sign bit flipped for non-negatives, all
/// bits flipped for negatives).
fn mono_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One cost class of the dominance staircase: the minimal loss seen at
/// this exact cost, and the first (lowest-index) point achieving it.
#[derive(Debug, Clone, Copy)]
struct ClassEntry {
    cost: f64,
    loss: f64,
    first_index: usize,
}

/// Streaming Pareto-dominance pass: observes `(cost, loss, index)`
/// triples in any order, keeping only the current frontier staircase
/// resident — one entry per cost class that is not (yet) dominated.
///
/// The staircase invariant is strict: walking entries in increasing
/// cost order (`total_cmp` order via monotone bits), the minimal
/// losses strictly decrease under plain `f64` comparison. Every entry
/// that survives to [`FrontierTracker::finish`] is therefore exactly a
/// *kept key* of the batch scan in
/// [`crate::SweepReport::pareto_frontier`], and membership of an
/// individual point reduces to a binary search over the kept keys
/// (see [`FrontierIndex::is_frontier`]).
#[derive(Debug, Default)]
pub struct FrontierTracker {
    /// Staircase keyed by monotone cost bits.
    classes: BTreeMap<u64, ClassEntry>,
    peak_classes: usize,
}

impl FrontierTracker {
    /// An empty staircase.
    pub fn new() -> FrontierTracker {
        FrontierTracker::default()
    }

    /// Entries currently resident (the frontier-so-far).
    pub fn resident(&self) -> usize {
        self.classes.len()
    }

    /// Largest number of entries ever resident.
    pub fn peak_resident(&self) -> usize {
        self.peak_classes
    }

    /// Observes one point. `NaN` / `+∞` losses can neither join the
    /// frontier nor dominate anything (`x < NaN` and `x < +∞` never
    /// keep a point in the batch scan that the staircase mirrors), so
    /// they are dropped immediately.
    pub fn observe(&mut self, cost: f64, loss: f64, index: usize) {
        if loss.is_nan() || loss == f64::INFINITY {
            return;
        }
        let key = mono_bits(cost);
        if let Some(e) = self.classes.get_mut(&key) {
            // Same cost class: keep the total_cmp-minimal loss and the
            // lowest index achieving exactly those bits.
            let (old, new) = (mono_bits(e.loss), mono_bits(loss));
            if new > old {
                return;
            }
            if new == old {
                e.first_index = e.first_index.min(index);
                return;
            }
            e.loss = loss;
            e.first_index = index;
        } else {
            // New cost class: dominated forever if any cheaper class
            // already reaches this loss (earlier minima only decrease).
            if let Some((_, pred)) = self.classes.range(..key).next_back() {
                if pred.loss <= loss {
                    return;
                }
            }
            self.classes.insert(
                key,
                ClassEntry {
                    cost,
                    loss,
                    first_index: index,
                },
            );
        }
        // Restore the strictly-decreasing invariant: costlier classes
        // that no longer improve on `loss` are dominated.
        let doomed: Vec<u64> = self
            .classes
            .range(key + 1..)
            .take_while(|(_, e)| e.loss >= loss)
            .map(|(k, _)| *k)
            .collect();
        for k in doomed {
            self.classes.remove(&k);
        }
        self.peak_classes = self.peak_classes.max(self.classes.len());
    }

    /// Freezes the staircase into a queryable frontier index.
    pub fn finish(self) -> FrontierIndex {
        FrontierIndex {
            kept: self
                .classes
                .into_iter()
                .map(|(cost_bits, e)| KeptKey {
                    cost_bits,
                    loss_bits: mono_bits(e.loss),
                    cost: e.cost,
                    loss: e.loss,
                    first_index: e.first_index,
                })
                .collect(),
            peak_classes: self.peak_classes,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct KeptKey {
    cost_bits: u64,
    loss_bits: u64,
    cost: f64,
    loss: f64,
    first_index: usize,
}

/// The frozen frontier: exactly the kept keys of the batch scan, in
/// increasing cost order.
#[derive(Debug)]
pub struct FrontierIndex {
    kept: Vec<KeptKey>,
    peak_classes: usize,
}

impl FrontierIndex {
    /// Largest number of staircase entries ever resident while the
    /// frontier was being tracked.
    pub fn peak_resident(&self) -> usize {
        self.peak_classes
    }

    /// Whether the point `(cost, loss, index)` is a frontier member,
    /// reproducing the batch tie rules exactly: a point is kept iff
    /// the greatest kept key at-or-before its sort position has
    /// `f64`-equal cost and loss (so `-0.0`/`+0.0` ties cross cost
    /// classes, as in the batch scan), or — for costs where `f64`
    /// equality fails, i.e. `NaN` — the point is bit-identical to the
    /// kept key and is its first achiever.
    pub fn is_frontier(&self, cost: f64, loss: f64, index: usize) -> bool {
        if loss.is_nan() || loss == f64::INFINITY {
            return false;
        }
        let pos = (mono_bits(cost), mono_bits(loss));
        let at = self
            .kept
            .partition_point(|k| (k.cost_bits, k.loss_bits) <= pos);
        let Some(k) = at.checked_sub(1).and_then(|i| self.kept.get(i)) else {
            return false;
        };
        (k.cost == cost && k.loss == loss)
            || ((k.cost_bits, k.loss_bits) == pos && k.first_index == index)
    }
}

/// Append-only byte log the streaming renderers park rendered point
/// fragments in until the frontier is known.
pub trait Spool: Send {
    /// Appends `buf` to the log.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Consumes the spool, returning a reader positioned at the start
    /// of the log.
    fn into_reader(self: Box<Self>) -> io::Result<Box<dyn Read + Send>>;
}

/// The default spool: an in-memory byte buffer. Holds every rendered
/// byte, so it bounds *points* resident (structs, allocations), not
/// output bytes — use [`FileSpool`] when the rendered output itself
/// outgrows RAM.
#[derive(Debug, Default)]
pub struct MemSpool {
    buf: Vec<u8>,
}

impl MemSpool {
    /// An empty in-memory spool.
    pub fn new() -> MemSpool {
        MemSpool::default()
    }
}

impl Spool for MemSpool {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(buf);
        Ok(())
    }

    fn into_reader(self: Box<Self>) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(io::Cursor::new(self.buf)))
    }
}

/// A spool backed by an anonymous temp file, deleted when the spool
/// (or the reader it converts into) is dropped. This is what keeps a
/// 10⁵⁻⁶-point campaign's memory flat: rendered bytes go to disk, only
/// the frontier staircase stays resident.
#[derive(Debug)]
pub struct FileSpool {
    file: Option<std::fs::File>,
    path: Option<std::path::PathBuf>,
}

impl FileSpool {
    /// Creates a fresh spool file under [`std::env::temp_dir`].
    pub fn in_temp_dir() -> io::Result<FileSpool> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "socbuf-spool-{}-{}.bin",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(FileSpool {
            file: Some(file),
            path: Some(path),
        })
    }
}

impl Drop for FileSpool {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Reader half of a [`FileSpool`]; deletes the backing file on drop.
struct FileSpoolReader {
    file: std::fs::File,
    path: std::path::PathBuf,
}

impl Read for FileSpoolReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read(buf)
    }
}

impl Drop for FileSpoolReader {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Spool for FileSpool {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file
            .as_mut()
            .expect("spool file present until conversion")
            .write_all(buf)
    }

    fn into_reader(mut self: Box<Self>) -> io::Result<Box<dyn Read + Send>> {
        use std::io::Seek as _;
        let mut file = self.file.take().expect("spool converted once");
        let path = self.path.take().expect("spool converted once");
        file.flush()?;
        file.seek(io::SeekFrom::Start(0))?;
        Ok(Box::new(FileSpoolReader { file, path }))
    }
}

/// Which text form a [`ReportStream`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamFormat {
    Csv,
    Jsonl,
}

/// Counters a finished [`ReportStream`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Points rendered.
    pub points: usize,
    /// Bytes written to the output writer (header included).
    pub bytes_written: u64,
    /// Peak resident frontier-staircase entries — the renderer's whole
    /// per-point memory footprint besides the spool.
    pub peak_frontier_classes: usize,
}

/// Incremental CSV / JSON-lines report writer: one point rendered,
/// spooled, dropped. [`ReportStream::finish`] replays the spool once,
/// splicing each point's global `frontier` flag in, and produces bytes
/// identical to the batch renderers (which are wrappers over this).
pub struct ReportStream<W: Write> {
    kind: SweepKind,
    format: StreamFormat,
    out: W,
    spool: Box<dyn Spool>,
    tracker: FrontierTracker,
    points: usize,
}

/// Spool record framing: cost bits, loss bits, index, prefix length,
/// suffix length, then the two rendered fragments.
const RECORD_HEADER: usize = 8 + 8 + 8 + 4 + 4;

impl<W: Write> ReportStream<W> {
    /// A CSV writer over the default in-memory spool.
    pub fn csv(kind: SweepKind, out: W) -> ReportStream<W> {
        ReportStream::with_spool(kind, StreamFormat::Csv, out, Box::new(MemSpool::new()))
    }

    /// A JSON-lines writer over the default in-memory spool.
    pub fn jsonl(kind: SweepKind, out: W) -> ReportStream<W> {
        ReportStream::with_spool(kind, StreamFormat::Jsonl, out, Box::new(MemSpool::new()))
    }

    /// A CSV writer spooling to `spool` (e.g. a [`FileSpool`]).
    pub fn csv_spooled(kind: SweepKind, out: W, spool: Box<dyn Spool>) -> ReportStream<W> {
        ReportStream::with_spool(kind, StreamFormat::Csv, out, spool)
    }

    fn with_spool(
        kind: SweepKind,
        format: StreamFormat,
        out: W,
        spool: Box<dyn Spool>,
    ) -> ReportStream<W> {
        ReportStream {
            kind,
            format,
            out,
            spool,
            tracker: FrontierTracker::new(),
            points: 0,
        }
    }

    /// Renders one point into the spool and folds it into the frontier
    /// staircase. The point itself is not retained.
    pub fn push(&mut self, p: &SweepPoint) -> io::Result<()> {
        let cost = cost_of(self.kind, p);
        let loss = p.effective_loss();
        // Tie-breaking uses the point's position in the stream — the
        // same ordinal the batch scan uses — which equals `p.index`
        // for every campaign-produced report.
        let ordinal = self.points;
        self.tracker.observe(cost, loss, ordinal);

        let mut prefix = String::new();
        let mut suffix = String::new();
        match self.format {
            StreamFormat::Csv => {
                push_csv_prefix(&mut prefix, self.kind, p);
                push_csv_suffix(&mut suffix, p);
            }
            StreamFormat::Jsonl => {
                push_json_prefix(&mut prefix, self.kind, p);
                push_json_suffix(&mut suffix, p);
                suffix.push('\n');
            }
        }

        let mut header = [0u8; RECORD_HEADER];
        header[0..8].copy_from_slice(&cost.to_bits().to_le_bytes());
        header[8..16].copy_from_slice(&loss.to_bits().to_le_bytes());
        header[16..24].copy_from_slice(&(ordinal as u64).to_le_bytes());
        header[24..28].copy_from_slice(&(prefix.len() as u32).to_le_bytes());
        header[28..32].copy_from_slice(&(suffix.len() as u32).to_le_bytes());
        self.spool.write_all(&header)?;
        self.spool.write_all(prefix.as_bytes())?;
        self.spool.write_all(suffix.as_bytes())?;
        self.points += 1;
        Ok(())
    }

    /// Replays the spool with final frontier flags spliced in, flushes
    /// the output writer, and returns it with the stream counters.
    pub fn finish(mut self) -> io::Result<(W, StreamSummary)> {
        let index = self.tracker.finish();
        let mut bytes: u64 = 0;
        if self.format == StreamFormat::Csv {
            let header = csv_header();
            self.out.write_all(header.as_bytes())?;
            bytes += header.len() as u64;
        }
        let mut reader = self.spool.into_reader()?;
        let mut header = [0u8; RECORD_HEADER];
        let mut body = Vec::new();
        loop {
            if !read_exact_or_eof(&mut reader, &mut header)? {
                break;
            }
            let cost = f64::from_bits(u64::from_le_bytes(header[0..8].try_into().unwrap()));
            let loss = f64::from_bits(u64::from_le_bytes(header[8..16].try_into().unwrap()));
            let idx = u64::from_le_bytes(header[16..24].try_into().unwrap()) as usize;
            let plen = u32::from_le_bytes(header[24..28].try_into().unwrap()) as usize;
            let slen = u32::from_le_bytes(header[28..32].try_into().unwrap()) as usize;
            body.resize(plen + slen, 0);
            reader.read_exact(&mut body)?;
            let flag: &[u8] = match (self.format, index.is_frontier(cost, loss, idx)) {
                (StreamFormat::Csv, true) => b"1",
                (StreamFormat::Csv, false) => b"0",
                (StreamFormat::Jsonl, true) => b",\"frontier\":true",
                (StreamFormat::Jsonl, false) => b",\"frontier\":false",
            };
            self.out.write_all(&body[..plen])?;
            self.out.write_all(flag)?;
            self.out.write_all(&body[plen..])?;
            bytes += (plen + slen + flag.len()) as u64;
        }
        self.out.flush()?;
        Ok((
            self.out,
            StreamSummary {
                points: self.points,
                bytes_written: bytes,
                peak_frontier_classes: index.peak_resident(),
            },
        ))
    }
}

impl<W: Write> PointSink for ReportStream<W> {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        self.push(&point)
    }
}

/// Fills `buf` completely, or returns `Ok(false)` on a clean EOF at
/// the first byte (a torn record mid-buffer is an error).
fn read_exact_or_eof(reader: &mut dyn Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "spool ended mid-record",
                ))
            }
            n => filled += n,
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch scan from `SweepReport::pareto_frontier`, kept here as
    /// the executable specification the streaming pass must match.
    fn batch_frontier(points: &[(f64, f64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| {
            points[a]
                .0
                .total_cmp(&points[b].0)
                .then(points[a].1.total_cmp(&points[b].1))
                .then(a.cmp(&b))
        });
        let mut best = f64::INFINITY;
        let mut kept_key: Option<(f64, f64)> = None;
        let mut frontier = Vec::new();
        for i in order {
            let key = points[i];
            if key.1 < best {
                best = key.1;
                kept_key = Some(key);
                frontier.push(i);
            } else if kept_key == Some(key) {
                frontier.push(i);
            }
        }
        frontier.sort_unstable();
        frontier
    }

    fn streaming_frontier(points: &[(f64, f64)]) -> Vec<usize> {
        let mut t = FrontierTracker::new();
        for (i, &(c, l)) in points.iter().enumerate() {
            t.observe(c, l, i);
        }
        let index = t.finish();
        (0..points.len())
            .filter(|&i| index.is_frontier(points[i].0, points[i].1, i))
            .collect()
    }

    #[track_caller]
    fn check(points: &[(f64, f64)]) {
        assert_eq!(
            streaming_frontier(points),
            batch_frontier(points),
            "points {points:?}"
        );
    }

    #[test]
    fn matches_batch_on_plain_staircases() {
        check(&[(10.0, 0.5), (12.0, 0.5), (14.0, 0.2), (16.0, 0.3)]);
        check(&[(10.0, 0.5), (10.0, 0.5)]);
        check(&[(10.0, 0.2), (10.0, 0.5), (10.0, 0.5)]);
        check(&[]);
        check(&[(1.0, 1.0)]);
    }

    #[test]
    fn matches_batch_on_signed_zero_costs_and_losses() {
        // Batch keeps both the (-0.0, l1) and (+0.0, l2 < l1) keys —
        // they are distinct sort positions but f64-equal costs, so
        // later exact ties hit either. The staircase must reproduce
        // every combination.
        check(&[(-0.0, 0.5), (0.0, 0.2), (0.0, 0.2), (-0.0, 0.5)]);
        check(&[(-0.0, 0.5), (0.0, 0.5)]);
        check(&[(0.0, 0.5), (-0.0, 0.5)]);
        check(&[(-0.0, -0.0), (0.0, 0.0)]);
        check(&[(0.0, 0.0), (-0.0, -0.0)]);
        check(&[(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0)]);
        check(&[(1.0, -0.0), (2.0, 0.0), (2.0, -0.0)]);
    }

    #[test]
    fn matches_batch_on_non_finite_coordinates() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        check(&[(nan, 0.5), (1.0, 0.7), (nan, 0.5), (nan, 0.4)]);
        check(&[(1.0, nan), (2.0, 0.5), (3.0, inf)]);
        check(&[(inf, 0.1), (1.0, 0.5), (-inf, 0.9)]);
        check(&[(1.0, -inf), (2.0, -inf), (0.5, 3.0)]);
        check(&[(nan, 0.3), (nan, 0.3)]);
    }

    #[test]
    fn matches_batch_on_randomized_grids() {
        // Deterministic pseudo-random walk over a small value grid so
        // ties and dominations are frequent.
        let vals = [-0.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY, f64::NAN];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for _ in 0..200 {
            let n = step() % 12;
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (vals[step() % vals.len()], vals[step() % vals.len()]))
                .collect();
            check(&pts);
        }
    }

    #[test]
    fn staircase_keeps_only_the_frontier_resident() {
        let mut t = FrontierTracker::new();
        // A long dominated plateau: every point after the first is
        // dominated, so the staircase never grows.
        t.observe(0.0, 0.0, 0);
        for i in 1..10_000 {
            t.observe(i as f64, 0.5, i);
        }
        assert_eq!(t.resident(), 1);
        assert_eq!(t.peak_resident(), 1);
    }

    #[test]
    fn file_spool_round_trips_and_cleans_up() {
        let mut spool = FileSpool::in_temp_dir().unwrap();
        let path = spool.path.clone().unwrap();
        Spool::write_all(&mut spool, b"hello spool").unwrap();
        assert!(path.exists());
        let mut reader = Box::new(spool).into_reader().unwrap();
        let mut got = String::new();
        reader.read_to_string(&mut got).unwrap();
        assert_eq!(got, "hello spool");
        drop(reader);
        assert!(!path.exists(), "reader drop removes the spool file");
    }
}

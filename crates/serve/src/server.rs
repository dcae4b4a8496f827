//! The serving loop: listeners, per-connection handlers, the warm
//! cache, backpressure, and graceful draining.
//!
//! # Threading model
//!
//! One accept thread per [`Server`]; one handler thread per connection.
//! Handlers solve `size` requests on their own thread (the LP layer's
//! [`socbuf_core::ExecutorHandle`] additionally fans the decomposed
//! engine's block solves onto the server's [`WorkPool`]). A
//! `sweep_stream` request runs its chunks on the pool's free workers
//! with the same ordered scheduler an in-process campaign uses
//! ([`socbuf_sweep::CampaignPlan::run_chunks`]): each chunk is one warm
//! chain, solved serially on one worker, and the connection thread
//! writes each chunk's frame as soon as that chunk is next in the
//! requested order. Concurrency is bounded twice: the pool's width
//! bounds intra-request parallelism, and the in-flight token counter
//! bounds how many requests may solve at once — a request arriving
//! beyond that bound is refused immediately with `busy` and a
//! `retry_after_ms` hint rather than queued without bound. A stream
//! holds one in-flight token for its whole multi-frame answer: it is
//! one long solve, not many cheap ones.
//!
//! # Determinism
//!
//! None of this machinery is allowed to change answers: executors
//! change wall time, never bytes (the pipeline's pinned contract), the
//! cache's warm ≡ cold contract makes hits byte-identical to misses,
//! and the nondeterministic residue (timings, pivot counts) is
//! quarantined in the per-request trace. The lifecycle tests drive all
//! three claims over real sockets.
//!
//! # Draining
//!
//! A `drain` request (or [`Server::shutdown`]) flips the draining flag:
//! in-flight solves complete and answer normally, every later solve
//! request is refused with a `"draining"` error, and `health` keeps
//! answering so operators can watch the in-flight count reach zero.
//! Blocking reads poll at a short timeout, so handler threads notice
//! shutdown promptly; the accept loop is woken by a self-connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::atomic::AtomicU64;

use socbuf_core::wire::{CampaignManifest, WireError};
use socbuf_core::{ExecutorHandle, SizingConfig, SolveContext};
use socbuf_soc::Architecture;
use socbuf_sweep::{chunk_report_json, plan_manifest, SweepError, WorkPool};

use crate::cache::{cache_key, ContextCache, RawKey};
use crate::protocol::{
    read_frame, write_frame, Health, Request, RequestFrame, Response, StreamGauges, Trace, Verb,
    VerbCounts,
};

/// How often blocking reads wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Warm-context cache capacity in entries.
    pub cache_capacity: usize,
    /// Solve requests allowed in flight at once; beyond this, requests
    /// are refused with `busy`.
    pub max_inflight: usize,
    /// Worker width of the attached [`WorkPool`] (`0` = the machine's
    /// available parallelism).
    pub workers: usize,
    /// The backoff hint attached to `busy` refusals.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 32,
            max_inflight: 8,
            workers: 0,
            retry_after_ms: 25,
        }
    }
}

/// Per-verb request counters (see [`VerbCounts`] for semantics).
#[derive(Default)]
struct VerbCounters {
    size: AtomicU64,
    sweep_stream: AtomicU64,
    health: AtomicU64,
    drain: AtomicU64,
}

impl VerbCounters {
    /// Counts one decoded request under its verb.
    fn count(&self, verb: Verb) {
        let counter = match verb {
            Verb::Size => &self.size,
            Verb::SweepStream => &self.sweep_stream,
            Verb::Health => &self.health,
            Verb::Drain => &self.drain,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> VerbCounts {
        VerbCounts {
            size: self.size.load(Ordering::Relaxed),
            sweep_stream: self.sweep_stream.load(Ordering::Relaxed),
            health: self.health.load(Ordering::Relaxed),
            drain: self.drain.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the accept loop and every handler thread.
struct Shared {
    cache: ContextCache,
    pool: WorkPool,
    executor: ExecutorHandle,
    max_inflight: usize,
    retry_after_ms: u64,
    inflight: AtomicUsize,
    draining: AtomicBool,
    stopping: AtomicBool,
    verbs: VerbCounters,
    /// Streaming-pipeline gauges (see [`StreamGauges`]): frames and
    /// payload bytes written by `sweep_stream`, and the largest chunk
    /// (in points) written as one frame. The first two only grow; the
    /// peak is maintained with `fetch_max`.
    stream_frames: AtomicU64,
    stream_bytes: AtomicU64,
    stream_peak_points: AtomicU64,
}

impl Shared {
    /// Accounts one streamed result frame.
    fn count_stream_frame(&self, payload: &str) {
        self.stream_frames.fetch_add(1, Ordering::Relaxed);
        self.stream_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }

    fn health(&self) -> Health {
        let s = self.cache.stats();
        Health {
            cache_entries: s.entries,
            cache_capacity: s.capacity,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            warm_pivots: s.warm_pivots,
            cold_pivots: s.cold_pivots,
            inflight: self.inflight.load(Ordering::Relaxed),
            max_inflight: self.max_inflight,
            draining: self.draining.load(Ordering::Relaxed),
            workers: self.pool.workers(),
            streaming: StreamGauges {
                frames: self.stream_frames.load(Ordering::Relaxed),
                bytes: self.stream_bytes.load(Ordering::Relaxed),
                peak_resident_points: self.stream_peak_points.load(Ordering::Relaxed),
            },
            requests: self.verbs.snapshot(),
        }
    }
}

/// Decrements the in-flight counter even if a solve panics.
struct InflightToken<'a>(&'a AtomicUsize);

impl Drop for InflightToken<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running sizing server. Dropping it shuts it down (drain + join).
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    addr: BoundAddr,
}

enum BoundAddr {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Server {
    /// Binds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// loopback port) and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn I/O errors.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Server::start(config, BoundAddr::Tcp(local), move |shared, handlers| {
            accept_loop(shared, handlers, move || {
                let (s, _) = listener.accept()?;
                // Responses are single latency-sensitive frames; never
                // let Nagle hold one back.
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            })
        })
    }

    /// Binds a Unix-domain socket at `path` and starts serving. A stale
    /// socket file at `path` is removed first.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn I/O errors.
    #[cfg(unix)]
    pub fn bind_unix(path: &Path, config: ServerConfig) -> io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Server::start(
            config,
            BoundAddr::Unix(path.to_path_buf()),
            move |shared, handlers| {
                accept_loop(shared, handlers, move || {
                    listener.accept().map(|(s, _)| Conn::Unix(s))
                })
            },
        )
    }

    fn start<F>(config: ServerConfig, addr: BoundAddr, run: F) -> io::Result<Server>
    where
        F: FnOnce(Arc<Shared>, Arc<Mutex<Vec<JoinHandle<()>>>>) + Send + 'static,
    {
        let pool = if config.workers == 0 {
            WorkPool::available()
        } else {
            WorkPool::new(config.workers)
        };
        let executor = ExecutorHandle::new(Arc::new(pool.clone()));
        let shared = Arc::new(Shared {
            cache: ContextCache::new(config.cache_capacity),
            pool,
            executor,
            max_inflight: config.max_inflight.max(1),
            retry_after_ms: config.retry_after_ms,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            verbs: VerbCounters::default(),
            stream_frames: AtomicU64::new(0),
            stream_bytes: AtomicU64::new(0),
            stream_peak_points: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("socbuf-serve-accept".into())
                .spawn(move || run(shared, handlers))?
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            handlers,
            addr,
        })
    }

    /// The bound TCP address (`None` for Unix-socket servers).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self.addr {
            BoundAddr::Tcp(a) => Some(a),
            #[cfg(unix)]
            BoundAddr::Unix(_) => None,
        }
    }

    /// Begins draining without tearing the server down: in-flight
    /// solves complete, later solve requests are refused. Equivalent to
    /// a client `drain` request.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// A health snapshot, as a `health` request would report it.
    pub fn health(&self) -> Health {
        self.shared.health()
    }

    /// Drains, wakes every blocked thread, and joins them. Called
    /// automatically on drop; call it explicitly to bound shutdown in
    /// time at a known point.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.stopping.store(true, Ordering::Release);
        // Wake the accept loop out of its blocking accept().
        match &self.addr {
            BoundAddr::Tcp(a) => drop(TcpStream::connect(a)),
            #[cfg(unix)]
            BoundAddr::Unix(p) => drop(UnixStream::connect(p)),
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let BoundAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stopping.load(Ordering::Acquire) {
            self.stop();
        }
    }
}

/// One accepted connection, either transport.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

fn accept_loop<A>(shared: Arc<Shared>, handlers: Arc<Mutex<Vec<JoinHandle<()>>>>, accept: A)
where
    A: Fn() -> io::Result<Conn>,
{
    loop {
        let conn = match accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::Acquire) {
            // The connection that woke us (or any racer) is dropped
            // unanswered; the server is going away.
            return;
        }
        let shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("socbuf-serve-conn".into())
            .spawn(move || handle_connection(shared, conn));
        if let Ok(handle) = spawned {
            handlers.lock().expect("handler list poisoned").push(handle);
        }
    }
}

fn handle_connection(shared: Arc<Shared>, mut conn: Conn) {
    let _ = conn.set_read_timeout(POLL_INTERVAL);
    loop {
        match read_frame(&mut conn, None) {
            Ok(Some(request)) => match handle_request(&shared, &request) {
                Handled::Reply(response) => {
                    if write_frame(&mut conn, &response).is_err() {
                        return;
                    }
                }
                Handled::Stream {
                    manifest,
                    chunks,
                    received,
                    token,
                } => {
                    let alive =
                        stream_sweep(&shared, &mut conn, &manifest, chunks, received, token);
                    if !alive {
                        return;
                    }
                }
            },
            Ok(None) => return, // clean close
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// What serving one request frame produced: a single reply frame, or a
/// stream the connection loop must write itself (the in-flight token
/// rides along so backpressure covers the whole stream, not just the
/// dispatch).
enum Handled<'a> {
    /// One rendered response frame.
    Reply(String),
    /// A `sweep_stream` to execute and write frame by frame.
    Stream {
        manifest: Box<CampaignManifest>,
        chunks: Option<Vec<usize>>,
        received: Instant,
        token: InflightToken<'a>,
    },
}

/// Serves one request frame. The frame is parsed once; a `size` frame
/// goes on to [`serve_size`], every other verb is decoded whole.
fn handle_request<'a>(shared: &'a Shared, text: &str) -> Handled<'a> {
    let received = Instant::now();
    let reply = |r: Response| Handled::Reply(r.to_json());
    let refuse = |e: WireError| {
        reply(Response::Error {
            message: e.to_string(),
        })
    };
    let frame = match RequestFrame::parse(text) {
        Ok(f) => f,
        Err(e) => return refuse(e),
    };
    if frame.verb() == Verb::Size {
        return reply(serve_size(shared, &frame, received));
    }
    let request = match frame.decode() {
        Ok(r) => r,
        Err(e) => return refuse(e),
    };
    shared.verbs.count(frame.verb());
    match request {
        Request::Health => reply(Response::Health(shared.health())),
        Request::Drain => {
            shared.draining.store(true, Ordering::Release);
            reply(Response::Draining)
        }
        // The stream verb hands its work (and the token) back to the
        // connection loop, which owns the socket for the multi-frame
        // answer.
        Request::SweepStream { manifest, chunks } => match admit(shared) {
            Ok(token) => Handled::Stream {
                manifest: Box::new(manifest),
                chunks,
                received,
                token,
            },
            Err(refusal) => reply(*refusal),
        },
        Request::Size { .. } => unreachable!("size frames are served by serve_size"),
    }
}

/// Admits one solve request: refuses it while draining, and with
/// `busy` when every in-flight slot is taken. The token frees the slot
/// on drop.
fn admit(shared: &Shared) -> Result<InflightToken<'_>, Box<Response>> {
    if shared.draining.load(Ordering::Acquire) {
        return Err(Box::new(Response::Error {
            message: "draining".into(),
        }));
    }
    let mut current = shared.inflight.load(Ordering::Relaxed);
    loop {
        if current >= shared.max_inflight {
            return Err(Box::new(Response::Busy {
                retry_after_ms: shared.retry_after_ms,
            }));
        }
        match shared.inflight.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Ok(InflightToken(&shared.inflight)),
            Err(now) => current = now,
        }
    }
}

/// The key a `size` frame solves under.
enum SizeKey<'t> {
    /// The frame's raw key, borrowed, when a context is cached under it.
    Raw(RawKey<'t>),
    /// The canonical [`cache_key`] of what the frame decoded to.
    Canonical(String),
}

/// A `size` frame, settled: valid, with the key it solves under.
struct SizeQuery<'t> {
    key: SizeKey<'t>,
    /// The decoded architecture and config; `None` when the raw key was
    /// cached and nothing was decoded.
    decoded: Option<(Architecture, SizingConfig)>,
    budget: usize,
}

/// Settles a `size` frame's validity with the errors, in the order, a
/// full decode reports them: `arch`, `config`, then `budget`. Raw bytes
/// that are a cached key skip decoding: contexts are only ever checked
/// in under the canonical key of a decoded architecture and config,
/// and canonical text decodes back to the same text, so they are valid
/// and mean exactly that context's architecture and config.
fn settle_size<'t>(shared: &Shared, frame: &'t RequestFrame) -> Result<SizeQuery<'t>, WireError> {
    let (key, decoded) = match frame.raw_size_key() {
        Some(raw) if shared.cache.contains(&raw) => (SizeKey::Raw(raw), None),
        _ => {
            let (arch, config) = frame.size_problem()?;
            (
                SizeKey::Canonical(cache_key(&arch, &config)),
                Some((arch, config)),
            )
        }
    };
    Ok(SizeQuery {
        key,
        decoded,
        budget: frame.size_budget()?,
    })
}

/// Serves one `size` frame: settles it, counts it, admits it, then
/// solves on the context cached under its key, or a fresh one.
///
/// The cache is checked out under one key per request, so each request
/// counts exactly one hit or one miss, and the context is checked back
/// in under the same key. A partial config or reordered fields miss
/// the raw lookup and still hit the context a canonical request left
/// behind under the canonical key.
fn serve_size(shared: &Shared, frame: &RequestFrame, received: Instant) -> Response {
    let refuse = |e: WireError| Response::Error {
        message: e.to_string(),
    };
    let SizeQuery {
        key,
        decoded,
        budget,
    } = match settle_size(shared, frame) {
        Ok(query) => query,
        Err(e) => return refuse(e),
    };
    shared.verbs.count(Verb::Size);
    let _token = match admit(shared) {
        Ok(token) => token,
        Err(refusal) => return *refusal,
    };
    // A hit hands back the stored key, which the context is checked
    // back in under; a raw key is spelled out only on a miss.
    let cached = match &key {
        SizeKey::Raw(raw) => shared.cache.checkout_keyed(raw),
        SizeKey::Canonical(key) => shared.cache.checkout_keyed(key),
    };
    let warm = cached.is_some();
    let (key, mut ctx) = match cached {
        Some(entry) => entry,
        None => {
            let key = match key {
                SizeKey::Raw(raw) => raw.to_string(),
                SizeKey::Canonical(key) => key,
            };
            // A raw key another request checked out since the lookup
            // in `settle_size` decodes now, from the same tape.
            let problem = match decoded {
                Some(problem) => Ok(problem),
                None => frame.size_problem(),
            };
            let (arch, mut config) = match problem {
                Ok(problem) => problem,
                Err(e) => return refuse(e),
            };
            config.executor = shared.executor.clone();
            (key, SolveContext::new(&arch, &config))
        }
    };
    let queue_wait_us = received.elapsed().as_micros() as u64;
    let solving = Instant::now();
    let solved = ctx.size_buffers(budget);
    let solve_us = solving.elapsed().as_micros() as u64;
    // The context stays warm across failed requests too (a bad budget
    // must not cost the next caller their warm basis).
    shared.cache.checkin(key, ctx);
    match solved {
        Ok(outcome) => {
            shared.cache.record_solve(warm, outcome.lp_iterations);
            let trace = Trace {
                warm,
                pivots: outcome.lp_iterations,
                queue_wait_us,
                solve_us,
            };
            Response::for_outcome(&outcome, trace)
        }
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// Why a `sweep_stream` answer stopped before its summary frame.
enum StreamStop {
    /// The stream failed; the message goes out as its error frame.
    Failed(String),
    /// The connection died mid-stream; nothing more can be written.
    Disconnected,
}

impl From<SweepError> for StreamStop {
    fn from(e: SweepError) -> Self {
        StreamStop::Failed(e.to_string())
    }
}

/// Writes a `sweep_stream` answer: plans the manifest once, runs the
/// selected chunks on the server's pool with the ordered scheduler, and
/// writes one chunk frame per chunk, on this connection thread, as soon
/// as that chunk is next in the requested order; then the terminal
/// summary frame. A failure (an out-of-range index, a failing point, a
/// shutdown) takes the next frame's slot as an error frame and ends the
/// stream.
///
/// The stream fans out over the workers the other in-flight requests
/// leave free, at least one: on a server whose cores are already busy
/// with other requests, extra threads would only contend with them.
/// Width changes wall time, never bytes.
///
/// Each chunk's trace carries the stream's queue wait (frame receipt to
/// the start of solving) and, as `solve_us`, the time since the
/// previous frame was written (or solving started): what the client
/// waited for this chunk. Summed over a stream they give its solve
/// wall time. Returns `false` when the connection died mid-stream.
///
/// The stream's in-flight `token` is released before the summary frame
/// is written, as a `size` reply's is: a client that sends its next
/// request as soon as it reads the summary must find the slot free.
fn stream_sweep(
    shared: &Shared,
    conn: &mut Conn,
    manifest: &CampaignManifest,
    chunks: Option<Vec<usize>>,
    received: Instant,
    token: InflightToken<'_>,
) -> bool {
    let selected: Vec<usize> = chunks.unwrap_or_else(|| (0..manifest.chunks.len()).collect());
    // The in-flight count includes this stream's own token.
    let others = shared.inflight.load(Ordering::Relaxed).saturating_sub(1);
    let pool = WorkPool::new(shared.pool.workers().saturating_sub(others).max(1));
    let mut frames: u64 = 0;
    let mut points: u64 = 0;
    let streamed = plan_manifest(manifest, &pool)
        .map_err(StreamStop::from)
        .and_then(|plan| {
            let queue_wait_us = received.elapsed().as_micros() as u64;
            let mut since = Instant::now();
            plan.run_chunks(&pool, &selected, |chunk, solved| {
                if shared.stopping.load(Ordering::Acquire) {
                    return Err(StreamStop::Failed("draining".into()));
                }
                let pivots = solved.iter().map(|p| p.lp_iterations).sum();
                shared.cache.record_solve(false, pivots);
                shared
                    .stream_peak_points
                    .fetch_max(solved.len() as u64, Ordering::Relaxed);
                frames += 1;
                points += solved.len() as u64;
                let payload = Response::Chunk {
                    report: chunk_report_json(manifest, chunk, &solved),
                    trace: Trace {
                        warm: false,
                        pivots,
                        queue_wait_us,
                        solve_us: since.elapsed().as_micros() as u64,
                    },
                }
                .to_json();
                shared.count_stream_frame(&payload);
                write_frame(conn, &payload).map_err(|_| StreamStop::Disconnected)?;
                since = Instant::now();
                Ok(())
            })
        });
    let payload = match streamed {
        Ok(_) => Response::StreamEnd {
            config_hash: manifest.config_hash,
            frames,
            points,
        },
        Err(StreamStop::Failed(message)) => Response::Error { message },
        Err(StreamStop::Disconnected) => return false,
    }
    .to_json();
    drop(token);
    shared.count_stream_frame(&payload);
    write_frame(conn, &payload).is_ok()
}

/// The shard-worker mode: binds an ephemeral loopback TCP listener,
/// prints `PORT <n>` on stdout (the coordinator's handshake line), and
/// serves until stdin reaches EOF — so a coordinator that exits (or
/// deliberately closes the worker's stdin) takes its workers down with
/// it, and an orphaned worker can never outlive its campaign.
///
/// This is what `socbuf-serve`'s `shard_worker` bin and the
/// `shard_probe` smoke harness run in their child processes.
///
/// # Errors
///
/// Propagates bind and stdout I/O errors.
pub fn shard_worker_main(config: ServerConfig) -> io::Result<()> {
    let server = Server::bind_tcp("127.0.0.1:0", config)?;
    let addr = server.tcp_addr().expect("TCP servers have an address");
    {
        let mut out = io::stdout().lock();
        writeln!(out, "PORT {}", addr.port())?;
        out.flush()?;
    }
    // Park until the coordinator closes our stdin.
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

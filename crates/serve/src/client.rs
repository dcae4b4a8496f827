//! A blocking protocol client — the reference implementation the
//! lifecycle tests and the `serve_probe` bench bin both drive.
//!
//! One [`Client`] owns one connection and issues request/response pairs
//! in strict alternation (a `sweep_stream` request is answered by a
//! sequence of frames). Replies carry both the typed decoding *and*
//! the canonical JSON text of the semantic payload
//! ([`SizeReply::result_json`], [`ChunkReply::report_json`]). Each reply
//! frame is parsed once: the text is the payload's own bytes, copied
//! out of the frame, so it is byte-for-byte what the server computed —
//! which is what the byte-parity checks compare against the direct
//! pipeline — and the typed value is decoded from the same tape.

use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use socbuf_core::wire::{sizing_outcome_from_json, CampaignManifest, JsonDocument, WireError};
use socbuf_core::{SizingConfig, SizingOutcome};
use socbuf_soc::Architecture;
use socbuf_sweep::{ChunkReport, MergeError, PointSink, ReduceStats, StreamingReducer};

use crate::protocol::{read_frame, write_frame, Health, Request, Response, Trace};

/// Socket-level poll interval used when a read bound is configured:
/// `read_frame` wakes at least this often to check the
/// deadline, so even a stall in the middle of a frame is caught.
const READ_POLL: Duration = Duration::from_millis(25);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including an unexpectedly closed connection).
    Io(io::Error),
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server answered with a failure response.
    Remote {
        /// The server's error message (`"busy"` for backpressure).
        message: String,
        /// Backoff hint when the failure was backpressure.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote {
                message,
                retry_after_ms: Some(ms),
            } => {
                write!(f, "server refused: {message} (retry after {ms} ms)")
            }
            ClientError::Remote { message, .. } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A decoded `size` reply.
#[derive(Debug)]
pub struct SizeReply {
    /// Canonical JSON of the semantic outcome — byte-for-byte what the
    /// server rendered.
    pub result_json: String,
    /// The decoded outcome (its `lp_iterations` is 0: the semantic
    /// rendering excludes the path-dependent pivot count, which lives
    /// in [`SizeReply::trace`] instead).
    pub outcome: SizingOutcome,
    /// How the server served this request.
    pub trace: Trace,
}

impl SizeReply {
    /// Decodes a reply frame to a `size` request for `arch`. The frame
    /// is parsed once: the outcome decodes from its tape, and
    /// `result_json` is the `result` field's own bytes.
    ///
    /// # Errors
    ///
    /// Protocol or remote failures as [`ClientError`].
    pub fn parse(reply: &str, arch: &Architecture) -> Result<SizeReply, ClientError> {
        let doc = JsonDocument::parse(reply)?;
        match succeeded(Response::from_document(&doc)?)? {
            Response::Size { result, trace } => {
                let payload = doc.get("result").ok_or_else(|| unexpected("size"))?;
                Ok(SizeReply {
                    outcome: sizing_outcome_from_json(payload, arch)?,
                    result_json: result,
                    trace,
                })
            }
            _ => Err(unexpected("size")),
        }
    }
}

/// One decoded chunk frame of a `sweep_stream` answer.
#[derive(Debug)]
pub struct ChunkReply {
    /// The decoded chunk report, its points typed, ready for the merge
    /// reducer.
    pub report: ChunkReport,
    /// Canonical JSON of the chunk report — byte-for-byte what the
    /// server rendered.
    pub report_json: String,
    /// How the server served this chunk.
    pub trace: Trace,
}

/// The verified terminal summary of a `sweep_stream` answer.
///
/// [`Client::sweep_stream`] has already checked these against what the
/// stream actually delivered — a mismatch never reaches the caller as
/// a success.
#[derive(Debug, Clone, Copy)]
pub struct StreamEndReply {
    /// The manifest's config hash, echoed by the server.
    pub config_hash: u64,
    /// Chunk frames the stream carried before the summary.
    pub frames: u64,
    /// Points across those chunk frames.
    pub points: u64,
}

/// Connection tuning for a [`Client`].
///
/// Both bounds default to `None` — block indefinitely, exactly the
/// pre-timeout behaviour — so existing callers are unaffected unless
/// they opt in.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection. `None` uses the OS
    /// default blocking connect.
    pub connect_timeout: Option<Duration>,
    /// Bound on waiting for a reply frame. A server that accepts the
    /// connection but never answers (or stalls mid-frame) surfaces as
    /// [`ClientError::Io`] with kind `TimedOut` within roughly twice
    /// this bound (the deadline plus at most one socket poll).
    pub read_timeout: Option<Duration>,
}

/// Deterministic bounded retry for backpressure (`busy`) replies.
///
/// The backoff schedule is a pure function of the attempt number —
/// `min(max_delay_ms, base_delay_ms << attempt)` — so a retried
/// campaign produces the same request sequence every run and no
/// wall-clock reading ever leaks into results.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts including the first (0 behaves as 1).
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 5,
            max_delay_ms: 100,
        }
    }
}

impl RetryPolicy {
    /// The delay (ms) before the retry following attempt `attempt`
    /// (0-based): `min(max_delay_ms, base_delay_ms << attempt)`,
    /// saturating.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_delay_ms
            .saturating_mul(factor)
            .min(self.max_delay_ms)
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// A blocking connection to a sizing server.
pub struct Client {
    stream: Stream,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects over TCP (e.g. to [`crate::Server::tcp_addr`]) with no
    /// timeouts — equivalent to `connect_tcp_with(addr, ClientConfig::default())`.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> io::Result<Client> {
        Self::connect_tcp_with(addr, ClientConfig::default())
    }

    /// Connects over TCP with explicit connect/read bounds.
    ///
    /// # Errors
    ///
    /// Propagates connect errors; a connect slower than
    /// `config.connect_timeout` fails with kind `TimedOut`.
    pub fn connect_tcp_with(
        addr: std::net::SocketAddr,
        config: ClientConfig,
    ) -> io::Result<Client> {
        let stream = match config.connect_timeout {
            Some(bound) => TcpStream::connect_timeout(&addr, bound)?,
            None => TcpStream::connect(addr)?,
        };
        // Requests are single latency-sensitive frames; never let Nagle
        // hold one back behind a delayed ACK.
        stream.set_nodelay(true)?;
        if config.read_timeout.is_some() {
            // The socket timeout is the *poll* interval for the
            // deadline loop in `read_frame`, so a stall
            // mid-frame is also caught, not just a silent server.
            stream.set_read_timeout(Some(READ_POLL))?;
        }
        Ok(Client {
            stream: Stream::Tcp(stream),
            read_timeout: config.read_timeout,
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Self::connect_unix_with(path, ClientConfig::default())
    }

    /// Connects over a Unix-domain socket with a read bound
    /// (`connect_timeout` is ignored: `UnixStream` has no timed
    /// connect).
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    #[cfg(unix)]
    pub fn connect_unix_with(path: &Path, config: ClientConfig) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        if config.read_timeout.is_some() {
            stream.set_read_timeout(Some(READ_POLL))?;
        }
        Ok(Client {
            stream: Stream::Unix(stream),
            read_timeout: config.read_timeout,
        })
    }

    /// Sends one raw JSON frame and reads the reply frame, honouring
    /// the configured read bound.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (a server that closed
    /// the connection surfaces as `UnexpectedEof`; one that stalls
    /// past the read bound as `TimedOut`).
    pub fn request_raw(&mut self, payload: &str) -> Result<String, ClientError> {
        self.write_request(payload)?;
        self.read_reply()
    }

    fn write_request(&mut self, payload: &str) -> Result<(), ClientError> {
        match &mut self.stream {
            Stream::Tcp(s) => write_frame(s, payload),
            #[cfg(unix)]
            Stream::Unix(s) => write_frame(s, payload),
        }?;
        Ok(())
    }

    /// Reads one reply frame. The read bound applies per frame, so a
    /// multi-frame stream is allowed to take longer overall than one
    /// request — what it may not do is stall between frames.
    fn read_reply(&mut self) -> Result<String, ClientError> {
        let deadline = self.read_timeout.map(|bound| Instant::now() + bound);
        match &mut self.stream {
            Stream::Tcp(s) => read_frame(s, deadline),
            #[cfg(unix)]
            Stream::Unix(s) => read_frame(s, deadline),
        }?
        .ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without answering",
            ))
        })
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let reply = self.request_raw(&req.to_json())?;
        succeeded(Response::parse(&reply)?)
    }

    /// Solves one sizing problem on the server.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or remote failures as [`ClientError`].
    pub fn size(
        &mut self,
        arch: &Architecture,
        config: &SizingConfig,
        budget: usize,
    ) -> Result<SizeReply, ClientError> {
        let reply = self.request_raw(&Request::size_json(arch, config, budget))?;
        SizeReply::parse(&reply, arch)
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or remote failures as [`ClientError`].
    pub fn health(&mut self) -> Result<Health, ClientError> {
        match self.request(&Request::Health)? {
            Response::Health(h) => Ok(h),
            _ => Err(unexpected("health")),
        }
    }

    /// Asks the server to drain.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or remote failures as [`ClientError`].
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Drain)? {
            Response::Draining => Ok(()),
            _ => Err(unexpected("drain")),
        }
    }

    /// Streams manifest chunks from the server, invoking `on_chunk`
    /// for each chunk frame as it arrives, until the terminal
    /// [`Response::StreamEnd`] summary.
    ///
    /// `chunks` selects the chunk indices to execute, in the order
    /// frames should arrive (`None` = every chunk, in manifest order;
    /// `Some(&[k])` fetches chunk `k` alone). The callback typically
    /// feeds each report straight into a merge reducer so only
    /// in-flight points stay resident — this is the verb behind
    /// [`ShardFleet::run_manifest_to_sink`].
    ///
    /// The terminal summary is verified against what was actually
    /// consumed: a config-hash, frame-count, or point-count mismatch
    /// surfaces as a protocol error rather than a success.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or remote failures as [`ClientError`]. Each
    /// chunk frame is decoded, points included, before `on_chunk` sees
    /// it, so a frame with a bad point fails the stream as
    /// [`ClientError::Wire`]. An error frame mid-stream — the server's
    /// way of ending a failed stream — surfaces as
    /// [`ClientError::Remote`]. Errors from `on_chunk` propagate
    /// unchanged; the stream is abandoned with frames possibly still in
    /// flight, so the connection should be discarded afterwards.
    pub fn sweep_stream(
        &mut self,
        manifest: &CampaignManifest,
        chunks: Option<&[usize]>,
        mut on_chunk: impl FnMut(ChunkReply) -> Result<(), ClientError>,
    ) -> Result<StreamEndReply, ClientError> {
        self.write_request(&Request::sweep_stream_json(manifest, chunks))?;
        let mut frames = 0u64;
        let mut points = 0u64;
        loop {
            let reply = self.read_reply()?;
            let doc = JsonDocument::parse(&reply)?;
            match succeeded(Response::from_document(&doc)?)? {
                Response::Chunk { report, trace } => {
                    let payload = doc
                        .get("chunk_report")
                        .ok_or_else(|| unexpected("sweep_stream"))?;
                    let decoded = ChunkReport::from_json(payload)?;
                    frames += 1;
                    points += decoded.points.len() as u64;
                    on_chunk(ChunkReply {
                        report: decoded,
                        report_json: report,
                        trace,
                    })?;
                }
                Response::StreamEnd {
                    config_hash,
                    frames: sent_frames,
                    points: sent_points,
                } => {
                    if config_hash != manifest.config_hash {
                        return Err(ClientError::Wire(WireError::Schema(format!(
                            "stream summary is for config {config_hash:016x} but the manifest \
                             hashes to {:016x}",
                            manifest.config_hash
                        ))));
                    }
                    if sent_frames != frames || sent_points != points {
                        return Err(ClientError::Wire(WireError::Schema(format!(
                            "stream summary claims {sent_frames} frames carrying {sent_points} \
                             points; this client consumed {frames} frames carrying {points}"
                        ))));
                    }
                    return Ok(StreamEndReply {
                        config_hash,
                        frames,
                        points,
                    });
                }
                _ => return Err(unexpected("sweep_stream")),
            }
        }
    }

    /// Runs `op`, retrying on backpressure (`busy`) with the policy's
    /// deterministic backoff. Any other failure — and the final
    /// attempt's `busy` — propagates unchanged.
    ///
    /// # Errors
    ///
    /// Whatever the last attempt of `op` returned.
    pub fn with_retry<T>(
        &mut self,
        policy: &RetryPolicy,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Err(ClientError::Remote {
                    message,
                    retry_after_ms,
                }) if message == "busy" && attempt + 1 < policy.max_attempts.max(1) => {
                    // The hint is advisory; the policy's own schedule
                    // keeps the request sequence deterministic.
                    let _ = retry_after_ms;
                    std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt)));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

/// A decoded reply, with the server's failure responses (`busy` and
/// any error) turned into [`ClientError::Remote`].
fn succeeded(response: Response) -> Result<Response, ClientError> {
    match response {
        Response::Busy { retry_after_ms } => Err(ClientError::Remote {
            message: "busy".into(),
            retry_after_ms: Some(retry_after_ms),
        }),
        Response::Error { message } => Err(ClientError::Remote {
            message,
            retry_after_ms: None,
        }),
        ok => Ok(ok),
    }
}

fn unexpected(req: &str) -> ClientError {
    ClientError::Wire(WireError::Schema(format!(
        "response shape does not match the \"{req}\" request"
    )))
}

/// Coordinator-side fan-out: one connection per shard, chunks assigned
/// round-robin (`chunk c` → `shard c % n`), each shard's share streamed
/// back over one `sweep_stream` request and merged in index order
/// ([`ShardFleet::run_manifest_to_sink`]). A caller that wants the
/// whole report collects into a `socbuf_sweep::VecSink` and builds a
/// `SweepReport` from its points.
///
/// The assignment is a pure function of `(num_chunks, shards)` — never
/// of timing — so reruns issue identical request sequences. Each shard
/// runs its share on its own pool and answers on its own coordinator
/// thread, retrying backpressure under the fleet's [`RetryPolicy`].
/// Warm chains inside a chunk are preserved by construction (a chunk
/// never splits), which is what keeps the merged bytes identical to a
/// serial run.
pub struct ShardFleet {
    clients: Vec<Client>,
    retry: RetryPolicy,
}

impl ShardFleet {
    /// Builds a fleet over pre-connected clients.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty — a fleet with no shards cannot
    /// cover any chunk.
    #[must_use]
    pub fn new(clients: Vec<Client>, retry: RetryPolicy) -> ShardFleet {
        assert!(
            !clients.is_empty(),
            "a shard fleet needs at least one client"
        );
        ShardFleet { clients, retry }
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.clients.len()
    }

    /// Streams every chunk of `manifest` across the fleet into `sink`,
    /// merging frames through a shared [`StreamingReducer`] as they
    /// arrive.
    ///
    /// The chunk assignment is the pure `chunk c` → `shard c % n`
    /// round-robin, and no per-chunk report vector is ever
    /// materialised: each shard issues
    /// one `sweep_stream` request for its subset and ingests frames
    /// into the reducer the moment they land, so the coordinator's
    /// resident footprint is the reducer's out-of-order parking lot
    /// ([`ReduceStats::peak_resident_points`]), not the campaign. The
    /// sink sees points in strict index order regardless of how shard
    /// streams interleave, which keeps the merged bytes identical to
    /// the serial run.
    ///
    /// # Errors
    ///
    /// [`StreamMergeError::Merge`] when the reducer rejects a frame
    /// (or coverage is incomplete at the end);
    /// [`StreamMergeError::Client`] with the lowest failing shard
    /// index otherwise. On any failure the fan-out is abandoned and
    /// the fleet's connections should be discarded — streams may still
    /// have frames in flight.
    pub fn run_manifest_to_sink<S: PointSink + Send>(
        &mut self,
        manifest: &CampaignManifest,
        sink: S,
    ) -> Result<(S, ReduceStats), StreamMergeError> {
        let shards = self.clients.len();
        let num_chunks = manifest.chunks.len();
        let retry = self.retry;
        let reducer = Mutex::new(StreamingReducer::new(manifest, sink));
        // The first merge rejection wins; the sentinel transport error
        // it leaves behind in the shard result is never reported.
        let merge_failure: Mutex<Option<MergeError>> = Mutex::new(None);
        let mut per_shard: Vec<Result<StreamEndReply, ClientError>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(shard, client)| {
                    let reducer = &reducer;
                    let merge_failure = &merge_failure;
                    scope.spawn(move || {
                        let subset: Vec<usize> =
                            (shard..num_chunks).step_by(shards.max(1)).collect();
                        client.with_retry(&retry, |c| {
                            c.sweep_stream(manifest, Some(&subset), |reply| {
                                let mut guard = reducer.lock().expect("reducer mutex poisoned");
                                guard.ingest(reply.report).map_err(|e| {
                                    let mut slot =
                                        merge_failure.lock().expect("merge-failure mutex poisoned");
                                    if slot.is_none() {
                                        *slot = Some(e);
                                    }
                                    ClientError::Io(io::Error::other(
                                        "stream abandoned: the merge reducer rejected a frame",
                                    ))
                                })
                            })
                        })
                    })
                })
                .collect();
            for handle in handles {
                per_shard.push(handle.join().expect("shard thread panicked"));
            }
        });
        if let Some(e) = merge_failure
            .into_inner()
            .expect("merge-failure mutex poisoned")
        {
            return Err(StreamMergeError::Merge(e));
        }
        for (shard, result) in per_shard.into_iter().enumerate() {
            if let Err(source) = result {
                return Err(StreamMergeError::Client { shard, source });
            }
        }
        reducer
            .into_inner()
            .expect("reducer mutex poisoned")
            .finish()
            .map_err(StreamMergeError::Merge)
    }
}

/// A [`ShardFleet::run_manifest_to_sink`] failure: either a shard's
/// transport/remote failure or the merge reducer's rejection of a
/// frame.
#[derive(Debug)]
pub enum StreamMergeError {
    /// A shard's stream failed.
    Client {
        /// The failing shard's index (lowest when several failed).
        shard: usize,
        /// The underlying client failure.
        source: ClientError,
    },
    /// The merge reducer rejected a frame, or coverage was incomplete
    /// when every stream had ended.
    Merge(MergeError),
}

impl std::fmt::Display for StreamMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamMergeError::Client { shard, source } => {
                write!(f, "shard {shard} stream failed: {source}")
            }
            StreamMergeError::Merge(e) => write!(f, "stream merge failed: {e}"),
        }
    }
}

impl std::error::Error for StreamMergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamMergeError::Client { source, .. } => Some(source),
            StreamMergeError::Merge(e) => Some(e),
        }
    }
}

impl From<MergeError> for StreamMergeError {
    fn from(e: MergeError) -> Self {
        StreamMergeError::Merge(e)
    }
}

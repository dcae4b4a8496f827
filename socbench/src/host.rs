//! The host header every result carries, the reference clock that scales
//! gated times to a nominal host, and process memory.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where and what the benchmark ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub cores: usize,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Git commit of the checkout, or `none` outside a git work tree.
    pub commit: String,
    /// FNV-1a 64 digest of the program's sources, which identifies the
    /// code when no git metadata is present.
    pub source_digest: String,
    /// Seconds since the Unix epoch at start.
    pub unix_time: u64,
}

impl Host {
    /// Probes the host from the checkout root `root`.
    pub fn probe(root: &Path) -> Host {
        Host {
            cores: cores(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(root).unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest(root)),
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// The header as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"profile\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\",\"unix_time\":{}}}",
            self.cores, self.profile, self.commit, self.source_digest, self.unix_time
        )
    }
}

/// Worker width the workloads use: the host's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(sha, _)| sha.to_string())
}

/// Digest over the workspace sources and manifests, in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| match fs::read(f) {
        Ok(bytes) => {
            let name = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
            fnv1a(fnv1a(h, name.as_bytes()), &bytes)
        }
        Err(_) => h,
    })
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends FNV-1a 64 state `h` with `bytes`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// Bytes the reference kernel keeps resident.
const REF_BYTES: usize = 2 << 20;

/// Time one reference-kernel run takes on the nominal host.
pub const REF_NOMINAL: Duration = Duration::from_millis(1);

/// How often a measuring loop samples the reference kernel.
pub const REF_EVERY: Duration = Duration::from_millis(25);

/// A fixed benchmark-side kernel — a pseudo-random read-modify-write
/// walk over a few MiB, memory-bound like the solver — timed between
/// operations, never beside them. On a shared host the program's speed
/// drifts with what the neighbours do; the kernel drifts with it, so
/// operation times divided by the kernel's time are steady across runs
/// while a change to the program still moves them fully. Means are
/// scaled by the kernel's mean time and medians by its median time.
#[derive(Debug)]
pub struct RefClock {
    buf: Vec<u64>,
    state: u64,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl RefClock {
    /// A clock with its buffer resident.
    pub fn new() -> RefClock {
        RefClock {
            buf: vec![1; REF_BYTES / 8],
            state: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
            last: None,
        }
    }

    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let n = self.buf.len() as u64;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            self.buf[i] = self.buf[i].wrapping_add(x);
            acc = acc.wrapping_add(self.buf[i]);
        }
        self.samples.push(t.elapsed().as_secs_f64());
        self.state = std::hint::black_box(x ^ acc);
        self.last = Some(Instant::now());
    }

    /// Samples when [`REF_EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= REF_EVERY) {
            self.sample();
        }
    }

    /// Forgets the samples taken so far and takes a fresh one.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.sample();
    }

    /// Mean kernel time over [`REF_NOMINAL`]: above 1 the host ran
    /// slower than nominal.
    pub fn mean_slowdown(&self) -> f64 {
        crate::stats::mean(&self.samples) / REF_NOMINAL.as_secs_f64()
    }

    /// Median kernel time over [`REF_NOMINAL`].
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.samples) / REF_NOMINAL.as_secs_f64()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`) less the
/// reference kernel's buffer, or 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    (peak_rss_total_mb() - REF_BYTES as f64 / (1024.0 * 1024.0)).max(0.0)
}

fn peak_rss_total_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Shared helpers for the experiment binaries and developer probes.
//!
//! The binaries in `src/bin/` regenerate the paper's artifacts:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_nonlinear` | §2 narrative — the unsplit system is quadratic and resists naive solving |
//! | `fig2_split` | Figure 2 — the four split subsystems |
//! | `fig3_loss_rates` | Figure 3 — per-processor losses under three policies |
//! | `table1_budget_sweep` | Table 1 — pre/post losses at budgets 160/320/640 |
//! | `ablation_alpha` | sensitivity to the budget-row tightness α |
//! | `ablation_granularity` | sensitivity to CTMDP state/effort granularity |
//! | `ablation_allocators` | uniform vs traffic-proportional vs CTMDP allocation |
//! | `lp_scaling_probe` | developer probe: joint-LP pivot scaling (not a paper artifact) |
//! | `warmstart_probe` | developer probe: warm-chained vs cold-started sweeps and warm-sweep wall time across worker counts (not a paper artifact) |
//! | `decomp_probe` | developer probe: block-angular decomposition vs the monolithic solve (not a paper artifact) |
//! | `serve_probe` | developer probe: `socbuf-serve` round-trip latency, byte parity and warm-hit pivots (not a paper artifact) |
//! | `actor_probe` | developer probe: simulator envelopes per run, extended-semantics determinism and allocations per replication (not a paper artifact) |
//! | `shard_probe` | developer probe: sharded campaigns over self-exec'd shard servers, byte-diffed against the serial run (not a paper artifact) |
//! | `scale_probe` | developer probe: 10⁵-point streamed campaigns, byte identity, bounded residency and `BENCH_scale.json` (not a paper artifact) |
//!
//! The seven developer probes share one harness, [`probe`]: flag
//! dispatch (`--smoke` runs the CI gates, no flag the full table),
//! best-of and alternated timing, gate accounting, and the fixtures
//! they have in common. Every smoke gate is an identity or a count, so
//! a smoke gives the same verdict on any host.
//!
//! # `BENCH_*.json`
//!
//! Probes that record a trajectory write it through [`write_bench_json`]
//! to `BENCH_<probe>.json` in the working directory, so perf can be
//! tracked across commits. Every file opens with the same host header:
//!
//! ```json
//! {
//!   "commit": "5d1c0e7…",              // `git rev-parse HEAD`, "-dirty" if the tree differs
//!   "cores": 2,                        // available parallelism
//!   "profile": "release",              // build profile of the probe
//!   "unix_time": 1792194264,           // when the file was written
//!   …                                  // the probe's own fields
//! }
//! ```
//!
//! `decomp_probe --json` writes `BENCH_decomp.json`. Its fields after
//! the header, all always present:
//!
//! ```json
//! {
//!   "blocks": 8,                       // detected per-bus blocks
//!   "state_cap": 64,                   // CTMDP occupancy states per queue
//!   "budget": 48,                      // total buffer budget (binds the coupling row)
//!   "wall_ms": {
//!     "monolithic_revised": 512.3,     // joint revised simplex solve
//!     "decomposed_serial": 201.7,      // decomposed engine, blocks on one thread
//!     "decomposed_pooled": 102.4       // decomposed engine, blocks over WorkPool::available()
//!   },
//!   "speedup_pooled_vs_monolithic": 5.0,
//!   "multiplier_iterations": 32        // block sweeps spent in the multiplier search
//! }
//! ```
//!
//! Wall times are best-of-repeats; everything else is deterministic and
//! identical across runs and executors.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use socbuf_core::PipelineConfig;
use socbuf_serve::Client;

use probe::OrExit;

pub mod alloc;
pub mod probe;

/// The standard experiment configuration used by the paper-facing
/// binaries: 10 replications (as in the paper), a 1000-time-unit horizon
/// and a fixed base seed for reproducibility.
pub fn paper_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        horizon: 1000.0,
        warmup: 100.0,
        seed: 2005,
        replications: 10,
        ..PipelineConfig::default()
    }
}

/// Renders a rough ASCII bar of width proportional to `value / max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// The host's available parallelism (1 when it cannot be determined),
/// printed beside every wall-time ratio and in the `BENCH_*.json`
/// header.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Writes `path` in the working directory as one JSON object: the host
/// header (`commit`, `cores`, `profile`, `unix_time`; see the crate
/// docs), then the probe's `fields`, each a rendered `"key": value`
/// member. Exits the probe with status 2 when the file cannot be
/// written.
pub fn write_bench_json(path: &str, fields: &[String]) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let header = [
        format!("\"commit\": \"{}\"", commit()),
        format!("\"cores\": {}", cores()),
        format!("\"profile\": \"{profile}\""),
        format!("\"unix_time\": {unix_time}"),
    ];
    let members: Vec<String> = header
        .iter()
        .chain(fields)
        .map(|m| format!("  {m}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", members.join(",\n"));
    std::fs::write(path, json).or_exit(format_args!("failed to write {path}"));
    println!("wrote {path}");
}

/// The checked-out commit, suffixed `-dirty` when the working tree
/// differs from it outside the `BENCH_*.json` outputs themselves;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let hash = String::from_utf8_lossy(&head.stdout).trim().to_string();
    if git(&["diff", "--quiet", "HEAD", "--", ":/", ":/!BENCH_*.json"]).is_some() {
        hash
    } else {
        format!("{hash}-dirty")
    }
}

/// One shard-server process: the calling probe binary re-executed with
/// `--worker` (see [`socbuf_serve::shard_worker_main`]). The worker
/// announces its ephemeral port as `PORT <n>` on stdout and lives until
/// its stdin closes, which dropping this handle does.
pub struct ShardProcess {
    child: Child,
    _stdin: ChildStdin,
    addr: SocketAddr,
}

impl ShardProcess {
    /// Spawns the worker and waits for its port announcement; exits the
    /// probe with status 2 when the worker cannot start.
    pub fn spawn() -> ShardProcess {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .or_exit("cannot spawn shard worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker announces its port");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .unwrap_or_else(|| {
                eprintln!("worker printed {line:?}, expected \"PORT <n>\"");
                std::process::exit(2);
            })
            .parse()
            .expect("valid port");
        let stdin = child.stdin.take().expect("piped stdin");
        ShardProcess {
            child,
            _stdin: stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        }
    }

    /// Serves as a shard worker and exits when the probe was started
    /// with `--worker` (as [`ShardProcess::spawn`] starts it); returns
    /// at once otherwise.
    pub fn worker_if_asked() {
        if probe::flag("--worker") {
            socbuf_serve::shard_worker_main(socbuf_serve::ServerConfig::default())
                .or_exit("shard worker failed");
            std::process::exit(0);
        }
    }

    /// A fresh client connection to the worker.
    pub fn client(&self) -> Client {
        Client::connect_tcp(self.addr).expect("connect to shard")
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        // The EOF signal (dropping `_stdin`) is the graceful path;
        // kill() on top keeps cleanup robust if the worker ever hangs.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn paper_config_matches_paper() {
        let c = paper_pipeline_config();
        assert_eq!(c.replications, 10);
    }
}

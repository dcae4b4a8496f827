//! `socbench`: the socbuf benchmark.
//!
//! ```text
//! socbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the workload several times (reporting the median set-up
//! time), checks the set-up's answers, then either measures the
//! workload untraced for `--seconds` (`--trace 0`, the end-to-end
//! metrics) or runs it untraced and then traced over the same
//! operations (`--trace 1`, the per-layer metrics). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is a header with the
//! host, the workload-specific figures and, for traced runs, the
//! tracing overhead. See `README.md` for the metric → layer → workload
//! map.

mod canary;
mod host;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use host::{Host, RefClock};
use stats::Tally;
use trace::Span;
use workloads::policy::PolicyEval;
use workloads::serve::ServeMixed;
use workloads::size_cold::SizeCold;
use workloads::sweep::{Delta, Sweep};
use workloads::{Measured, Traced};

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 5;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 5] = [
    "sweep_budget",
    "sweep_load",
    "size_cold",
    "serve_mixed",
    "policy_eval",
];

/// Per-layer metrics every traced run reports (0 where the workload
/// does not reach the call), with their units.
const PER_LAYER: [(&str, &str); 42] = [
    ("core.build_us", "us"),
    ("core.solve_us", "us"),
    ("lp.assemble_us", "us"),
    ("lp.solve_us", "us"),
    ("lp.pivots_cold", "count"),
    ("core.interpret_us", "us"),
    ("lp.ladder_retries", "count"),
    ("core.translate_us", "us"),
    ("core.chain_start_us", "us"),
    ("core.warm_point_us", "us"),
    ("lp.pivots_warm", "count"),
    ("lp.zero_pivot_frac", "frac"),
    ("core.load_point_us", "us"),
    ("lp.pivots_load", "count"),
    ("soc.scale_us", "us"),
    ("sweep.render_us", "us"),
    ("sweep.peak_parked_chunks", "count"),
    ("serve.solve_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.overhead_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.warm_hit_frac", "frac"),
    ("serve.evictions", "count"),
    ("serve.busy_frac", "frac"),
    ("serve.stream_points_per_s", "1/s"),
    ("sim.legacy_rep_ms", "ms"),
    ("sim.actors_rep_ms", "ms"),
    ("sim.legacy_offered_per_s", "1/s"),
    ("sim.actors_offered_per_s", "1/s"),
    ("sim.share", "frac"),
    ("sim.actors_over_legacy", "x"),
    ("core.eval_size_ms", "ms"),
    ("core.evaluate_self_ms", "ms"),
    ("soc.self_pct", "%"),
    ("core.self_pct", "%"),
    ("lp.self_pct", "%"),
    ("sweep.self_pct", "%"),
    ("serve.self_pct", "%"),
    ("sim.self_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Per-call metrics read straight off the spans: `(metric, span name,
/// nanoseconds per unit)`, each the mean duration of the named spans.
const PER_CALL: [(&str, &str, f64); 14] = [
    ("core.build_us", "core.build", 1e3),
    ("core.solve_us", "core.solve", 1e3),
    ("lp.assemble_us", "lp.assemble", 1e3),
    ("lp.solve_us", "lp.solve", 1e3),
    ("core.translate_us", "core.translate", 1e3),
    ("core.chain_start_us", "core.chain_start", 1e3),
    ("core.warm_point_us", "core.warm_point", 1e3),
    ("core.load_point_us", "core.load_point", 1e3),
    ("soc.scale_us", "soc.scale", 1e3),
    ("wire.encode_us", "wire.encode", 1e3),
    ("wire.decode_us", "wire.decode", 1e3),
    ("sim.legacy_rep_ms", "sim.legacy_rep", 1e6),
    ("sim.actors_rep_ms", "sim.actors_rep", 1e6),
    ("core.eval_size_ms", "core.eval_size", 1e6),
];

/// Layers whose self-time shares are reported, with their metric.
const LAYERS: [(&str, &str); 6] = [
    ("soc", "soc.self_pct"),
    ("core", "core.self_pct"),
    ("lp", "lp.self_pct"),
    ("sweep", "sweep.self_pct"),
    ("serve", "serve.self_pct"),
    ("sim", "sim.self_pct"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A set-up workload.
enum State {
    Sweep(Sweep),
    SizeCold(SizeCold),
    Serve(ServeMixed),
    Policy(PolicyEval),
}

impl State {
    fn setup(workload: &str, seed: u64) -> Result<State, String> {
        Ok(match workload {
            "sweep_budget" => State::Sweep(workloads::sweep::setup(Delta::Budget, seed)?),
            "sweep_load" => State::Sweep(workloads::sweep::setup(Delta::Load, seed)?),
            "size_cold" => State::SizeCold(workloads::size_cold::setup(seed)?),
            "serve_mixed" => State::Serve(workloads::serve::setup(seed)?),
            "policy_eval" => State::Policy(workloads::policy::setup(seed)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn validate(&mut self) -> Tally {
        match self {
            State::Sweep(s) => s.validate(),
            State::SizeCold(s) => s.validate(),
            State::Serve(s) => s.validate(),
            State::Policy(s) => s.validate(),
        }
    }

    fn measure(&mut self, budget: Duration, clock: &mut RefClock) -> Measured {
        match self {
            State::Sweep(s) => s.measure(budget, clock),
            State::SizeCold(s) => s.measure(budget, clock),
            State::Serve(s) => s.measure(budget, clock),
            State::Policy(s) => s.measure(budget, clock),
        }
    }

    fn trace(&mut self, budget: Duration) -> Traced {
        match self {
            State::Sweep(s) => s.trace(budget),
            State::SizeCold(s) => s.trace(budget),
            State::Serve(s) => s.trace(budget),
            State::Policy(s) => s.trace(budget),
        }
    }
}

/// Renders a metrics object: `{"name":{"value":v,"unit":"u"},…}`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A finite number as JSON (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn pairs_json(pairs: &[(&str, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn result_line(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(metrics)
    )
}

/// End-to-end metrics of an untraced run. Gated times are scaled to
/// the nominal host (see [`RefClock`]); the header also carries them as
/// measured.
fn end_to_end(setup: (f64, f64), m: &Measured) -> (Vec<(&'static str, f64, &'static str)>, String) {
    let (setup_raw, setup_slowdown) = setup;
    let p50 = stats::median(&m.latencies_ms);
    let (tail_q, tail) = stats::tail(&m.latencies_ms, m.wanted_tail).unwrap_or((0.5, p50));
    let (mean_slowdown, median_slowdown) = m.slowdown;
    let metrics = vec![
        ("setup_s", setup_raw / setup_slowdown, "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        (
            "throughput_per_s",
            m.throughput_per_s * mean_slowdown,
            "1/s",
        ),
        ("latency_p50_ms", p50 / median_slowdown, "ms"),
    ];
    // The tail is printed with its percentile and sample count but not
    // gated: on a shared 2-core host its run-to-run spread exceeds any
    // bound a regression gate can use.
    let p50_name = format!("{}_p50_ms", m.op_name);
    let tail_name = format!("{}_p{}_ms", m.op_name, (tail_q * 100.0).round());
    let mut aliases: Vec<(&str, f64)> = m
        .aliases
        .iter()
        .map(|&(k, v)| (k, v * mean_slowdown))
        .collect();
    aliases.push((&p50_name, p50 / median_slowdown));
    aliases.push((&tail_name, tail / median_slowdown));
    let raw = [
        ("setup_s", setup_raw),
        ("throughput_per_s", m.throughput_per_s),
        ("latency_p50_ms", p50),
        (tail_name.as_str(), tail),
    ];
    let header = format!(
        "\"samples\":{},\"aliases\":{},\"host_slowdown\":{{\"mean\":{},\"median\":{}}},\
         \"setup_slowdown\":{},\"as_measured\":{}",
        m.latencies_ms.len(),
        pairs_json(&aliases),
        num(mean_slowdown),
        num(median_slowdown),
        num(setup_slowdown),
        pairs_json(&raw)
    );
    (metrics, header)
}

/// Per-layer metrics of a traced run.
fn per_layer(t: &Traced) -> (Vec<(&'static str, f64, &'static str)>, String) {
    let spans = &t.spans;
    let own = trace::self_times(spans);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, name, scale) in PER_CALL {
        let durs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / scale)
            .collect();
        values.insert(metric, stats::mean(&durs));
    }
    let mean_self = |name: &str, scale: f64| {
        let v: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / scale)
            .collect();
        stats::mean(&v)
    };
    values.insert("core.interpret_us", mean_self("core.solve", 1e3));
    values.insert("core.evaluate_self_ms", mean_self("core.evaluate", 1e6));

    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        if !s.name.starts_with("op.") {
            *layer_ns.entry(s.layer()).or_default() += ns;
        }
    }
    let total: u64 = layer_ns.values().sum();
    let self_ms: Vec<(&str, f64)> = layer_ns
        .iter()
        .map(|(layer, ns)| (*layer, *ns as f64 / 1e6))
        .collect();
    for (layer, metric) in LAYERS {
        let share = layer_ns.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64;
        values.insert(metric, 100.0 * share);
    }
    let attributed = trace::attributed_ns(spans);
    let unattributed = t.traced_ns.saturating_sub(attributed);
    let unattributed_pct = 100.0 * unattributed as f64 / t.traced_ns.max(1) as f64;
    let overhead_pct =
        100.0 * (t.traced_ns as f64 - t.untraced_ns as f64) / t.untraced_ns.max(1) as f64;
    values.insert("trace.unattributed_pct", unattributed_pct);
    values.insert("trace.overhead_pct", overhead_pct);
    for &(name, value) in &t.layer {
        values.insert(name, value);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let header = format!(
        "\"ops\":{},\"spans\":{},\"traced_wall_s\":{},\"untraced_wall_s\":{},\
         \"tracing_overhead_pct\":{},\"unattributed_pct\":{},\"layer_self_ms\":{}",
        t.ops,
        spans.len(),
        num(t.traced_ns as f64 / 1e9),
        num(t.untraced_ns as f64 / 1e9),
        num(overhead_pct),
        num(unattributed_pct),
        pairs_json(&self_ms)
    );
    (metrics, header)
}

/// Writes the traced run's spans next to the benchmark, returning the
/// path written.
fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> Option<String> {
    let dir = Path::new("socbench").join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_jsonl(spans, &mut out)?;
        std::io::Write::flush(&mut out)
    };
    match write() {
        Ok(()) => Some(path.to_string_lossy().into_owned()),
        Err(e) => {
            eprintln!("could not write spans to {}: {e}", path.display());
            None
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let host = Host::probe(Path::new("."));
    let mut clock = RefClock::new();
    clock.reset();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(State::setup(&args.workload, args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
        clock.sample();
    }
    let mut state = state.expect("at least one set-up");
    let setup = (stats::median(&setups), clock.median_slowdown());
    let mut tally = state.validate();
    let budget = Duration::from_secs(args.seconds);
    let (metrics, detail) = if args.trace {
        let traced = state.trace(budget);
        tally.merge(traced.tally);
        let spans_file = write_spans(&args.workload, args.seed, &traced.spans);
        let (metrics, detail) = per_layer(&traced);
        let file = spans_file.map_or("null".into(), |p| format!("\"{p}\""));
        // Per-layer times are as measured; the set-up slowdown says how
        // fast the host ran.
        let slowdown = num(setup.1);
        (
            metrics,
            format!("{detail},\"setup_slowdown\":{slowdown},\"spans_file\":{file}"),
        )
    } else {
        let measured = state.measure(budget, &mut clock);
        tally.merge(measured.tally);
        end_to_end(setup, &measured)
    };
    drop(state);
    // After the metrics, so its solves stay out of the peak memory.
    tally.merge(canary::check());
    let setup_runs: Vec<String> = setups.iter().map(|s| num(*s)).collect();
    println!(
        "{{\"host\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"setup_runs_s\":[{}],\"fail_frac\":{},{}}}",
        host.to_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup_runs.join(","),
        num(tally.fail_frac()),
        detail
    );
    println!("{}", result_line(tally, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("socbench: {e}");
            eprintln!(
                "usage: socbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("socbench: {e}");
        std::process::exit(1);
    }
}

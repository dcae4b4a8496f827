//! Developer probe: joint-LP size/pivot scaling across templates and
//! CTMDP granularities, now engine-vs-engine (not a paper artifact;
//! kept for regression hunting on solver performance).
//!
//! Every configuration is solved with both LP engines and the probe
//! prints pivots and wall time side by side, so a performance
//! regression in either engine — or a lost crossover — is visible in
//! one run.
//!
//! `--smoke` runs a CI-sized subset on the [`socbuf_bench::probe`]
//! harness, which exits with the number of failed gates. It fails
//! unless the revised engine beats the tableau on the
//! `network_processor` template at `state_cap = 16` (within a 1.15×
//! noise margin, on every host), which is the acceptance bar for making the
//! revised engine the default. Results must also agree to 1e-9
//! relative, so the smoke doubles as a cross-engine oracle on the
//! biggest template.
//!
//! The smoke additionally gates the **equilibration layer** on the
//! ill-conditioned corpus (`templates::ill_conditioned`, rates
//! log-uniform over 1e-3..1e3): with equilibration on, the engines must
//! agree to 1e-9, the solve with equilibration off must return the same
//! objective (scaling is a pure numerics change), the condition
//! estimate must drop on every instance the trigger fires for, and the
//! trigger must actually fire on a healthy fraction of the corpus.

use socbuf_bench::probe::{self, best_of, ratio, Gate};
use socbuf_core::{SizingConfig, SizingLp};
use socbuf_lp::{LpEngine, SimplexOptions};
use socbuf_soc::templates;
use std::time::Duration;

struct EngineRun {
    pivots: usize,
    /// Best wall time over `repeats` solves (noise-robust: the CI smoke
    /// gate compares these).
    time: Duration,
    loss: f64,
    vars: usize,
    rows: usize,
}

fn run_engine(
    arch: &socbuf_soc::Architecture,
    budget: usize,
    cap: usize,
    lev: usize,
    engine: LpEngine,
    repeats: usize,
) -> Result<EngineRun, String> {
    let cfg = SizingConfig {
        state_cap: cap,
        effort_levels: lev,
        engine,
        ..SizingConfig::default()
    };
    let lp = SizingLp::build(arch, budget, &cfg).map_err(|e| e.to_string())?;
    let (sol, time) = best_of(repeats, || lp.solve());
    let sol = sol.map_err(|e| format!("failed after {time:?}: {e}"))?;
    Ok(EngineRun {
        pivots: sol.lp_iterations,
        time,
        loss: sol.loss_rate,
        vars: lp.num_vars(),
        rows: lp.num_rows(),
    })
}

/// Probes one (template, cap, lev) cell with both engines and prints
/// the comparison. Returns `(revised, tableau)` when both solved.
fn compare(
    name: &str,
    arch: &socbuf_soc::Architecture,
    budget: usize,
    cap: usize,
    lev: usize,
    repeats: usize,
) -> Option<(EngineRun, EngineRun)> {
    let revised = run_engine(arch, budget, cap, lev, LpEngine::Revised, repeats);
    let tableau = run_engine(arch, budget, cap, lev, LpEngine::Tableau, repeats);
    let (vars, rows) = match (&revised, &tableau) {
        (Ok(r), _) => (r.vars, r.rows),
        (_, Ok(t)) => (t.vars, t.rows),
        _ => (0, 0),
    };
    print!("{name} cap={cap} lev={lev}: vars={vars} rows={rows}");
    match (&revised, &tableau) {
        (Ok(r), Ok(t)) => {
            println!(
                "  revised: pivots={} time={:?}  tableau: pivots={} time={:?}  speedup={:.2}x  loss={:.6}",
                r.pivots,
                r.time,
                t.pivots,
                t.time,
                ratio(t.time, r.time),
                r.loss
            );
        }
        (r, t) => {
            if let Err(e) = r {
                print!("  revised FAILED: {e}");
            }
            if let Err(e) = t {
                print!("  tableau FAILED: {e}");
            }
            println!();
        }
    }
    Some((revised.ok()?, tableau.ok()?))
}

fn full_sweep() {
    for ((name, arch), budget) in probe::named_templates().into_iter().zip([22, 16, 20, 320]) {
        for (cap, lev) in [(8usize, 3usize), (12, 3), (16, 4), (20, 4), (24, 5)] {
            compare(name, &arch, budget, cap, lev, 1);
        }
    }
}

/// Whether two objectives differ beyond 1e-9 relative.
fn disagree(a: f64, b: f64) -> bool {
    (a - b).abs() > 1e-9 * (1.0 + a.abs())
}

/// Equilibration gate over the ill-conditioned corpus.
fn ill_conditioned_gate(gate: &mut Gate) {
    let failures_before = gate.failures();
    let mut applied = 0usize;
    let mut solved = 0usize;
    let corpus_size = 12u64;
    let lp_opts = |engine: LpEngine, equilibrate: bool| SimplexOptions {
        engine,
        equilibrate,
        perturbation: 1e-6,
        max_iterations: 200_000,
        ..SimplexOptions::default()
    };
    for seed in 0..corpus_size {
        let arch = templates::ill_conditioned(seed);
        let cfg = SizingConfig {
            state_cap: 8,
            effort_levels: 3,
            ..SizingConfig::default()
        };
        let lp = match SizingLp::build(&arch, 4000, &cfg) {
            Ok(lp) => lp,
            Err(e) => {
                gate.fail(format_args!("ill seed {seed} failed to build: {e}"));
                continue;
            }
        };
        let p = lp.problem();
        let revised = p.solve_with(&lp_opts(LpEngine::Revised, true));
        let tableau = p.solve_with(&lp_opts(LpEngine::Tableau, true));
        let unscaled = p.solve_with(&lp_opts(LpEngine::Revised, false));
        let (Ok(r), Ok(t)) = (&revised, &tableau) else {
            gate.fail(format_args!(
                "ill seed {seed} did not solve with equilibration on"
            ));
            continue;
        };
        solved += 1;
        if disagree(r.objective(), t.objective()) {
            gate.fail(format_args!(
                "ill seed {seed} engines disagree: {} vs {}",
                r.objective(),
                t.objective()
            ));
        }
        // Scaling must be a pure numerics change: the unequilibrated
        // solve of the same instance (when it survives at all — it is
        // allowed to break down, that is what the layer is for) must
        // land on the same objective.
        if let Ok(u) = &unscaled {
            if disagree(r.objective(), u.objective()) {
                gate.fail(format_args!(
                    "ill seed {seed} equilibration changed the objective: \
                     {} (on) vs {} (off)",
                    r.objective(),
                    u.objective()
                ));
            }
        }
        let stats = r.scaling_stats();
        if stats.applied {
            applied += 1;
            if stats.condition_after >= stats.condition_before {
                gate.fail(format_args!(
                    "ill seed {seed} condition estimate did not drop: {:.3e} -> {:.3e}",
                    stats.condition_before, stats.condition_after
                ));
            }
        }
    }
    gate.check(
        applied * 3 >= solved,
        format_args!(
            "equilibration trigger fired on only {applied}/{solved} ill-conditioned instances"
        ),
    );
    if gate.failures() == failures_before {
        println!(
            "ill-conditioned gate OK: {solved}/{corpus_size} solved, \
             equilibration applied on {applied}, condition dropped on all applied"
        );
    }
}

/// CI-sized subset with hard gates.
fn smoke(gate: &mut Gate) {
    // Best-of-N timing keeps the required CI job robust to shared-
    // runner noise; the revised engine's ~2x headroom does the rest.
    const SMOKE_REPEATS: usize = 3;

    // Cross-engine agreement and basic health on a small template.
    let fig1 = templates::figure1();
    match compare("figure1", &fig1, 22, 12, 3, SMOKE_REPEATS) {
        Some((r, t)) if disagree(r.loss, t.loss) => gate.fail(format_args!(
            "figure1 engines disagree: {} vs {}",
            r.loss, t.loss
        )),
        Some(_) => {}
        None => gate.fail("figure1 probe did not solve"),
    }

    // The acceptance gate: revised beats tableau on network_processor
    // at state_cap 16 (wall time), and the engines agree.
    let np = templates::network_processor();
    let Some((r, t)) = compare("np", &np, 320, 16, 4, SMOKE_REPEATS) else {
        gate.fail("np probe did not solve");
        return ill_conditioned_gate(gate);
    };
    if disagree(r.loss, t.loss) {
        gate.fail(format_args!(
            "np engines disagree: {} vs {}",
            r.loss, t.loss
        ));
    }
    // Locally the revised engine wins ~2x here; failing only past a
    // 1.15x loss margin keeps the required CI job from tripping on
    // shared-runner noise while still catching any real loss of the
    // crossover.
    let within_margin = gate.check(
        r.time.as_secs_f64() < 1.15 * t.time.as_secs_f64(),
        format_args!(
            "revised ({:?}) clearly slower than tableau ({:?}) on np cap=16",
            r.time, t.time
        ),
    );
    if within_margin && r.time >= t.time {
        eprintln!(
            "SMOKE WARN: revised ({:?}) did not beat tableau ({:?}) on np cap=16 \
             (within noise margin; investigate if persistent)",
            r.time, t.time
        );
    }

    ill_conditioned_gate(gate);
}

fn main() {
    probe::run(smoke, full_sweep);
}

//! `size_cold`: a closed loop with one caller making independent
//! `size_buffers` calls at the default `SizingConfig`. Inputs are the
//! four templates at the Table 1 budgets 160/320/640 plus seeded random
//! architectures, so build, assembly and cold simplex pivots dominate
//! and no warm chain is ever used.

use std::time::{Duration, Instant};

use socbuf_core::translate::translate;
use socbuf_core::wire::sizing_outcome_semantic_json;
use socbuf_core::{
    size_buffers, CoreError, LpEngine, SizingConfig, SizingLp, SizingOutcome, Translation,
};
use socbuf_lp::{LpError, PreparedLp, SimplexOptions};
use socbuf_soc::templates::{self, RandomArchParams};
use socbuf_soc::Architecture;

use super::{paired, Measured, Traced};
use crate::host::RefClock;
use crate::rng::SplitMix64;
use crate::stats::{mean, Tally};
use crate::trace::Tracer;

/// Table 1 budgets.
const TABLE1_BUDGETS: [usize; 3] = [160, 320, 640];

/// Random architectures per queue count. Holding the queue counts
/// fixed keeps the LP sizes, and so the cost of a pass over the inputs,
/// the same for every seed.
const RANDOM_PER_SIZE: usize = 32;

/// Queue counts of the random architectures.
const RANDOM_SIZES: [usize; 3] = [6, 8, 10];

/// One sizing problem and its expected answer.
struct Input {
    arch: Architecture,
    budget: usize,
    expected: SizingOutcome,
    expected_json: String,
}

/// Set-up state.
pub struct SizeCold {
    config: SizingConfig,
    inputs: Vec<Input>,
}

/// Generates the inputs from `seed` and sizes each once; those answers
/// are what every later call must reproduce byte for byte.
pub fn setup(seed: u64) -> Result<SizeCold, String> {
    let mut rng = SplitMix64::new(seed);
    let config = SizingConfig::default();
    let solve = |arch: Architecture, budget: usize| {
        size_buffers(&arch, budget, &config).map(|expected| Input {
            expected_json: sizing_outcome_semantic_json(&expected),
            arch,
            budget,
            expected,
        })
    };
    let mut inputs = Vec::new();
    for arch in [
        templates::figure1(),
        templates::amba(),
        templates::coreconnect(),
        templates::network_processor(),
    ] {
        for budget in TABLE1_BUDGETS {
            inputs.push(solve(arch.clone(), budget).map_err(|e| format!("warm-up solve: {e}"))?);
        }
    }
    let params = RandomArchParams::default();
    for queues in RANDOM_SIZES {
        let mut found = 0;
        let mut attempts = 0;
        while found < RANDOM_PER_SIZE {
            attempts += 1;
            if attempts > 10_000 {
                return Err(format!("no random architectures with {queues} queues"));
            }
            let arch_seed = rng.next_u64();
            let arch = templates::random_architecture(arch_seed, &params);
            if arch.num_queues() != queues {
                continue;
            }
            // An input the program cannot size would fail every run;
            // leave it out, and say which.
            match solve(arch, 8 * queues) {
                Ok(input) => {
                    inputs.push(input);
                    found += 1;
                }
                Err(e) => eprintln!("skipping random architecture {arch_seed}: {e}"),
            }
        }
    }
    rng.shuffle(&mut inputs);
    Ok(SizeCold { config, inputs })
}

/// The first rung of the solve ladder `SizingLp::solve` climbs (kept in
/// step with `socbuf_core::formulation`; the traced run's byte check
/// fails if the two drift apart).
fn first_rung(config: &SizingConfig) -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        engine: config.engine,
        equilibrate: config.equilibrate,
        executor: config.executor.clone(),
        ..SimplexOptions::default()
    }
}

impl SizeCold {
    fn input(&self, op: u64) -> &Input {
        &self.inputs[op as usize % self.inputs.len()]
    }

    fn check(&self, input: &Input, got: &SizingOutcome) -> bool {
        got.allocation.total() == input.budget
            && sizing_outcome_semantic_json(got) == input.expected_json
    }

    /// Checks outside the timed region: every expected allocation totals
    /// its budget, and the decomposed engine, a separate solve path,
    /// reaches the same optimum within 1e-9 wherever it solves.
    pub fn validate(&self) -> Tally {
        let mut tally = Tally::default();
        let decomposed = SizingConfig {
            engine: LpEngine::Decomposed,
            ..self.config.clone()
        };
        for input in &self.inputs {
            tally.record(input.expected.allocation.total() == input.budget);
            let c = input.expected.predicted_loss_rate;
            match size_buffers(&input.arch, input.budget, &decomposed) {
                Ok(d) => {
                    let agree = (d.predicted_loss_rate - c).abs() <= 1e-9 * (1.0 + c.abs());
                    if !agree {
                        eprintln!("budget {}: engines disagree on the optimum", input.budget);
                    }
                    tally.record(agree);
                }
                // The oracle failing to solve says nothing about the
                // answer under test.
                Err(e) => eprintln!("budget {}: no decomposed cross-check: {e}", input.budget),
            }
        }
        tally
    }

    /// Independent `size_buffers` calls for `budget`.
    pub fn measure(&self, budget: Duration, clock: &mut RefClock) -> Measured {
        clock.reset();
        let mut tally = Tally::default();
        let mut latencies_ms = Vec::new();
        let mut busy = Duration::ZERO;
        let start = Instant::now();
        let mut op = 0;
        while start.elapsed() < budget {
            let input = self.input(op);
            let t = Instant::now();
            let out = size_buffers(&input.arch, input.budget, &self.config);
            let dt = t.elapsed();
            busy += dt;
            latencies_ms.push(dt.as_secs_f64() * 1e3);
            clock.tick();
            tally.record(out.is_ok_and(|o| self.check(input, &o)));
            op += 1;
        }
        let sizes_per_s = latencies_ms.len() as f64 / busy.as_secs_f64();
        Measured {
            tally,
            latencies_ms,
            wanted_tail: 0.9,
            throughput_per_s: sizes_per_s,
            slowdown: (clock.mean_slowdown(), clock.median_slowdown()),
            op_name: "size",
            aliases: vec![("sizes_per_s", sizes_per_s)],
        }
    }

    /// `size_buffers` taken apart at its public seams: build, the first
    /// ladder rung (the whole ladder on retry), translate. The LP solve
    /// and assembly inside the rung are replayed on the same problem.
    fn traced_size(
        &self,
        op: u64,
        tracer: &Tracer,
        root: u64,
        samples: &mut Samples,
    ) -> Result<SizingOutcome, CoreError> {
        let input = self.input(op);
        let config = &self.config;
        let lp = tracer.span("core.build", op, root, |_| {
            SizingLp::build(&input.arch, input.budget, config)
        })?;
        let rung = first_rung(config);
        let (solution, retried, solve_id) = tracer.span("core.solve", op, root, |id| {
            match lp.solve_with_options(&rung) {
                Err(CoreError::Lp(
                    LpError::IterationLimit { .. } | LpError::ResidualArtificial { .. },
                )) => (lp.solve(), true, id),
                other => (other, false, id),
            }
        });
        if tracer.on() {
            samples.retries.push(f64::from(u8::from(retried)));
        }
        if let Some((solved, lp_id)) =
            tracer.replay("lp.solve", op, solve_id, || lp.problem().solve_with(&rung))
        {
            if let Ok(s) = solved {
                samples.cold_pivots.push(s.iterations() as f64);
            }
            tracer.replay("lp.assemble", op, lp_id, || {
                PreparedLp::new_with_scaling(lp.problem().clone(), config.equilibrate)
            });
        }
        let solution = solution?;
        let Translation {
            allocation,
            requirements,
            efforts,
        } = tracer.span("core.translate", op, root, |_| {
            translate(&input.arch, &solution, input.budget, config)
        })?;
        Ok(SizingOutcome {
            allocation,
            efforts,
            requirements,
            predicted_loss_rate: solution.loss_rate,
            budget_shadow_price: solution.budget_shadow_price,
            budget_row_relaxed: solution.budget_row_relaxed,
            lp_iterations: solution.lp_iterations,
            lp_engine: solution.lp_engine,
            lp_scaling: solution.lp_scaling,
        })
    }

    /// The traced run: each call untraced, then traced.
    pub fn trace(&self, budget: Duration) -> Traced {
        let mut samples = Samples::default();
        let (pairs, spans) = paired(budget, "op.size", |op, tracer, root| {
            self.traced_size(op, tracer, root, &mut samples)
                .is_ok_and(|o| self.check(self.input(op), &o))
        });
        let retries = samples.retries.iter().sum::<f64>();
        pairs.into_traced(
            spans,
            vec![
                ("lp.pivots_cold", mean(&samples.cold_pivots)),
                ("lp.ladder_retries", retries),
            ],
        )
    }
}

/// Counts the traced calls collect.
#[derive(Default)]
struct Samples {
    cold_pivots: Vec<f64>,
    retries: Vec<f64>,
}

//! Translating occupation measures into integer buffer lengths — the
//! paper's step of *"translating the state action pair probabilities
//! into buffer space requirements by using the K-switching policy"*.
//!
//! Each queue's stationary occupancy marginal (under the optimal
//! K-switching policy) yields a *requirement*: the smallest buffer
//! length covering the 0.98 quantile of the occupancy law. The
//! finite pool is then apportioned to the requirements with the
//! largest-remainder method, so the allocation sums to the budget
//! exactly — the integer-feasibility step the LP cannot do by itself.

use socbuf_markov::BirthDeath;
use socbuf_soc::alloc::apportion_with_keys_into;
use socbuf_soc::{Architecture, BufferAllocation};

use crate::formulation::{SizingConfig, SizingSolution};
use crate::CoreError;

/// The occupancy quantile a queue's requirement covers.
const QUANTILE: f64 = 0.98;

/// The translated solution: an exact-budget integer allocation plus the
/// effort curves for the simulator's K-switching arbiter.
#[derive(Debug, Clone)]
pub struct Translation {
    /// Integer buffer units per queue, summing to the budget.
    pub allocation: BufferAllocation,
    /// Quantile-based raw requirements per queue (before apportionment).
    pub requirements: Vec<usize>,
    /// `efforts[q][n]` — expected service effort of queue `q` at
    /// occupancy `n`, directly usable as
    /// [`socbuf_sim::Arbiter::WeightedEffort`] curves.
    pub efforts: Vec<Vec<f64>>,
}

/// Translates `solution` into an exact `budget`-unit allocation.
///
/// Queues with traffic always receive at least one unit when the budget
/// allows (a zero-length buffer loses everything); the remainder is
/// split in proportion to the quantile requirements. The translation
/// reads no setting of the configuration the solution was solved
/// under.
///
/// # Errors
///
/// [`CoreError::BadConfig`] if the solution's shape does not match the
/// architecture.
pub fn translate(
    arch: &Architecture,
    solution: &SizingSolution,
    budget: usize,
    _config: &SizingConfig,
) -> Result<Translation, CoreError> {
    translate_with(
        arch,
        solution,
        budget,
        &queue_keys(arch),
        &mut TranslateScratch::default(),
    )
}

/// Per-queue occupancy marginals and effort curves, however a solution
/// stores them.
pub(crate) trait QueueCurves {
    /// Number of queues covered.
    fn num_queues(&self) -> usize;
    /// Queue `q`'s occupancy marginal over the model states.
    fn marginal(&self, q: usize) -> &[f64];
    /// Queue `q`'s expected effort per model state.
    fn effort(&self, q: usize) -> &[f64];
}

impl QueueCurves for SizingSolution {
    fn num_queues(&self) -> usize {
        self.marginals.len()
    }
    fn marginal(&self, q: usize) -> &[f64] {
        &self.marginals[q]
    }
    fn effort(&self, q: usize) -> &[f64] {
        &self.efforts[q]
    }
}

/// The apportionment's remainder tie-break keys, one per queue: the
/// queue names. They are unique and survive declaration reordering, so
/// the allocation is permutation-equivariant (the metamorphic suite
/// pins this) — positional tie-breaking would hand the contested unit
/// to whichever tied queue happened to be declared first.
pub(crate) fn queue_keys(arch: &Architecture) -> Vec<String> {
    arch.queue_ids().map(|q| arch.queue_name(q)).collect()
}

/// Working storage of [`translate_with`]. Nothing in it outlives one
/// call; a warm chain keeps one so its points reuse the buffers.
#[derive(Debug, Default)]
pub(crate) struct TranslateScratch {
    expected_effort: Vec<f64>,
    birth: Vec<f64>,
    death: Vec<f64>,
    marginal: Vec<f64>,
    shares: Vec<f64>,
    remainders: Vec<(usize, f64)>,
}

/// [`translate`] on any [`QueueCurves`], with the queue keys
/// ([`queue_keys`] of `arch`) and the working storage supplied. Only
/// the returned [`Translation`] is allocated afresh.
pub(crate) fn translate_with(
    arch: &Architecture,
    solution: &impl QueueCurves,
    budget: usize,
    keys: &[String],
    scratch: &mut TranslateScratch,
) -> Result<Translation, CoreError> {
    let nq = arch.num_queues();
    if solution.num_queues() != nq {
        return Err(CoreError::BadConfig(format!(
            "solution covers {} queues, architecture has {nq}",
            solution.num_queues()
        )));
    }
    let TranslateScratch {
        expected_effort,
        birth,
        death,
        marginal,
        shares,
        remainders,
    } = scratch;

    // The joint LP couples queues on a bus only *in expectation*, so each
    // block's marginal assumes it owns the whole bus whenever it chooses
    // to serve — optimistic tails. Requirements therefore come from a
    // mean-field-corrected birth–death chain per queue: its service rate
    // is discounted by the bus capacity the *other* queues' optimal
    // policies consume. (The paper closes the same gap empirically by
    // re-simulating with the new buffer lengths.)
    expected_effort.clear();
    expected_effort.extend((0..nq).map(|q| {
        solution
            .marginal(q)
            .iter()
            .zip(solution.effort(q))
            .map(|(m, e)| m * e)
            .sum::<f64>()
    }));
    let mut requirements = Vec::with_capacity(nq);
    for q in arch.queues() {
        let qi = q.id.index();
        let others: f64 = arch
            .bus_queue_ids(q.bus)
            .iter()
            .filter(|id| id.index() != qi)
            .map(|id| expected_effort[id.index()])
            .sum();
        let mu_bus = arch.bus(q.bus).service_rate();
        let avail = (1.0 - others).clamp(0.05, 1.0);
        contended_marginal(
            q.offered_rate,
            mu_bus * avail,
            solution.effort(qi),
            [birth, death, marginal],
        );
        requirements.push(quantile_requirement(marginal, QUANTILE));
    }

    shares.clear();
    let mut units = Vec::with_capacity(nq);
    if budget >= nq {
        // One unit of floor per queue, remainder by (requirement − 1).
        shares.extend(requirements.iter().map(|&r| (r.saturating_sub(1)) as f64));
        apportion_with_keys_into(budget - nq, shares, keys, remainders, &mut units);
        for u in &mut units {
            *u += 1;
        }
    } else {
        shares.extend(requirements.iter().map(|&r| r as f64));
        apportion_with_keys_into(budget, shares, keys, remainders, &mut units);
    }

    let allocation = BufferAllocation::new(arch, units)?;
    debug_assert_eq!(allocation.total(), budget);

    // Re-index the effort curves from the LP's model states (0..=N) onto
    // each queue's *allocated* capacity: the K-switching threshold is a
    // fraction of the buffer, so a queue nearing its (possibly small)
    // real capacity must reach the same urgency the model assigned to
    // near-full model states. Without this, a 3-unit buffer would
    // overflow long before its priority ever rose.
    let efforts: Vec<Vec<f64>> = allocation
        .as_slice()
        .iter()
        .enumerate()
        .map(|(q, &cap)| {
            let curve = solution.effort(q);
            let n_model = curve.len() - 1;
            if cap == 0 || n_model == 0 {
                return vec![0.0];
            }
            (0..=cap)
                .map(|n| {
                    let idx = ((n as f64 / cap as f64) * n_model as f64).round() as usize;
                    curve[idx.min(n_model)]
                })
                .collect()
        })
        .collect();

    Ok(Translation {
        allocation,
        requirements,
        efforts,
    })
}

/// Stationary occupancy law of one queue under its optimal effort curve
/// with a contention-discounted service rate: birth λ, death
/// `effort(n)·μ_eff` (floored so the chain stays well-defined where the
/// policy idles). Written into `pi`; `birth` and `death` are working
/// storage.
fn contended_marginal(
    lambda: f64,
    mu_eff: f64,
    efforts: &[f64],
    [birth, death, pi]: [&mut Vec<f64>; 3],
) {
    let n = efforts.len().saturating_sub(1).max(1);
    birth.clear();
    birth.resize(n, lambda.max(1e-9));
    death.clear();
    death.extend((1..=n).map(|state| (efforts[state.min(efforts.len() - 1)] * mu_eff).max(1e-9)));
    BirthDeath::stationary_into(birth, death, pi).expect("positive rates by construction");
}

/// Smallest buffer length whose cumulative stationary probability
/// reaches `quantile` (at least 1).
fn quantile_requirement(marginal: &[f64], quantile: f64) -> usize {
    let mut cdf = 0.0;
    for (n, p) in marginal.iter().enumerate() {
        cdf += p;
        if cdf >= quantile {
            return n.max(1);
        }
    }
    marginal.len().saturating_sub(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::SizingLp;
    use socbuf_soc::{ArchitectureBuilder, FlowTarget};

    fn hot_cold_arch() -> Architecture {
        let mut b = ArchitectureBuilder::new();
        let bus = b.add_bus("bus", 1.0).unwrap();
        let hot = b.add_processor("hot", &[bus], 1.0).unwrap();
        let cold = b.add_processor("cold", &[bus], 1.0).unwrap();
        b.add_flow(hot, FlowTarget::Bus(bus), 0.60).unwrap();
        b.add_flow(cold, FlowTarget::Bus(bus), 0.08).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn quantile_requirement_basics() {
        assert_eq!(quantile_requirement(&[0.99, 0.01], 0.98), 1);
        assert_eq!(quantile_requirement(&[0.5, 0.3, 0.2], 0.98), 2);
        assert_eq!(quantile_requirement(&[0.5, 0.5], 0.5), 1);
        // Degenerate empty-ish marginals still give at least 1.
        assert_eq!(quantile_requirement(&[1.0], 0.9), 1);
    }

    #[test]
    fn allocation_sums_to_budget_and_favors_hot_queue() {
        // Both engines: the hot-queue preference must not depend on
        // which optimal vertex the LP lands on (the effort-curve dust
        // filter in `Layout::interpret` is what guarantees this).
        let arch = hot_cold_arch();
        for engine in [socbuf_lp::LpEngine::Revised, socbuf_lp::LpEngine::Tableau] {
            let cfg = SizingConfig {
                engine,
                ..SizingConfig::small()
            };
            for budget in [6usize, 16, 64] {
                let sol = SizingLp::build(&arch, budget, &cfg)
                    .unwrap()
                    .solve()
                    .unwrap();
                let tr = translate(&arch, &sol, budget, &cfg).unwrap();
                assert_eq!(tr.allocation.total(), budget);
                let units = tr.allocation.as_slice();
                assert!(
                    units[0] >= units[1],
                    "hot queue must get at least as much under {engine}: \
                     {units:?} (budget {budget})"
                );
                assert!(units.iter().all(|&u| u >= 1), "{units:?}");
            }
        }
    }

    #[test]
    fn starvation_budget_still_apportions() {
        let arch = hot_cold_arch();
        let cfg = SizingConfig::small();
        let sol = SizingLp::build(&arch, 1, &cfg).unwrap().solve().unwrap();
        let tr = translate(&arch, &sol, 1, &cfg).unwrap();
        assert_eq!(tr.allocation.total(), 1);
    }

    #[test]
    fn effort_curves_cover_the_allocated_capacity() {
        let arch = hot_cold_arch();
        let cfg = SizingConfig::small();
        let sol = SizingLp::build(&arch, 20, &cfg).unwrap().solve().unwrap();
        let tr = translate(&arch, &sol, 20, &cfg).unwrap();
        for (q, curve) in tr.efforts.iter().enumerate() {
            let cap = tr.allocation.as_slice()[q];
            assert_eq!(curve.len(), cap + 1, "curve spans the real buffer");
            assert_eq!(curve[0], 0.0, "no effort on an empty queue");
            assert!(curve.iter().all(|&e| (0.0..=1.0 + 1e-9).contains(&e)));
            // Near-full states carry the model's near-full urgency.
            assert!(curve[cap] >= curve[1] - 1e-9);
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let arch = hot_cold_arch();
        let cfg = SizingConfig::small();
        let mut sol = SizingLp::build(&arch, 10, &cfg).unwrap().solve().unwrap();
        sol.marginals.pop();
        assert!(translate(&arch, &sol, 10, &cfg).is_err());
    }
}

//! Metamorphic properties of the sizing pipeline, driven through the
//! sweep engine over random architectures.
//!
//! Unit tests pin *values*; these properties pin *relations* that must
//! hold for every architecture the generator can produce:
//!
//! * **monotone in budget** — a bigger buffer pool is a relaxation of
//!   the sizing LP, so the predicted loss along a [`BudgetSweep`] never
//!   increases (compared across points whose budget row survived);
//! * **scale invariance** — multiplying every λ and μ by the same
//!   factor is a pure change of time unit: the allocation must not move
//!   (dyadic factors keep the float scaling exact, so the assertion can
//!   be bitwise);
//! * **permutation equivariance** — reordering processor/flow
//!   declarations relabels queues but must not change anyone's buffer:
//!   the allocation follows the queues wherever they land.
//!
//! Each property runs over ≥ 32 random-architecture seeds (the
//! acceptance bar for the sweep engine PR).

use proptest::prelude::*;

use socbuf_core::{size_buffers, SizingConfig};
use socbuf_soc::templates::{random_architecture, RandomArchParams};
use socbuf_soc::{Architecture, ArchitectureBuilder, FlowTarget};
use socbuf_sweep::{BudgetSweep, WorkPool};

fn small() -> SizingConfig {
    SizingConfig::small()
}

/// Rebuilds `arch` with processors declared in `perm_p` order and flows
/// declared in `perm_f` order (buses and bridges keep their order;
/// routing only depends on those).
fn permuted_declaration(arch: &Architecture, perm_p: &[usize], perm_f: &[usize]) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let buses: Vec<_> = arch
        .bus_ids()
        .map(|id| {
            b.add_bus(arch.bus(id).name(), arch.bus(id).service_rate())
                .expect("valid bus")
        })
        .collect();
    let old_proc_ids: Vec<_> = arch.proc_ids().collect();
    let old_flow_ids: Vec<_> = arch.flow_ids().collect();
    let mut new_proc_of_old = vec![None; perm_p.len()];
    let mut new_procs = Vec::with_capacity(perm_p.len());
    for &oldi in perm_p {
        let p = arch.processor(old_proc_ids[oldi]);
        let attach: Vec<_> = p.buses().iter().map(|bid| buses[bid.index()]).collect();
        let id = b
            .add_processor(p.name(), &attach, p.weight())
            .expect("valid processor");
        new_proc_of_old[oldi] = Some(new_procs.len());
        new_procs.push(id);
    }
    for id in arch.bridge_ids() {
        let g = arch.bridge(id);
        b.add_bridge(g.name(), buses[g.from().index()], buses[g.to().index()])
            .expect("valid bridge");
    }
    for &oldf in perm_f {
        let f = arch.flow(old_flow_ids[oldf]);
        let map_proc = |p: socbuf_soc::ProcId| {
            new_procs[new_proc_of_old[p.index()].expect("every processor declared")]
        };
        let target = match f.target() {
            FlowTarget::Processor(p) => FlowTarget::Processor(map_proc(p)),
            FlowTarget::Bus(bus) => FlowTarget::Bus(buses[bus.index()]),
        };
        b.add_flow(map_proc(f.src()), target, f.rate())
            .expect("routable in the original, routable here");
    }
    b.build().expect("permuted declaration still builds")
}

/// Deterministic Fisher–Yates permutation of `0..n` keyed by `key`.
fn shuffled(n: usize, mut key: u64) -> Vec<usize> {
    let mut next = move || {
        key = key.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = key;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// More budget never predicts more loss along a budget sweep.
    /// Asserted on a cold-started sweep: with every point solved by the
    /// identical cold path, adjacent points share their solver noise
    /// and the comparison can be held to 1e-9. (The warm-started
    /// variant has its own property below with a noise-scaled guard.)
    #[test]
    fn predicted_loss_is_monotone_in_budget(seed in 0usize..10_000) {
        let arch = random_architecture(seed as u64, &RandomArchParams::default());
        let base = 3 * arch.num_queues();
        let mut sweep = BudgetSweep::new(
            &arch,
            vec![base, base + 2, base + 5, base + 10, base + 20],
        );
        sweep.sizing = small();
        sweep.warm_start = false;
        let report = sweep.run(&WorkPool::serial()).unwrap();
        // Points whose budget row had to be relaxed solve a *loosened*
        // problem; their losses are not comparable on the same axis.
        let kept: Vec<_> = report
            .points
            .iter()
            .filter(|p| !p.budget_row_relaxed)
            .collect();
        for pair in kept.windows(2) {
            prop_assert!(
                pair[1].predicted_loss <= pair[0].predicted_loss
                    + 1e-9 * (1.0 + pair[0].predicted_loss),
                "seed {seed}: loss rose {} -> {} between budgets {} and {}",
                pair[0].predicted_loss,
                pair[1].predicted_loss,
                pair[0].budget,
                pair[1].budget
            );
        }
        // The sweep's frontier is consistent with monotonicity: its
        // losses strictly decrease along increasing budget.
        let frontier = report.pareto_frontier();
        for pair in frontier.windows(2) {
            prop_assert!(
                report.points[pair[1]].predicted_loss < report.points[pair[0]].predicted_loss
            );
        }
    }

    /// The warm-started sweep keeps the same monotone shape. Warm and
    /// cold solves of one point run the same simplex options and agree
    /// to solver precision (both end on a strict primal-feasible
    /// optimal basis of the same perturbed problem), so the guard is
    /// only slightly looser than the cold property's: 1e-6-relative,
    /// the scale of the right-hand-side perturbation both solve under.
    #[test]
    fn warm_started_loss_is_monotone_up_to_solver_noise(seed in 0usize..10_000) {
        let arch = random_architecture(seed as u64, &RandomArchParams::default());
        let base = 3 * arch.num_queues();
        let mut sweep = BudgetSweep::new(
            &arch,
            vec![base, base + 2, base + 5, base + 10, base + 20],
        );
        sweep.sizing = small();
        let report = sweep.run(&WorkPool::serial()).unwrap();
        let kept: Vec<_> = report
            .points
            .iter()
            .filter(|p| !p.budget_row_relaxed)
            .collect();
        for pair in kept.windows(2) {
            prop_assert!(
                pair[1].predicted_loss <= pair[0].predicted_loss
                    + 1e-6 * (1.0 + pair[0].predicted_loss),
                "seed {seed}: warm loss rose {} -> {} between budgets {} and {}",
                pair[0].predicted_loss,
                pair[1].predicted_loss,
                pair[0].budget,
                pair[1].budget
            );
        }
    }

    /// Scaling every λ and μ by the same dyadic factor changes the time
    /// unit, not the decision: the allocation is bit-identical.
    #[test]
    fn allocation_is_invariant_under_common_rate_scaling(
        seed in 0usize..10_000,
        factor_sel in 0usize..3,
    ) {
        let factor = [0.5, 2.0, 4.0][factor_sel];
        let arch = random_architecture(seed as u64, &RandomArchParams::default());
        let budget = 3 * arch.num_queues();
        let nominal = size_buffers(&arch, budget, &small()).unwrap();
        let scaled_arch = arch.scale_rates(factor, factor).unwrap();
        let scaled = size_buffers(&scaled_arch, budget, &small()).unwrap();
        prop_assert_eq!(
            nominal.allocation.as_slice(),
            scaled.allocation.as_slice(),
            "seed {}: allocation moved under ×{} time rescaling",
            seed,
            factor
        );
        // The loss *rate* carries the time unit: it scales ≈ linearly.
        // Only ≈ — the LP's degeneracy-breaking rhs perturbation is
        // absolute (≈1e-6-scale) and does not scale with the data, so
        // the check needs losses big enough to dominate it and a
        // generous band; the bitwise allocation assert above is the
        // real property.
        if nominal.predicted_loss_rate > 1e-4 {
            let ratio = scaled.predicted_loss_rate / nominal.predicted_loss_rate;
            prop_assert!(
                (ratio / factor - 1.0).abs() < 0.5,
                "seed {seed}: loss ratio {ratio} vs factor {factor}"
            );
        }
    }

    /// Permuting processor/flow declaration order permutes the
    /// allocation accordingly: every queue keeps its buffer, wherever
    /// its index lands.
    #[test]
    fn allocation_is_equivariant_under_declaration_permutation(
        seed in 0usize..10_000,
        perm_key in 0usize..1_000_000,
    ) {
        let arch = random_architecture(seed as u64, &RandomArchParams::default());
        let budget = 3 * arch.num_queues();
        let out = size_buffers(&arch, budget, &small()).unwrap();

        let perm_p = shuffled(arch.num_processors(), perm_key as u64);
        let perm_f = shuffled(arch.num_flows(), (perm_key as u64) ^ 0xabcdef);
        let parch = permuted_declaration(&arch, &perm_p, &perm_f);
        prop_assert_eq!(parch.num_queues(), arch.num_queues());
        let pout = size_buffers(&parch, budget, &small()).unwrap();

        // Queues are matched by their (client, bus) name, which is
        // declaration-order independent.
        for q in arch.queue_ids() {
            let name = arch.queue_name(q);
            let pq = parch
                .queue_ids()
                .find(|&pq| parch.queue_name(pq) == name)
                .expect("same queue set");
            prop_assert_eq!(
                out.allocation.as_slice()[q.index()],
                pout.allocation.as_slice()[pq.index()],
                "seed {}, perm {}: queue {} changed its buffer",
                seed,
                perm_key,
                name
            );
            prop_assert_eq!(
                out.requirements[q.index()],
                pout.requirements[pq.index()],
                "seed {}, perm {}: queue {} changed its requirement",
                seed,
                perm_key,
                name
            );
        }
        prop_assert!(
            (out.predicted_loss_rate - pout.predicted_loss_rate).abs()
                <= 1e-6 * (1.0 + out.predicted_loss_rate),
            "seed {seed}: predicted loss moved under permutation: {} vs {}",
            out.predicted_loss_rate,
            pout.predicted_loss_rate
        );
    }
}

/// The identity permutation is a no-op for the rebuild helper itself
/// (guards the test harness, not the pipeline).
#[test]
fn identity_permutation_rebuilds_the_same_architecture() {
    let arch = random_architecture(11, &RandomArchParams::default());
    let id_p: Vec<usize> = (0..arch.num_processors()).collect();
    let id_f: Vec<usize> = (0..arch.num_flows()).collect();
    let same = permuted_declaration(&arch, &id_p, &id_f);
    assert_eq!(same.num_queues(), arch.num_queues());
    for (a, b) in arch.queue_ids().zip(same.queue_ids()) {
        assert_eq!(arch.queue_name(a), same.queue_name(b));
        assert_eq!(arch.queue(a).offered_rate, same.queue(b).offered_rate);
    }
}

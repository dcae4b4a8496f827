//! Golden-artifact pins for the paper's template architectures.
//!
//! Each template (figure1, amba, coreconnect) is sized under a *fixed*
//! [`SizingConfig`] and budget; the resulting LP status, optimal loss
//! rate and integer allocation vector are pinned here. A solver change
//! — new engine, pricing tweak, perturbation change — that silently
//! shifts a reproduced paper artifact turns these tests red instead of
//! drifting the repo's numbers.
//!
//! Two classes of pin with two tolerances:
//!
//! * the **optimal loss rate** is a fact about the LP, unique even when
//!   the optimal vertex is not — both engines must reproduce it (the
//!   cross-engine check asserts 1e-9 relative agreement), and the pin
//!   itself carries a tolerance covering the documented 1e-6-scale
//!   degeneracy-breaking perturbation plus debug/release float drift;
//! * the **allocation vector** and the **budget-row status** are pinned
//!   exactly for the *default* (revised) engine. These LPs have
//!   degenerate optima, so the tableau engine may legitimately land on
//!   a different optimal vertex and translate to a different (equally
//!   optimal) allocation — vertex choice is pinned per engine, not
//!   across engines.

use socbuf::lp::LpEngine;
use socbuf::sizing::{size_buffers, ExecutorHandle, SizingConfig, SizingOutcome};
use socbuf::soc::{templates, Architecture};

/// Absolute tolerance on pinned loss rates: generous against the
/// 1e-6-scale rhs perturbation and build-profile float differences,
/// far too tight for a real solver bug (a wrong vertex moves these
/// losses at the 1e-2..1e-1 scale).
const LOSS_TOL: f64 = 1e-6;

struct Golden {
    name: &'static str,
    arch: fn() -> Architecture,
    budget: usize,
    /// Pinned optimal weighted loss rate under [`golden_config`].
    loss_rate: f64,
    /// Pinned integer allocation (queue order), default engine.
    allocation: &'static [usize],
    /// Pinned status: did the LP keep its budget row?
    budget_row_relaxed: bool,
}

/// The fixed configuration every golden value was produced under.
/// Small state spaces keep the test fast in debug builds while still
/// exercising every constraint family (cut rows, normalization, bus
/// rows, budget row).
fn golden_config(engine: LpEngine) -> SizingConfig {
    SizingConfig {
        state_cap: 8,
        effort_levels: 3,
        engine,
        // The default. These templates are well conditioned, so the
        // equilibration trigger never fires and every golden value
        // below is bit-identical with the knob on or off.
        equilibrate: true,
        // The default (serial). Executors change wall time, never
        // results, so every golden value is executor-independent.
        executor: ExecutorHandle::serial(),
    }
}

// Allocation pins regenerated when the translation layer moved to
// name-keyed remainder tie-breaking (permutation-equivariant
// apportionment): the pinned loss rates are unchanged — only which of
// two *exactly tied* queues wins the contested unit moved (figure1:
// p1@a → p3@b; amba: cpu@ahb → ahb2apb@apb).
const GOLDENS: &[Golden] = &[
    Golden {
        name: "figure1",
        arch: templates::figure1,
        budget: 22,
        loss_rate: 2.6324513849e-5,
        allocation: &[2, 5, 3, 2, 2, 2, 1, 1, 2, 2],
        budget_row_relaxed: false,
    },
    Golden {
        name: "amba",
        arch: templates::amba,
        budget: 16,
        loss_rate: 1.885994469841e-3,
        allocation: &[4, 3, 5, 2, 2],
        budget_row_relaxed: false,
    },
    Golden {
        name: "coreconnect",
        arch: templates::coreconnect,
        budget: 20,
        loss_rate: 1.45954522828e-4,
        allocation: &[5, 4, 3, 3, 2, 1, 2],
        budget_row_relaxed: false,
    },
];

fn size(g: &Golden, engine: LpEngine) -> SizingOutcome {
    size_buffers(&(g.arch)(), g.budget, &golden_config(engine)).unwrap_or_else(|e| {
        panic!("{} failed to size under {engine}: {e}", g.name);
    })
}

/// The default engine must reproduce every pinned artifact exactly
/// (allocation, status) or within `LOSS_TOL` (loss rate).
#[test]
fn default_engine_reproduces_pinned_artifacts() {
    for g in GOLDENS {
        let out = size(g, LpEngine::Revised);
        assert_eq!(out.lp_engine, LpEngine::Revised, "{}", g.name);
        assert!(
            (out.predicted_loss_rate - g.loss_rate).abs() < LOSS_TOL,
            "{}: loss {} drifted from pinned {}",
            g.name,
            out.predicted_loss_rate,
            g.loss_rate
        );
        assert_eq!(
            out.allocation.as_slice(),
            g.allocation,
            "{}: allocation drifted",
            g.name
        );
        assert_eq!(
            out.budget_row_relaxed, g.budget_row_relaxed,
            "{}: budget-row status drifted",
            g.name
        );
        assert_eq!(
            out.allocation.total(),
            g.budget,
            "{}: allocation does not exhaust the budget",
            g.name
        );
    }
}

/// The tableau oracle must agree with the pinned loss (and therefore
/// with the revised engine) to 1e-9 relative on every template LP —
/// the acceptance bar for the engine swap.
#[test]
fn engines_agree_on_template_losses_to_1e9() {
    for g in GOLDENS {
        let revised = size(g, LpEngine::Revised);
        let tableau = size(g, LpEngine::Tableau);
        assert_eq!(tableau.lp_engine, LpEngine::Tableau);
        let (a, b) = (revised.predicted_loss_rate, tableau.predicted_loss_rate);
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "{}: revised loss {a} vs tableau loss {b}",
            g.name
        );
        // Vertex choice may differ, but both allocations must exhaust
        // the same budget under the same status.
        assert_eq!(tableau.allocation.total(), g.budget, "{}", g.name);
        assert_eq!(
            tableau.budget_row_relaxed, g.budget_row_relaxed,
            "{}",
            g.name
        );
    }
}

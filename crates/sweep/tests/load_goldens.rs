//! Byte pins for warm load campaigns.
//!
//! A warm [`LoadSweep`] runs its grid as index-fixed warm chains whose
//! points differ in a coefficient delta: every λ of the architecture is
//! scaled, so the cached LP's cut rows and loss costs are rewritten in
//! place and the previous optimum is repaired by the dual simplex before
//! phase 2 re-confirms it. How a chain is started (and so which pivots it
//! takes) is free to change; the rendered bytes are not. Each pin is the
//! FNV-1a hash of one campaign's CSV and JSON-lines rendering.
//! `lp_iterations` is trace-only and never rendered, so it is not
//! pinned. The campaigns, all at `SizingConfig::small()`:
//!
//! * the four templates on a 64-point load sawtooth
//!   `0.6 + 0.025·(i mod 32)` at 6 units per queue, the shape of the
//!   benchmark's load manifest;
//! * the same four on a mixed grid at one unit per queue, whose heavy
//!   points relax the budget row between warm-chained feasible points.

use socbuf_core::wire::fnv1a_64;
use socbuf_core::SizingConfig;
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{LoadSweep, SweepReport, WorkPool};

/// Load factors of the relaxed grid: heavy points between light ones.
const MIXED: [f64; 12] = [1.0, 3.0, 0.5, 2.0, 1.25, 4.0, 0.75, 2.5, 1.0, 6.0, 0.6, 1.5];

fn sawtooth() -> Vec<f64> {
    (0..64).map(|i| 0.6 + 0.025 * (i % 32) as f64).collect()
}

fn four_templates() -> [(&'static str, Architecture); 4] {
    [
        ("figure1", templates::figure1()),
        ("network_processor", templates::network_processor()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ]
}

/// A warm load campaign at `SizingConfig::small()`.
fn campaign(arch: &Architecture, budget: usize, factors: Vec<f64>) -> SweepReport {
    let mut sweep = LoadSweep::new(arch, budget, factors);
    sweep.sizing = SizingConfig::small();
    sweep.run(&WorkPool::serial()).unwrap()
}

/// `(csv, jsonl)` FNV-1a of a report's renderings.
fn fingerprint(report: &SweepReport) -> (u64, u64) {
    (
        fnv1a_64(report.to_csv().as_bytes()),
        fnv1a_64(report.to_jsonl().as_bytes()),
    )
}

/// Asserts every campaign's fingerprint, reporting all of them on a
/// mismatch so a drift reads at a glance.
fn check(got: Vec<(String, (u64, u64))>, want: &[(&str, (u64, u64))]) {
    let want: Vec<(String, (u64, u64))> = want.iter().map(|(n, f)| (n.to_string(), *f)).collect();
    assert_eq!(got, want, "load-campaign bytes drifted");
}

#[test]
fn small_load_sawtooth_campaigns_are_pinned() {
    let got = four_templates()
        .into_iter()
        .map(|(name, arch)| {
            let report = campaign(&arch, 6 * arch.num_queues(), sawtooth());
            (name.to_string(), fingerprint(&report))
        })
        .collect();
    check(
        got,
        &[
            ("figure1", (294786769779897101, 11331548444184616277)),
            (
                "network_processor",
                (13592453642421622061, 13203006307445023349),
            ),
            ("amba", (17256278005221044415, 16661055124991683843)),
            ("coreconnect", (13785180313685739621, 9470637440753772557)),
        ],
    );
}

#[test]
fn small_relaxed_load_grids_are_pinned() {
    let mut got = Vec::new();
    for (name, arch) in four_templates() {
        let report = campaign(&arch, arch.num_queues(), MIXED.to_vec());
        // The grid must reach both sides of the relaxation, or the pin
        // would not guard the warm chain across it.
        let relaxed = report
            .points
            .iter()
            .filter(|p| p.budget_row_relaxed)
            .count();
        assert!(
            relaxed > 0 && relaxed < MIXED.len(),
            "{name}: {relaxed} of {} points relaxed",
            MIXED.len()
        );
        got.push((name.to_string(), fingerprint(&report)));
    }
    check(
        got,
        &[
            ("figure1", (7408925411004027882, 9120132790972266018)),
            (
                "network_processor",
                (11644669172438800839, 10791166542595212679),
            ),
            ("amba", (14763429181245434556, 4245783281574957888)),
            ("coreconnect", (12847348096260836493, 8530357460071352905)),
        ],
    );
}

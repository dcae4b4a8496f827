//! Byte pins for warm budget campaigns.
//!
//! A warm [`BudgetSweep`] runs its grid as index-fixed warm chains. How
//! a chain is started (and so which pivots it takes) is free to change;
//! the rendered bytes are not. Each pin is the FNV-1a hash of one
//! campaign's CSV and JSON-lines rendering. `lp_iterations` is
//! trace-only and never rendered, so it is not pinned. The campaigns:
//!
//! * the four templates at `SizingConfig::small()` on a 64-point budget
//!   sawtooth `10 + 3·(i mod 16)`, the shape of the benchmark's budget
//!   manifest;
//! * the same four on tight-to-relaxed grids: `1..=40`, `40..=1` and the
//!   mixed `[40, 2, 30, 3, 25, 1, 60, 5, 200, 7, 9, 11]`;
//! * `network_processor` and `figure1` at `SizingConfig::default()` on
//!   the mixed grid.

use socbuf_core::wire::fnv1a_64;
use socbuf_core::SizingConfig;
use socbuf_soc::{templates, Architecture};
use socbuf_sweep::{BudgetSweep, WorkPool};

const MIXED: [usize; 12] = [40, 2, 30, 3, 25, 1, 60, 5, 200, 7, 9, 11];

fn sawtooth() -> Vec<usize> {
    (0..64).map(|i| 10 + 3 * (i % 16)).collect()
}

fn four_templates() -> [(&'static str, Architecture); 4] {
    [
        ("figure1", templates::figure1()),
        ("network_processor", templates::network_processor()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ]
}

/// `(csv, jsonl)` FNV-1a of a warm budget campaign's renderings.
fn fingerprint(arch: &Architecture, budgets: Vec<usize>, sizing: SizingConfig) -> (u64, u64) {
    let mut sweep = BudgetSweep::new(arch, budgets);
    sweep.sizing = sizing;
    let report = sweep.run(&WorkPool::serial()).unwrap();
    (
        fnv1a_64(report.to_csv().as_bytes()),
        fnv1a_64(report.to_jsonl().as_bytes()),
    )
}

/// Asserts every campaign's fingerprint, reporting all of them on a
/// mismatch so a drift reads at a glance.
fn check(got: Vec<(String, (u64, u64))>, want: &[(&str, (u64, u64))]) {
    let want: Vec<(String, (u64, u64))> = want.iter().map(|(n, f)| (n.to_string(), *f)).collect();
    assert_eq!(got, want, "budget-campaign bytes drifted");
}

#[test]
fn small_sawtooth_campaigns_are_pinned() {
    let got = four_templates()
        .into_iter()
        .map(|(name, arch)| {
            let f = fingerprint(&arch, sawtooth(), SizingConfig::small());
            (name.to_string(), f)
        })
        .collect();
    check(
        got,
        &[
            ("figure1", (17236915102151309489, 2120871200062815123)),
            (
                "network_processor",
                (43403704619012283, 17403320140095572607),
            ),
            ("amba", (11097041373360094781, 1911753508664614439)),
            ("coreconnect", (14918758254985699837, 6184735783041098343)),
        ],
    );
}

#[test]
fn small_tight_and_relaxed_grids_are_pinned() {
    let grids: [(&str, Vec<usize>); 3] = [
        ("up", (1..=40).collect()),
        ("down", (1..=40).rev().collect()),
        ("mixed", MIXED.to_vec()),
    ];
    let mut got = Vec::new();
    for (name, arch) in four_templates() {
        for (grid, budgets) in &grids {
            let f = fingerprint(&arch, budgets.clone(), SizingConfig::small());
            got.push((format!("{name}/{grid}"), f));
        }
    }
    check(
        got,
        &[
            ("figure1/up", (3954239090191724689, 1269526897712497449)),
            ("figure1/down", (4192998383494096717, 11625762255183430621)),
            ("figure1/mixed", (3310646917427732121, 13036488977922288863)),
            (
                "network_processor/up",
                (11894942457502062108, 14657871283259568546),
            ),
            (
                "network_processor/down",
                (11743895767403462664, 9504965056976772132),
            ),
            (
                "network_processor/mixed",
                (8322142850507593132, 17765269603465629494),
            ),
            ("amba/up", (14658908090589625823, 5402436343252210245)),
            ("amba/down", (828476010995856851, 3153590440231977675)),
            ("amba/mixed", (5783639614441959092, 3425931404847011998)),
            (
                "coreconnect/up",
                (15249338634771364563, 6156434829353461007),
            ),
            (
                "coreconnect/down",
                (8621830606433055447, 4577322966362510167),
            ),
            (
                "coreconnect/mixed",
                (1006914086693538542, 1577686049854444954),
            ),
        ],
    );
}

#[test]
fn default_network_processor_mixed_grid_is_pinned() {
    let f = fingerprint(
        &templates::network_processor(),
        MIXED.to_vec(),
        SizingConfig::default(),
    );
    check(
        vec![("network_processor".into(), f)],
        &[(
            "network_processor",
            (2154452225648276767, 8462609802281594347),
        )],
    );
}

#[test]
fn default_figure1_mixed_grid_is_pinned() {
    let f = fingerprint(
        &templates::figure1(),
        MIXED.to_vec(),
        SizingConfig::default(),
    );
    check(
        vec![("figure1".into(), f)],
        &[("figure1", (13069200995772493428, 2866305567241072508))],
    );
}

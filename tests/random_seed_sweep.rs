//! Every seeded random architecture sizes.
//!
//! Seeds `0..SEEDS` of the default random generator, each sized cold at
//! 8 units per queue under `SizingConfig::default()` and
//! `SizingConfig::small()`, must all return an allocation that spends
//! the budget. The solve runs one set of simplex options with no retry,
//! so a seed whose LP stalls, hits the iteration limit or breaks down
//! numerically fails here by name.
//!
//! The sweep takes seconds in release and minutes in debug, so it runs
//! in the release tier only (`cargo test --release`).

use socbuf::sizing::{size_buffers, SizingConfig};
use socbuf::soc::templates::{self, RandomArchParams};

/// Seeds swept per configuration.
const SEEDS: u64 = 2_000;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: minutes in debug")]
fn every_random_seed_sizes() {
    let params = RandomArchParams::default();
    let mut failures = Vec::new();
    for (name, config) in [
        ("default", SizingConfig::default()),
        ("small", SizingConfig::small()),
    ] {
        for seed in 0..SEEDS {
            let arch = templates::random_architecture(seed, &params);
            let budget = 8 * arch.num_queues();
            match size_buffers(&arch, budget, &config) {
                Ok(o) if o.allocation.total() == budget => {}
                Ok(o) => failures.push(format!(
                    "{name} seed {seed}: allocation totals {} of {budget}",
                    o.allocation.total()
                )),
                Err(e) => failures.push(format!("{name} seed {seed}: {e}")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} sizes failed:\n{}",
        failures.len(),
        2 * SEEDS,
        failures.join("\n")
    );
}

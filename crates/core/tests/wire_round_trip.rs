//! The canonical round-trip law of the wire codecs: for every text `t`
//! the codecs render, decoding and rendering again gives `t` back, and
//! so does re-rendering the parsed tree.
//!
//! The serve cache keys warm contexts on canonical text and answers a
//! request whose raw `arch` and `config` bytes equal a cached key
//! without decoding them. That is exact only because canonical text
//! decodes to a value that renders to the same text; this suite pins
//! the law over seeded random architectures, every extended-semantics
//! declaration, the templates and a grid of sizing configs.

use socbuf_core::wire::{
    architecture_from_json, architecture_to_json, sizing_config_from_json, sizing_config_to_json,
    JsonValue,
};
use socbuf_core::SizingConfig;
use socbuf_lp::LpEngine;
use socbuf_soc::templates::{self, RandomArchParams};
use socbuf_soc::{Architecture, ArchitectureBuilder, BusArbitration, FlowTarget, TrafficShape};

/// Random architectures checked (half plain, half with extended
/// declarations).
const ARCHITECTURES: u64 = 2_400;

/// A splitmix64 stream: enough randomness to vary the declarations,
/// with no dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A float in `(0, scale]` with a full-width mantissa.
    fn positive(&mut self, scale: f64) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64 * scale
    }
}

/// Asserts the law on one architecture's canonical text.
fn assert_arch_law(arch: &Architecture, what: &str) {
    let t = architecture_to_json(arch);
    let tree = JsonValue::parse(&t).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(tree.render(), t, "{what}: parse(t).render() != t");
    let back = architecture_from_json(&tree).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        architecture_to_json(&back),
        t,
        "{what}: to_json(from_json(parse(t))) != t"
    );
}

/// `arch` rebuilt with every extended declaration drawn from `mix`:
/// priority and locked buses, bridge latencies, burst and on-off flows,
/// and non-unit processor weights.
fn extended(arch: &Architecture, mix: &mut Mix) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let mut buses = Vec::new();
    for id in arch.bus_ids() {
        let bus = arch.bus(id);
        let arbitration = match mix.below(3) {
            0 => BusArbitration::External,
            1 => BusArbitration::Priority,
            _ => BusArbitration::Locked {
                max_batch: 1 + mix.below(6) as usize,
            },
        };
        buses.push(
            b.add_bus_with_arbitration(bus.name(), bus.service_rate(), arbitration)
                .unwrap(),
        );
    }
    let mut procs = Vec::new();
    for id in arch.proc_ids() {
        let p = arch.processor(id);
        let attach: Vec<_> = p.buses().iter().map(|b| buses[b.index()]).collect();
        procs.push(
            b.add_processor(p.name(), &attach, mix.positive(3.0))
                .unwrap(),
        );
    }
    for id in arch.bridge_ids() {
        let g = arch.bridge(id);
        let latency = if mix.below(2) == 0 {
            0.0
        } else {
            mix.positive(0.5)
        };
        b.add_bridge_with_latency(
            g.name(),
            buses[g.from().index()],
            buses[g.to().index()],
            latency,
        )
        .unwrap();
    }
    for id in arch.flow_ids() {
        let f = arch.flow(id);
        let target = match f.target() {
            FlowTarget::Processor(p) => FlowTarget::Processor(procs[p.index()]),
            FlowTarget::Bus(bus) => FlowTarget::Bus(buses[bus.index()]),
        };
        let shape = match mix.below(3) {
            0 => TrafficShape::Poisson,
            1 => TrafficShape::Burst {
                batch: 1 + mix.below(8) as usize,
            },
            _ => TrafficShape::OnOff {
                mean_on: mix.positive(10.0),
                mean_off: mix.positive(10.0),
            },
        };
        b.add_flow_shaped(procs[f.src().index()], target, f.rate(), shape)
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn random_and_extended_architectures_obey_the_round_trip_law() {
    let mut mix = Mix(0x5eed_0fa1_c4c4);
    let mut extended_seen = 0;
    for seed in 0..ARCHITECTURES {
        let params = RandomArchParams {
            buses: 1 + (seed % 6) as usize,
            processors: 1 + (seed % 9) as usize,
            bridges: (seed % 7) as usize,
            flows: 1 + (seed % 13) as usize,
            ..RandomArchParams::default()
        }
        .with_load_factor(0.5 + (seed % 5) as f64 * 0.25);
        let arch = templates::random_architecture(seed, &params);
        if seed % 2 == 0 {
            assert_arch_law(&arch, &format!("random seed {seed}"));
        } else {
            let ext = extended(&arch, &mut mix);
            extended_seen += usize::from(ext.uses_extended_semantics());
            assert_arch_law(&ext, &format!("extended seed {seed}"));
        }
    }
    assert!(
        extended_seen > ARCHITECTURES as usize / 4,
        "the extended half must mostly declare extended semantics, saw {extended_seen}"
    );
}

#[test]
fn templates_and_their_scaled_variants_obey_the_round_trip_law() {
    for (name, arch) in [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
        ("network_processor", templates::network_processor()),
    ] {
        assert_arch_law(&arch, name);
        for step in 1..8 {
            let factor = 1.0 - 0.05 * step as f64;
            let scaled = arch.scale_rates(factor, 1.0).unwrap();
            assert_arch_law(&scaled, &format!("{name} at load {factor}"));
        }
    }
    for seed in 0..16 {
        assert_arch_law(
            &templates::ill_conditioned(seed),
            &format!("ill_conditioned {seed}"),
        );
    }
}

#[test]
fn a_grid_of_sizing_configs_obeys_the_round_trip_law() {
    let mut checked = 0;
    for state_cap in [2, 8, 20, 64] {
        for effort_levels in [2, 3, 4, 7] {
            for alpha in [0.1, 1.0 / 3.0, 0.5, 1.0] {
                for quantile in [0.9, 0.98, 0.999] {
                    for bus_effort_limit in [0.5, 1.0, 2.5] {
                        for engine in [LpEngine::Revised, LpEngine::Tableau, LpEngine::Decomposed] {
                            for equilibrate in [true, false] {
                                let config = SizingConfig {
                                    state_cap,
                                    effort_levels,
                                    alpha,
                                    quantile,
                                    bus_effort_limit,
                                    engine,
                                    equilibrate,
                                    ..SizingConfig::default()
                                };
                                let t = sizing_config_to_json(&config);
                                let tree = JsonValue::parse(&t).unwrap();
                                assert_eq!(tree.render(), t);
                                let back = sizing_config_from_json(&tree).unwrap();
                                assert_eq!(sizing_config_to_json(&back), t);
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3_456);
}

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
//!
//! Campaign manifests obey the same law, or are refused by name when
//! built: a shard parses exactly the text its coordinator rendered.
//!
//! Every record decoder also obeys the field rules, checked on the
//! canonical renderings of real values: an extra key `zz` in any object
//! the decoder owns is refused by name, and dropping any required key
//! gives `<parent>: missing field "<key>"`.

use std::ops::Range;

use socbuf_core::wire::{
    architecture_from_json, architecture_to_json, random_params_from_json, random_params_to_json,
    sizing_config_from_json, sizing_config_to_json, sizing_outcome_from_json,
    sizing_outcome_to_json, CampaignManifest, JsonValue, ManifestShape, WireError,
};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_lp::LpEngine;
use socbuf_soc::templates::{self, RandomArchParams};
use socbuf_soc::{Architecture, ArchitectureBuilder, BusArbitration, FlowTarget, TrafficShape};

/// Random architectures checked (half plain, half with extended
/// declarations).
const ARCHITECTURES: u64 = 2_400;

/// Campaign manifests checked: every shape, warm and cold, default and
/// coarsened partitions, over three templates and two configs.
const MANIFESTS: u64 = 720;

/// The largest integer the wire's number model carries exactly.
const TWO_53: u64 = 1 << 53;

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
            for engine in [LpEngine::Revised, LpEngine::Tableau, LpEngine::Decomposed] {
                for equilibrate in [true, false] {
                    let config = SizingConfig {
                        state_cap,
                        effort_levels,
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
    assert_eq!(checked, 96);
}

/// The formulation's fixed settings were config keys once; a payload
/// that still carries one is refused by name, not silently ignored.
#[test]
fn the_fixed_formulation_settings_are_refused_by_name() {
    for (text, key) in [
        (r#"{"alpha":0.5}"#, "alpha"),
        (r#"{"quantile":0.98}"#, "quantile"),
        (r#"{"bus_effort_limit":1}"#, "bus_effort_limit"),
    ] {
        match sizing_config_from_json(&JsonValue::parse(text).unwrap()) {
            Err(WireError::Schema(msg)) => assert!(
                msg.starts_with(&format!("config: unknown field \"{key}\"")),
                "{text}: {msg}"
            ),
            other => panic!("{text}: must be refused, got {other:?}"),
        }
    }
}

/// Asserts the manifest law on one constructor result: the manifest is
/// refused with a schema error naming `unrenderable` exactly when that
/// is set, and otherwise its text `t` satisfies
/// `to_json(from_json(parse(t))) == t` with the same config hash.
fn assert_manifest_law(
    built: Result<CampaignManifest, WireError>,
    unrenderable: Option<&str>,
    what: &str,
) {
    match (built, unrenderable) {
        (Err(WireError::Schema(msg)), Some(field)) => {
            assert!(msg.contains(field), "{what}: {msg:?} does not name {field}")
        }
        (Ok(manifest), None) => {
            let t = manifest.to_json();
            let tree = JsonValue::parse(&t).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(tree.render(), t, "{what}: parse(t).render() != t");
            let back = CampaignManifest::from_json(&tree).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                back.to_json(),
                t,
                "{what}: to_json(from_json(parse(t))) != t"
            );
            assert_eq!(
                back.config_hash, manifest.config_hash,
                "{what}: hash drifted"
            );
        }
        (built, expected) => panic!(
            "{what}: expected a refusal naming {expected:?}, got {:?}",
            built.map(|m| m.to_json())
        ),
    }
}

/// A load factor: mostly finite, now and then NaN or ±inf.
fn factor(mix: &mut Mix) -> f64 {
    match mix.below(24) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => mix.positive(2.0),
    }
}

/// A random-campaign seed: mostly below 2⁵³, now and then at it, just
/// above it, or anywhere in `u64`.
fn seed(mix: &mut Mix) -> u64 {
    match mix.below(40) {
        0 => TWO_53,
        1 => TWO_53 + 1,
        2 => TWO_53 + 1 + mix.below(1 << 20),
        3 => mix.next(),
        _ => mix.below(TWO_53),
    }
}

/// `base` with random runs of consecutive chunks merged.
fn coarsened(base: Vec<Range<usize>>, mix: &mut Mix) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for r in base {
        match out.last_mut() {
            Some(last) if mix.below(2) == 0 => last.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

#[test]
fn campaign_manifests_obey_the_round_trip_law_or_are_refused_by_name() {
    let mut mix = Mix(0x3a41_f35e_0d17);
    let archs = [
        templates::amba(),
        templates::coreconnect(),
        templates::figure1(),
    ];
    let configs = [SizingConfig::small(), SizingConfig::default()];
    // Accepted and refused manifests per shape: budget, load, random.
    let mut accepted = [0; 3];
    let mut refused = [0; 3];
    for case in 0..MANIFESTS {
        let kind = (case % 3) as usize;
        let arch = archs[(case / 3 % 3) as usize].clone();
        let warm_start = case / 9 % 2 == 0;
        let config = configs[(case / 18 % 2) as usize].clone();
        let coarsen = case / 36 % 2 == 1;
        let len = 1 + mix.below(24) as usize;
        let mut unrenderable = None;
        let shape = match kind {
            0 => ManifestShape::Budget {
                arch,
                budgets: (0..len).map(|_| 1 + mix.below(200) as usize).collect(),
                warm_start,
            },
            1 => {
                let factors: Vec<f64> = (0..len).map(|_| factor(&mut mix)).collect();
                unrenderable = factors
                    .iter()
                    .position(|f| !f.is_finite())
                    .map(|i| format!("factors[{i}]"));
                ManifestShape::Load {
                    arch,
                    budget: 1 + mix.below(200) as usize,
                    factors,
                    warm_start,
                }
            }
            _ => {
                let seeds: Vec<u64> = (0..len).map(|_| seed(&mut mix)).collect();
                unrenderable = seeds
                    .iter()
                    .position(|&s| s > TWO_53)
                    .map(|i| format!("seeds[{i}]"));
                ManifestShape::Random {
                    params: RandomArchParams::default(),
                    seeds,
                    units_per_queue: 1 + mix.below(6) as usize,
                }
            }
        };
        let built = if coarsen {
            let ranges = coarsened(shape.chunk_policy().ranges(shape.items()), &mut mix);
            CampaignManifest::with_chunks(shape, config, ranges)
        } else {
            CampaignManifest::new(shape, config)
        };
        if unrenderable.is_some() {
            refused[kind] += 1;
        } else {
            accepted[kind] += 1;
        }
        assert_manifest_law(
            built,
            unrenderable.as_deref(),
            &format!("manifest case {case}"),
        );
    }
    assert!(
        accepted.iter().all(|&n| n > 50),
        "accepted per shape: {accepted:?}"
    );
    assert!(
        refused[1] > 50 && refused[2] > 50,
        "refused per shape: {refused:?}"
    );

    // The edges themselves: 2⁵³ is carried, one above it is not.
    let random = |seeds: Vec<u64>| ManifestShape::Random {
        params: RandomArchParams::default(),
        seeds,
        units_per_queue: 3,
    };
    let config = SizingConfig::small;
    assert_manifest_law(
        CampaignManifest::new(random(vec![TWO_53]), config()),
        None,
        "2^53",
    );
    for (seeds, field) in [
        (vec![TWO_53 + 1], "seeds[0]"),
        (vec![7, 10_368_477_539_328_126_995], "seeds[1]"),
        (vec![u64::MAX], "seeds[0]"),
    ] {
        let what = format!("seeds {seeds:?}");
        assert_manifest_law(
            CampaignManifest::new(random(seeds), config()),
            Some(field),
            &what,
        );
    }
    for (factors, field) in [
        (vec![1.0, f64::NAN], "factors[1]"),
        (vec![f64::INFINITY], "factors[0]"),
        (vec![0.5, 1.0, f64::NEG_INFINITY], "factors[2]"),
    ] {
        let what = format!("factors {factors:?}");
        let shape = ManifestShape::Load {
            arch: templates::amba(),
            budget: 16,
            factors,
            warm_start: true,
        };
        assert_manifest_law(CampaignManifest::new(shape, config()), Some(field), &what);
    }

    // Every other integer a manifest renders has the same edge: the
    // budgets, the load budget, `units_per_queue`, the sizing config's
    // and the random params' counts, and the architecture's batches.
    fn on_figure1(budgets: Vec<usize>) -> ManifestShape {
        ManifestShape::Budget {
            arch: templates::figure1(),
            budgets,
            warm_start: true,
        }
    }
    fn load(budget: usize) -> ManifestShape {
        ManifestShape::Load {
            arch: templates::amba(),
            budget,
            factors: vec![1.0],
            warm_start: true,
        }
    }
    /// A random campaign with `units_per_queue` or the `count`-th of
    /// the params' counts (buses, processors, bridges, flows) set to `n`.
    fn random_with(n: usize, count: Option<usize>) -> ManifestShape {
        let mut params = RandomArchParams::default();
        let counts = [
            &mut params.buses,
            &mut params.processors,
            &mut params.bridges,
            &mut params.flows,
        ];
        let mut units_per_queue = 3;
        match count {
            Some(i) => *counts.into_iter().nth(i).unwrap() = n,
            None => units_per_queue = n,
        }
        ManifestShape::Random {
            params,
            seeds: vec![7],
            units_per_queue,
        }
    }
    /// A budget campaign over a locked bus and a burst flow.
    fn batched(max_batch: usize, batch: usize) -> ManifestShape {
        let mut b = ArchitectureBuilder::new();
        let locked = BusArbitration::Locked { max_batch };
        let bus = b.add_bus_with_arbitration("x", 2.0, locked).unwrap();
        let p = b.add_processor("p", &[bus], 1.0).unwrap();
        let shape = TrafficShape::Burst { batch };
        b.add_flow_shaped(p, FlowTarget::Bus(bus), 0.5, shape)
            .unwrap();
        ManifestShape::Budget {
            arch: b.build().unwrap(),
            budgets: vec![8],
            warm_start: true,
        }
    }
    fn sized(state_cap: usize, effort_levels: usize) -> SizingConfig {
        SizingConfig {
            state_cap,
            effort_levels,
            ..SizingConfig::small()
        }
    }
    type Case = fn(usize) -> (ManifestShape, SizingConfig);
    let cases: [(&str, Case); 11] = [
        ("budgets[1]", |n| (on_figure1(vec![22, n]), sized(8, 3))),
        ("budget", |n| (load(n), sized(8, 3))),
        ("units_per_queue", |n| (random_with(n, None), sized(8, 3))),
        ("params.buses", |n| (random_with(n, Some(0)), sized(8, 3))),
        ("params.processors", |n| {
            (random_with(n, Some(1)), sized(8, 3))
        }),
        ("params.bridges", |n| (random_with(n, Some(2)), sized(8, 3))),
        ("params.flows", |n| (random_with(n, Some(3)), sized(8, 3))),
        ("config.state_cap", |n| (on_figure1(vec![22]), sized(n, 3))),
        ("config.effort_levels", |n| {
            (on_figure1(vec![22]), sized(8, n))
        }),
        ("max_batch", |n| (batched(n, 2), sized(8, 3))),
        ("flows[0].batch", |n| (batched(2, n), sized(8, 3))),
    ];
    for (field, case) in cases {
        let (shape, config) = case(TWO_53 as usize);
        let what = format!("{field} at 2^53");
        assert_manifest_law(CampaignManifest::new(shape, config), None, &what);
        let (shape, config) = case(TWO_53 as usize + 2);
        let what = format!("{field} above 2^53");
        assert_manifest_law(CampaignManifest::new(shape, config), Some(field), &what);
    }
}

// ---------------------------------------------------------------------
// Field rules
// ---------------------------------------------------------------------

/// `doc` with the object at `path` (keys, or indices into arrays)
/// edited by `edit`.
fn edited(
    doc: &JsonValue,
    path: &[&str],
    edit: impl FnOnce(&mut Vec<(String, JsonValue)>),
) -> JsonValue {
    let mut doc = doc.clone();
    let mut v = &mut doc;
    for seg in path {
        v = match v {
            JsonValue::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
            JsonValue::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
            other => panic!("{path:?}: {seg} indexes {other:?}"),
        };
    }
    match v {
        JsonValue::Obj(fields) => edit(fields),
        other => panic!("{path:?} is not an object: {other:?}"),
    }
    doc
}

/// The field rules on the object at `path` of `doc`, which `decode`
/// reads as the record `parent`: an extra key `zz` is refused by name;
/// dropping a key decodes when it is `optional`, fails some other way
/// when it is one of `tags` (a union's discriminating key), and
/// otherwise gives `<parent>: missing field "<key>"`.
fn assert_field_rules(
    doc: &JsonValue,
    path: &[&str],
    parent: &str,
    optional: &[&str],
    tags: &[&str],
    decode: &dyn Fn(&JsonValue) -> Result<(), WireError>,
) {
    let at = format!("{parent} at {path:?}");
    decode(doc).unwrap_or_else(|e| panic!("{at}: the canonical text must decode: {e}"));
    let extra = edited(doc, path, |f| f.push(("zz".into(), JsonValue::Num(1.0))));
    match decode(&extra) {
        Err(WireError::Schema(msg)) => assert!(
            msg.starts_with(&format!("{parent}: unknown field \"zz\"")),
            "{at}: {msg}"
        ),
        other => panic!("{at}: an extra key must be refused by name, got {other:?}"),
    }
    let mut keys = Vec::new();
    edited(doc, path, |f| {
        keys = f.iter().map(|(k, _)| k.clone()).collect()
    });
    let mut required = 0;
    for key in &keys {
        let dropped = edited(doc, path, |f| f.retain(|(k, _)| k != key));
        let got = decode(&dropped);
        if optional.contains(&key.as_str()) {
            assert!(got.is_ok(), "{at}: dropping optional {key}: {got:?}");
        } else if tags.contains(&key.as_str()) {
            assert!(matches!(got, Err(WireError::Schema(_))), "{at}: {key}");
        } else {
            let want = format!("{parent}: missing field \"{key}\"");
            assert_eq!(got, Err(WireError::Schema(want)), "{at}: dropping {key}");
            required += 1;
        }
    }
    assert!(
        required + optional.len() + tags.len() >= keys.len(),
        "{at}: {keys:?}"
    );
}

/// An architecture that uses every declaration the codec has: a locked
/// and a priority bus, a bridge latency, a burst flow to a processor
/// and an on-off flow to a bus.
fn declaring_everything() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let locked = BusArbitration::Locked { max_batch: 2 };
    let x = b.add_bus_with_arbitration("x", 4.0, locked).unwrap();
    let y = b
        .add_bus_with_arbitration("y", 3.0, BusArbitration::Priority)
        .unwrap();
    let p = b.add_processor("p", &[x], 1.0).unwrap();
    let q = b.add_processor("q", &[y], 2.0).unwrap();
    b.add_bridge_with_latency("g", x, y, 0.25).unwrap();
    let burst = TrafficShape::Burst { batch: 3 };
    b.add_flow_shaped(p, FlowTarget::Processor(q), 0.5, burst)
        .unwrap();
    let on_off = TrafficShape::OnOff {
        mean_on: 2.0,
        mean_off: 1.5,
    };
    b.add_flow_shaped(p, FlowTarget::Bus(y), 0.25, on_off)
        .unwrap();
    b.build().unwrap()
}

/// `(path, parent, optional keys, tag keys)` of every object the
/// architecture decoder owns in [`declaring_everything`]'s rendering. A
/// path's `/`-separated segments are keys, or indices into arrays.
const ARCH_OBJECTS: [(&str, &str, &[&str], &[&str]); 11] = [
    ("", "architecture", &[], &[]),
    ("buses/0", "buses[0]", &["arbitration"], &[]),
    ("buses/0/arbitration", "buses[0].arbitration", &[], &[]),
    ("processors/1", "processors[1]", &[], &[]),
    ("bridges/0", "bridges[0]", &["latency"], &[]),
    ("flows/0", "flows[0]", &["shape"], &[]),
    ("flows/0/target", "flows[0].target", &[], &["processor"]),
    ("flows/1/target", "flows[1].target", &[], &["bus"]),
    ("flows/0/shape", "flows[0].shape", &[], &["burst"]),
    ("flows/1/shape", "flows[1].shape", &[], &["on_off"]),
    ("flows/1/shape/on_off", "flows[1].shape.on_off", &[], &[]),
];

/// `root` followed by the segments of `rest`.
fn under<'a>(root: &[&'a str], rest: &'a str) -> Vec<&'a str> {
    let rest = rest.split('/').filter(|s| !s.is_empty());
    root.iter().copied().chain(rest).collect()
}

fn tree(text: &str) -> JsonValue {
    JsonValue::parse(text).unwrap()
}

#[test]
fn every_wire_record_refuses_unknown_keys_and_names_missing_ones() {
    let arch = declaring_everything();
    let doc = tree(&architecture_to_json(&arch));
    let decode_arch = |v: &JsonValue| architecture_from_json(v).map(drop);
    for (at, parent, optional, tags) in ARCH_OBJECTS {
        assert_field_rules(&doc, &under(&[], at), parent, optional, tags, &decode_arch);
    }

    let config = SizingConfig::small();
    let doc = tree(&sizing_config_to_json(&config));
    let keys = ["state_cap", "effort_levels", "engine", "equilibrate"];
    let decode_config = |v: &JsonValue| sizing_config_from_json(v).map(drop);
    assert_field_rules(&doc, &[], "config", &keys, &[], &decode_config);

    let figure1 = templates::figure1();
    let outcome = size_buffers(&figure1, 24, &config).unwrap();
    let doc = tree(&sizing_outcome_to_json(&outcome));
    let decode_outcome = |v: &JsonValue| sizing_outcome_from_json(v, &figure1).map(drop);
    let optional = ["lp_iterations"];
    assert_field_rules(&doc, &[], "outcome", &optional, &[], &decode_outcome);
    let path = ["lp_scaling"];
    assert_field_rules(&doc, &path, "lp_scaling", &[], &[], &decode_outcome);

    let params = RandomArchParams::default();
    let doc = tree(&random_params_to_json(&params));
    let decode_params = |v: &JsonValue| random_params_from_json(v).map(drop);
    assert_field_rules(&doc, &[], "params", &[], &[], &decode_params);

    // Dropping an optional key edits the hashed campaign text, so the
    // hash check, which runs after every field rule, refuses it.
    let decode_manifest = |v: &JsonValue| match CampaignManifest::from_json(v) {
        Err(WireError::Schema(msg)) if msg.starts_with("manifest: stale config hash") => Ok(()),
        other => other.map(drop),
    };
    let shapes = [
        ManifestShape::Budget {
            arch: arch.clone(),
            budgets: vec![8, 12, 16, 20, 24],
            warm_start: true,
        },
        ManifestShape::Load {
            arch,
            budget: 16,
            factors: vec![0.5, 1.0],
            warm_start: false,
        },
        ManifestShape::Random {
            params,
            seeds: vec![3, 5],
            units_per_queue: 2,
        },
    ];
    for shape in shapes {
        let random = matches!(shape, ManifestShape::Random { .. });
        let manifest = CampaignManifest::new(shape, config.clone()).unwrap();
        assert!(
            manifest.chunks.len() > 1,
            "each campaign spans chunk ranges"
        );
        let doc = tree(&manifest.to_json());
        for (path, parent) in [
            (vec![], "manifest"),
            (vec!["campaign"], "campaign"),
            (vec!["chunks", "1"], "chunks[1]"),
        ] {
            assert_field_rules(&doc, &path, parent, &[], &[], &decode_manifest);
        }
        if random {
            let path = ["campaign", "params"];
            assert_field_rules(&doc, &path, "params", &[], &[], &decode_manifest);
        } else {
            let path = ["campaign", "config"];
            assert_field_rules(&doc, &path, "config", &keys, &[], &decode_manifest);
            for (at, parent, optional, tags) in ARCH_OBJECTS {
                let at = under(&["campaign", "arch"], at);
                assert_field_rules(&doc, &at, parent, optional, tags, &decode_manifest);
            }
        }
    }
}

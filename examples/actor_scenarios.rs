//! Scenario shapes beyond the paper's model: priority arbitration,
//! locked (batched) bus transfers, and bursty / on-off traffic sources.
//!
//! The paper's model is Poisson sources, externally arbitrated buses
//! and zero-latency bridges. The simulator's output on it is pinned bit
//! for bit (the `legacy_pins` suite); these scenarios extend it with
//! declarations on the architecture itself, which `simulate_with` runs
//! like any other architecture.
//!
//! Run with `cargo run --release --example actor_scenarios`.

use socbuf::sim::{simulate_with, Arbiter, SimConfig};
use socbuf::soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};

/// Two clients sharing one bus at equal rates; only the declarations
/// differ between scenarios.
fn two_clients(
    arbitration: BusArbitration,
    shape_a: TrafficShape,
    shape_b: TrafficShape,
) -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let bus = b.add_bus_with_arbitration("bus", 4.0, arbitration).unwrap();
    let p = b.add_processor("p", &[bus], 1.0).unwrap();
    let q = b.add_processor("q", &[bus], 1.0).unwrap();
    b.add_flow_shaped(p, FlowTarget::Bus(bus), 1.6, shape_a)
        .unwrap();
    b.add_flow_shaped(q, FlowTarget::Bus(bus), 1.6, shape_b)
        .unwrap();
    b.build().unwrap()
}

fn run(arch: &Architecture) -> socbuf::sim::SimReport {
    let alloc = BufferAllocation::uniform(arch, 6);
    let cfg = SimConfig::new(20_000.0, 2005);
    simulate_with(arch, &alloc, &mut Arbiter::RandomNonempty, None, &cfg)
}

fn main() {
    let poisson = TrafficShape::Poisson;
    let burst = TrafficShape::Burst { batch: 8 };
    let onoff = TrafficShape::OnOff {
        mean_on: 2.0,
        mean_off: 6.0,
    };

    println!("Two clients, one bus (mu = 4), both flows at lambda = 1.6.\n");
    println!(
        "{:<44} {:>8} {:>8} {:>9} {:>9}",
        "scenario", "wait[p]", "wait[q]", "loss[p]", "loss[q]"
    );
    for (label, arch) in [
        (
            "external arbitration, Poisson + Poisson",
            two_clients(BusArbitration::External, poisson, poisson),
        ),
        (
            "priority to p, Poisson + Poisson",
            two_clients(BusArbitration::Priority, poisson, poisson),
        ),
        (
            "external arbitration, Burst{8} + Poisson",
            two_clients(BusArbitration::External, burst, poisson),
        ),
        (
            "locked transfers {4}, Burst{8} + Poisson",
            two_clients(BusArbitration::Locked { max_batch: 4 }, burst, poisson),
        ),
        (
            "external arbitration, OnOff + Poisson",
            two_clients(BusArbitration::External, onoff, poisson),
        ),
    ] {
        let r = run(&arch);
        println!(
            "{label:<44} {:>8.3} {:>8.3} {:>8.1}% {:>8.1}%",
            r.per_queue[0].mean_wait,
            r.per_queue[1].mean_wait,
            100.0 * r.per_proc[0].lost / r.per_proc[0].offered,
            100.0 * r.per_proc[1].lost / r.per_proc[1].offered,
        );
    }

    println!();
    println!("Readings (every run is deterministic per seed):");
    println!("- priority starves the second-declared client's waits in favor of the first;");
    println!("- bursty arrivals raise loss at the same average rate (finite buffers");
    println!("  punish trains of arrivals that Poisson smoothness avoids);");
    println!("- locked transfers drain a bursty client's trains back-to-back, trading");
    println!("  the other client's latency for the bursty one's.");
}

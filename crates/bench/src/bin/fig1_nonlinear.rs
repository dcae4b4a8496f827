//! Experiment E1 — the paper's §2 narrative: with bridges un-buffered,
//! the steady-state system is **quadratic** and a naive solver struggles
//! (the authors' Matlab 6.1 attempt failed); after buffer insertion and
//! splitting, the system is a plain LP and solves in one shot.
//!
//! The bin gates the shape the reproduction meets: the nominal load
//! converges undamped, the operating-point load's bridge ring does not
//! converge in 200 undamped iterations, the heavily damped iteration
//! (d = 0.1) does, and the split LP solves. It exits with the number of
//! broken checks (`SMOKE FAIL: …` on stderr).
//!
//! Run with: `cargo run --release -p socbuf-bench --bin fig1_nonlinear`

use socbuf_bench::probe::Gate;
use socbuf_core::coupled::CoupledSystem;
use socbuf_core::{size_buffers, CoreError, SizingConfig};
use socbuf_soc::{templates, Architecture, ArchitectureBuilder, BufferAllocation, FlowTarget};

/// The Figure 1 topology with its bridge ring (`b → f → g → b`) loaded
/// to the utilisation the paper's experiments run at; the nominal
/// template's light load lets even a naive solver limp through, the
/// operating-point load does not.
fn figure1_at_load() -> Architecture {
    let mut b = ArchitectureBuilder::new();
    let a = b.add_bus("a", 1.0).unwrap();
    let bus_b = b.add_bus("b", 0.8).unwrap();
    let c = b.add_bus("c", 0.8).unwrap();
    let d = b.add_bus("d", 0.8).unwrap();
    let e = b.add_bus("e", 0.8).unwrap();
    let f = b.add_bus("f", 0.6).unwrap();
    let g = b.add_bus("g", 0.6).unwrap();
    let p1 = b.add_processor("p1", &[a], 1.0).unwrap();
    let p2 = b.add_processor("p2", &[a, bus_b], 1.0).unwrap();
    let p3 = b.add_processor("p3", &[bus_b, c], 1.0).unwrap();
    let p4 = b.add_processor("p4", &[d, e], 1.0).unwrap();
    let p5 = b.add_processor("p5", &[g], 1.0).unwrap();
    b.add_bridge("b1", bus_b, f).unwrap();
    b.add_bridge("b2", f, g).unwrap();
    b.add_bridge("b3", g, bus_b).unwrap();
    b.add_bridge("b4", c, d).unwrap();
    b.add_flow(p1, FlowTarget::Processor(p2), 0.5).unwrap();
    b.add_flow(p2, FlowTarget::Processor(p3), 0.35).unwrap();
    b.add_flow(p2, FlowTarget::Processor(p5), 0.5).unwrap();
    b.add_flow(p5, FlowTarget::Processor(p2), 0.45).unwrap();
    b.add_flow(p3, FlowTarget::Processor(p4), 0.4).unwrap();
    b.add_flow(p3, FlowTarget::Processor(p2), 0.35).unwrap();
    b.add_flow(p4, FlowTarget::Bus(e), 0.4).unwrap();
    b.build().unwrap()
}

fn main() {
    let arch = templates::figure1();
    let alloc = BufferAllocation::uniform(&arch, 22);
    let mut gate = Gate::new();

    println!("=== E1: why the unsplit system is hard ===\n");
    println!(
        "paper: with the bridges unbuffered the steady state is quadratic and a naive \
         solver\n       (Matlab 6.1) finds no solution; split and buffered, it is one LP"
    );
    let coupled = CoupledSystem::build(&arch, &alloc);
    println!(
        "\nunsplit system: {} queues, {} quadratic cross-bus product terms",
        coupled.num_queues(),
        coupled.quadratic_term_count()
    );

    println!("\nnominal (light) load, naive fixed-point iteration:");
    let nominal = coupled.solve_fixed_point(1.0, 100, 1e-9);
    match &nominal {
        Ok(sol) => println!(
            "  converged after {} iterations — light load keeps the products benign",
            sol.iterations
        ),
        Err(e) => println!("  no convergence: {e}"),
    }
    gate.check(
        nominal.is_ok(),
        "the nominal load did not converge undamped in 100 iterations",
    );

    let hot = figure1_at_load();
    let hot_alloc = BufferAllocation::uniform(&hot, 22);
    let hot_coupled = CoupledSystem::build(&hot, &hot_alloc);
    println!(
        "\noperating-point load (bridge ring near saturation), {} quadratic terms:",
        hot_coupled.quadratic_term_count()
    );
    println!("naive fixed-point iteration (undamped), 200 iterations:");
    let undamped = hot_coupled.solve_fixed_point(1.0, 200, 1e-9);
    match &undamped {
        Ok(sol) => println!(
            "  converged after {} iterations (final residual {:.2e})",
            sol.iterations,
            sol.residuals.last().expect("a converged run has residuals")
        ),
        Err(CoreError::CoupledDiverged {
            iterations,
            residual,
        }) => {
            println!("  DID NOT CONVERGE after {iterations} iterations (residual {residual:.2e})");
            println!("  — reproducing the paper's 'we were not able to get solutions'");
        }
        Err(e) => println!("  failed: {e}"),
    }
    gate.check(
        matches!(undamped, Err(CoreError::CoupledDiverged { .. })),
        "the operating-point ring did not diverge in 200 undamped iterations",
    );

    println!("\nheavily damped iteration (d = 0.1), 10000 iterations:");
    let damped = hot_coupled.solve_fixed_point(0.1, 10_000, 1e-9);
    match &damped {
        Ok(sol) => println!(
            "  converged after {} iterations — a heuristic fixed point, with no optimality guarantee",
            sol.iterations
        ),
        Err(e) => println!("  still no convergence: {e}"),
    }
    gate.check(
        damped.is_ok(),
        "the damped iteration (d = 0.1) did not converge in 10000 iterations",
    );

    println!("\nsplit + buffered formulation (the paper's methodology):");
    match size_buffers(&arch, 22, &SizingConfig::default()) {
        Ok(outcome) => {
            println!(
                "  joint LP solved in {} simplex pivots; predicted weighted loss rate {:.5}",
                outcome.lp_iterations, outcome.predicted_loss_rate
            );
            println!("  allocation: {:?}", outcome.allocation.as_slice());
        }
        Err(e) => gate.fail(format_args!("the split LP did not solve: {e}")),
    }
    std::process::exit(gate.finish())
}

//! Ablation: AI steering on/off. The paper's premise (§III-A) is that
//! active learning concentrates the simulation budget on promising
//! candidates; with steering disabled, the same budget is spent on a
//! random queue and the discovery rate collapses to the base rate.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::moldesign::{self, MolDesignParams, SteeringMode};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn main() {
    println!("=== ablation: steering policy (fnx+globus, 3 seeds) ===\n");
    println!("{:<16} {:>6} {:>8} {:>10}", "policy", "sims", "found", "hit-rate");
    let mut rates = Vec::new();
    for steering in [SteeringMode::ActiveLearning, SteeringMode::Random] {
        let mut sims = 0usize;
        let mut found = 0usize;
        for seed in [7u64, 8, 9] {
            let sim = Sim::new();
            let d = deploy(
                &sim,
                WorkflowConfig::FnXGlobus,
                &DeploymentSpec { seed, ..Default::default() },
                Tracer::disabled(),
            );
            let o = moldesign::run(
                &sim,
                &d,
                MolDesignParams {
                    library_size: 6_000,
                    budget: Duration::from_secs(4 * 3600),
                    steering,
                    seed,
                    ..Default::default()
                },
            );
            sims += o.simulations;
            found += o.found;
        }
        let rate = found as f64 / sims as f64;
        println!("{:<16} {:>6} {:>8} {:>9.2}%", format!("{steering:?}"), sims, found, 100.0 * rate);
        rates.push(rate);
    }
    println!("\n--- shape check ---");
    println!(
        "active-learning hit rate {:.2}% vs random {:.2}% ({:.1}x)",
        100.0 * rates[0],
        100.0 * rates[1],
        rates[0] / rates[1].max(1e-9)
    );
    assert!(rates[0] > 3.0 * rates[1], "steering must beat random decisively");
}

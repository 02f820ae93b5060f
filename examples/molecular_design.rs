//! The molecular-design campaign (§III-A) on all three workflow
//! configurations, scaled down to run in a few seconds.
//!
//! ```sh
//! cargo run --release --example molecular_design
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn main() {
    let params = MolDesignParams {
        library_size: 5_000,
        budget: Duration::from_secs(4 * 3600), // 4 node-hours
        ensemble_size: 4,
        retrain_after: 12,
        ..Default::default()
    };
    println!(
        "molecular design: {} candidates, {:.0} node-hours budget, IP > {}",
        params.library_size,
        params.budget.as_secs_f64() / 3600.0,
        moldesign::IP_THRESHOLD
    );
    println!(
        "{:<12} {:>6} {:>6} {:>9} {:>12} {:>12}",
        "config", "sims", "found", "hit-rate", "ml-makespan", "cpu-idle-ms"
    );
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let spec = DeploymentSpec { cpu_workers: 8, gpu_workers: 8, ..Default::default() };
        let deployment = deploy(&sim, config, &spec, Tracer::disabled());
        let outcome = moldesign::run(&sim, &deployment, params.clone());
        println!(
            "{:<12} {:>6} {:>6} {:>8.1}% {:>10.0} s {:>12.0}",
            config.label(),
            outcome.simulations,
            outcome.found,
            100.0 * outcome.found as f64 / outcome.simulations.max(1) as f64,
            outcome.ml_makespans.median(),
            outcome.cpu_idle.median() * 1e3,
        );
    }
    println!("\n(faster ML makespan => the queue is re-prioritized sooner =>");
    println!(" more of the budget is spent on model-selected molecules)");
}

//! Ablation: simulation backlog depth (§V-E1).
//!
//! "Utilization can be improved even further by submitting at least one
//! more simulation task to execute than there are CPU workers
//! available." Sweep the backlog 0 → 3 on the FnX+Globus deployment and
//! measure the idle gap between simulation tasks and the implied CPU
//! utilization.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn main() {
    println!("=== ablation: simulation backlog depth (fnx+globus) ===\n");
    println!("{:>8} {:>14} {:>14} {:>13}", "backlog", "idle p50 (ms)", "idle p90 (ms)", "utilization");
    let mut idle0 = 0.0;
    let mut idle_last = 0.0;
    for backlog in 0..=3usize {
        let sim = Sim::new();
        let deployment = deploy(
            &sim,
            WorkflowConfig::FnXGlobus,
            &DeploymentSpec::default(),
            Tracer::disabled(),
        );
        let outcome = moldesign::run(
            &sim,
            &deployment,
            MolDesignParams {
                library_size: 6_000,
                budget: Duration::from_secs(4 * 3600),
                backlog,
                ..Default::default()
            },
        );
        let idle_q = outcome.cpu_idle.quantiles(&[0.5, 0.9]);
        let idle = idle_q[0];
        let util = 60.0 / (60.0 + idle);
        println!(
            "{:>8} {:>14.0} {:>14.0} {:>12.2}%",
            backlog,
            idle * 1e3,
            idle_q[1] * 1e3,
            100.0 * util
        );
        if backlog == 0 {
            idle0 = idle;
        }
        idle_last = idle;
    }
    println!("\n--- shape check vs paper ---");
    println!(
        "backlog 0 idle {:.0} ms -> backlog 3 idle {:.0} ms (paper: backlog hides the \
         notify+dispatch loop)",
        idle0 * 1e3,
        idle_last * 1e3
    );
    assert!(idle_last < 0.25 * idle0, "backlog must slash idle time");
}

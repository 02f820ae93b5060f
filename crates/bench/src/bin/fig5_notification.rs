//! Figure 5: result-notification timings in the molecular-design
//! application on the FnX+Globus deployment (§V-D1).
//!
//! Top panel: time between a task finishing its computation and the
//! thinker being notified, per task type. Bottom panel: how long the
//! thinker then waits for the result *data*.
//!
//! Shape targets: simulation notification fastest (~0.5 s median,
//! shared file system — no transfer to start); training/inference
//! notification limited by the ~500 ms HTTPS call that initiates a
//! Globus transfer; data waits exceed 1 s only for cross-resource
//! results (1–5 s Globus transfers).

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::Breakdown;
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn main() {
    let sim = Sim::new();
    let deployment = deploy(
        &sim,
        WorkflowConfig::FnXGlobus,
        &DeploymentSpec::default(),
        Tracer::disabled(),
    );
    let params = MolDesignParams {
        library_size: 8_000,
        budget: Duration::from_secs(5 * 3600),
        ..Default::default()
    };
    let outcome = moldesign::run(&sim, &deployment, params);
    println!(
        "=== Fig. 5: notification timings, molecular design on fnx+globus ===\n\
         campaign: {} simulations, {} records\n",
        outcome.simulations,
        outcome.records.len()
    );

    println!(
        "{:<10} {:>6} {:>18} {:>18} {:>18}",
        "task", "n", "notify p50 (ms)", "notify p90 (ms)", "data-wait p50 (ms)"
    );
    for topic in ["simulate", "train", "infer"] {
        let b = Breakdown::of(&outcome.records, Some(topic));
        let notify = b.notification.quantiles(&[0.5, 0.9]);
        println!(
            "{:<10} {:>6} {:>18.0} {:>18.0} {:>18.0}",
            topic,
            b.count,
            notify[0] * 1e3,
            notify[1] * 1e3,
            b.data_wait.median() * 1e3,
        );
    }

    println!("\n--- shape checks vs paper ---");
    let sim_b = Breakdown::of(&outcome.records, Some("simulate"));
    let train_b = Breakdown::of(&outcome.records, Some("train"));
    let infer_b = Breakdown::of(&outcome.records, Some("infer"));
    println!(
        "simulate notify {:.0} ms < train notify {:.0} ms (paper: sim fastest, no transfer init)",
        sim_b.notification.median() * 1e3,
        train_b.notification.median() * 1e3
    );
    println!(
        "cross-site data waits: train {:.1} s, infer {:.1} s (paper: 1-5 s Globus transfers)",
        train_b.data_wait.median(),
        infer_b.data_wait.median()
    );
    println!(
        "local data wait: simulate {:.2} s (paper: >1 s only when crossing resources)",
        sim_b.data_wait.median()
    );
}

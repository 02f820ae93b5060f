//! The surrogate fine-tuning campaign (§III-B): pre-train on cheap
//! approximate-level energies, fine-tune with reference-level
//! calculations chosen by active learning, and report the force-RMSD
//! improvement (the Fig. 7a metric).
//!
//! ```sh
//! cargo run --release --example surrogate_finetuning
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::finetune::{self, FinetuneParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::Breakdown;
use hetflow_sim::{Sim, Tracer};

fn main() {
    let params = FinetuneParams {
        pretrain_structures: 120,
        target_new: 32,
        retrain_every: 8,
        ensemble_size: 4,
        ..Default::default()
    };
    println!(
        "surrogate fine-tuning: {} pretrain structures, {} reference calculations",
        params.pretrain_structures, params.target_new
    );
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>10}",
        "config", "rmsd-pre", "rmsd-post", "rounds", "overhead"
    );
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let spec = DeploymentSpec { cpu_workers: 8, gpu_workers: 8, ..Default::default() };
        let deployment = deploy(&sim, config, &spec, Tracer::disabled());
        let outcome = finetune::run(&sim, &deployment, params.clone());
        // Median per-task overhead across all task types (Fig. 7b).
        let b = Breakdown::of(&outcome.records, None);
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>8} {:>8.2} s",
            config.label(),
            outcome.initial_force_rmsd,
            outcome.final_force_rmsd,
            outcome.training_rounds,
            b.overhead.median(),
        );
    }
    println!("\n(scientific outcomes are indistinguishable across configurations;");
    println!(" only the per-task overhead differs — the paper's Fig. 7 conclusion)");
}

//! Figure 1: resource-utilization traces for both applications — the
//! number of tasks running on each resource and the cumulative data
//! transferred to each resource over time. The paper collected these
//! with 20 T4 GPUs and 8 KNL workers on a Parsl deployment without
//! pass-by-reference; we reproduce that configuration.
//!
//! Shape targets: molecular design keeps the GPUs busy in long waves
//! (train-then-infer rounds) and moves an order of magnitude more data
//! (tens of GB to the GPU resource) than surrogate fine-tuning, whose
//! GPU activity is sporadic.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::finetune::{self, FinetuneParams};
use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_core::platform::{THETA, VENTI};
use hetflow_core::{deploy, DeploymentSpec, UtilizationReport, WorkflowConfig};
use hetflow_sim::{Sim, Tracer};
use std::time::Duration;

fn main() {
    println!("=== Fig. 1: resource utilization, Parsl without pass-by-reference ===");

    // --- Application 1: molecular design --------------------------------
    let sim = Sim::new();
    let deployment = deploy(&sim, WorkflowConfig::Parsl, &DeploymentSpec::default(), Tracer::disabled());
    let outcome = moldesign::run(
        &sim,
        &deployment,
        MolDesignParams {
            library_size: 8_000,
            budget: Duration::from_secs(5 * 3600),
            ..Default::default()
        },
    );
    let report = outcome.utilization();
    println!("\n--- molecular design ---");
    report.print_series(13);
    let md_gpu_bytes = report.total_bytes(VENTI);
    summary(&report);

    // --- Application 2: surrogate fine-tuning ---------------------------
    let sim = Sim::new();
    let deployment = deploy(&sim, WorkflowConfig::Parsl, &DeploymentSpec::default(), Tracer::disabled());
    let outcome = finetune::run(&sim, &deployment, FinetuneParams::default());
    let report = UtilizationReport::from_records(&outcome.records);
    println!("\n--- surrogate fine-tuning ---");
    report.print_series(13);
    let ft_gpu_bytes = report.total_bytes(VENTI);
    summary(&report);

    println!("\n--- shape checks vs paper ---");
    println!(
        "data to GPU resource: moldesign {:.1} GB vs finetune {:.2} GB \
         (paper: order-of-magnitude gap, O(10) GB vs O(1) GB)",
        md_gpu_bytes as f64 / 1e9,
        ft_gpu_bytes as f64 / 1e9
    );
    assert!(
        md_gpu_bytes > 5 * ft_gpu_bytes,
        "molecular design must move much more data"
    );
}

fn summary(report: &UtilizationReport) {
    println!(
        "mean tasks running: theta {:.1}, venti {:.1}; bytes to venti {:.2} GB, to theta {:.2} GB",
        report.mean_running(THETA),
        report.mean_running(VENTI),
        report.total_bytes(VENTI) as f64 / 1e9,
        report.total_bytes(THETA) as f64 / 1e9,
    );
}

//! §V-F recommendations, derived from a real campaign's records: run
//! the fine-tuning application and let the advisor propose a data path
//! per task type.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::finetune::{self, FinetuneParams};
use hetflow_core::platform::THETA;
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::{Advisor, PathChoice};
use hetflow_sim::{Sim, Tracer};

fn main() {
    let sim = Sim::new();
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &DeploymentSpec::default(), Tracer::disabled());
    let outcome = finetune::run(&sim, &d, FinetuneParams::default());
    println!("=== §V-F advisor: surrogate fine-tuning on fnx+globus ===\n");
    println!(
        "{:<10} {:>12} {:>8} {:>16} {:>18} {:>12}",
        "topic", "payload", "x-site", "with ports", "without ports", "overhead"
    );
    let recs = Advisor::recommend(&outcome.records, THETA);
    for r in &recs {
        println!(
            "{:<10} {:>12} {:>8} {:>16} {:>18} {:>10.2} s",
            r.topic,
            format_bytes(r.payload_bytes),
            r.crosses_sites,
            label(r.with_ports),
            label(r.without_ports),
            r.observed_overhead,
        );
    }
    println!("\n(paper: >10 kB => pass by reference; <100 MB with open ports => Redis;");
    println!(" otherwise Globus; sub-10 kB messages should stay inline)");
}

fn label(p: PathChoice) -> &'static str {
    match p {
        PathChoice::Inline => "inline",
        PathChoice::DirectStore => "redis",
        PathChoice::TransferService => "globus",
    }
}

fn format_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.1} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else {
        format!("{:.1} kB", b as f64 / 1e3)
    }
}

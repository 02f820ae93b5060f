//! Ablation: the auto-proxy size threshold (§V-E2 / §V-F).
//!
//! Sweep the threshold on the fine-tuning campaign (its task mix spans
//! 20 kB to 21 MB) and report per-task-type median overhead. Small
//! thresholds force tiny payloads through the store (adding round
//! trips); huge thresholds push megabytes through the control plane.
//! The paper's 10 kB recommendation should sit at or near the sweet
//! spot.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R10 binds libraries, not drivers")]

use hetflow_apps::finetune::{self, FinetuneParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::Breakdown;
use hetflow_sim::{Sim, Tracer};

fn main() {
    println!("=== ablation: auto-proxy threshold (parsl+redis, fine-tuning) ===\n");
    let thresholds: [(u64, &str); 5] = [
        (0, "0"),
        (1_000, "1kB"),
        (10_000, "10kB"),
        (1_000_000, "1MB"),
        (u64::MAX, "inf"),
    ];
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "threshold", "sample (ms)", "simulate (ms)", "train (ms)", "infer (ms)", "all p50 (ms)"
    );
    let mut all_medians = Vec::new();
    for (threshold, label) in thresholds {
        let sim = Sim::new();
        let spec = DeploymentSpec {
            proxy_threshold: Some(threshold),
            ..Default::default()
        };
        let d = deploy(&sim, WorkflowConfig::ParslRedis, &spec, Tracer::disabled());
        let o = finetune::run(&sim, &d, FinetuneParams::default());
        let med = |topic| Breakdown::of(&o.records, Some(topic)).overhead.median() * 1e3;
        let overall = Breakdown::of(&o.records, None).overhead.median() * 1e3;
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            label,
            med("sample"),
            med("simulate"),
            med("train"),
            med("infer"),
            overall
        );
        all_medians.push((threshold, overall));
    }
    println!("\n--- shape check vs paper ---");
    let at = |t: u64| match all_medians.iter().find(|(x, _)| *x == t) {
        Some((_, m)) => *m,
        None => {
            eprintln!("threshold {t} missing from the sweep results");
            std::process::exit(2);
        }
    };
    println!(
        "overall overhead: always-proxy {:.0} ms, 10kB {:.0} ms, never-proxy {:.0} ms",
        at(0),
        at(10_000),
        at(u64::MAX)
    );
    assert!(
        at(10_000) <= at(0) + 1.0 && at(10_000) < at(u64::MAX),
        "the paper's 10 kB threshold should be at or near the optimum"
    );
}

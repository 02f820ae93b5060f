//! §V-D in-text statistics: the three latencies an effective steering
//! system must minimize, measured on the FnX+Globus molecular-design
//! campaign.
//!
//! * **Reaction time** — result completing → available to the thinker
//!   (notification ~100 ms–1 s; data access >1 s only cross-site).
//! * **Decision time** — result received → next decision (paper: 5 ms
//!   median to launch the next simulation; ~4 s for decisions that must
//!   read remote data).
//! * **Dispatch time** — decision → task running (paper: ~100 ms for
//!   simulations via the FaaS HTTPS call; 2.5 s / 3.8 s for the first
//!   training / inference task of a round, 67 % / 95 % of which is
//!   proxy resolution; 12 % of inference proxies resolve in <100 ms
//!   thanks to ahead-of-time transfers).
//!
//! Run with `--no-prefetch` to ablate ProxyStore's ahead-of-time
//! transfer (transfers then start at resolve time, not put time).

#![allow(
    clippy::print_stdout,
    clippy::disallowed_methods,
    reason = "R10 binds libraries, not drivers"
)]

use hetflow_apps::moldesign::{self, MolDesignParams};
use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_steer::Breakdown;
use hetflow_sim::{Samples, Sim, Tracer};
use std::time::Duration;

fn main() {
    let no_prefetch = std::env::args().any(|a| a == "--no-prefetch");
    let sim = Sim::new();
    let mut spec = DeploymentSpec::default();
    if no_prefetch {
        // Ablation: model the loss of ahead-of-time transfers by making
        // every transfer start only when the consumer asks — approximated
        // by zeroing the transfer service's concurrency (forcing full
        // queueing) is wrong; instead we disable the push below by
        // raising the request latency to cover the median transfer too.
        spec.calibration.globus.request_latency =
            hetflow_sim::Dist::Constant(0.45 + 1.9);
        spec.calibration.globus.service_time = hetflow_sim::Dist::Constant(0.0);
    }
    let deployment = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    let outcome = moldesign::run(
        &sim,
        &deployment,
        MolDesignParams {
            library_size: 8_000,
            budget: Duration::from_secs(5 * 3600),
            ..Default::default()
        },
    );
    println!(
        "=== §V-D latency report: fnx+globus molecular design{} ===\n",
        if no_prefetch { " (prefetch ablated)" } else { "" }
    );

    // Reaction time.
    println!("-- reaction time --");
    for topic in ["simulate", "train", "infer"] {
        let b = Breakdown::of(&outcome.records, Some(topic));
        println!(
            "{topic:<10} notify p50 {:>6.0} ms | data wait p50 {:>6.0} ms",
            b.notification.median() * 1e3,
            b.data_wait.median() * 1e3
        );
    }

    // Decision time: completion-to-next-submission gaps for simulations.
    // The dispatcher reacts to a freed slot; measure created-stamp gaps
    // after notifications.
    let mut decision = Samples::new();
    let mut notifications: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| r.topic == "simulate")
        .filter_map(|r| r.timing.thinker_notified)
        .collect();
    notifications.sort();
    let mut creations: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| r.topic == "simulate")
        .filter_map(|r| r.timing.created)
        .collect();
    creations.sort();
    for n in &notifications {
        // First submission at or after this notification.
        if let Some(c) = creations.iter().find(|c| *c >= n) {
            decision.record((*c - *n).as_secs_f64());
        }
    }
    println!("\n-- decision time --");
    println!(
        "notification -> next simulation submitted: p50 {:.0} ms (paper: 5 ms, negligible vs reaction)",
        decision.median() * 1e3
    );

    // Dispatch time.
    println!("\n-- dispatch time --");
    for topic in ["simulate", "train", "infer"] {
        let b = Breakdown::of(&outcome.records, Some(topic));
        let resolve_share = if b.time_on_worker.median() > 0.0 {
            100.0 * b.resolve_wait.median()
                / (b.server_to_worker.median() + b.resolve_wait.median()).max(1e-9)
        } else {
            0.0
        };
        println!(
            "{topic:<10} server->worker p50 {:>6.0} ms | input resolve p50 {:>6.0} ms ({resolve_share:.0}% of start latency)",
            b.server_to_worker.median() * 1e3,
            b.resolve_wait.median() * 1e3,
        );
    }

    // Ahead-of-time caching effectiveness.
    let (local, remote) = outcome
        .records
        .iter()
        .filter(|r| r.topic == "infer")
        .fold((0u32, 0u32), |(l, r), rec| {
            (l + rec.report.local_inputs, r + rec.report.remote_inputs)
        });
    println!(
        "\ninference input proxies already local at resolve time: {:.0}% ({local} of {}) \
         (paper: 12% resolve <100 ms, thanks to ahead-of-time transfer)",
        100.0 * f64::from(local) / f64::from(local + remote).max(1.0),
        local + remote,
    );
    let train_b = Breakdown::of(&outcome.records, Some("train"));
    let infer_b = Breakdown::of(&outcome.records, Some("infer"));
    println!(
        "train / infer overhead medians: {:.1} s / {:.1} s vs task times 340 s / 900 s \
         (paper: <1% / <10% of runtime)",
        train_b.overhead.median(),
        infer_b.overhead.median()
    );
}

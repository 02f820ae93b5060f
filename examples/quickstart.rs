//! Quickstart: deploy a workflow stack on the simulated platform,
//! submit tasks, and read back the latency decomposition.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]
#![allow(
    clippy::expect_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::TaskWork;
use hetflow_steer::{Breakdown, Payload};
use hetflow_sim::{time::secs, Sim, Tracer};
use std::rc::Rc;

fn main() {
    // A fresh virtual-time simulation. Everything below is
    // deterministic given the deployment seed.
    let sim = Sim::new();

    // Deploy the paper's cloud-managed configuration: FnX (federated
    // FaaS) for task instructions, ProxyStore-over-Globus for data.
    let deployment = deploy(
        &sim,
        WorkflowConfig::FnXGlobus,
        &DeploymentSpec { cpu_workers: 4, gpu_workers: 4, ..Default::default() },
        Tracer::disabled(),
    );

    let queues = deployment.queues.clone();
    let driver = sim.spawn(async move {
        // Submit ten 1 MB simulation tasks; payloads above the 10 kB
        // threshold are automatically passed by reference.
        for i in 0..10u32 {
            queues
                .submit(
                    "simulate",
                    vec![Payload::new(i, 1_000_000)],
                    Rc::new(|ctx| {
                        let x = *ctx.input::<u32>(0);
                        TaskWork::new(x * 2, 50_000, secs(60.0))
                    }),
                )
                .await;
        }
        // Collect and resolve the results.
        let mut sum = 0u32;
        for _ in 0..10 {
            let done = queues.get_result("simulate").await.expect("result");
            let resolved = done.resolve().await;
            sum += *resolved.value::<u32>();
        }
        sum
    });
    let sum = sim.block_on(driver);
    println!("sum of task outputs: {sum} (expected {})", (0..10).map(|i| i * 2).sum::<u32>());
    println!("virtual time elapsed: {}", sim.now());

    // The records carry the full life-cycle decomposition the paper's
    // figures are built from.
    let records = deployment.queues.records();
    let b = Breakdown::of(&records, Some("simulate"));
    let row = b.median_row();
    println!("\nmedian latency decomposition over {} tasks:", b.count);
    println!("  thinker -> server : {:8.1} ms", row.thinker_to_server_ms);
    println!("  serialization     : {:8.1} ms", row.serialization_ms);
    println!("  server -> worker  : {:8.1} ms", row.server_to_worker_ms);
    println!("  time on worker    : {:8.1} ms", row.time_on_worker_ms);
    println!("  worker -> server  : {:8.1} ms", row.worker_to_server_ms);
    println!("  total lifetime    : {:8.1} ms", row.lifetime_ms);
}

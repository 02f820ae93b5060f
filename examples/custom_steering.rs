//! Building a custom steering policy from the primitives: a Thinker
//! with three cooperating agents, a ResourceCounter that rebalances
//! workers at runtime, and the §V-F advisor analyzing the run
//! afterwards.
//!
//! The policy: a producer agent keeps a work queue filled; a consumer
//! agent runs "screen" tasks on CPU workers; a monitor agent watches
//! queue depth every virtual minute and shifts worker slots between
//! "screen" and "refine" pools.
//!
//! ```sh
//! cargo run --release --example custom_steering
//! ```

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]
#![allow(
    clippy::unwrap_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow::prelude::*;
use hetflow::steer::{Advisor, ResourceCounter};
use hetflow_core::platform::THETA;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

fn main() {
    let sim = Sim::new();
    let deployment = deploy(
        &sim,
        WorkflowConfig::FnXGlobus,
        &DeploymentSpec { cpu_workers: 6, gpu_workers: 2, ..Default::default() },
        Tracer::disabled(),
    );
    let queues = deployment.queues.clone();
    let thinker = Thinker::new(&sim);

    let counter = ResourceCounter::new();
    counter.register("screen", 4);
    counter.register("refine", 2);
    let work: Rc<RefCell<VecDeque<u32>>> = Rc::default();
    let screened = Rc::new(std::cell::Cell::new(0u32));
    let refined = Rc::new(std::cell::Cell::new(0u32));

    // Producer: trickle work items in for the first hour.
    {
        let work = Rc::clone(&work);
        let s = sim.clone();
        thinker.agent("producer", async move {
            for batch in 0..60u32 {
                s.sleep(hetflow::sim::time::secs(60.0)).await;
                for i in 0..4 {
                    work.borrow_mut().push_back(batch * 4 + i);
                }
            }
        });
    }

    // Screener: cheap wide tasks; every 8th hit goes to refinement.
    {
        let work = Rc::clone(&work);
        let q = queues.clone();
        let counter = counter.clone();
        let thinker2 = Rc::clone(&thinker);
        let s = sim.clone();
        let screened = Rc::clone(&screened);
        let refined = Rc::clone(&refined);
        thinker.agent("screener", async move {
            loop {
                if thinker2.is_done() {
                    break;
                }
                let Some(item) = work.borrow_mut().pop_front() else {
                    s.sleep(hetflow::sim::time::secs(10.0)).await;
                    continue;
                };
                let permit = counter.acquire("screen").await;
                q.submit(
                    "simulate",
                    vec![Payload::new(item, 200_000)],
                    Rc::new(|ctx| {
                        let v = *ctx.input::<u32>(0);
                        TaskWork::new(v % 8 == 0, 5_000, Duration::from_secs(30))
                    }),
                )
                .await;
                let done = q.get_result("simulate").await.unwrap().resolve().await;
                drop(permit);
                screened.set(screened.get() + 1);
                if *done.value::<bool>() {
                    // Promote to an expensive refinement on the GPU.
                    let rp = counter.acquire("refine").await;
                    q.submit(
                        "train",
                        vec![Payload::new(item, 21_000_000)],
                        Rc::new(|_| TaskWork::new((), 21_000_000, Duration::from_secs(240))),
                    )
                    .await;
                    q.get_result("train").await.unwrap().resolve().await;
                    drop(rp);
                    refined.set(refined.get() + 1);
                }
                if screened.get() >= 120 {
                    thinker2.finish();
                }
            }
        });
    }

    // Monitor: rebalance worker slots by queue depth.
    {
        let work = Rc::clone(&work);
        let counter = counter.clone();
        let thinker2 = Rc::clone(&thinker);
        let s = sim.clone();
        thinker.agent("monitor", async move {
            loop {
                s.sleep(Duration::from_secs(60)).await;
                if thinker2.is_done() {
                    break;
                }
                let backlog = work.borrow().len();
                // Never drain the refine pool completely: the screener
                // still needs one slot to promote hits.
                if backlog > 12 && counter.available("refine") > 0 && counter.registered("refine") > 1 {
                    counter.reallocate("refine", "screen", 1).await;
                    println!("[{}] backlog {backlog}: +1 screen slot", s.now());
                } else if backlog == 0 && counter.available("screen") > 2 {
                    counter.reallocate("screen", "refine", 1).await;
                }
            }
        });
    }

    sim.run();
    println!(
        "\nscreened {} items, refined {}, virtual time {}",
        screened.get(),
        refined.get(),
        sim.now()
    );

    // Post-hoc §V-F analysis of the data paths used.
    println!("\nadvisor recommendations:");
    for r in Advisor::recommend(&queues.records(), THETA) {
        println!(
            "  {:<10} payload {:>10} B  with-ports {:?}, without {:?}",
            r.topic, r.payload_bytes, r.with_ports, r.without_ports
        );
    }
}

//! Building a custom steering policy from the primitives: a Thinker
//! with three cooperating agents, its slot pools rebalancing workers
//! at runtime, and the §V-F advisor analyzing the run afterwards.
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
use hetflow::steer::Advisor;
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
    let thinker = Thinker::new(&sim, &queues);

    thinker.slots().register("screen", 4);
    thinker.slots().register("refine", 2);
    let work: Rc<RefCell<VecDeque<u32>>> = Rc::default();
    let screened = Rc::new(std::cell::Cell::new(0u32));
    let refined = Rc::new(std::cell::Cell::new(0u32));

    // Producer: trickle work items in for the first hour.
    let (w, s) = (Rc::clone(&work), sim.clone());
    thinker.agent(async move {
        for batch in 0..60u32 {
            s.sleep(hetflow::sim::time::secs(60.0)).await;
            for i in 0..4 {
                w.borrow_mut().push_back(batch * 4 + i);
            }
        }
    });

    // Screener: cheap wide tasks; every 8th hit goes to refinement.
    let (t, w, s) = (Rc::clone(&thinker), Rc::clone(&work), sim.clone());
    let (screened2, refined2) = (Rc::clone(&screened), Rc::clone(&refined));
    thinker.agent(async move {
        while !t.is_done() {
            let Some(item) = w.borrow_mut().pop_front() else {
                s.sleep(hetflow::sim::time::secs(10.0)).await;
                continue;
            };
            let permit = t.slots().acquire("screen").await;
            t.queues()
                .submit(
                    "simulate",
                    vec![Payload::new(item, 200_000)],
                    Rc::new(|ctx| {
                        let v = *ctx.input::<u32>(0);
                        TaskWork::new(v % 8 == 0, 5_000, Duration::from_secs(30))
                    }),
                )
                .await;
            // `None` for a shed or failed screen: the item is dropped.
            let hit = t.next_value::<bool>("simulate").await.unwrap();
            drop(permit);
            screened2.set(screened2.get() + 1);
            if hit.is_some_and(|hit| *hit) {
                // Promote to an expensive refinement on the GPU.
                let rp = t.slots().acquire("refine").await;
                t.queues()
                    .submit(
                        "train",
                        vec![Payload::new(item, 21_000_000)],
                        Rc::new(|_| TaskWork::new((), 21_000_000, Duration::from_secs(240))),
                    )
                    .await;
                t.next_value::<()>("train").await.unwrap();
                drop(rp);
                refined2.set(refined2.get() + 1);
            }
            if screened2.get() >= 120 {
                t.finish();
            }
        }
    });

    // Monitor: rebalance worker slots by queue depth.
    let (t, w, s) = (Rc::clone(&thinker), Rc::clone(&work), sim.clone());
    thinker.agent(async move {
        loop {
            s.sleep(Duration::from_secs(60)).await;
            if t.is_done() {
                break;
            }
            let backlog = w.borrow().len();
            let slots = t.slots();
            // Never drain the refine pool completely: the screener
            // still needs one slot to promote hits.
            if backlog > 12 && slots.available("refine") > 0 && slots.registered("refine") > 1 {
                slots.reallocate("refine", "screen").await;
                println!("[{}] backlog {backlog}: +1 screen slot", s.now());
            } else if backlog == 0 && slots.available("screen") > 2 {
                slots.reallocate("screen", "refine").await;
            }
        }
    });

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

//! A dropped deployment gives back what its simulation took.
//!
//! Builds, runs and drops a sequence of `ParslRedis` sims that proxy
//! every payload (`proxy_threshold: Some(0)`), all in one process. Each
//! sim's stores keep every object (`EvictionPolicy::Manual`), so the
//! shared input value is referenced from the store until the sim is
//! gone; it must be freed after every drop, and resident memory must not
//! grow from one sim to the next.

#![allow(clippy::disallowed_methods, reason = "the test reads its own resident set from procfs")]

use hetflow::prelude::*;
use std::any::Any;
use std::rc::Rc;

const SIMS: usize = 6;
const TASKS_PER_LANE: usize = 5_000;
const WINDOW: usize = 16;

/// Runs one data-plane sim to quiescence on `marker` as every task's
/// input, then drops it. Returns how many references the run held.
fn run_and_drop(marker: &Rc<dyn Any>, seed: u64) -> usize {
    let sim = Sim::new();
    let spec = DeploymentSpec { seed, proxy_threshold: Some(0), ..Default::default() };
    let d = deploy(&sim, WorkflowConfig::ParslRedis, &spec, Tracer::disabled());
    for topic in ["simulate", "train"] {
        let (q, value) = (d.queues.clone(), Rc::clone(marker));
        sim.spawn_detached(async move {
            let compute: TaskFn =
                Rc::new(|_ctx| TaskWork::new((), 1_000_000, std::time::Duration::ZERO));
            let (mut sent, mut got) = (0, 0);
            while got < TASKS_PER_LANE {
                while sent < TASKS_PER_LANE && sent - got < WINDOW {
                    let input = [Payload::shared(Rc::clone(&value), 1_000_000)];
                    q.submit(topic, input, Rc::clone(&compute)).await;
                    sent += 1;
                }
                let Some(done) = q.get_result(topic).await else { return };
                done.resolve().await;
                got += 1;
            }
        });
    }
    sim.run();
    let stored = [&d.local_store, &d.remote_store].map(|s| s.as_ref().map(|s| s.object_count()));
    // An input and a result per task, in the store its topic uses.
    assert_eq!(stored, [Some(2 * TASKS_PER_LANE); 2], "every object stays stored until the drop");
    Rc::strong_count(marker)
}

/// Resident set size in kB, where procfs exists.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn dropped_sims_free_their_stored_objects_and_memory() {
    let marker: Rc<dyn Any> = Rc::new([0u8; 64]);
    let mut rss = Vec::new();
    for seed in 0..SIMS as u64 {
        let held = run_and_drop(&marker, seed);
        assert!(held > 1, "sim {seed}: the store never held the marker");
        assert_eq!(Rc::strong_count(&marker), 1, "sim {seed}: a stored value outlived its sim");
        rss.extend(vm_rss_kb());
    }
    if let (Some(first), Some(last)) = (rss.first(), rss.last()) {
        let per_sim_kb = last.saturating_sub(*first) / (SIMS as u64 - 1);
        assert!(per_sim_kb < 1024, "resident memory grew {per_sim_kb} kB per dropped sim: {rss:?}");
    }
}

/// Cuts control-plane runs short while tasks are parked in queue
/// transit — a 2 s hop each way keeps most of them there — and drops the
/// deployment. Every result carries its input back, so a parked result
/// holds the marker as a parked submission does.
#[test]
fn a_deployment_dropped_mid_run_frees_its_sends_in_flight() {
    let marker: Rc<dyn Any> = Rc::new([0u8; 64]);
    for cut_ms in [3_500, 5_000, 7_250] {
        let sim = Sim::new();
        let mut spec = DeploymentSpec { seed: 3, ..Default::default() };
        spec.calibration.queue.latency = hetflow::sim::Dist::Constant(2.0);
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
        let (q, value) = (d.queues.clone(), Rc::clone(&marker));
        sim.spawn_detached(async move {
            let compute: TaskFn = Rc::new(|ctx| {
                TaskWork::new(ctx.input::<[u8; 64]>(0), 1_000, std::time::Duration::ZERO)
            });
            let submit = || {
                let input = [Payload::shared(Rc::clone(&value), 1_000)];
                q.submit("simulate", input, Rc::clone(&compute))
            };
            for _ in 0..WINDOW {
                submit().await;
            }
            while let Some(done) = q.get_result("simulate").await {
                done.resolve().await;
                submit().await;
            }
        });
        let at_cut = sim.run_until(SimTime::from_millis(cut_ms));
        assert!(d.queues.outstanding() > 0, "cut at {cut_ms} ms: nothing in flight");
        assert!(Rc::strong_count(&marker) > 1, "cut at {cut_ms} ms: no task holds the marker");
        drop(d);
        assert_eq!(Rc::strong_count(&marker), 1, "cut at {cut_ms} ms: a send outlived its sim");
        // Nothing left to fire: the parked sends' timer entries went with
        // their values, so the store was freed rather than kept.
        let after = sim.run();
        assert_eq!(
            (after.end, after.timer_fires, after.pending_tasks),
            (at_cut.end, at_cut.timer_fires, 0),
            "cut at {cut_ms} ms"
        );
    }
}

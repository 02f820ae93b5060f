//! Cross-crate integration tests: full workflow stacks driving both
//! applications through the public façade, checking the paper's
//! system-level claims end to end.

use hetflow::prelude::*;
use hetflow::sim::trace_kinds;
use hetflow::steer::Payload as SteerPayload;
use std::rc::Rc;
use std::time::Duration;

fn small_spec(seed: u64) -> DeploymentSpec {
    DeploymentSpec { cpu_workers: 4, gpu_workers: 4, seed, ..Default::default() }
}

#[test]
fn every_config_round_trips_every_topic() {
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let d = deploy(&sim, config, &small_spec(1), Tracer::disabled());
        let q = d.queues.clone();
        let h = sim.spawn(async move {
            let mut ok = 0;
            for topic in ["simulate", "sample", "train", "infer", "noop"] {
                q.submit(
                    topic,
                    vec![SteerPayload::new(5u64, 1_000_000)],
                    Rc::new(|ctx| {
                        let v = *ctx.input::<u64>(0);
                        TaskWork::new(v + 1, 10_000, Duration::from_secs(5))
                    }),
                )
                .await;
                let r = q.get_result(topic).await.unwrap().resolve().await;
                if *r.value::<u64>() == 6 {
                    ok += 1;
                }
            }
            ok
        });
        assert_eq!(sim.block_on(h), 5, "{}", config.label());
    }
}

#[test]
fn cloud_managed_config_needs_no_open_ports_but_matches_outcomes() {
    // The paper's core claim (§V-E1): the no-open-ports configuration
    // reaches scientific parity with the tunnelled ones.
    use hetflow::apps::moldesign;
    let params = MolDesignParams {
        library_size: 3_000,
        budget: Duration::from_secs(2 * 3600),
        ensemble_size: 4,
        retrain_after: 8,
        ..Default::default()
    };
    let mut results = Vec::new();
    for config in [WorkflowConfig::ParslRedis, WorkflowConfig::FnXGlobus] {
        let sim = Sim::new();
        let d = deploy(&sim, config, &small_spec(2), Tracer::disabled());
        let o = moldesign::run(&sim, &d, params.clone());
        results.push((config, o.found, o.simulations));
    }
    let (_, found_redis, sims_redis) = results[0];
    let (_, found_fnx, sims_fnx) = results[1];
    assert!(!WorkflowConfig::FnXGlobus.needs_open_ports());
    assert!(WorkflowConfig::ParslRedis.needs_open_ports());
    // Same order of magnitude of work and discoveries.
    let sims_ratio = sims_fnx as f64 / sims_redis as f64;
    assert!((0.8..1.25).contains(&sims_ratio), "simulation throughput parity: {sims_ratio}");
    assert!(found_fnx > 0 && found_redis > 0);
    let found_ratio = found_fnx as f64 / found_redis as f64;
    assert!(
        (0.5..2.0).contains(&found_ratio),
        "discovery parity: fnx {found_fnx} vs redis {found_redis}"
    );
}

#[test]
fn finetune_parity_across_configs() {
    // Fig. 7a: the surrogates are indistinguishable across workflow
    // systems; the data path must not change what is learned.
    use hetflow::apps::finetune;
    let params = FinetuneParams {
        pretrain_structures: 60,
        target_new: 12,
        retrain_every: 4,
        ensemble_size: 4,
        md_steps_end: 150,
        ..Default::default()
    };
    let mut rmsds = Vec::new();
    for config in WorkflowConfig::all() {
        let sim = Sim::new();
        let d = deploy(&sim, config, &small_spec(3), Tracer::disabled());
        let o = finetune::run(&sim, &d, params.clone());
        assert!(o.final_force_rmsd < o.initial_force_rmsd, "{}", config.label());
        rmsds.push(o.final_force_rmsd);
    }
    let min = rmsds.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rmsds.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.6,
        "final RMSDs must be close across configs: {rmsds:?}"
    );
}

#[test]
fn records_capture_complete_lifecycles() {
    let sim = Sim::new();
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &small_spec(4), Tracer::disabled());
    let q = d.queues.clone();
    sim.spawn(async move {
        for i in 0..5u32 {
            q.submit(
                "train",
                vec![SteerPayload::new(i, 21_000_000)],
                Rc::new(|_| TaskWork::new((), 21_000_000, Duration::from_secs(240))),
            )
            .await;
        }
        for _ in 0..5 {
            q.get_result("train").await.unwrap().resolve().await;
        }
    });
    sim.run();
    let records = d.queues.records();
    assert_eq!(records.len(), 5);
    for r in &records {
        let t = &r.timing;
        // Monotone stamps end to end.
        let stamps = [
            t.created,
            t.submitted,
            t.server_received,
            t.dispatched,
            t.worker_started,
            t.inputs_resolved,
            t.compute_finished,
            t.result_dispatched,
            t.server_result_received,
            t.thinker_notified,
            t.result_ready,
        ];
        for pair in stamps.windows(2) {
            let (a, b) = (pair[0].unwrap(), pair[1].unwrap());
            assert!(a <= b, "stamps out of order: {a:?} > {b:?}");
        }
        // Cross-site training data actually moved through the remote
        // store.
        assert_eq!(r.input_bytes, 21_000_000);
    }
    let store = d.remote_store.as_ref().unwrap();
    assert!(store.stats().puts >= 5);
    assert!(store.stats().remote_waits > 0, "Venti waited on Globus transfers");
}

#[test]
fn tracer_sees_worker_activity() {
    let tracer = Tracer::enabled();
    let sim = Sim::new();
    let d = deploy(&sim, WorkflowConfig::Parsl, &small_spec(5), tracer.clone());
    let q = d.queues.clone();
    sim.spawn(async move {
        for _ in 0..3 {
            q.submit(
                "simulate",
                vec![SteerPayload::new((), 1000)],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(60))),
            )
            .await;
        }
        for _ in 0..3 {
            q.get_result("simulate").await.unwrap().resolve().await;
        }
    });
    sim.run();
    assert_eq!(tracer.events_of_kind(trace_kinds::TASK_STARTED).len(), 3);
    assert_eq!(tracer.events_of_kind(trace_kinds::TASK_FINISHED).len(), 3);
    assert_eq!(tracer.events_of_kind(trace_kinds::TASK_CREATED).len(), 3);
}

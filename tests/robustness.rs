//! Robustness tests for §IV-A3: "both FuncX and Globus's services
//! accept and store tasks (and results) even while remote endpoints (or
//! clients) are unavailable so tasks can be resumed when endpoints
//! reconnect" — plus worker-level failure injection.

use hetflow::apps::{finetune, moldesign};
use hetflow::fabric::{BreakerConfig, ChaosAction, ChaosSpec, FailureModel};
use hetflow::prelude::*;
use hetflow::sim::{trace_kinds, Dist};
use std::rc::Rc;
use std::time::Duration;

/// One outage of the CPU endpoint (endpoint 0), offline from `start` for
/// `down` seconds: a chaos flap of one window, which draws nothing and
/// leaves no timer behind once the endpoint is back.
fn cpu_outage(start: u64, down: u64) -> ChaosSpec {
    ChaosSpec::new(vec![ChaosAction::Flap {
        endpoint: 0,
        start: SimTime::from_secs(start),
        up: Dist::Constant(0.0),
        down: Dist::Constant(down as f64),
        cycles: 1,
    }])
}

#[test]
fn cloud_buffers_tasks_through_endpoint_outage() {
    let sim = Sim::new();
    let spec = DeploymentSpec { cpu_workers: 2, gpu_workers: 2, ..Default::default() };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    // Offline from t=10 s to t=310 s.
    cpu_outage(10, 300).install(&sim, 0, &d.chaos);
    let q = d.queues.clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        // Wait until mid-outage, then submit.
        s.sleep(hetflow::sim::time::secs(60.0)).await;
        for i in 0..4u32 {
            q.submit(
                "simulate",
                vec![Payload::new(i, 1000)],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(5))),
            )
            .await;
        }
        let mut done = 0;
        for _ in 0..4 {
            let r = q.get_result("simulate").await.unwrap().resolve().await;
            assert!(
                r.record.timing.worker_started.unwrap() >= SimTime::from_secs(310),
                "task must only start after reconnection"
            );
            done += 1;
        }
        done
    });
    assert_eq!(sim.block_on(h), 4, "all tasks survive the outage");
    assert_eq!(d.chaos.connectivity[0].outages_seen(), 1);
}

#[test]
fn results_buffer_while_endpoint_offline() {
    // Tasks complete on the workers during the outage (they were
    // delivered before it began); results reach the thinker only after
    // reconnect.
    let sim = Sim::new();
    let spec = DeploymentSpec { cpu_workers: 2, gpu_workers: 1, ..Default::default() };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    // Outage starts after delivery (~2 s), ends at 200 s.
    cpu_outage(3, 197).install(&sim, 0, &d.chaos);
    let q = d.queues.clone();
    let h = sim.spawn(async move {
        q.submit(
            "simulate",
            vec![Payload::new((), 1000)],
            Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(30))),
        )
        .await;
        let r = q.get_result("simulate").await.unwrap().resolve().await;
        (
            r.record.timing.compute_finished.unwrap(),
            r.record.timing.thinker_notified.unwrap(),
        )
    });
    let (finished, notified) = sim.block_on(h);
    assert!(
        finished < SimTime::from_secs(60),
        "compute proceeds during the outage: {finished}"
    );
    assert!(
        notified >= SimTime::from_secs(200),
        "result held at the endpoint until reconnect: {notified}"
    );
}

#[test]
fn worker_failures_are_retried_and_campaign_completes() {
    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 4,
        failure: Some(FailureModel {
            prob: 0.2,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(2.0),
            max_attempts: 10,
        }),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::ParslRedis, &spec, Tracer::disabled());
    let q = d.queues.clone();
    let h = sim.spawn(async move {
        for i in 0..40u32 {
            q.submit(
                "simulate",
                vec![Payload::new(i, 1000)],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(60))),
            )
            .await;
        }
        let mut retried = 0u32;
        for _ in 0..40 {
            let r = q.get_result("simulate").await.unwrap().resolve().await;
            assert!(r.record.report.attempts >= 1);
            if r.record.report.attempts > 1 {
                retried += 1;
            }
        }
        retried
    });
    let retried = sim.block_on(h);
    // With p=0.2 over 40 tasks, some retries are near-certain.
    assert!(retried > 0, "failure injection must trigger retries");
    assert!(retried < 40, "not every task should fail");
}

#[test]
fn exhausted_retries_surface_as_failed_records() {
    // Every attempt fails: each task burns its attempt cap and comes
    // back to the thinker as a *failed record* — no panic anywhere.
    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 2,
        gpu_workers: 1,
        failure: Some(FailureModel {
            prob: 1.0,
            waste_fraction: 0.0,
            restart_delay: Dist::Constant(1.0),
            max_attempts: 2,
        }),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    let q = d.queues.clone();
    let h = sim.spawn(async move {
        for i in 0..8u32 {
            q.submit(
                "simulate",
                vec![Payload::new(i, 1000)],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(10))),
            )
            .await;
        }
        let mut failed = 0u32;
        for _ in 0..8 {
            let r = q.get_result("simulate").await.unwrap().resolve().await;
            assert!(r.is_failed(), "prob-1.0 failures must exhaust retries");
            match r.error() {
                Some(TaskError::ExhaustedRetries { attempts }) => assert_eq!(*attempts, 2),
                other => panic!("expected ExhaustedRetries, got {other:?}"),
            }
            assert_eq!(r.record.report.attempts, 2);
            // Two failed attempts, waste_fraction 0: two restart delays.
            assert_eq!(r.record.report.wasted_time, Duration::from_secs(2));
            failed += 1;
        }
        failed
    });
    assert_eq!(sim.block_on(h), 8);
    // Failure-path accounting: the lifecycle records carry the failures.
    let b = Breakdown::of(&d.queues.records(), Some("simulate"));
    assert_eq!(b.count, 8);
    assert_eq!(b.failed, 8);
    assert!(b.wasted.mean() > 0.0);
}

#[test]
fn delivery_timeout_fails_tasks_stuck_behind_long_outage() {
    // Tasks submitted mid-outage sit in the cloud store; the per-topic
    // delivery deadline bounds how long the thinker waits before the
    // fabric declares them timed out.
    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 2,
        gpu_workers: 1,
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy {
                timeout: Some(Duration::from_secs(120)),
                ..RetryPolicy::default()
            },
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    // Offline from t=1 s to t=601 s.
    cpu_outage(1, 600).install(&sim, 0, &d.chaos);
    let q = d.queues.clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        s.sleep(hetflow::sim::time::secs(5.0)).await; // mid-outage
        for i in 0..4u32 {
            q.submit(
                "simulate",
                vec![Payload::new(i, 1000)],
                Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(5))),
            )
            .await;
        }
        let mut timed_out = 0u32;
        for _ in 0..4 {
            let r = q.get_result("simulate").await.unwrap().resolve().await;
            match r.error() {
                Some(TaskError::Timeout { after }) => {
                    assert_eq!(*after, Duration::from_secs(120));
                    timed_out += 1;
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            assert!(
                r.record.timing.worker_started.is_none(),
                "a timed-out task never reached a worker"
            );
        }
        (timed_out, s.now())
    });
    let (timed_out, end) = sim.block_on(h);
    assert_eq!(timed_out, 4);
    // All failures reported well before the outage ends at t=601 s.
    assert!(end < SimTime::from_secs(200), "timeouts should not wait out the outage: {end}");
}

/// Failure injection (p=0.2, two attempts) and a delivery deadline on
/// `simulate`; `chaotic_deploy` adds an endpoint outage overlapping
/// submission.
fn chaotic_spec() -> DeploymentSpec {
    DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        failure: Some(FailureModel {
            prob: 0.2,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(2.0),
            max_attempts: 2,
        }),
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy {
                timeout: Some(Duration::from_secs(300)),
                backoff: Dist::Constant(1.0),
            },
        ),
        ..Default::default()
    }
}

/// `chaotic_spec` deployed, with the CPU endpoint offline from t=2 s to
/// t=602 s.
fn chaotic_deploy(sim: &Sim) -> Deployment {
    let d = deploy(sim, WorkflowConfig::FnXGlobus, &chaotic_spec(), Tracer::disabled());
    cpu_outage(2, 600).install(sim, 0, &d.chaos);
    d
}

#[test]
fn chaotic_campaign_completes_without_panic() {
    // Under `chaotic_spec` the full campaign runs to completion with
    // failed tasks counted, not panicking.
    let sim = Sim::new();
    let d = chaotic_deploy(&sim);
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(2400),
            ensemble_size: 2,
            retrain_after: 8,
            seed: 7,
            ..Default::default()
        },
    );
    assert!(o.simulations > 0, "campaign should still complete work");
    assert!(o.failed > 0, "chaos must surface as counted failures");
    let records = d.queues.records();
    let b = Breakdown::of(&records, None);
    assert_eq!(b.failed, o.failed, "lifecycle failed bin must match the app's count");
    assert!(
        records.iter().all(|r| r.report.attempts >= 1 || r.timing.worker_started.is_none()),
        "every record either ran at least once or never reached a worker"
    );
}

#[test]
fn chaotic_finetune_campaign_counts_its_failures() {
    // The moldesign chaos scenario under the fine-tuning campaign: every
    // failed task, of any topic, lands in the outcome's count.
    let sim = Sim::new();
    let d = chaotic_deploy(&sim);
    let o = finetune::run(
        &sim,
        &d,
        FinetuneParams {
            pretrain_structures: 60,
            target_new: 16,
            retrain_every: 4,
            ensemble_size: 4,
            audit_target: 4,
            uncertainty_refresh: 6,
            md_steps_end: 200,
            ..Default::default()
        },
    );
    assert!(o.new_structures >= 16, "campaign should still complete its target");
    assert!(o.failed > 0, "chaos must surface as counted failures");
    let b = Breakdown::of(&d.queues.records(), None);
    assert_eq!(b.failed, o.failed, "lifecycle failed bin must match the app's count");
}

/// The site-loss scenario's deployment: a standby CPU site, a breaker
/// that opens `grace` after the primary goes offline and stays open, one
/// reroute, 120 s delivery timeouts on `simulate` and a 1 200 s deadline.
fn site_loss_spec(grace: Duration) -> DeploymentSpec {
    DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    // Longer than the campaign: the site never comes back.
                    open_for: Duration::from_secs(3600),
                    close_after: 1,
                    offline_grace: grace,
                    latency_slo: Duration::ZERO,
                },
                max_reroutes: 1,
                // Backstop for results stranded on the dead return path.
                deadline: Duration::from_secs(1200),
                ..Default::default()
            },
        },
        // Transit stuck behind the dead endpoint reroutes after 120 s.
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(120)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    }
}

/// The site-loss campaign under `chaos`: its deployment, outcome and trace.
fn site_loss_campaign(grace: Duration, chaos: Vec<ChaosAction>) -> (Deployment, usize, Tracer) {
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &site_loss_spec(grace), tracer.clone());
    ChaosSpec::new(chaos).install(&sim, 99, &d.chaos);
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(2400),
            ensemble_size: 2,
            retrain_after: 8,
            seed: 7,
            ..Default::default()
        },
    );
    (d, o.simulations, tracer)
}

/// When `simulate` tasks were dispatched, in order.
fn simulate_dispatches(d: &Deployment) -> Vec<SimTime> {
    let mut at: Vec<SimTime> = d
        .queues
        .records()
        .iter()
        .filter(|r| r.topic == "simulate")
        .filter_map(|r| r.timing.dispatched)
        .collect();
    at.sort_unstable();
    at
}

#[test]
fn site_loss_mid_campaign_fails_over_and_keeps_working() {
    // Permanent site loss: a molecular-design campaign loses
    // its primary CPU site *permanently* mid-run (chaos `Kill`). The
    // offline watcher trips the endpoint's circuit breaker, in-flight
    // tasks stuck behind the dead connection reroute to the standby CPU
    // endpoint, fresh dispatches steer around the open breaker, and the
    // campaign finishes with degraded-but-nonzero throughput.
    //
    // Only a `simulate` task dispatched to endpoint 0 after the kill and
    // before its breaker opens (`grace` later) is stuck behind the dead
    // connection and reroutes; one dispatched before the kill is stranded
    // on the dead return path and fails at the deadline. So the kill is
    // placed by construction: a run without it is identical up to the
    // kill, and names the first `simulate` dispatch at or after 300 s;
    // the kill lands 1 ms before it.
    let grace = Duration::from_secs(30);
    let (quiet, _, _) = site_loss_campaign(grace, vec![]);
    let first = simulate_dispatches(&quiet)
        .into_iter()
        .find(|&t| t >= SimTime::from_secs(300))
        .expect("the campaign dispatches simulations after 300 s");
    let kill_at = SimTime::from_nanos(first.as_nanos() - 1_000_000);
    let (d, simulations, tracer) =
        site_loss_campaign(grace, vec![ChaosAction::Kill { endpoint: 0, at: kill_at }]);
    assert!(simulations > 0, "campaign must complete work despite the site loss");

    let opened = tracer.events_of_kind(trace_kinds::BREAKER_OPENED);
    assert!(
        opened.iter().any(|e| e.entity == 0),
        "losing the site must open endpoint 0's breaker"
    );
    assert!(
        opened.iter().all(|e| e.t >= kill_at),
        "the breaker only opens after the site is lost"
    );
    // The premise: a dispatch inside [kill, kill + grace) while endpoint
    // 0's breaker is still closed, which routes it to endpoint 0.
    let open_at = opened.iter().filter(|e| e.entity == 0).map(|e| e.t).min();
    assert!(
        simulate_dispatches(&d)
            .iter()
            .any(|&t| t >= kill_at && t < kill_at + grace && open_at.is_none_or(|o| t < o)),
        "a simulate task must be dispatched to the dead endpoint before its breaker opens"
    );
    assert!(
        !tracer.events_of_kind(trace_kinds::TASK_REROUTED).is_empty(),
        "in-flight tasks stuck behind the dead site must reroute"
    );

    // Degraded-but-nonzero throughput: simulations keep finishing after
    // the loss, now on the standby endpoint's pool.
    let records = d.queues.records();
    let post_kill_sims = records
        .iter()
        .filter(|r| r.topic == "simulate" && !r.is_failed())
        .filter(|r| r.timing.compute_finished.is_some_and(|t| t > kill_at))
        .count();
    assert!(post_kill_sims > 0, "failover must keep simulate throughput nonzero");
    assert!(
        records.iter().any(|r| r.worker.as_str().starts_with("theta-f0")),
        "the standby pool must actually execute work"
    );
    assert!(d.health.breaker_open(0), "the breaker stays open: the site never recovers");
}

#[test]
fn task_storms_conserve_every_submission() {
    // Overload-protection conservation law: under random task-storm
    // scripts against bounded queues and admission control, every
    // submission — campaign or storm — ends in exactly one terminal
    // outcome: submitted == completed + failed + shed, no id twice.
    use hetflow::fabric::{AdmissionConfig, STORM_ID_BASE};
    use hetflow::sim::{Dist, OverflowPolicy, SimRng};
    use std::collections::BTreeSet;

    const CAMPAIGN_TASKS: u64 = 30;
    let policies = [OverflowPolicy::Reject, OverflowPolicy::ShedLowestPriority];
    for (run, seed) in [11u64, 13, 21].into_iter().enumerate() {
        // A randomized storm script, derived deterministically from the
        // run seed: 1–3 overlapping storms with random start, rate, and
        // per-task worker burn.
        let mut script = SimRng::stream(seed, "storm-script");
        let storms: Vec<ChaosAction> = (0..seed % 3 + 1)
            .map(|_| ChaosAction::TaskStorm {
                at: SimTime::from_secs(
                    Dist::Uniform { lo: 2.0, hi: 40.0 }.sample(&mut script) as u64
                ),
                tasks: Dist::Uniform { lo: 40.0, hi: 120.0 }.sample(&mut script) as u32,
                interval: Dist::Constant(
                    Dist::Uniform { lo: 0.02, hi: 0.2 }.sample(&mut script),
                ),
                bytes: 64,
                work: Dist::Uniform { lo: 0.0, hi: 3.0 },
            })
            .collect();
        let storm_total: u64 = storms
            .iter()
            .map(|a| match a {
                ChaosAction::TaskStorm { tasks, .. } => u64::from(*tasks),
                _ => 0,
            })
            .sum();

        let sim = Sim::new();
        let spec = DeploymentSpec {
            cpu_workers: 2,
            gpu_workers: 1,
            seed,
            // Tight bound: 30 campaign submissions of 15 s tasks on 2
            // workers guarantee overflow shedding on every policy.
            cpu_queue_capacity: 4,
            overflow: policies[run % policies.len()],
            // Admission control (one bucket per topic) exercises the
            // submission-time shed path alongside queue overflow.
            reliability: ReliabilityPolicies {
                default: ReliabilityPolicy {
                    admission: AdmissionConfig { rate: 8.0, burst: 8.0, max_in_flight: 16 },
                    ..Default::default()
                },
            },
            ..Default::default()
        };
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
        ChaosSpec::new(storms).install(&sim, seed, &d.chaos);
        let q = d.queues.clone();
        let h = sim.spawn(async move {
            for i in 0..CAMPAIGN_TASKS {
                q.submit(
                    "simulate",
                    vec![Payload::new(i, 1000)],
                    Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(15))),
                )
                .await;
            }
            let mut seen = BTreeSet::new();
            let (mut completed, mut shed, mut failed) = (0u64, 0u64, 0u64);
            for i in 0..CAMPAIGN_TASKS + storm_total {
                let topic = if i < CAMPAIGN_TASKS { "simulate" } else { "noop" };
                let r = q.get_result(topic).await.unwrap().resolve().await;
                assert!(seen.insert(r.record.id), "duplicate terminal outcome for {}", r.record.id);
                if topic == "noop" {
                    assert!(r.record.id >= STORM_ID_BASE, "storm ids live in the storm space");
                } else {
                    assert!(r.record.id < STORM_ID_BASE, "campaign ids stay below the storm space");
                }
                if r.is_shed() {
                    shed += 1;
                } else if r.is_failed() {
                    failed += 1;
                } else {
                    completed += 1;
                }
            }
            (completed, shed, failed)
        });
        let (completed, shed, failed) = sim.block_on(h);
        let total = CAMPAIGN_TASKS + storm_total;
        assert_eq!(
            completed + shed + failed,
            total,
            "seed {seed}: conservation violated ({completed} + {shed} + {failed} != {total})"
        );
        assert!(shed > 0, "seed {seed}: the storm scenario must shed something");
        assert!(completed > 0, "seed {seed}: protection must not starve all work");
        // The lifecycle ledger agrees with what the thinker observed.
        let b = Breakdown::of(&d.queues.records(), None);
        assert_eq!(b.count as u64, total);
        assert_eq!(b.shed as u64, shed);
        assert_eq!(b.failed as u64, failed);
    }
}

#[test]
fn failed_attempts_extend_task_lifetimes() {
    let lifetime_with = |failure: Option<FailureModel>| {
        let sim = Sim::new();
        let spec = DeploymentSpec { cpu_workers: 1, gpu_workers: 1, failure, ..Default::default() };
        let d = deploy(&sim, WorkflowConfig::Parsl, &spec, Tracer::disabled());
        let q = d.queues.clone();
        let h = sim.spawn(async move {
            let mut total = Duration::ZERO;
            for i in 0..10u32 {
                q.submit(
                    "simulate",
                    vec![Payload::new(i, 1000)],
                    Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(60))),
                )
                .await;
                let r = q.get_result("simulate").await.unwrap().resolve().await;
                total += r.record.timing.lifetime().unwrap();
            }
            total
        });
        sim.block_on(h)
    };
    let reliable = lifetime_with(None);
    let flaky = lifetime_with(Some(FailureModel {
        prob: 0.5,
        waste_fraction: 1.0,
        restart_delay: Dist::Constant(5.0),
        max_attempts: 20,
    }));
    assert!(flaky > reliable + Duration::from_secs(10), "{flaky:?} vs {reliable:?}");
}

#[test]
fn record_log_returns_every_resolved_record_in_order() {
    // The thinker keeps its records as an encoded log; under failure
    // injection, queue shedding, hedging and a deadline, `records()` must
    // decode to exactly the records `resolve` handed the thinker, in the
    // order it saw them.
    use hetflow::fabric::HedgeConfig;
    use hetflow::sim::OverflowPolicy;

    const WAVES: u32 = 5;
    const PER_WAVE: u32 = 12;
    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 2,
        gpu_workers: 1,
        cpu_failover_sites: 1,
        cpu_queue_capacity: 6,
        overflow: OverflowPolicy::ShedLowestPriority,
        failure: Some(FailureModel {
            prob: 0.5,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(1.0),
            max_attempts: 2,
        }),
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.5, min_samples: 4, ..Default::default() },
                deadline: Duration::from_secs(900),
                ..Default::default()
            },
        },
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    // The primary pool runs slow for a while, so late tasks get hedged.
    ChaosSpec::new(vec![ChaosAction::Straggle {
        pool: 0,
        at: SimTime::from_secs(60),
        duration: Duration::from_secs(600),
        factor: 6.0,
    }])
    .install(&sim, 5, &d.chaos);
    let q = d.queues.clone();
    let h = sim.spawn(async move {
        let mut resolved = Vec::new();
        for wave in 0..WAVES {
            for i in 0..PER_WAVE {
                q.submit(
                    "simulate",
                    vec![Payload::new(wave * PER_WAVE + i, 1000)],
                    Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(10))),
                )
                .await;
            }
            for _ in 0..PER_WAVE {
                resolved.push(q.get_result("simulate").await.unwrap().resolve().await.record);
            }
        }
        resolved
    });
    let resolved = sim.block_on(h);
    assert_eq!(resolved.len(), (WAVES * PER_WAVE) as usize);
    assert!(resolved.iter().any(|r| r.is_failed()), "failure injection must fail some tasks");
    assert!(resolved.iter().any(|r| r.outcome.is_shed()), "the queue bound must shed some tasks");
    assert!(resolved.iter().any(|r| r.report.hedges > 0), "the straggling pool must be hedged");
    assert_eq!(d.queues.records(), resolved);
}

#[test]
fn each_pool_owns_its_pace_dial() {
    // A failover pool is built from a clone of the primary's config, but
    // its pace dial is its own: straggling pool 0 leaves the failover
    // pool at nominal pace, so a hedged copy it runs takes the nominal
    // 10 s of compute while the primary's copy would take 40 s.
    let sim = Sim::new();
    let hedge = HedgeConfig { quantile: 0.5, min_samples: 4, ..Default::default() };
    let spec = DeploymentSpec {
        cpu_workers: 2,
        gpu_workers: 1,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy { hedge, ..Default::default() },
        },
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    let (at, mid, duration) =
        (SimTime::from_secs(60), SimTime::from_secs(120), Duration::from_secs(600));
    let straggle = ChaosAction::Straggle { pool: 0, at, duration, factor: 4.0 };
    ChaosSpec::new(vec![straggle]).install(&sim, 5, &d.chaos);
    // Endpoints register CPU, GPU, then the failover CPU pool.
    let (chaos, s) = (d.chaos.clone(), sim.clone());
    let dials = sim.spawn(async move {
        s.sleep_until(mid).await;
        chaos.pace.iter().map(|k| format!("{k:?}")).collect::<Vec<_>>()
    });
    let (q, s) = (d.queues.clone(), sim.clone());
    let h = sim.spawn(async move {
        let mut resolved = Vec::new();
        // Two waves warm the hedge estimate, two run inside the straggle.
        for wave in 0..4u32 {
            if wave == 2 {
                s.sleep_until(mid).await;
            }
            for i in 0..2 {
                let work: TaskFn = Rc::new(|_| TaskWork::new((), 100, Duration::from_secs(10)));
                q.submit("simulate", vec![Payload::new(wave * 2 + i, 1000)], work).await;
            }
            for _ in 0..2 {
                resolved.push(q.get_result("simulate").await.unwrap().resolve().await.record);
            }
        }
        resolved
    });
    let resolved = sim.block_on(h);
    assert_eq!(sim.block_on(dials), ["Knob(4)", "Knob(1)", "Knob(1)"], "mid-window dials");
    let on_failover = resolved.iter().filter(|r| r.worker.as_str().starts_with("theta-f0/"));
    let compute: Vec<Duration> = on_failover.map(|r| r.report.compute_time).collect();
    assert!(!compute.is_empty(), "the straggling pool must be hedged onto the failover pool");
    assert!(compute.iter().all(|&t| t == Duration::from_secs(10)), "{compute:?}");
}

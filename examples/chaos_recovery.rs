//! Chaos recovery, in two acts.
//!
//! **Act 1** — worker failure injection, per-topic retry policies with
//! backoff, a delivery timeout, and an endpoint outage scripted by the
//! chaos engine — all surfaced to the thinker as *failed records*
//! instead of panics.
//!
//! **Act 2** — the active reliability layer: the chaos engine drops the
//! primary CPU endpoint, the offline watcher trips its circuit breaker,
//! dispatch fails over to a standby endpoint, and once the outage ends a
//! half-open probe closes the breaker and traffic returns to the
//! primary.
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```
//!
//! The cloud fabric (§IV-A3) accepts and stores tasks while the remote
//! endpoint is offline; the retry policy bounds how long the thinker is
//! willing to wait for that recovery. Tasks stuck behind the outage
//! longer than the deadline come back as `TaskError::Timeout`; tasks
//! whose execution attempts are exhausted come back as
//! `TaskError::ExhaustedRetries`. Either way the steering loop keeps
//! running on whatever did finish.

#![allow(clippy::print_stdout, reason = "R10 binds libraries, not drivers")]
#![allow(
    clippy::expect_used,
    reason = "an example aborts on a setup failure; R5 covers library code only"
)]

use hetflow_core::{deploy, DeploymentSpec, WorkflowConfig};
use hetflow_fabric::{
    BreakerConfig, ChaosAction, ChaosSpec, FailureModel, ReliabilityPolicies,
    ReliabilityPolicy, RetryPolicies, RetryPolicy, TaskError, TaskWork,
};
use hetflow_steer::{Breakdown, Payload};
use hetflow_sim::{time::secs, trace_kinds, Dist, Sim, SimTime, Tracer};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

const TASKS: u32 = 40;

fn main() {
    passive_recovery();
    breaker_failover_recovery();
}

/// Act 1: store-and-forward plus retry policies — recovery without any
/// active routing.
fn passive_recovery() {
    let sim = Sim::new();
    let tracer = Tracer::enabled();

    // One 20-minute outage of the CPU endpoint, starting 2 seconds in —
    // mid-submission, so most tasks are still in cloud transit and get
    // held there (§IV-A3's store-and-forward) when the link drops.
    let outage_start = SimTime::from_secs(2);
    let outage = Duration::from_secs(20 * 60);

    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 4,
        // Every attempt fails with probability 0.2; up to 2 attempts.
        failure: Some(FailureModel {
            prob: 0.2,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(2.0),
            max_attempts: 2,
        }),
        // Simulations: 2 s constant backoff between attempts, and give
        // up on any task not delivered + finished within 5 minutes.
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy {
                timeout: Some(Duration::from_secs(300)),
                backoff: Dist::Constant(2.0),
            },
        ),
        ..Default::default()
    };
    let deployment = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    // One window down, then back for good: a flap of one cycle.
    ChaosSpec::new(vec![ChaosAction::Flap {
        endpoint: 0,
        start: outage_start,
        up: Dist::Constant(0.0),
        down: Dist::Constant(outage.as_secs_f64()),
        cycles: 1,
    }])
    .install(&sim, 7, &deployment.chaos);

    let queues = deployment.queues.clone();
    let driver = sim.spawn(async move {
        for i in 0..TASKS {
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
        let mut ok = 0u32;
        let mut errors: BTreeMap<&'static str, u32> = BTreeMap::new();
        for _ in 0..TASKS {
            let done = queues.get_result("simulate").await.expect("result stream");
            let resolved = done.resolve().await;
            match resolved.error() {
                None => ok += 1,
                Some(err) => *errors.entry(err.kind()).or_insert(0) += 1,
            }
        }
        (ok, errors)
    });
    let (ok, errors) = sim.block_on(driver);

    println!("=== chaos recovery: 20% failure rate + 20 min endpoint outage ===\n");
    println!("tasks submitted      : {TASKS}");
    println!("completed            : {ok}");
    for (kind, n) in &errors {
        println!("failed ({kind:<17}): {n}");
    }
    println!(
        "outages seen         : {}",
        deployment.chaos.connectivity[0].outages_seen()
    );
    println!("virtual time elapsed : {}", sim.now());

    // Failure-path accounting: failed tasks are records like any other,
    // with a `failed` bin and the time lost to retries.
    let records = deployment.queues.records();
    let b = Breakdown::of(&records, Some("simulate"));
    println!("\nrecords: {} total, {} failed", b.count, b.failed);
    println!(
        "retry waste: mean {:.1} s, max {:.1} s",
        b.wasted.mean(),
        b.wasted.max()
    );
    let attempts: u32 = records.iter().map(|r| r.report.attempts).sum();
    println!("execution attempts across all tasks: {attempts}");

    // Everything above is deterministic given the seed: same seed, same
    // failures, same trace digest.
    println!("trace digest: {:#018x}", tracer.digest());

    assert_eq!(ok as usize + errors.values().sum::<u32>() as usize, TASKS as usize);
    assert!(b.failed > 0, "chaos scenario should produce failed records");
    let timeout_kind = TaskError::Timeout { after: Duration::ZERO }.kind();
    assert!(
        errors.contains_key(timeout_kind),
        "tasks stuck behind the outage should time out"
    );
}

/// Act 2: the breaker/failover lifecycle — open on site loss, failover
/// to the standby endpoint, half-open probe when the outage ends,
/// closed breaker and traffic back on the primary.
fn breaker_failover_recovery() {
    let sim = Sim::new();
    let tracer = Tracer::enabled();

    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        // One standby CPU endpoint behind the primary.
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    open_for: Duration::from_secs(120),
                    // Two consecutive half-open probe successes close it.
                    close_after: 2,
                    offline_grace: Duration::from_secs(15),
                    latency_slo: Duration::ZERO,
                },
                max_reroutes: 1,
                deadline: Duration::from_secs(900),
                ..Default::default()
            },
        },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(60)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    };
    let deployment = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());

    // The chaos engine drops the primary CPU endpoint for 4 minutes,
    // then it reconnects — the recovery half of the story.
    ChaosSpec::new(vec![ChaosAction::Flap {
        endpoint: 0,
        start: SimTime::from_secs(60),
        up: Dist::Constant(600.0),
        down: Dist::Constant(240.0),
        cycles: 1,
    }])
    .install(&sim, 7, &deployment.chaos);

    let queues = deployment.queues.clone();
    let sim2 = sim.clone();
    let driver = sim.spawn(async move {
        // A steady drip of simulations across the outage and recovery.
        let mut ok = 0u32;
        for i in 0..TASKS {
            queues
                .submit(
                    "simulate",
                    vec![Payload::new(i, 100_000)],
                    Rc::new(|_| TaskWork::new((), 10_000, secs(30.0))),
                )
                .await;
            sim2.sleep(secs(20.0)).await;
        }
        for _ in 0..TASKS {
            let done = queues.get_result("simulate").await.expect("result stream");
            if done.resolve().await.error().is_none() {
                ok += 1;
            }
        }
        ok
    });
    let ok = sim.block_on(driver);

    println!("\n=== breaker failover: site lost at t=60s, back at t=300s ===\n");
    let mut timeline: Vec<(SimTime, String)> = Vec::new();
    for e in tracer.events_of_kind(trace_kinds::BREAKER_OPENED) {
        timeline.push((e.t, format!("breaker OPENED   endpoint {} (gen {})", e.entity, e.value)));
    }
    for e in tracer.events_of_kind(trace_kinds::BREAKER_CLOSED) {
        timeline.push((e.t, format!("breaker CLOSED   endpoint {} (gen {})", e.entity, e.value)));
    }
    for e in tracer.events_of_kind(trace_kinds::TASK_REROUTED) {
        timeline.push((e.t, format!("task {} rerouted off the dead endpoint (reroute #{})", e.entity, e.value)));
    }
    timeline.sort_by_key(|entry| entry.0);
    for (t, line) in &timeline {
        println!("  {t:>10}  {line}");
    }

    let records = deployment.queues.records();
    let on_standby =
        records.iter().filter(|r| r.worker.as_str().starts_with("theta-f0")).count();
    let back_on_primary = records
        .iter()
        .filter(|r| r.topic == "simulate" && r.worker.as_str().starts_with("theta/"))
        .filter(|r| r.timing.worker_started.is_some_and(|t| t > SimTime::from_secs(300)))
        .count();
    println!("\ncompleted            : {ok}/{TASKS}");
    println!("ran on standby pool  : {on_standby}");
    println!("on primary after fix : {back_on_primary}");
    println!("reroutes / cancels   : {} / {}", deployment.health.rerouted(), deployment.health.cancelled());
    println!("breaker open at end  : {}", deployment.health.breaker_open(0));
    println!("trace digest: {:#018x}", tracer.digest());

    let opened = tracer.events_of_kind(trace_kinds::BREAKER_OPENED).len();
    let closed = tracer.events_of_kind(trace_kinds::BREAKER_CLOSED).len();
    assert!(opened >= 1, "the site loss must open the breaker");
    assert!(closed >= 1, "the half-open probe must close the breaker after recovery");
    assert!(deployment.health.rerouted() >= 1, "stuck tasks must reroute to the standby");
    assert!(on_standby >= 1, "the standby pool must carry load during the outage");
    assert!(back_on_primary >= 1, "traffic must return to the primary after recovery");
    assert!(!deployment.health.breaker_open(0), "the breaker must end closed");
    assert!(ok as usize >= TASKS as usize / 2, "most tasks should still succeed");
}

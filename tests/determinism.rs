//! Whole-system determinism: bit-identical campaign outcomes for equal
//! seeds, divergent outcomes for different seeds. This is what makes
//! the figure regenerators reproducible.

use hetflow::apps::{finetune, moldesign};
use hetflow::prelude::*;
use std::time::Duration;

fn moldesign_fingerprint(seed: u64) -> (usize, usize, SimTime, Vec<(f64, usize)>) {
    let sim = Sim::new();
    let spec = DeploymentSpec { cpu_workers: 4, gpu_workers: 4, seed, ..Default::default() };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 2_000,
            budget: Duration::from_secs(3600),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            ..Default::default()
        },
    );
    (o.found, o.simulations, o.end, o.found_curve)
}

#[test]
fn moldesign_bit_reproducible() {
    assert_eq!(moldesign_fingerprint(42), moldesign_fingerprint(42));
}

#[test]
fn moldesign_seeds_diverge() {
    let a = moldesign_fingerprint(42);
    let b = moldesign_fingerprint(43);
    assert_ne!(a.2, b.2, "different seeds should end at different virtual times");
}

#[test]
fn finetune_bit_reproducible() {
    let go = || {
        let sim = Sim::new();
        let spec = DeploymentSpec { cpu_workers: 4, gpu_workers: 4, seed: 9, ..Default::default() };
        let d = deploy(&sim, WorkflowConfig::ParslRedis, &spec, Tracer::disabled());
        let o = finetune::run(
            &sim,
            &d,
            FinetuneParams {
                pretrain_structures: 50,
                target_new: 8,
                retrain_every: 4,
                ensemble_size: 2,
                md_steps_end: 100,
                ..Default::default()
            },
        );
        (o.new_structures, o.training_rounds, o.end, o.final_force_rmsd.to_bits())
    };
    assert_eq!(go(), go());
}

#[test]
fn record_timings_reproducible_across_runs() {
    let lifetimes = || {
        let sim = Sim::new();
        let spec = DeploymentSpec { seed: 5, ..Default::default() };
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, Tracer::disabled());
        let q = d.queues.clone();
        let h = sim.spawn(async move {
            for i in 0..20u32 {
                q.submit(
                    "simulate",
                    vec![Payload::new(i, 1_000_000)],
                    std::rc::Rc::new(|_| TaskWork::new((), 1000, Duration::from_secs(60))),
                )
                .await;
            }
            let mut out = Vec::new();
            for _ in 0..20 {
                let r = q.get_result("simulate").await.unwrap().resolve().await;
                out.push(r.record.timing.lifetime().unwrap());
            }
            out
        });
        sim.block_on(h)
    };
    assert_eq!(lifetimes(), lifetimes());
}

/// Runs a small moldesign campaign with tracing on and returns the
/// trace digest plus the event count, under the given fabric config.
fn traced_digest(config: WorkflowConfig, seed: u64) -> (u64, usize) {
    shuffled_traced_digest(config, seed, None)
}

/// Like [`traced_digest`], optionally enabling the executor's
/// tie-shuffle mode: same-instant timers fire in a seed-randomized
/// order instead of registration order. The determinism contract says
/// no observable output may depend on that order, so the digest must
/// be invariant across shuffle seeds — this helper is the probe the
/// invariance tests below are built on.
fn shuffled_traced_digest(config: WorkflowConfig, seed: u64, shuffle: Option<u64>) -> (u64, usize) {
    let sim = match shuffle {
        Some(s) => Sim::with_tie_shuffle(s),
        None => Sim::new(),
    };
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec { cpu_workers: 4, gpu_workers: 2, seed, ..Default::default() };
    let d = deploy(&sim, config, &spec, tracer.clone());
    let _ = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(1200),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len())
}

#[test]
fn trace_digest_reproducible_fnx_globus() {
    let (d1, n1) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    let (d2, n2) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    assert!(n1 > 0, "traced campaign emitted no events");
    assert_eq!(n1, n2, "event counts diverged between same-seed runs");
    assert_eq!(d1, d2, "trace digests diverged between same-seed runs");
}

#[test]
fn trace_digest_reproducible_parsl_redis() {
    let (d1, n1) = traced_digest(WorkflowConfig::ParslRedis, 1234);
    let (d2, n2) = traced_digest(WorkflowConfig::ParslRedis, 1234);
    assert!(n1 > 0, "traced campaign emitted no events");
    assert_eq!(n1, n2, "event counts diverged between same-seed runs");
    assert_eq!(d1, d2, "trace digests diverged between same-seed runs");
}

/// Like [`traced_digest`] but with the full chaos kit switched on:
/// worker failure injection, a scheduled endpoint outage, and a
/// per-topic retry policy with backoff and a delivery deadline. The
/// failure paths must be exactly as deterministic as the happy path.
fn chaos_traced_digest(seed: u64) -> (u64, usize, usize) {
    use hetflow::fabric::{Connectivity, FailureModel};
    use hetflow::sim::Dist;

    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        seed,
        failure: Some(FailureModel {
            prob: 0.2,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(2.0),
            max_attempts: 2,
        }),
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy {
                max_attempts: 2,
                timeout: Some(Duration::from_secs(300)),
                backoff: Dist::Constant(1.0),
            },
        ),
        cpu_connectivity: Connectivity::scheduled(
            &sim,
            vec![(SimTime::from_secs(2), Duration::from_secs(600))],
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(1200),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len(), o.failed)
}

#[test]
fn trace_digest_reproducible_with_failure_injection() {
    let (d1, n1, f1) = chaos_traced_digest(1234);
    let (d2, n2, f2) = chaos_traced_digest(1234);
    assert!(n1 > 0, "traced campaign emitted no events");
    assert!(f1 > 0, "chaos campaign should produce failed tasks");
    assert_eq!(f1, f2, "failure counts diverged between same-seed runs");
    assert_eq!(n1, n2, "event counts diverged between same-seed runs");
    assert_eq!(d1, d2, "trace digests diverged between same-seed runs");
    // And the chaos must actually change the trace relative to the
    // fault-free run of the same seed.
    let (clean, _) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    assert_ne!(d1, clean, "failure injection should alter the trace");
}

/// A moldesign campaign under a scripted chaos-engine scenario: an
/// endpoint flap, a worker straggler window, a crash storm, and a cloud
/// degradation, with the breaker/failover/hedging layer active. The
/// whole reliability stack must replay bit-identically.
fn chaos_engine_digest(seed: u64) -> (u64, usize) {
    use hetflow::fabric::{BreakerConfig, ChaosAction, ChaosSpec};
    use hetflow::sim::Dist;

    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        seed,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    open_for: Duration::from_secs(120),
                    close_after: 1,
                    offline_grace: Duration::from_secs(20),
                    latency_slo: Duration::ZERO,
                },
                max_reroutes: 1,
                deadline: Duration::from_secs(900),
                ..Default::default()
            },
            per_topic: Default::default(),
        },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(90)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    ChaosSpec::new(vec![
        ChaosAction::Flap {
            endpoint: 0,
            start: SimTime::from_secs(120),
            up: Dist::Uniform { lo: 20.0, hi: 60.0 },
            down: Dist::Uniform { lo: 30.0, hi: 90.0 },
            cycles: 2,
        },
        ChaosAction::Straggle {
            pool: 0,
            at: SimTime::from_secs(500),
            duration: Duration::from_secs(120),
            factor: 4.0,
        },
        ChaosAction::CrashStorm {
            pool: 1,
            at: SimTime::from_secs(300),
            duration: Duration::from_secs(200),
            prob: 0.3,
        },
        ChaosAction::Degrade {
            at: SimTime::from_secs(700),
            duration: Duration::from_secs(100),
            factor: 3.0,
        },
    ])
    .install(&sim, seed, &d.chaos);
    let _ = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(1200),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len())
}

#[test]
fn trace_digest_reproducible_under_chaos_engine() {
    let (d1, n1) = chaos_engine_digest(1234);
    let (d2, n2) = chaos_engine_digest(1234);
    assert!(n1 > 0, "traced campaign emitted no events");
    assert_eq!(n1, n2, "event counts diverged between same-seed chaos runs");
    assert_eq!(d1, d2, "chaos-engine trace digests diverged between same-seed runs");
    // The scripted chaos must actually perturb the run.
    let (clean, _) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    assert_ne!(d1, clean, "the chaos script should alter the trace");
}

/// A moldesign campaign with the whole overload-protection stack on —
/// bounded CPU queue, admission control on the storm topic, graceful
/// fidelity degradation — under a scripted task storm. Shedding,
/// backpressure, and fidelity transitions all fold into the digest, so
/// the overload machinery must replay bit-identically.
fn storm_digest(seed: u64) -> (u64, usize, usize, u64) {
    use hetflow::apps::DegradationPolicy;
    use hetflow::fabric::{AdmissionConfig, ChaosAction, ChaosSpec};
    use hetflow::sim::{Dist, OverflowPolicy};

    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        seed,
        cpu_queue_capacity: 8,
        overflow: OverflowPolicy::ShedOldest,
        reliability: ReliabilityPolicies::default().with_topic(
            "noop",
            ReliabilityPolicy {
                admission: AdmissionConfig { rate: 10.0, burst: 10.0, max_in_flight: 0 },
                ..Default::default()
            },
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    ChaosSpec::new(vec![ChaosAction::TaskStorm {
        at: SimTime::from_secs(60),
        tasks: 2_000,
        interval: Dist::Constant(0.05),
        bytes: 64,
        work: Dist::log_normal(6.0, 0.2),
    }])
    .install(&sim, seed, &d.chaos);
    let o = moldesign::run(
        &sim,
        &d,
        MolDesignParams {
            library_size: 400,
            budget: Duration::from_secs(1200),
            ensemble_size: 2,
            retrain_after: 8,
            seed,
            degradation: DegradationPolicy { trigger_after: 2, restore_after: 3 },
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len(), o.shed, o.degradations)
}

#[test]
fn trace_digest_reproducible_under_task_storm() {
    let a = storm_digest(1234);
    let b = storm_digest(1234);
    assert!(a.1 > 0, "traced campaign emitted no events");
    assert!(a.2 > 0, "the storm must shed campaign tasks");
    assert!(a.3 >= 1, "sustained shedding must degrade fidelity");
    assert_eq!(a, b, "overload-protection trace diverged between same-seed runs");
    // The storm must actually perturb the run relative to the clean
    // campaign of the same seed.
    let (clean, _) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    assert_ne!(a.0, clean, "the task storm should alter the trace");
}

#[test]
fn tie_shuffle_leaves_trace_digest_invariant() {
    // The runtime half of the determinism contract: randomizing the
    // firing order of *equal-timestamp* timers must not change a single
    // bit of the trace, for either fabric. A divergence here means some
    // actor smuggled an ordering dependency between logically
    // independent same-instant events — a race the static rules
    // (clippy's and hetlint's) cannot see.
    for config in [WorkflowConfig::FnXGlobus, WorkflowConfig::ParslRedis] {
        let (baseline, n) = shuffled_traced_digest(config, 1234, None);
        assert!(n > 0, "traced campaign emitted no events");
        for shuffle_seed in [1u64, 2, 3] {
            let (shuffled, m) = shuffled_traced_digest(config, 1234, Some(shuffle_seed));
            assert_eq!(
                (shuffled, m),
                (baseline, n),
                "tie shuffle (seed {shuffle_seed}) changed the {config:?} trace: \
                 a same-timestamp ordering dependency leaked into an observable"
            );
        }
    }
}

#[test]
fn trace_digest_distinguishes_fabrics_and_seeds() {
    let (fnx, _) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    let (parsl, _) = traced_digest(WorkflowConfig::ParslRedis, 1234);
    assert_ne!(fnx, parsl, "different fabrics should produce different traces");
    let (fnx_other, _) = traced_digest(WorkflowConfig::FnXGlobus, 4321);
    assert_ne!(fnx, fnx_other, "different seeds should produce different traces");
}

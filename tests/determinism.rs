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
    shuffled_traced_digest(config, seed, None, &Tracer::enabled())
}

/// Like [`traced_digest`], optionally enabling the executor's
/// tie-shuffle mode: same-instant timers fire in a seed-randomized
/// order instead of registration order. The determinism contract says
/// no observable output may depend on that order, so the digest must
/// be invariant across shuffle seeds — this helper is the probe the
/// invariance tests below are built on.
fn shuffled_traced_digest(
    config: WorkflowConfig,
    seed: u64,
    shuffle: Option<u64>,
    tracer: &Tracer,
) -> (u64, usize) {
    let sim = match shuffle {
        Some(s) => Sim::with_tie_shuffle(s),
        None => Sim::new(),
    };
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
fn chaos_traced_digest(seed: u64, tracer: &Tracer) -> (u64, usize, usize) {
    use hetflow::fabric::{ChaosAction, ChaosSpec, FailureModel};
    use hetflow::sim::Dist;

    let sim = Sim::new();
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
                timeout: Some(Duration::from_secs(300)),
                backoff: Dist::Constant(1.0),
            },
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    // The CPU endpoint is offline from t=2 s to t=602 s.
    let outage = ChaosAction::Flap {
        endpoint: 0,
        start: SimTime::from_secs(2),
        up: Dist::Constant(0.0),
        down: Dist::Constant(600.0),
        cycles: 1,
    };
    ChaosSpec::new(vec![outage]).install(&sim, seed, &d.chaos);
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
    let (d1, n1, f1) = chaos_traced_digest(1234, &Tracer::enabled());
    let (d2, n2, f2) = chaos_traced_digest(1234, &Tracer::enabled());
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
/// endpoint flap and a worker straggler window, with the
/// breaker/failover/reroute layer active. The whole reliability stack
/// must replay bit-identically.
fn chaos_engine_digest(seed: u64, tracer: &Tracer) -> (u64, usize) {
    use hetflow::fabric::{BreakerConfig, ChaosAction, ChaosSpec};
    use hetflow::sim::Dist;

    let sim = Sim::new();
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
    let (d1, n1) = chaos_engine_digest(1234, &Tracer::enabled());
    let (d2, n2) = chaos_engine_digest(1234, &Tracer::enabled());
    assert!(n1 > 0, "traced campaign emitted no events");
    assert_eq!(n1, n2, "event counts diverged between same-seed chaos runs");
    assert_eq!(d1, d2, "chaos-engine trace digests diverged between same-seed runs");
    // The scripted chaos must actually perturb the run.
    let (clean, _) = traced_digest(WorkflowConfig::FnXGlobus, 1234);
    assert_ne!(d1, clean, "the chaos script should alter the trace");
}

/// A moldesign campaign with the whole overload-protection stack on —
/// bounded CPU queue and admission control on every topic — under a
/// scripted task storm. Sheds fold into the digest, so the overload
/// machinery must replay bit-identically.
fn storm_digest(seed: u64, tracer: &Tracer) -> (u64, usize, usize) {
    use hetflow::fabric::{AdmissionConfig, ChaosAction, ChaosSpec};
    use hetflow::sim::Dist;

    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        seed,
        // Overflow rejects the arrival (the default policy).
        cpu_queue_capacity: 8,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                admission: AdmissionConfig { rate: 10.0, burst: 10.0, max_in_flight: 0 },
                ..Default::default()
            },
        },
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
            ..Default::default()
        },
    );
    (tracer.digest(), tracer.len(), o.shed)
}

#[test]
fn trace_digest_reproducible_under_task_storm() {
    let a = storm_digest(1234, &Tracer::enabled());
    let b = storm_digest(1234, &Tracer::enabled());
    assert!(a.1 > 0, "traced campaign emitted no events");
    assert!(a.2 > 0, "the storm must shed campaign tasks");
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
    // (clippy's and the compiler's) cannot see.
    for config in [WorkflowConfig::FnXGlobus, WorkflowConfig::ParslRedis] {
        let (baseline, n) = shuffled_traced_digest(config, 1234, None, &Tracer::enabled());
        assert!(n > 0, "traced campaign emitted no events");
        for shuffle_seed in [1u64, 2, 3] {
            let (shuffled, m) =
                shuffled_traced_digest(config, 1234, Some(shuffle_seed), &Tracer::enabled());
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

/// The shape of `tests/digest_pins.rs`'s armed scenarios: a campaign
/// with a standby CPU site and a 120 s delivery timeout, under `policy`
/// and one scripted `fault`.
fn armed_run(policy: ReliabilityPolicy, fault: hetflow::fabric::ChaosAction, tracer: &Tracer) {
    let sim = Sim::new();
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies { default: policy },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(120)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    };
    let d = deploy(&sim, WorkflowConfig::FnXGlobus, &spec, tracer.clone());
    hetflow::fabric::ChaosSpec::new(vec![fault]).install(&sim, 99, &d.chaos);
    let params = MolDesignParams {
        library_size: 400,
        budget: Duration::from_secs(2400),
        ensemble_size: 2,
        retrain_after: 8,
        seed: 7,
        ..Default::default()
    };
    let _ = moldesign::run(&sim, &d, params);
}

/// The other half of the sealed trace-kind registry (R8): every
/// registered kind is emitted somewhere, so none is dead.
#[test]
fn every_registered_kind_is_emitted() {
    use hetflow::fabric::{ChaosAction, HedgeConfig};
    use hetflow::sim::trace_kinds;
    use std::collections::BTreeSet;
    let secs = Duration::from_secs;

    let tracer = Tracer::enabled();
    shuffled_traced_digest(WorkflowConfig::ParslRedis, 1234, None, &tracer);
    chaos_traced_digest(1234, &tracer);
    chaos_engine_digest(1234, &tracer);
    storm_digest(1234, &tracer);
    // Deliveries stuck behind a dead endpoint reroute, and time out.
    let reroute = ReliabilityPolicy { max_reroutes: 1, deadline: secs(1200), ..Default::default() };
    let kill = ChaosAction::Kill { endpoint: 0, at: SimTime::from_secs(300) };
    armed_run(reroute, kill, &tracer);
    // A straggling pool is hedged.
    let hedge = ReliabilityPolicy {
        hedge: HedgeConfig { quantile: 0.5, min_samples: 4, ..Default::default() },
        ..Default::default()
    };
    let at = SimTime::from_secs(60);
    let straggle = ChaosAction::Straggle { pool: 0, at, duration: secs(600), factor: 6.0 };
    armed_run(hedge, straggle, &tracer);
    let emitted: BTreeSet<&str> = tracer.events().iter().map(|e| e.kind.as_str()).collect();
    let registered: BTreeSet<&str> = trace_kinds::ALL.iter().map(|k| k.as_str()).collect();
    assert_eq!(emitted, registered, "emitted (left) vs registered (right) trace kinds");
}

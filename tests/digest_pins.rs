//! Pinned trace digests: both fabrics × 3 seeds, plus two armed-path
//! scenarios.
//!
//! The kernel fast-path work (interned actor names, streaming digest
//! fold, calendar-queue timers) is only legal if it is invisible to the
//! trace: these constants were captured from the pre-interning tree and
//! every future kernel change must reproduce them bit-for-bit. A
//! mismatch here means the digest byte recipe, the RNG stream
//! derivation, or the timer firing order drifted.
//!
//! The six default configs set no deadline, hedge, reroute or delivery
//! timeout, so two more pins cover those arms, each with the virtual end
//! time beside the digest, and each checks that the arms it names fire.

use hetflow::apps::moldesign;
use hetflow::fabric::{AdmissionConfig, BreakerConfig, ChaosAction, ChaosSpec, HedgeConfig};
use hetflow::prelude::*;
use hetflow::sim::{trace_kinds, TraceKind};
use std::time::Duration;

/// Small traced moldesign campaign; returns (digest, event count).
fn pinned_digest(config: WorkflowConfig, seed: u64) -> (u64, usize) {
    pinned_digest_under(config, seed, ReliabilityPolicies::default())
}

/// [`pinned_digest`]'s campaign under `reliability`.
fn pinned_digest_under(
    config: WorkflowConfig,
    seed: u64,
    reliability: ReliabilityPolicies,
) -> (u64, usize) {
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let spec =
        DeploymentSpec { cpu_workers: 4, gpu_workers: 2, seed, reliability, ..Default::default() };
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

/// Digests captured from the seed tree (binary-heap timers, `String`
/// actors, retained-event digest) immediately before the kernel
/// fast-path change. Bit-for-bit equality here proves the rewrite is
/// unobservable.
const PINNED: [(WorkflowConfig, u64, u64, usize); 6] = [
    (WorkflowConfig::FnXGlobus, 7, 0xe07588701a425785, 112),
    (WorkflowConfig::FnXGlobus, 1234, 0xaea6a75887d02db7, 112),
    (WorkflowConfig::FnXGlobus, 99_991, 0x990669ede1c1a697, 116),
    (WorkflowConfig::ParslRedis, 7, 0xec2b47f567027e47, 112),
    (WorkflowConfig::ParslRedis, 1234, 0xa0606aca2af70e0f, 112),
    (WorkflowConfig::ParslRedis, 99_991, 0xb61947ec28a2a247, 116),
];

#[test]
fn digests_match_seed_tree_pins() {
    for (config, seed, digest, count) in PINNED {
        let (d, n) = pinned_digest(config, seed);
        assert_eq!(
            (d, n),
            (digest, count),
            "({config:?}, seed {seed}) drifted from the pinned seed-tree digest \
             (got 0x{d:016x}/{n} events): the digest recipe, RNG stream \
             derivation, or timer firing order changed"
        );
    }
}

/// Admission configured on every topic but never binding is the feature
/// absent: it draws, awaits and emits nothing, so the pinned run keeps
/// its digest and event count.
#[test]
fn admission_that_never_binds_leaves_the_pinned_run_unchanged() {
    let admission = AdmissionConfig { rate: 1e9, burst: 1e9, max_in_flight: 1 << 30 };
    let default = ReliabilityPolicy { admission, ..Default::default() };
    for config in [WorkflowConfig::FnXGlobus, WorkflowConfig::ParslRedis] {
        let idle = ReliabilityPolicies { default: default.clone(), per_topic: Default::default() };
        assert_eq!(
            pinned_digest_under(config, 7, idle),
            pinned_digest(config, 7),
            "{config:?}: admission that never refuses changed the trace"
        );
    }
}

/// What an armed-path pin records of a run: the trace digest, the event
/// count, the virtual end time in nanoseconds (the last pending timer —
/// often a deadline — sets it), and the tracer for the arm checks.
struct Armed {
    digest: u64,
    events: usize,
    end_ns: u64,
    tracer: Tracer,
}

impl Armed {
    fn run(config: WorkflowConfig, spec: DeploymentSpec, chaos: ChaosSpec) -> Armed {
        let sim = Sim::new();
        let tracer = Tracer::enabled();
        let d = deploy(&sim, config, &spec, tracer.clone());
        chaos.install(&sim, 99, &d.chaos);
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
        let end_ns = o.end.as_nanos();
        Armed { digest: tracer.digest(), events: tracer.len(), end_ns, tracer }
    }

    /// Asserts that `kind` fired at least once, with `value` when given.
    fn fired(&self, scenario: &str, kind: TraceKind, value: Option<f64>) {
        let hits = self.tracer.events_of_kind(kind);
        assert!(
            hits.iter().any(|e| value.is_none_or(|v| e.value == v)),
            "{scenario}: no {} event{} — the pin no longer covers that arm",
            kind.as_str(),
            value.map_or(String::new(), |v| format!(" with value {v}"))
        );
    }

    fn assert_pinned(&self, scenario: &str, pin: (u64, usize, u64)) {
        let got = (self.digest, self.events, self.end_ns);
        assert_eq!(
            got,
            pin,
            "{scenario} drifted from its pin (got 0x{:016x}/{} events/end {} ns): \
             a deadline, hedge, reroute or delivery-timeout arm changed what it \
             emits or when",
            got.0,
            got.1,
            got.2
        );
    }
}

/// `tests/robustness.rs`'s site-loss scenario: the primary CPU site dies
/// at 300 s, the offline watcher opens its breaker, deliveries stuck
/// behind it time out after 120 s and reroute to the standby site, and a
/// 1 200 s round-trip deadline backstops results stranded on the dead
/// return path.
fn site_loss() -> Armed {
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    open_for: Duration::from_secs(3600),
                    close_after: 1,
                    offline_grace: Duration::from_secs(30),
                    latency_slo: Duration::ZERO,
                },
                max_reroutes: 1,
                deadline: Duration::from_secs(1200),
                ..Default::default()
            },
            per_topic: Default::default(),
        },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(120)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    };
    let kill = ChaosAction::Kill { endpoint: 0, at: SimTime::from_secs(300) };
    Armed::run(WorkflowConfig::FnXGlobus, spec, ChaosSpec::new(vec![kill]))
}

/// Hedged dispatch over HTEX links: the primary CPU pool straggles 6×
/// from 60 s to 660 s, so late tasks are re-issued on the standby site,
/// under a 900 s round-trip deadline.
fn hedged() -> Armed {
    let spec = DeploymentSpec {
        cpu_workers: 4,
        gpu_workers: 2,
        cpu_failover_sites: 1,
        reliability: ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.5, min_samples: 4, ..Default::default() },
                deadline: Duration::from_secs(900),
                ..Default::default()
            },
            per_topic: Default::default(),
        },
        ..Default::default()
    };
    let straggle = ChaosAction::Straggle {
        pool: 0,
        at: SimTime::from_secs(60),
        duration: Duration::from_secs(600),
        factor: 6.0,
    };
    Armed::run(WorkflowConfig::ParslRedis, spec, ChaosSpec::new(vec![straggle]))
}

/// `(digest, event count, end ns)` of the two armed scenarios, captured
/// from the tree whose deadline backstop was one watchdog actor per task.
const SITE_LOSS_PIN: (u64, usize, u64) = (0x7feaccd2cb99ee75, 233, 2_988_279_099_099);
const HEDGED_PIN: (u64, usize, u64) = (0x4f1c8618e4697077, 248, 2_298_356_682_537);

#[test]
fn site_loss_matches_its_armed_path_pin() {
    let run = site_loss();
    run.fired("site loss", trace_kinds::TASK_TIMEOUT, Some(1200.0));
    run.fired("site loss", trace_kinds::TASK_REROUTED, None);
    run.assert_pinned("site loss", SITE_LOSS_PIN);
}

#[test]
fn hedged_run_matches_its_armed_path_pin() {
    let run = hedged();
    run.fired("hedged", trace_kinds::TASK_HEDGED, None);
    run.fired("hedged", trace_kinds::TASK_CANCELLED, None);
    run.assert_pinned("hedged", HEDGED_PIN);
}

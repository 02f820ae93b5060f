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
/// fast-path change, and re-recorded once when normal draws moved from
/// Box–Muller to the ziggurat, which moves every seed's stream.
/// Bit-for-bit equality here proves a kernel rewrite is unobservable.
const PINNED: [(WorkflowConfig, u64, u64, usize); 6] = [
    (WorkflowConfig::FnXGlobus, 7, 0xcff4615be90c4199, 112),
    (WorkflowConfig::FnXGlobus, 1234, 0x0a13bacc812bffa8, 120),
    (WorkflowConfig::FnXGlobus, 99_991, 0xaf362cfd8bf901e4, 108),
    (WorkflowConfig::ParslRedis, 7, 0x5eac48550c91b50e, 112),
    (WorkflowConfig::ParslRedis, 1234, 0x39139cbccedb536d, 120),
    (WorkflowConfig::ParslRedis, 99_991, 0x565401219598744c, 108),
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
        let idle = ReliabilityPolicies { default: default.clone() };
        assert_eq!(
            pinned_digest_under(config, 7, idle),
            pinned_digest(config, 7),
            "{config:?}: admission that never refuses changed the trace"
        );
    }
}

/// The armed scenarios' moldesign campaign under `chaos`: its deployment,
/// virtual end time and trace.
fn armed_campaign(
    config: WorkflowConfig,
    spec: &DeploymentSpec,
    chaos: ChaosSpec,
) -> (Deployment, SimTime, Tracer) {
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let d = deploy(&sim, config, spec, tracer.clone());
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
    (d, o.end, tracer)
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
        let (_, end, tracer) = armed_campaign(config, &spec, chaos);
        Armed { digest: tracer.digest(), events: tracer.len(), end_ns: end.as_nanos(), tracer }
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
/// 1 ms before the first `simulate` dispatch at or after 300 s (read off
/// the same campaign run without the kill, which is identical up to it),
/// the offline watcher opens its breaker 30 s later, that dispatch and
/// any other stuck behind the dead site time out after 120 s and reroute
/// to the standby site, and a 1 200 s round-trip deadline backstops
/// results stranded on the dead return path. `None` when the campaign
/// dispatches no simulation at or after 300 s.
fn site_loss() -> Option<Armed> {
    let config = WorkflowConfig::FnXGlobus;
    let (quiet, _, _) = armed_campaign(config, &site_loss_spec(), ChaosSpec::new(vec![]));
    let first = quiet
        .queues
        .records()
        .iter()
        .filter(|r| r.topic == "simulate")
        .filter_map(|r| r.timing.dispatched)
        .filter(|&t| t >= SimTime::from_secs(300))
        .min()?;
    let at = SimTime::from_nanos(first.as_nanos() - 1_000_000);
    let kill = ChaosAction::Kill { endpoint: 0, at };
    Some(Armed::run(config, site_loss_spec(), ChaosSpec::new(vec![kill])))
}

/// The site-loss deployment: a standby CPU site, a breaker that opens
/// 30 s after the primary goes offline and stays open, one reroute,
/// 120 s delivery timeouts on `simulate` and a 1 200 s deadline.
fn site_loss_spec() -> DeploymentSpec {
    DeploymentSpec {
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
        },
        retry: RetryPolicies::default().with_topic(
            "simulate",
            RetryPolicy { timeout: Some(Duration::from_secs(120)), ..RetryPolicy::default() },
        ),
        ..Default::default()
    }
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
/// from the tree whose deadline backstop was one watchdog actor per task
/// and re-recorded with the ziggurat's normals.
const SITE_LOSS_PIN: (u64, usize, u64) = (0xaee962a77463b211, 225, 2_940_212_434_386);
const HEDGED_PIN: (u64, usize, u64) = (0x947fecadb2f5f819, 230, 2_384_305_662_222);

#[test]
fn site_loss_matches_its_armed_path_pin() {
    let run = site_loss().expect("the campaign dispatches simulations after 300 s");
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

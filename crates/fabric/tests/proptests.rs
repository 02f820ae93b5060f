//! Property-based tests of fabric invariants: no task is lost, stamps
//! are monotone, and both fabrics agree on *what* is computed (they may
//! only differ on *when*).

use hetflow_fabric::{
    AdmissionConfig, Arg, BreakerConfig, ChaosAction, ChaosSpec, ChaosTargets, EndpointSpec,
    Fabric, FnXExecutor, FnXParams, HedgeConfig, HtexEndpoint, HtexExecutor, HtexParams,
    ReliabilityPolicies, ReliabilityPolicy, TaskSpec, TaskWork, WorkerPoolConfig,
};
use hetflow_store::SiteId;
use hetflow_sim::{channel, Dist, Link, OverflowPolicy, Receiver, Sim, SimRng, SimTime, Tracer};
use proptest::prelude::*;
use std::rc::Rc;
use std::time::Duration;

const SITE: SiteId = SiteId(0);

fn mk_task(id: u64, payload_kb: u64, compute_ms: u64) -> TaskSpec {
    let mut t = TaskSpec::new(
        id,
        "noop",
        vec![Arg::inline(id, payload_kb * 1_000)],
        Rc::new(move |ctx| {
            let v = *ctx.input::<u64>(0);
            TaskWork::new(v * 2, 100, Duration::from_millis(compute_ms))
        }),
    );
    t.timing.created = Some(hetflow_sim::SimTime::ZERO);
    t
}

fn run_fabric(
    fnx: bool,
    workers: usize,
    tasks: &[(u64, u64)],
) -> Vec<hetflow_fabric::TaskResult> {
    let sim = Sim::new();
    let (res_tx, res_rx): (_, Receiver<hetflow_fabric::TaskResult>) = channel();
    let pool = WorkerPoolConfig::bare(SITE, "w", workers);
    let fabric: Rc<dyn Fabric> = if fnx {
        Rc::new(FnXExecutor::with_reliability(
            &sim,
            FnXParams::default(),
            vec![EndpointSpec::reliable(pool, vec!["noop"])],
            res_tx,
            SimRng::from_seed(7),
            Tracer::disabled(),
            ReliabilityPolicies::default(),
        ))
    } else {
        Rc::new(HtexExecutor::with_reliability(
            &sim,
            HtexParams::default(),
            vec![HtexEndpoint {
                pool,
                topics: vec!["noop"],
                link: Link { latency: Dist::log_normal(0.004, 0.3), bandwidth: 4.0e7 },
            }],
            res_tx,
            SimRng::from_seed(7),
            Tracer::disabled(),
            ReliabilityPolicies::default(),
        ))
    };
    let tasks = tasks.to_vec();
    let f = Rc::clone(&fabric);
    sim.spawn(async move {
        for (i, (kb, ms)) in tasks.into_iter().enumerate() {
            f.submit(mk_task(i as u64, kb.min(8_000), ms)).await;
        }
    });
    sim.run();
    res_rx.drain_now()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every submitted task comes back exactly once, with the right
    /// output, on both fabrics.
    #[test]
    fn no_task_lost_or_duplicated(
        fnx in any::<bool>(),
        workers in 1usize..6,
        tasks in prop::collection::vec((1u64..500, 1u64..2_000), 1..25),
    ) {
        let results = run_fabric(fnx, workers, &tasks);
        prop_assert_eq!(results.len(), tasks.len());
        let mut ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), tasks.len());
        for r in &results {
            let out = match &r.output {
                Arg::Inline { value, .. } => *Rc::clone(value).downcast::<u64>().unwrap(),
                Arg::Proxied(_) => unreachable!("no result policy"),
            };
            prop_assert_eq!(out, r.id * 2);
        }
    }

    /// Life-cycle stamps are monotone on every result.
    #[test]
    fn stamps_are_monotone(
        fnx in any::<bool>(),
        tasks in prop::collection::vec((1u64..500, 1u64..2_000), 1..15),
    ) {
        let results = run_fabric(fnx, 2, &tasks);
        for r in &results {
            let t = &r.timing;
            let stamps = [
                t.dispatched,
                t.worker_started,
                t.inputs_resolved,
                t.compute_finished,
                t.result_dispatched,
                t.server_result_received,
            ];
            for pair in stamps.windows(2) {
                let (a, b) = (pair[0].unwrap(), pair[1].unwrap());
                prop_assert!(a <= b, "{a:?} > {b:?}");
            }
        }
    }

    /// Worker time accounts for at least the declared compute time.
    #[test]
    fn worker_time_covers_compute(
        compute_ms in prop::collection::vec(1u64..5_000, 1..10),
    ) {
        let tasks: Vec<(u64, u64)> = compute_ms.iter().map(|&ms| (1, ms)).collect();
        let results = run_fabric(true, 3, &tasks);
        for r in &results {
            let on_worker = r.timing.time_on_worker().unwrap();
            prop_assert!(
                on_worker >= r.report.compute_time,
                "{on_worker:?} < {:?}",
                r.report.compute_time
            );
        }
    }

    /// With one worker, compute windows never overlap (mutual
    /// exclusion of the resource).
    #[test]
    fn single_worker_serializes_compute(
        tasks in prop::collection::vec((1u64..100, 10u64..500), 2..10),
    ) {
        let results = run_fabric(false, 1, &tasks);
        let mut windows: Vec<(hetflow_sim::SimTime, hetflow_sim::SimTime)> = results
            .iter()
            .map(|r| (r.timing.worker_started.unwrap(), r.timing.result_dispatched.unwrap()))
            .collect();
        windows.sort();
        for pair in windows.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
    }
}

// --- FnX-vs-HTEX differential ------------------------------------------------

/// `(id, outcome kind, site, hedges, reroutes)` of one terminal result.
type Outcome = (u64, &'static str, SiteId, u32, u32);

/// The arms the free-transport script enters, each under a policy of
/// its own: one fabric has one policy.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// Tasks that take no arm.
    Plain,
    /// Arrivals at a full pool queue that sheds its lowest priority.
    Bounded,
    /// Submissions under an in-flight cap.
    Capped,
    /// A straggler rescued by a hedged copy.
    Hedged,
}

impl Arm {
    const ALL: [Arm; 4] = [Arm::Plain, Arm::Bounded, Arm::Capped, Arm::Hedged];

    fn policy(self) -> ReliabilityPolicy {
        match self {
            Arm::Plain | Arm::Bounded => ReliabilityPolicy::default(),
            Arm::Capped => ReliabilityPolicy {
                admission: AdmissionConfig { max_in_flight: 2, ..Default::default() },
                ..Default::default()
            },
            Arm::Hedged => ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.5, factor: 2.0, min_samples: 3 },
                ..Default::default()
            },
        }
    }
}

/// Runs `arm`'s part of the scripted mix below through one executor
/// whose transport costs nothing — every latency `Constant(0)`, every
/// bandwidth infinite — and returns the sorted outcomes. What is left is
/// the dispatch core, which must not care which transport it was built
/// over.
fn run_free_transport(fnx: bool, arm: Arm) -> Vec<Outcome> {
    const ZERO: Dist = Dist::Constant(0.0);
    let sim = Sim::new();
    let (res_tx, res_rx): (_, Receiver<hetflow_fabric::TaskResult>) = channel();
    // Endpoint 0 serves everything but `bounded`; endpoint 1 is the
    // `hedged` failover; endpoint 2 is `bounded`'s one worker behind a
    // two-slot queue that sheds its lowest-priority entry.
    let mut bounded = WorkerPoolConfig::bare(SiteId(2), "c", 1);
    bounded.queue_capacity = 2;
    bounded.overflow = OverflowPolicy::ShedLowestPriority;
    let endpoints: [(WorkerPoolConfig, Vec<&'static str>); 3] = [
        (WorkerPoolConfig::bare(SiteId(0), "a", 2), vec!["plain", "capped", "hedged"]),
        (WorkerPoolConfig::bare(SiteId(1), "b", 1), vec!["hedged"]),
        (bounded, vec!["bounded"]),
    ];
    let policies = ReliabilityPolicies { default: arm.policy() };
    let (rng, tracer) = (SimRng::from_seed(11), Tracer::disabled());
    let (fabric, chaos): (Rc<dyn Fabric>, ChaosTargets) = if fnx {
        let params = FnXParams {
            https_latency: ZERO,
            small_store: Link::FREE,
            large_store: Link::FREE,
            forward_latency: ZERO,
            result_latency: ZERO,
            ..FnXParams::default()
        };
        let eps = endpoints.into_iter().map(|(p, t)| EndpointSpec::reliable(p, t)).collect();
        let exec = FnXExecutor::with_reliability(&sim, params, eps, res_tx, rng, tracer, policies);
        let chaos = exec.chaos_targets();
        (Rc::new(exec), chaos)
    } else {
        let params = HtexParams { submit: Link::FREE };
        let eps = endpoints
            .into_iter()
            .map(|(pool, topics)| HtexEndpoint { pool, topics, link: Link::FREE })
            .collect();
        let exec = HtexExecutor::with_reliability(&sim, params, eps, res_tx, rng, tracer, policies);
        let chaos = exec.chaos_targets();
        (Rc::new(exec), chaos)
    };
    let sim2 = sim.clone();
    sim.spawn(async move {
        let task = |id: u64, topic: &'static str, secs: u64, priority: u8| {
            let work: hetflow_fabric::TaskFn =
                Rc::new(move |_| TaskWork::new((), 100, Duration::from_secs(secs)));
            TaskSpec::new(id, topic, Arg::inline((), 1_000), work).with_priority(priority)
        };
        // Submissions are 1 ms apart so that no two decisions share an
        // instant: the transports differ in how many zero-length hops a
        // task makes, and same-instant order is not part of the contract.
        let tick = Duration::from_millis(1);
        let (normal, low) = (TaskSpec::PRIORITY_NORMAL, TaskSpec::PRIORITY_LOW);
        match arm {
            Arm::Plain => {
                for id in 0..4 {
                    fabric.submit(task(id, "plain", 1 + id, normal)).await;
                    sim2.sleep(tick).await;
                }
            }
            // Six arrivals at a busy one-worker pool with a two-slot
            // queue: three are displaced, low priority first.
            Arm::Bounded => {
                for id in 10..16 {
                    let priority = if id % 2 == 0 { low } else { normal };
                    fabric.submit(task(id, "bounded", 5, priority)).await;
                    sim2.sleep(tick).await;
                }
            }
            // Five submissions under an in-flight cap of two: three
            // refused; once the two are done, one more is admitted.
            Arm::Capped => {
                for id in 20..25 {
                    fabric.submit(task(id, "capped", 5, normal)).await;
                    sim2.sleep(tick).await;
                }
                sim2.sleep(Duration::from_secs(30)).await;
                fabric.submit(task(25, "capped", 5, normal)).await;
            }
            // Warm the hedge estimate, straggle pool 0, submit the task
            // the hedge rescues on endpoint 1.
            Arm::Hedged => {
                for id in 30..33 {
                    fabric.submit(task(id, "hedged", 10, normal)).await;
                    sim2.sleep(tick).await;
                }
                sim2.sleep(Duration::from_secs(60)).await;
                chaos.pace[0].set(50.0);
                fabric.submit(task(33, "hedged", 10, normal)).await;
            }
        }
    });
    sim.run();
    let mut outcomes: Vec<Outcome> = res_rx
        .drain_now()
        .iter()
        .map(|r| {
            let kind = if r.is_shed() {
                "shed"
            } else if r.is_failed() {
                "failed"
            } else {
                "ok"
            };
            (r.id, kind, r.site, r.report.hedges, r.report.reroutes)
        })
        .collect();
    outcomes.sort();
    outcomes
}

/// Two fabrics that differ only in transit cost are the same fabric
/// when transit is free: each arm's script yields the same multiset of
/// outcomes from both executors.
#[test]
fn free_transports_yield_identical_outcomes() {
    let mut fnx = Vec::new();
    for arm in Arm::ALL {
        let (f, h) = (run_free_transport(true, arm), run_free_transport(false, arm));
        assert_eq!(f, h, "{arm:?}: FnX (left) and HTEX (right) disagree");
        fnx.extend(f);
    }
    // The script really entered the arms it is meant to compare.
    let count = |kind: &str| fnx.iter().filter(|o| o.1 == kind).count();
    assert_eq!(fnx.len(), 20, "one terminal outcome per submitted id: {fnx:?}");
    assert_eq!((count("shed"), count("failed")), (6, 0), "3 displaced + 3 refused: {fnx:?}");
    assert!(fnx.contains(&(33, "ok", SiteId(1), 1, 0)), "the hedge won on endpoint 1: {fnx:?}");
}

// --- Chaos-engine invariants -----------------------------------------------

/// Decodes one generated `(kind, a, b, c)` tuple into a scripted fault
/// targeting one of two endpoints/pools. The vendored proptest has no
/// enum strategies, so the mapping is done by hand — every tuple decodes
/// to a valid action, so the full generator space is exercised.
fn decode_action(kind: u64, a: u64, b: u64, c: u64) -> ChaosAction {
    let endpoint = (a % 2) as usize;
    let at = SimTime::from_secs(1 + b % 120);
    let duration = Duration::from_secs(1 + c % 60);
    match kind % 3 {
        0 => ChaosAction::Flap {
            endpoint,
            start: at,
            up: Dist::Uniform { lo: 1.0, hi: 2.0 + (c % 20) as f64 },
            down: Dist::Uniform { lo: 0.5, hi: 1.0 + (c % 10) as f64 },
            cycles: 1 + (c % 3) as u32,
        },
        1 => ChaosAction::Kill { endpoint, at },
        _ => ChaosAction::Straggle { pool: endpoint, at, duration, factor: 2.0 + (c % 3) as f64 },
    }
}

/// Runs `n_tasks` through a two-endpoint FnX fabric (breaker, failover,
/// and the hard deadline backstop) with the chaos script installed, and
/// returns the results plus the trace digest.
fn run_chaos(actions: &[ChaosAction], seed: u64, n_tasks: u64) -> (Vec<hetflow_fabric::TaskResult>, u64) {
    let sim = Sim::new();
    let tracer = Tracer::enabled();
    let (res_tx, res_rx): (_, Receiver<hetflow_fabric::TaskResult>) = channel();
    let policies = ReliabilityPolicies {
        default: ReliabilityPolicy {
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_for: Duration::from_secs(30),
                close_after: 1,
                offline_grace: Duration::from_secs(5),
                latency_slo: Duration::ZERO,
            },
            max_reroutes: 1,
            // Hard backstop: whatever the script does, every task id
            // reaches a terminal outcome by submit + 300 s.
            deadline: Duration::from_secs(300),
            ..Default::default()
        },
    };
    let exec = FnXExecutor::with_reliability(
        &sim,
        FnXParams::default(),
        vec![
            EndpointSpec::reliable(WorkerPoolConfig::bare(SiteId(0), "a", 2), vec!["noop"]),
            EndpointSpec::reliable(WorkerPoolConfig::bare(SiteId(1), "b", 2), vec!["noop"]),
        ],
        res_tx,
        SimRng::from_seed(seed),
        tracer.clone(),
        policies,
    );
    ChaosSpec::new(actions.to_vec()).install(&sim, seed, &exec.chaos_targets());
    let f = Rc::new(exec);
    let sim2 = sim.clone();
    sim.spawn(async move {
        for id in 0..n_tasks {
            f.submit(mk_task(id, 10, 2_000)).await;
            sim2.sleep(hetflow_sim::time::secs(10.0)).await;
        }
    });
    sim.run();
    (res_rx.drain_now(), tracer.digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under an arbitrary chaos script, every submitted task id reaches
    /// exactly one terminal outcome — killed sites, flapping links, and
    /// stragglers may fail or reroute tasks, but never lose or duplicate
    /// them.
    #[test]
    fn chaos_never_loses_or_duplicates_tasks(
        raw in prop::collection::vec((0u64..3, 0u64..1_000, 0u64..1_000, 0u64..1_000), 1..6),
        seed in 0u64..1_000,
    ) {
        let actions: Vec<ChaosAction> =
            raw.iter().map(|&(k, a, b, c)| decode_action(k, a, b, c)).collect();
        let n = 8u64;
        let (results, _) = run_chaos(&actions, seed, n);
        prop_assert_eq!(results.len() as u64, n, "one terminal outcome per task");
        let mut ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, n, "no duplicate terminal outcomes");
    }

    /// The chaos engine is replayable: the same (script, seed) pair
    /// produces byte-identical traces.
    #[test]
    fn chaos_same_seed_same_digest(
        raw in prop::collection::vec((0u64..3, 0u64..1_000, 0u64..1_000, 0u64..1_000), 1..6),
        seed in 0u64..1_000,
    ) {
        let actions: Vec<ChaosAction> =
            raw.iter().map(|&(k, a, b, c)| decode_action(k, a, b, c)).collect();
        let (r1, d1) = run_chaos(&actions, seed, 6);
        let (r2, d2) = run_chaos(&actions, seed, 6);
        prop_assert_eq!(d1, d2, "same seed must replay the same trace");
        prop_assert_eq!(r1.len(), r2.len());
    }
}

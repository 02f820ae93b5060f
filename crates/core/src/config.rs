//! The three workflow-system configurations of §V-B, ready to deploy.
//!
//! 1. **Parsl** — direct connections, no pass-by-reference: all task
//!    data rides the control plane.
//! 2. **Parsl+Redis** — direct connections, ProxyStore with a Redis
//!    server (tunnel-reachable from Venti) for cross-site data and the
//!    shared file system for local data.
//! 3. **FnX+Globus** — cloud-managed FaaS for task instructions,
//!    ProxyStore with Globus for cross-site data and the file system
//!    for local data. No open ports at the resources.

use crate::calibration::Calibration;
use crate::platform::{all_topics, CPU_TOPICS, GPU_TOPICS, THETA, VENTI};
use hetflow_fabric::{
    ChaosTargets, Dispatcher, EndpointSpec, Fabric, FnXExecutor, HtexEndpoint, HtexExecutor,
    ReliabilityLayer, TaskResult, WorkerPool, WorkerPoolConfig,
};
use hetflow_steer::{ClientQueues, QueueConfig, TaskServer};
use hetflow_store::{
    Backend, GlobusBackend, GlobusService, ProxyPolicy, Store,
};
use hetflow_sim::{channel, Receiver, Sim, SimRng, Tracer};
use std::rc::Rc;

/// Default auto-proxy threshold in bytes (§V-F: transmit data between
/// sites directly for data larger than 10 kB).
const PROXY_THRESHOLD: u64 = 10_000;

/// Which workflow stack to deploy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkflowConfig {
    /// Parsl baseline, no ProxyStore.
    Parsl,
    /// Parsl with Redis/file-system ProxyStore.
    ParslRedis,
    /// FnX with Globus/file-system ProxyStore.
    FnXGlobus,
}

impl WorkflowConfig {
    /// Label used in reports, matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            WorkflowConfig::Parsl => "parsl",
            WorkflowConfig::ParslRedis => "parsl+redis",
            WorkflowConfig::FnXGlobus => "fnx+globus",
        }
    }

    /// All three configurations, in the paper's order.
    pub fn all() -> [WorkflowConfig; 3] {
        [WorkflowConfig::Parsl, WorkflowConfig::ParslRedis, WorkflowConfig::FnXGlobus]
    }

    /// True when this configuration requires open ports / tunnels at
    /// the resources (the deployment burden §IV removes).
    pub fn needs_open_ports(self) -> bool {
        !matches!(self, WorkflowConfig::FnXGlobus)
    }
}

/// Sizing and tuning of a deployment.
#[derive(Clone)]
pub struct DeploymentSpec {
    /// KNL simulation workers (paper: 8).
    pub cpu_workers: usize,
    /// T4 GPU workers (paper: 20).
    pub gpu_workers: usize,
    /// Auto-proxy threshold override; `None` uses the default
    /// (10 kB). `Some(0)` proxies everything (the Fig. 3 setting).
    pub proxy_threshold: Option<u64>,
    /// Cost-model constants.
    pub calibration: Calibration,
    /// Master seed for all stochastic cost models.
    pub seed: u64,
    /// Worker failure injection (`None` = reliable workers).
    pub failure: Option<hetflow_fabric::FailureModel>,
    /// Per-topic retry/timeout/backoff policies governing how failures
    /// and delivery stalls are handled.
    pub retry: hetflow_fabric::RetryPolicies,
    /// The fabric's circuit-breaker / hedging / failover policy. The
    /// all-zero default disables every mechanism.
    pub reliability: hetflow_fabric::ReliabilityPolicies,
    /// Extra CPU endpoints registered as failover targets behind the
    /// primary Theta endpoint (FnX configuration only). Each gets a
    /// small pool (`cpu_workers` slots) labelled `theta-f{i}`.
    pub cpu_failover_sites: usize,
    /// Bound on the Theta pool's pending-task queue, enforced at
    /// delivery time with [`DeploymentSpec::overflow`]. `0` keeps the
    /// queue unbounded (the zero-value defer). The Venti queue is
    /// always unbounded.
    pub cpu_queue_capacity: usize,
    /// What a delivery does when it finds the Theta queue full.
    /// Irrelevant while `cpu_queue_capacity` is `0`.
    pub overflow: hetflow_sim::OverflowPolicy,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec {
            cpu_workers: 8,
            gpu_workers: 20,
            proxy_threshold: None,
            calibration: Calibration::default(),
            seed: 42,
            failure: None,
            retry: hetflow_fabric::RetryPolicies::default(),
            reliability: hetflow_fabric::ReliabilityPolicies::default(),
            cpu_failover_sites: 0,
            cpu_queue_capacity: 0,
            overflow: hetflow_sim::OverflowPolicy::default(),
        }
    }
}

/// A wired-up workflow deployment.
pub struct Deployment {
    /// Thinker-side queue handle.
    pub queues: ClientQueues,
    /// The Theta KNL worker pool.
    pub cpu_pool: WorkerPool,
    /// The Venti GPU worker pool.
    pub gpu_pool: WorkerPool,
    /// The local (file-system) store, when ProxyStore is enabled.
    pub local_store: Option<Store>,
    /// The cross-site store (Redis or Globus), when enabled.
    pub remote_store: Option<Store>,
    /// The fabric's reliability layer: breaker state and hedge/reroute
    /// counters.
    pub health: ReliabilityLayer,
    /// Chaos-engine dials for every endpoint/pool in this deployment —
    /// hand these to [`hetflow_fabric::ChaosSpec::install`]. Every
    /// outage is scripted here: an FnX endpoint's connection (CPU,
    /// GPU, then failover sites) starts online and only a chaos script
    /// takes it down. HTEX links have no connection state.
    pub chaos: ChaosTargets,
    /// Failover CPU pools (`cpu_failover_sites` of them), in order.
    pub failover_pools: Vec<WorkerPool>,
    /// The tracer the deployment was wired with: every fabric, pool and
    /// steering actor emits into it, so its digest covers the whole run.
    pub tracer: Tracer,
    /// Which configuration was deployed.
    pub config: WorkflowConfig,
    /// The simulation the deployment's actors run on.
    sim: Sim,
}

/// Dropping a deployment ends its simulation: every actor still parked
/// on it is dropped ([`Sim::teardown`]), and with them the cycle through
/// the `Sim` that would otherwise keep the stores, queues and payloads
/// alive. Drop the deployment when the run is over, not before.
impl Drop for Deployment {
    fn drop(&mut self) {
        self.sim.teardown();
    }
}

/// The handles a deployment keeps of either executor: the type-erased
/// fabric, its pools in endpoint order, the reliability layer and the
/// chaos targets.
fn handles<F: 'static>(
    exec: Dispatcher<F>,
) -> (Rc<dyn Fabric>, Vec<WorkerPool>, ReliabilityLayer, ChaosTargets) {
    let (pools, health, chaos) = (exec.pools().to_vec(), exec.health(), exec.chaos_targets());
    (Rc::new(exec), pools, health, chaos)
}

/// Builds and wires a complete deployment on `sim`.
pub fn deploy(
    sim: &Sim,
    config: WorkflowConfig,
    spec: &DeploymentSpec,
    tracer: Tracer,
) -> Deployment {
    let cal = &spec.calibration;
    let rng = SimRng::stream(spec.seed, "deployment");
    let threshold = spec.proxy_threshold.unwrap_or(PROXY_THRESHOLD);

    // --- Stores and the auto-proxy policy -------------------------------
    let mut local_store = None;
    let mut remote_store = None;
    let policy = match config {
        WorkflowConfig::Parsl => ProxyPolicy::disabled(),
        WorkflowConfig::ParslRedis | WorkflowConfig::FnXGlobus => {
            let fs = Store::new(
                sim.clone(),
                "fs-theta",
                Backend::Fs(cal.fs_theta.clone()),
                rng.substream(1),
            );
            let remote = match config {
                WorkflowConfig::ParslRedis => Store::new(
                    sim.clone(),
                    "redis-theta",
                    Backend::Redis(cal.redis.clone()),
                    rng.substream(2),
                ),
                WorkflowConfig::FnXGlobus => {
                    let service =
                        GlobusService::new(sim.clone(), cal.globus.clone(), rng.substream(3));
                    Store::new(
                        sim.clone(),
                        "globus",
                        Backend::Globus(Box::new(GlobusBackend {
                            service,
                            src_fs: cal.fs_theta.clone(),
                            dst_fs: cal.fs_venti.clone(),
                            push_to: vec![THETA, VENTI],
                        })),
                        rng.substream(4),
                    )
                }
                WorkflowConfig::Parsl => unreachable!(),
            };
            // Local tasks use the file system; cross-site tasks use the
            // remote store (§V-B).
            let mut policy = ProxyPolicy::default();
            for &topic in CPU_TOPICS {
                policy = policy.with_topic(topic, fs.clone(), threshold);
            }
            for &topic in GPU_TOPICS {
                policy = policy.with_topic(topic, remote.clone(), threshold);
            }
            local_store = Some(fs);
            remote_store = Some(remote);
            policy
        }
    };

    // --- Worker pools ----------------------------------------------------
    let cpu_pool_config = WorkerPoolConfig {
        site: THETA,
        label: "theta".into(),
        workers: spec.cpu_workers,
        result_policy: policy.clone(),
        ser: cal.ser.clone(),
        local_hop: cal.worker_hop.clone(),
        failure: spec.failure.clone(),
        retry: spec.retry.clone(),
        queue_capacity: spec.cpu_queue_capacity,
        overflow: spec.overflow,
    };
    let gpu_pool_config = WorkerPoolConfig {
        site: VENTI,
        label: "venti".into(),
        workers: spec.gpu_workers,
        queue_capacity: 0,
        ..cpu_pool_config.clone()
    };

    // --- Fabric ------------------------------------------------------------
    let (results_tx, results_rx): (_, Receiver<TaskResult>) = channel();
    let (fabric, pools, health, mut chaos) = match config {
        WorkflowConfig::Parsl | WorkflowConfig::ParslRedis => {
            handles(HtexExecutor::with_reliability(
                sim,
                cal.htex.clone(),
                vec![
                    HtexEndpoint {
                        pool: cpu_pool_config,
                        topics: CPU_TOPICS.to_vec(),
                        link: cal.link_theta.clone(),
                    },
                    HtexEndpoint {
                        pool: gpu_pool_config,
                        topics: GPU_TOPICS.to_vec(),
                        link: cal.link_venti.clone(),
                    },
                ],
                results_tx,
                rng.substream(5),
                tracer.clone(),
                spec.reliability.clone(),
            ))
        }
        WorkflowConfig::FnXGlobus => {
            let mut endpoints = vec![
                EndpointSpec::reliable(cpu_pool_config.clone(), CPU_TOPICS.to_vec()),
                EndpointSpec::reliable(gpu_pool_config, GPU_TOPICS.to_vec()),
            ];
            // Failover CPU endpoints: registered after the primary, so
            // the reliability layer only routes to them when the
            // primary's breaker is open (or a reroute/hedge fires).
            for i in 0..spec.cpu_failover_sites {
                let label = format!("theta-f{i}");
                let pool = WorkerPoolConfig { label, ..cpu_pool_config.clone() };
                endpoints.push(EndpointSpec::reliable(pool, CPU_TOPICS.to_vec()));
            }
            handles(FnXExecutor::with_reliability(
                sim,
                cal.fnx.clone(),
                endpoints,
                results_tx,
                rng.substream(5),
                tracer.clone(),
                spec.reliability.clone(),
            ))
        }
    };
    // Endpoints register CPU, GPU, then any failover CPU sites.
    let (cpu_pool, gpu_pool, failover_pools) =
        (pools[0].clone(), pools[1].clone(), pools[2..].to_vec());

    // --- Task server + thinker queues -----------------------------------
    // Chaos task storms submit straight through the fabric handle —
    // wired here because only the deployment owns the `Rc<dyn Fabric>`.
    chaos.storm = Some(Rc::clone(&fabric));
    let queues = TaskServer::start(
        sim,
        QueueConfig {
            thinker_site: THETA,
            queue: cal.queue.clone(),
            ser: cal.ser.clone(),
            policy,
        },
        fabric,
        results_rx,
        &all_topics(),
        rng.substream(6),
        tracer.clone(),
    );

    Deployment {
        queues,
        cpu_pool,
        gpu_pool,
        local_store,
        remote_store,
        health,
        chaos,
        failover_pools,
        tracer,
        config,
        sim: sim.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_fabric::TaskWork;
    use hetflow_steer::Payload;
    use hetflow_store::bytes::{KB, MB};
    use std::time::Duration;

    fn noop_fn() -> hetflow_fabric::TaskFn {
        Rc::new(|_ctx| TaskWork::noop())
    }

    fn small_spec() -> DeploymentSpec {
        DeploymentSpec { cpu_workers: 2, gpu_workers: 2, ..Default::default() }
    }

    #[test]
    fn all_configs_run_cpu_and_gpu_tasks() {
        for config in WorkflowConfig::all() {
            let sim = Sim::new();
            let d = deploy(&sim, config, &small_spec(), Tracer::disabled());
            let q = d.queues.clone();
            let h = sim.spawn(async move {
                q.submit("simulate", vec![Payload::new(7u32, MB)], Rc::new(|ctx| {
                    TaskWork::new(*ctx.input::<u32>(0) * 2, 100 * KB, Duration::from_secs(60))
                }))
                .await;
                q.submit("train", vec![Payload::new(1u8, 21 * MB)], Rc::new(|_| {
                    TaskWork::new((), 21 * MB, Duration::from_secs(240))
                }))
                .await;
                let a = q.get_result("simulate").await.unwrap().resolve().await;
                let b = q.get_result("train").await.unwrap().resolve().await;
                (*a.value::<u32>(), a.record.site, b.record.site)
            });
            let (val, sim_site, train_site) = sim.block_on(h);
            assert_eq!(val, 14, "{}: value flows", config.label());
            assert_eq!(sim_site, THETA, "{}: simulate on Theta", config.label());
            assert_eq!(train_site, VENTI, "{}: train on Venti", config.label());
        }
    }

    #[test]
    fn fnx_globus_proxies_cross_site_data() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::FnXGlobus, &small_spec(), Tracer::disabled());
        let q = d.queues.clone();
        sim.spawn(async move {
            q.submit("train", vec![Payload::new((), 21 * MB)], noop_fn()).await;
            q.get_result("train").await.unwrap().resolve().await;
        });
        sim.run();
        let remote = d.remote_store.as_ref().unwrap();
        assert!(remote.stats().puts >= 1, "training payload must go through Globus store");
        assert!(remote.stats().remote_waits >= 1, "Venti waits on the Globus push");
    }

    #[test]
    fn parsl_redis_uses_fs_for_local_and_redis_for_remote() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::ParslRedis, &small_spec(), Tracer::disabled());
        let q = d.queues.clone();
        sim.spawn(async move {
            q.submit("simulate", vec![Payload::new((), MB)], noop_fn()).await;
            q.submit("train", vec![Payload::new((), MB)], noop_fn()).await;
            q.get_result("simulate").await.unwrap().resolve().await;
            q.get_result("train").await.unwrap().resolve().await;
        });
        sim.run();
        assert!(d.local_store.as_ref().unwrap().stats().puts >= 1, "simulate -> fs");
        assert!(d.remote_store.as_ref().unwrap().stats().puts >= 1, "train -> redis");
    }

    #[test]
    fn parsl_baseline_moves_data_inline() {
        let sim = Sim::new();
        let d = deploy(&sim, WorkflowConfig::Parsl, &small_spec(), Tracer::disabled());
        assert!(d.local_store.is_none());
        assert!(d.remote_store.is_none());
        let q = d.queues.clone();
        let h = sim.spawn(async move {
            q.submit("train", vec![Payload::new(vec![1u8; 4], 50 * MB)], Rc::new(|ctx| {
                let v = ctx.input::<Vec<u8>>(0);
                TaskWork::new(v.len(), 100, Duration::ZERO)
            }))
            .await;
            let r = q.get_result("train").await.unwrap().resolve().await;
            *r.value::<usize>()
        });
        assert_eq!(sim.block_on(h), 4, "50MB payload rides the direct links");
    }

    #[test]
    fn config_labels_and_ports() {
        assert_eq!(WorkflowConfig::Parsl.label(), "parsl");
        assert_eq!(WorkflowConfig::ParslRedis.label(), "parsl+redis");
        assert_eq!(WorkflowConfig::FnXGlobus.label(), "fnx+globus");
        assert!(WorkflowConfig::Parsl.needs_open_ports());
        assert!(WorkflowConfig::ParslRedis.needs_open_ports());
        assert!(!WorkflowConfig::FnXGlobus.needs_open_ports());
    }

    #[test]
    fn deployment_is_deterministic() {
        let run = || {
            let sim = Sim::new();
            let d = deploy(&sim, WorkflowConfig::FnXGlobus, &small_spec(), Tracer::disabled());
            let q = d.queues.clone();
            let h = sim.spawn(async move {
                for i in 0..5 {
                    q.submit("simulate", vec![Payload::new(i, MB)], noop_fn()).await;
                }
                let mut lifetimes = Vec::new();
                for _ in 0..5 {
                    let r = q.get_result("simulate").await.unwrap().resolve().await;
                    lifetimes.push(r.record.timing.lifetime().unwrap());
                }
                lifetimes
            });
            sim.block_on(h)
        };
        assert_eq!(run(), run());
    }
}

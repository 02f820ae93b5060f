//! # hetflow-bench — experiment harnesses
//!
//! The paper's figures as [`figures`], which `make_figures` runs in
//! paper order, the seed-level statistics of [`stats`], and the
//! synthetic no-op pipeline they and hetbench share. The builders here
//! are deliberately more flexible than [`hetflow_core::deploy`]: the
//! synthetic experiments of §V-C place the thinker at different sites
//! and pin single backends, which the production configurations never
//! do.

pub mod figures;
pub mod stats;

use hetflow_core::platform::{RCC, THETA};
use hetflow_core::Calibration;
use hetflow_fabric::{
    EndpointSpec, Fabric, FnXExecutor, HtexEndpoint, HtexExecutor, ReliabilityPolicies, TaskWork,
    WorkerPoolConfig,
};
use hetflow_steer::{Breakdown, ClientQueues, Payload, QueueConfig, TaskServer};
use hetflow_store::{Backend, GlobusBackend, GlobusService, ProxyPolicy, SiteId, Store};
use hetflow_sim::{channel, Sim, SimRng, Tracer};
use std::rc::Rc;

/// Which compute fabric a synthetic pipeline uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricKind {
    /// Cloud-managed FaaS (FuncX model).
    FnX,
    /// Direct-connection executor (Parsl HTEX model).
    Htex,
}

/// Which ProxyStore backend a synthetic pipeline proxies through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// No proxying: payloads ride the control plane.
    None,
    /// Redis-model store on the Theta login node.
    Redis,
    /// Shared-file-system store.
    Fs,
    /// Globus-model store between the thinker's site and Theta.
    Globus,
}

impl StoreKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            StoreKind::None => "no-proxy",
            StoreKind::Redis => "redis",
            StoreKind::Fs => "fs",
            StoreKind::Globus => "globus",
        }
    }
}

/// Configuration of a synthetic no-op pipeline (§V-C).
#[derive(Clone)]
pub struct NoopPipeline {
    /// Compute fabric.
    pub fabric: FabricKind,
    /// Proxy backend ([`StoreKind::None`] disables proxying).
    pub store: StoreKind,
    /// Auto-proxy threshold in bytes (0 = proxy everything, the Fig. 3
    /// setting).
    pub threshold: u64,
    /// Where the thinker and task server live (Fig. 4 places them at
    /// RCC for the Globus backend).
    pub thinker_site: SiteId,
    /// Number of workers on the Theta endpoint.
    pub workers: usize,
    /// Cost-model constants.
    pub calibration: Calibration,
    /// Master seed.
    pub seed: u64,
}

impl NoopPipeline {
    /// The §V-C1 setup: thinker and server on the Theta login node, one
    /// KNL worker.
    pub fn fig3(store: StoreKind) -> Self {
        NoopPipeline {
            fabric: FabricKind::FnX,
            store,
            threshold: 0,
            thinker_site: THETA,
            workers: 1,
            calibration: Calibration::default(),
            seed: 1234,
        }
    }

    /// The §V-C2 setup: the Globus variant moves the thinker to RCC.
    pub fn fig4(store: StoreKind) -> Self {
        let thinker_site = if store == StoreKind::Globus { RCC } else { THETA };
        NoopPipeline { thinker_site, ..NoopPipeline::fig3(store) }
    }

    /// Builds the pipeline on `sim` and returns the thinker handle.
    pub fn build(&self, sim: &Sim) -> ClientQueues {
        let cal = &self.calibration;
        let rng = SimRng::stream(self.seed, "noop-pipeline");

        let backend = match self.store {
            StoreKind::None => None,
            StoreKind::Redis => Some(Backend::Redis(cal.redis.clone())),
            StoreKind::Fs => Some(Backend::Fs(cal.fs_theta.clone())),
            StoreKind::Globus => Some(Backend::Globus(Box::new(GlobusBackend {
                service: GlobusService::new(sim.clone(), cal.globus.clone(), rng.substream(2)),
                src_fs: cal.fs_for(self.thinker_site),
                dst_fs: cal.fs_theta.clone(),
                push_to: vec![self.thinker_site, THETA],
            }))),
        };
        let policy = match backend {
            None => ProxyPolicy::disabled(),
            Some(backend) => {
                let store = Store::new(sim.clone(), self.store.label(), backend, rng.substream(1));
                ProxyPolicy::uniform(store, self.threshold)
            }
        };

        let pool = WorkerPoolConfig {
            site: THETA,
            label: "theta".into(),
            workers: self.workers,
            result_policy: policy.clone(),
            ser: cal.ser.clone(),
            local_hop: cal.worker_hop.clone(),
            failure: None,
            retry: hetflow_fabric::RetryPolicies::default(),
            queue_capacity: 0,
            overflow: hetflow_sim::OverflowPolicy::default(),
        };

        let (results_tx, results_rx) = channel();
        let fabric: Rc<dyn Fabric> = match self.fabric {
            FabricKind::FnX => Rc::new(FnXExecutor::with_reliability(
                sim,
                cal.fnx.clone(),
                vec![EndpointSpec::reliable(pool, vec!["noop"])],
                results_tx,
                rng.substream(3),
                Tracer::disabled(),
                ReliabilityPolicies::default(),
            )),
            FabricKind::Htex => Rc::new(HtexExecutor::with_reliability(
                sim,
                cal.htex.clone(),
                vec![HtexEndpoint {
                    pool,
                    topics: vec!["noop"],
                    link: cal.link_theta.clone(),
                }],
                results_tx,
                rng.substream(3),
                Tracer::disabled(),
                ReliabilityPolicies::default(),
            )),
        };

        TaskServer::start(
            sim,
            QueueConfig {
                thinker_site: self.thinker_site,
                queue: cal.queue.clone(),
                ser: cal.ser.clone(),
                policy,
            },
            fabric,
            results_rx,
            &["noop"],
            rng.substream(4),
            Tracer::disabled(),
        )
    }

    /// Runs `n_tasks` no-op tasks with `size`-byte inputs and returns
    /// the latency breakdown (§V-C runs 50 tasks per cell).
    pub fn run(&self, size: u64, n_tasks: usize) -> Breakdown {
        let sim = Sim::new();
        let queues = self.build(&sim);
        let q = queues.clone();
        let driver = sim.spawn(async move {
            // Hoisted out of the loop: the topic symbol, the compute
            // closure, and the placeholder payload value are shared by
            // every task instead of re-created per submission.
            let topic = hetflow_sim::Symbol::intern("noop");
            let compute: hetflow_fabric::TaskFn = Rc::new(|_| TaskWork::noop());
            let unit: Rc<dyn std::any::Any> = Rc::new(());
            for _ in 0..n_tasks {
                q.submit(
                    topic,
                    [Payload::shared(Rc::clone(&unit), size)],
                    Rc::clone(&compute),
                )
                .await;
                // Sequential, as in the paper's synthetic experiment: one
                // task in flight at a time isolates per-task costs.
                #[expect(
                    clippy::expect_used,
                    reason = "`q` keeps the result channel open for the whole loop, so the \
                              submitted task's result always arrives"
                )]
                let done = q.get_result(topic).await.expect("result");
                done.resolve().await;
            }
        });
        sim.block_on(driver);
        Breakdown::of(&queues.records(), Some("noop"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_pipelines_run() {
        for store in [StoreKind::None, StoreKind::Fs, StoreKind::Redis] {
            let b = NoopPipeline::fig3(store).run(10_000, 5);
            assert_eq!(b.count, 5, "{}", store.label());
            assert!(b.lifetime.median() > 0.0);
        }
    }

    #[test]
    fn fig3_proxy_beats_no_proxy_at_1mb() {
        let no_proxy = NoopPipeline::fig3(StoreKind::None).run(1_000_000, 10);
        let redis = NoopPipeline::fig3(StoreKind::Redis).run(1_000_000, 10);
        let ratio = no_proxy.server_to_worker.median() / redis.server_to_worker.median();
        assert!(ratio > 5.0, "server->worker speedup {ratio:.1} (paper: up to 10x)");
    }

    #[test]
    fn fig4_globus_pipeline_crosses_sites() {
        let b = NoopPipeline::fig4(StoreKind::Globus).run(1_000_000, 5);
        assert_eq!(b.count, 5);
        // Worker time includes waiting for the Globus transfer: seconds.
        assert!(b.time_on_worker.mean() > 0.5, "{}", b.time_on_worker.mean());
    }
}

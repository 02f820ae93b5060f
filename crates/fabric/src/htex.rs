//! HTEX — the direct-connection executor baseline (the paper's Parsl
//! HighThroughputExecutor, §V-B).
//!
//! An *interchange* process co-located with the task server forwards
//! tasks over direct TCP links to per-resource managers, which hand them
//! to workers. This requires two open ports (or a tunnel) per resource —
//! the deployment burden the cloud-managed approach removes — but moves
//! payloads at LAN/tunnel bandwidth instead of through cloud storage
//! tiers.
//!
//! Without ProxyStore, large task data rides these links and is
//! re-serialized at each hop; the per-byte cost below is the *effective*
//! aggregate (pickle passes + ZMQ copies), calibrated so a 3 MB payload
//! costs ~hundreds of ms end-to-end (Fig. 7b) while multi-GB inference
//! payloads remain feasible, merely slow (Fig. 6).
//!
//! This file declares the interchange's hop tables; routing, reliability
//! and overload handling are the shared [`crate::Dispatcher`] core.

use crate::dispatch::{Dispatcher, Hop, Wire};
use crate::health::ReliabilityPolicies;
use crate::task::TaskResult;
use crate::worker::WorkerPoolConfig;
use hetflow_sim::{Dist, Link, Sender, Sim, SimRng, Tracer};

/// Tunables of the interchange.
#[derive(Clone, Debug)]
pub struct HtexParams {
    /// Client→interchange hop (same login node), at the interchange's
    /// serialization throughput.
    pub submit: Link,
}

impl Default for HtexParams {
    fn default() -> Self {
        HtexParams { submit: Link { latency: Dist::log_normal(0.002, 0.3), bandwidth: 1.0e8 } }
    }
}

/// One resource behind the interchange.
pub struct HtexEndpoint {
    /// The pool this manager feeds.
    pub pool: WorkerPoolConfig,
    /// Task topics executed here.
    pub topics: Vec<&'static str>,
    /// The link from the interchange to this manager: per-message
    /// latency (TCP + framing) and effective throughput, including the
    /// pickle passes at interchange and manager.
    pub link: Link,
}

/// Names the interchange fabric. Its wire is one direct link per
/// manager: no cloud service, no payload cap and no connection state.
pub enum Htex {}

/// The HTEX executor.
pub type HtexExecutor = Dispatcher<Htex>;

impl HtexExecutor {
    /// Builds the executor, spawning one pool per endpoint, under
    /// `policies` (the default arms nothing); failover, breakers, hedges
    /// and reroutes behave exactly as under
    /// [`crate::FnXExecutor::with_reliability`] — it is the same code.
    pub fn with_reliability(
        sim: &Sim,
        params: HtexParams,
        endpoints: Vec<HtexEndpoint>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
        policies: ReliabilityPolicies,
    ) -> HtexExecutor {
        // Out: the link. In: the link, then the submit hop's latency
        // alone back to the client.
        let latency = params.submit.latency.clone();
        let reply = Hop::on(Link { latency, bandwidth: f64::INFINITY });
        let (hops, endpoints) = endpoints
            .into_iter()
            .map(|ep| {
                let legs = [vec![Hop::on(ep.link.clone())], vec![Hop::on(ep.link), reply.clone()]];
                (legs, (ep.pool, ep.topics))
            })
            .unzip();
        // The client pays the hop to the interchange plus the
        // interchange's serialization pass over the payload (a refused
        // call has none: the hop alone).
        let (submit, connectivity) = (params.submit, vec![]);
        let wire = Wire { label: "htex", payload_cap: u64::MAX, submit, hops, connectivity };
        Dispatcher::build(sim, wire, endpoints, results, rng, tracer, policies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::task::TaskSpec;
    use hetflow_sim::{channel, Receiver};
    use hetflow_store::SiteId;
    use std::rc::Rc;

    fn fixed_link(bw: f64) -> Link {
        Link { latency: Dist::Constant(0.005), bandwidth: bw }
    }

    fn setup(workers: usize, bw: f64) -> (Sim, HtexExecutor, Receiver<TaskResult>) {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = HtexExecutor::with_reliability(
            &sim,
            HtexParams { submit: Link { latency: Dist::Constant(0.002), bandwidth: 1.0e8 } },
            vec![HtexEndpoint {
                pool: WorkerPoolConfig::bare(SiteId(0), "theta", workers),
                topics: vec!["noop"],
                link: fixed_link(bw),
            }],
            res_tx,
            SimRng::from_seed(5),
            Tracer::disabled(),
            ReliabilityPolicies::default(),
        );
        (sim, exec, res_rx)
    }

    #[test]
    fn roundtrip_executes_task() {
        let (sim, exec, res_rx) = setup(1, 4.0e7);
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(3, 10_000)).await;
        });
        sim.run();
        let results = res_rx.drain_now();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 3);
        assert!(results[0].timing.server_result_received.is_some());
        assert_eq!(exec.submitted(), 1);
        assert_eq!(exec.returned(), 1);
    }

    #[test]
    fn direct_links_are_much_faster_than_cloud_for_payloads() {
        // The same 1 MB no-op through HTEX must beat the FnX cloud path
        // by a wide margin — this is why plain Parsl remains competitive
        // when payloads are small/medium (Fig. 3 discussion).
        let (sim, exec, res_rx) = setup(1, 4.0e7);
        let e = exec.clone();
        sim.spawn(async move {
            e.submit(TaskSpec::noop(0, 1_000_000)).await;
        });
        sim.run();
        let r = &res_rx.drain_now()[0];
        let span = r.timing.server_to_worker().unwrap().as_secs_f64();
        assert!(span < 0.1, "direct 1MB hop should be tens of ms, got {span}");
    }

    #[test]
    fn payload_cost_scales_with_link_bandwidth() {
        let span_with_bw = |bw: f64| {
            let (sim, exec, res_rx) = setup(1, bw);
            let e = exec.clone();
            sim.spawn(async move {
                e.submit(TaskSpec::noop(0, 10_000_000)).await;
            });
            sim.run();
            let r = &res_rx.drain_now()[0];
            r.timing.server_to_worker().unwrap().as_secs_f64()
        };
        let fast = span_with_bw(1.0e8);
        let slow = span_with_bw(1.0e7);
        assert!(slow > 5.0 * fast, "fast {fast}, slow {slow}");
    }

    #[test]
    fn submit_cost_grows_with_payload() {
        // Without pass-by-reference the interchange serializes the whole
        // payload before the client regains control.
        let (sim, exec, _res) = setup(1, 4.0e7);
        let s = sim.clone();
        let e = exec.clone();
        let h = sim.spawn(async move {
            let t0 = s.now();
            e.submit(TaskSpec::noop(0, 1_000)).await;
            let small = (s.now() - t0).as_secs_f64();
            let t1 = s.now();
            e.submit(TaskSpec::noop(1, 50_000_000)).await;
            let large = (s.now() - t1).as_secs_f64();
            (small, large)
        });
        let (small, large) = sim.block_on(h);
        assert!(small < 0.01);
        assert!(large > 0.4, "50MB at 100MB/s ≈ 0.5s, got {large}");
    }

    #[test]
    fn multiple_endpoints_route_by_topic() {
        let sim = Sim::new();
        let (res_tx, res_rx) = channel();
        let exec = HtexExecutor::with_reliability(
            &sim,
            HtexParams::default(),
            vec![
                HtexEndpoint {
                    pool: WorkerPoolConfig::bare(SiteId(0), "cpu", 2),
                    topics: vec!["simulate"],
                    link: fixed_link(4.0e7),
                },
                HtexEndpoint {
                    pool: WorkerPoolConfig::bare(SiteId(1), "gpu", 2),
                    topics: vec!["train", "infer"],
                    link: Link { latency: Dist::Constant(0.012), bandwidth: 2.5e7 },
                },
            ],
            res_tx,
            SimRng::from_seed(5),
            Tracer::disabled(),
            ReliabilityPolicies::default(),
        );
        let e = exec.clone();
        sim.spawn(async move {
            let mk = |id, topic: &str| {
                TaskSpec::new(id, topic, vec![], Rc::new(|_| crate::task::TaskWork::noop()))
            };
            e.submit(mk(0, "simulate")).await;
            e.submit(mk(1, "infer")).await;
        });
        sim.run();
        let mut results = res_rx.drain_now();
        results.sort_by_key(|r| r.id);
        assert_eq!(results[0].site, SiteId(0));
        assert_eq!(results[1].site, SiteId(1));
    }
}

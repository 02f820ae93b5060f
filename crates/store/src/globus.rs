//! Model of the Globus Transfer cloud service.
//!
//! Reproduces the behaviour the paper measures (§V-C2, §V-D1):
//!
//! * initiating a transfer is an HTTPS request to the cloud service and
//!   takes ~500 ms regardless of size;
//! * a transfer completes in ~1–5 s, dominated by data-transfer-node
//!   (DTN) service time, *not* bandwidth, up to ~100 MB;
//! * each user may run only a few transfers concurrently, so bursts of
//!   per-object transfers queue (the paper suggests fusing transfers to
//!   dodge this limit — modelled by [`GlobusParams::batch_window`]).

use crate::location::SiteId;
use hetflow_sim::{Dist, Event, Samples, Semaphore, Sim, SimRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// Tunables for the transfer-service model.
#[derive(Clone, Debug)]
pub struct GlobusParams {
    /// Latency of the HTTPS request that initiates a transfer
    /// (paper: "an HTTPS request to Globus that takes an average of
    /// ~500 ms", §V-D1).
    pub request_latency: Dist,
    /// DTN service time per transfer, independent of size
    /// (paper: "typically completes in 1–5 s", §V-D1).
    pub service_time: Dist,
    /// Effective wide-area bandwidth in bytes/s; only matters for very
    /// large payloads (the paper sees size-independence up to 100 MB).
    pub bandwidth: f64,
    /// Concurrent transfers allowed per user (paper: "concurrent
    /// transfer limits per user", §V-D1).
    pub concurrent_per_user: usize,
    /// When set, transfers submitted on the same route within this
    /// window are fused into a single transfer job (§V-D1's suggested
    /// optimization). `None` gives the paper's measured per-object
    /// behaviour.
    pub batch_window: Option<Duration>,
}

impl Default for GlobusParams {
    fn default() -> Self {
        GlobusParams {
            request_latency: Dist::log_normal(0.45, 0.35),
            service_time: Dist::log_normal(1.9, 0.45),
            bandwidth: 1.0e9,
            concurrent_per_user: 3,
            batch_window: None,
        }
    }
}

/// One queued or in-flight transfer.
struct Pending {
    size: u64,
    done: Event,
}

#[derive(Default)]
struct RouteQueue {
    pending: Vec<Pending>,
    dispatcher_active: bool,
}

struct ServiceInner {
    sim: Sim,
    params: GlobusParams,
    slots: Semaphore,
    rng: RefCell<SimRng>,
    routes: RefCell<BTreeMap<(SiteId, SiteId), RouteQueue>>,
    transfers_started: std::cell::Cell<u64>,
    transfer_jobs: std::cell::Cell<u64>,
    bytes_moved: std::cell::Cell<u64>,
    durations: RefCell<Samples>,
}

/// Handle to the shared transfer service.
#[derive(Clone)]
pub struct GlobusService {
    inner: Rc<ServiceInner>,
}

/// Ticket for a transfer in flight; await it with [`TransferTicket::wait`].
#[derive(Clone)]
pub struct TransferTicket {
    done: Event,
}

impl TransferTicket {
    /// Awaits transfer completion.
    pub async fn wait(&self) {
        self.done.wait().await;
    }

    /// True once the data has landed.
    pub(crate) fn is_done(&self) -> bool {
        self.done.is_set()
    }
}

impl GlobusService {
    /// Creates the service on `sim` with its own RNG stream.
    pub fn new(sim: Sim, params: GlobusParams, rng: SimRng) -> Self {
        let slots = Semaphore::new(params.concurrent_per_user.max(1));
        GlobusService {
            inner: Rc::new(ServiceInner {
                sim,
                params,
                slots,
                rng: RefCell::new(rng),
                routes: RefCell::new(BTreeMap::new()),
                transfers_started: std::cell::Cell::new(0),
                transfer_jobs: std::cell::Cell::new(0),
                bytes_moved: std::cell::Cell::new(0),
                durations: RefCell::new(Samples::new()),
            }),
        }
    }

    /// Initiates a transfer of `size` bytes from `src` to `dst`.
    ///
    /// The returned future resolves once the *request* has been accepted
    /// (the HTTPS round trip — this is the latency a producer pays when
    /// creating a Globus-backed proxy). The returned ticket completes when
    /// the data has fully landed at `dst`.
    pub async fn initiate(&self, size: u64, src: SiteId, dst: SiteId) -> TransferTicket {
        let inner = &self.inner;
        let req = inner.params.request_latency.sample_secs(&mut inner.rng.borrow_mut());
        inner.sim.sleep(req).await;
        inner.transfers_started.set(inner.transfers_started.get() + 1);

        let done = Event::new();
        let queued_at = inner.sim.now();
        let pending = Pending { size, done: done.clone() };

        match inner.params.batch_window {
            None => {
                // Independent transfer: one concurrency slot, one
                // service-time draw.
                let this = self.clone();
                inner.sim.spawn(async move {
                    this.run_job(vec![pending], queued_at).await;
                });
            }
            Some(window) => {
                let mut routes = inner.routes.borrow_mut();
                let route = routes.entry((src, dst)).or_default();
                route.pending.push(pending);
                if !route.dispatcher_active {
                    route.dispatcher_active = true;
                    drop(routes);
                    let this = self.clone();
                    inner.sim.spawn(async move {
                        this.inner.sim.sleep(window).await;
                        let batch = {
                            let mut routes = this.inner.routes.borrow_mut();
                            #[expect(
                                clippy::expect_used,
                                reason = "the dispatcher is spawned only after this route entry \
                                          is inserted, and entries are never removed; a miss is \
                                          bookkeeping corruption"
                            )]
                            let route = routes.get_mut(&(src, dst)).expect("route exists");
                            route.dispatcher_active = false;
                            std::mem::take(&mut route.pending)
                        };
                        let start = this.inner.sim.now();
                        this.run_job(batch, start).await;
                    });
                }
            }
        }
        TransferTicket { done }
    }

    /// Executes one transfer job (possibly a fused batch).
    async fn run_job(&self, batch: Vec<Pending>, queued_at: hetflow_sim::SimTime) {
        let inner = &self.inner;
        let _slot = inner.slots.acquire().await;
        let total: u64 = batch.iter().map(|p| p.size).sum();
        let service = inner.params.service_time.sample(&mut inner.rng.borrow_mut());
        let wire = total as f64 / inner.params.bandwidth;
        inner.sim.sleep(hetflow_sim::time::secs(service + wire)).await;
        inner.transfer_jobs.set(inner.transfer_jobs.get() + 1);
        inner.bytes_moved.set(inner.bytes_moved.get() + total);
        inner
            .durations
            .borrow_mut()
            .record((inner.sim.now() - queued_at).as_secs_f64());
        for p in batch {
            p.done.set();
        }
    }

    /// Total transfer requests accepted.
    pub fn transfers_started(&self) -> u64 {
        self.inner.transfers_started.get()
    }

    /// Transfer *jobs* executed (≤ requests when batching fuses them).
    pub fn transfer_jobs(&self) -> u64 {
        self.inner.transfer_jobs.get()
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.inner.bytes_moved.get()
    }

    /// Queue-to-completion durations of executed jobs, in seconds.
    pub fn durations(&self) -> Samples {
        self.inner.durations.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::bytes::MB;

    fn fixed_params() -> GlobusParams {
        GlobusParams {
            request_latency: Dist::Constant(0.5),
            service_time: Dist::Constant(2.0),
            bandwidth: 1.0e9,
            concurrent_per_user: 2,
            batch_window: None,
        }
    }

    fn setup(params: GlobusParams) -> (Sim, GlobusService) {
        let sim = Sim::new();
        let svc = GlobusService::new(sim.clone(), params, SimRng::from_seed(1));
        (sim, svc)
    }

    #[test]
    fn initiate_pays_request_latency_only() {
        let (sim, svc) = setup(fixed_params());
        let s = sim.clone();
        let h = sim.spawn(async move {
            let ticket = svc.initiate(MB, SiteId(0), SiteId(1)).await;
            (s.now().as_secs_f64(), ticket.is_done())
        });
        let (t, done) = sim.block_on(h);
        assert!((t - 0.5).abs() < 1e-9, "initiate returns after HTTPS RTT, got {t}");
        assert!(!done, "data must not have landed yet");
    }

    #[test]
    fn transfer_completes_after_service_time() {
        let (sim, svc) = setup(fixed_params());
        let s = sim.clone();
        let h = sim.spawn(async move {
            let ticket = svc.initiate(MB, SiteId(0), SiteId(1)).await;
            ticket.wait().await;
            s.now().as_secs_f64()
        });
        let t = sim.block_on(h);
        // 0.5 request + 2.0 service + 0.001 wire
        assert!((t - 2.501).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn transfer_time_roughly_size_independent() {
        // Paper Fig. 4: Globus times constant with input size up to 100 MB.
        let (sim, svc) = setup(fixed_params());
        let s = sim.clone();
        let h = sim.spawn(async move {
            let t0 = s.now();
            let a = svc.initiate(10 * crate::location::bytes::KB, SiteId(0), SiteId(1)).await;
            a.wait().await;
            let small = (s.now() - t0).as_secs_f64();
            let t1 = s.now();
            let b = svc.initiate(100 * MB, SiteId(0), SiteId(1)).await;
            b.wait().await;
            let large = (s.now() - t1).as_secs_f64();
            (small, large)
        });
        let (small, large) = sim.block_on(h);
        assert!((large - small) < 0.2, "size should barely matter: {small} vs {large}");
    }

    #[test]
    fn concurrency_limit_queues_transfers() {
        let (sim, svc) = setup(fixed_params()); // 2 concurrent
        let done_times: Rc<RefCell<Vec<f64>>> = Rc::default();
        for _ in 0..4 {
            let svc = svc.clone();
            let s = sim.clone();
            let times = Rc::clone(&done_times);
            sim.spawn(async move {
                let t = svc.initiate(MB, SiteId(0), SiteId(1)).await;
                t.wait().await;
                times.borrow_mut().push(s.now().as_secs_f64());
            });
        }
        sim.run();
        let times = done_times.borrow();
        assert_eq!(times.len(), 4);
        // First two finish ~2.5s, second two must wait a service period.
        assert!(times[0] < 3.0 && times[1] < 3.0);
        assert!(times[2] > 4.0 && times[3] > 4.0, "{times:?}");
    }

    #[test]
    fn batching_fuses_jobs() {
        let mut p = fixed_params();
        p.batch_window = Some(Duration::from_millis(100));
        let (sim, svc) = setup(p);
        for _ in 0..5 {
            let svc = svc.clone();
            sim.spawn(async move {
                let t = svc.initiate(MB, SiteId(0), SiteId(1)).await;
                t.wait().await;
            });
        }
        sim.run();
        assert_eq!(svc.transfers_started(), 5);
        assert_eq!(svc.transfer_jobs(), 1, "all five fused into one job");
        assert_eq!(svc.bytes_moved(), 5 * MB);
    }

    #[test]
    fn batching_separates_routes() {
        let mut p = fixed_params();
        p.batch_window = Some(Duration::from_millis(100));
        let (sim, svc) = setup(p);
        for dst in [SiteId(1), SiteId(2)] {
            let svc = svc.clone();
            sim.spawn(async move {
                let t = svc.initiate(MB, SiteId(0), dst).await;
                t.wait().await;
            });
        }
        sim.run();
        assert_eq!(svc.transfer_jobs(), 2, "different routes batch separately");
    }

    #[test]
    fn durations_recorded() {
        let (sim, svc) = setup(fixed_params());
        let svc2 = svc.clone();
        sim.spawn(async move {
            let t = svc2.initiate(MB, SiteId(0), SiteId(1)).await;
            t.wait().await;
        });
        sim.run();
        let d = svc.durations();
        assert_eq!(d.len(), 1);
        assert!((d.mean() - 2.001).abs() < 1e-6, "{}", d.mean());
    }
}

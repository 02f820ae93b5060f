//! Model of the Globus Transfer cloud service.
//!
//! Reproduces the behaviour the paper measures (§V-C2, §V-D1):
//!
//! * initiating a transfer is an HTTPS request to the cloud service and
//!   takes ~500 ms regardless of size;
//! * a transfer completes in ~1–5 s, dominated by data-transfer-node
//!   (DTN) service time, *not* bandwidth, up to ~100 MB;
//! * each user may run only a few transfers concurrently, so bursts of
//!   per-object transfers queue.

use hetflow_sim::{Dist, Event, Link, Semaphore, Sim, SimRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Tunables for the transfer-service model.
#[derive(Clone, Debug)]
pub struct GlobusParams {
    /// Latency of the HTTPS request that initiates a transfer
    /// (paper: "an HTTPS request to Globus that takes an average of
    /// ~500 ms", §V-D1).
    pub request_latency: Dist,
    /// One transfer: a DTN service time independent of size (paper:
    /// "typically completes in 1–5 s", §V-D1), plus the payload at the
    /// effective wide-area bandwidth, which only matters for very large
    /// payloads (the paper sees size-independence up to 100 MB).
    pub transfer: Link,
    /// Concurrent transfers allowed per user (paper: "concurrent
    /// transfer limits per user", §V-D1).
    pub concurrent_per_user: usize,
}

impl Default for GlobusParams {
    fn default() -> Self {
        GlobusParams {
            request_latency: Dist::log_normal(0.45, 0.35),
            transfer: Link { latency: Dist::log_normal(1.9, 0.45), bandwidth: 1.0e9 },
            concurrent_per_user: 3,
        }
    }
}

struct ServiceInner {
    sim: Sim,
    params: GlobusParams,
    slots: Semaphore,
    rng: RefCell<SimRng>,
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
        let (slots, rng) = (Semaphore::new(params.concurrent_per_user.max(1)), RefCell::new(rng));
        GlobusService { inner: Rc::new(ServiceInner { sim, params, slots, rng }) }
    }

    /// Initiates a transfer of `size` bytes.
    ///
    /// The returned future resolves once the *request* has been accepted
    /// (the HTTPS round trip — this is the latency a producer pays when
    /// creating a Globus-backed proxy). The returned ticket completes when
    /// the data has fully landed.
    pub async fn initiate(&self, size: u64) -> TransferTicket {
        let inner = &self.inner;
        let req = inner.params.request_latency.sample_secs(&mut inner.rng.borrow_mut());
        inner.sim.sleep(req).await;
        let done = Event::new();
        let (this, landed) = (self.clone(), done.clone());
        inner.sim.spawn(async move { this.run_job(size, landed).await });
        TransferTicket { done }
    }

    /// Executes one transfer: one concurrency slot, one draw.
    async fn run_job(&self, size: u64, landed: Event) {
        let inner = &self.inner;
        let _slot = inner.slots.acquire().await;
        let d = inner.params.transfer.cost(&mut inner.rng.borrow_mut(), size);
        inner.sim.sleep(d).await;
        landed.set();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::bytes::MB;

    fn fixed_params() -> GlobusParams {
        GlobusParams {
            request_latency: Dist::Constant(0.5),
            transfer: Link { latency: Dist::Constant(2.0), bandwidth: 1.0e9 },
            concurrent_per_user: 2,
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
            let ticket = svc.initiate(MB).await;
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
            let ticket = svc.initiate(MB).await;
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
            let a = svc.initiate(10 * crate::location::bytes::KB).await;
            a.wait().await;
            let small = (s.now() - t0).as_secs_f64();
            let t1 = s.now();
            let b = svc.initiate(100 * MB).await;
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
                let t = svc.initiate(MB).await;
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
}

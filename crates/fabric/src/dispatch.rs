//! The dispatch core shared by both fabrics.
//!
//! A [`Dispatcher`] owns everything about getting a task to a worker
//! pool and its one terminal result back that does *not* depend on how
//! bytes travel: topic routing, worker pools and their queue bounds,
//! admission and backpressure accounting, the [`ReliabilityLayer`]
//! wiring (breakers, hedges, reroutes), the per-topic deadline actors,
//! the delivery-timeout arm, the return-path actors and the counters.
//! What does is a [`Transport`]: FnX's cloud ([`crate::faas`]) and
//! HTEX's interchange links ([`crate::htex`]) each implement it once,
//! and the core never asks which one it is serving.

use crate::fabric::Fabric;
use crate::health::{ReliabilityLayer, ReliabilityPolicies, TimeoutVerdict, Verdict};
use crate::reliability::chaos::ChaosTargets;
use crate::reliability::overload::{AdmissionConfig, AdmissionController, BackpressureGate};
use crate::reliability::{Connectivity, Knob, RetryPolicies};
use crate::task::{TaskError, TaskId, TaskOutcome, TaskResult, TaskSpec, TaskTiming, WorkerReport};
use crate::worker::{WorkerPool, WorkerPoolConfig};
use hetflow_sim::{
    channel, trace_kinds as kinds, Offered, OverflowPolicy, Receiver, Sender, Sim, SimRng, SimTime,
    Sleep, Symbol, SymbolMap, Tracer,
};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

/// What every transport works with besides its own parameters: the
/// clock, the fabric's one transit-cost RNG stream, and the per-endpoint
/// link-brownout dials. The core makes it, the transport owns it.
pub struct Net {
    pub sim: Sim,
    pub rng: RefCell<SimRng>,
    pub brownout: Vec<Knob>,
}

/// How bytes travel between the task server and an endpoint — the only
/// thing the two fabrics disagree on. Sealed by living in a private
/// module: nothing outside the crate can name or implement it.
pub trait Transport: 'static {
    /// Fabric label, also the `"{label}/ep{i}"` trace-actor prefix.
    const LABEL: &'static str;
    /// Rejects (panics on) a submission the transport cannot carry.
    fn admit_payload(&self, _bytes: u64, _topic: Symbol) {}
    /// Client-side cost of submitting a payload of `bytes`. A submission
    /// refused by admission control pays it for an empty payload: the
    /// refusal comes back on the client's call, before any data moves.
    fn submit_cost(&self, bytes: u64) -> Duration;
    /// Moves a task of `bytes` from the server to `endpoint`'s pool.
    fn outbound(&self, endpoint: usize, bytes: u64) -> impl Future<Output = ()>;
    /// Moves a result of `bytes` from `endpoint` back to the server.
    fn inbound(&self, endpoint: usize, bytes: u64) -> impl Future<Output = ()>;
    /// Per-endpoint connection handles; none when links are direct.
    fn connectivity(&self) -> &[Connectivity] {
        &[]
    }
    /// The cloud-service degradation dial, when there is a cloud.
    fn cloud(&self) -> Option<&Knob> {
        None
    }
}

/// What the fabric keeps of a task it handed off: enough to mint a
/// terminal result for it without the worker's help.
#[derive(Clone, Copy)]
struct Stub {
    id: TaskId,
    topic: Symbol,
    input_bytes: u64,
    timing: TaskTiming,
}

impl Stub {
    fn of(task: &TaskSpec) -> Stub {
        let input_bytes = task.input_bytes();
        Stub { id: task.id, topic: task.topic, input_bytes, timing: task.timing }
    }
}

/// A task's round-trip deadline as its topic's deadline actor queues it:
/// when it falls due, the endpoint the task went to, and its stub.
type Due = (SimTime, usize, Stub);

struct Inner<T> {
    sim: Sim,
    transport: T,
    /// Pre-interned `"{label}/ep{i}"` trace actors, one per endpoint.
    actors: Vec<Symbol>,
    health: ReliabilityLayer,
    pools: Vec<WorkerPool>,
    retries: Vec<RetryPolicies>,
    /// Per-endpoint pool-queue bound and overflow policy (0 = unbounded).
    bounds: Vec<(usize, OverflowPolicy)>,
    /// Token-bucket/in-flight admission, consulted before the breaker
    /// layer. Only topics with an enabled config are in the map (beside
    /// their primary endpoint, which refused tasks are attributed to).
    admission: AdmissionController,
    admission_cfgs: SymbolMap<(AdmissionConfig, usize)>,
    /// Per-topic depth watermark gate; empty when none is configured.
    gate: BackpressureGate,
    /// Per-topic round-trip deadline and its deadline actor's queue;
    /// only topics with a deadline are in the map.
    deadlines: SymbolMap<(Duration, Sender<Due>)>,
    /// Chaos-engine handles: clones of the pools' and transport's dials.
    chaos: ChaosTargets,
    results: Sender<TaskResult>,
    tracer: Tracer,
    submitted: Cell<u64>,
    returned: Cell<u64>,
    timed_out: Cell<u64>,
}

impl<T> Inner<T> {
    /// Balances the overload accounting at a task's one terminal outcome:
    /// its in-fabric depth (maybe reopening the gate) and admission slot.
    fn release(&self, topic: Symbol) {
        self.gate.on_exit(topic);
        self.admission.on_done(topic);
    }

    /// Hands a task's one terminal result to the client: every outcome
    /// (delivered, shed, timed out) leaves the fabric through here.
    fn finish(&self, result: TaskResult) {
        self.returned.set(self.returned.get() + 1);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "teardown-tolerant: the campaign driver may have dropped the results receiver"
        )]
        let _ = self.results.send_now(result);
    }

    /// Finishes a task no worker will, in the task's own envelope (its
    /// output stays the empty placeholder), attributed to `endpoint`.
    fn abandon(
        &self,
        endpoint: usize,
        task: TaskSpec,
        input_bytes: u64,
        report: WorkerReport,
        outcome: TaskOutcome,
    ) {
        let mut result = task.into_result();
        result.input_bytes = input_bytes;
        result.report = report;
        result.timing.server_result_received = Some(self.sim.now());
        result.site = self.pools[endpoint].site();
        result.worker = self.actors[endpoint];
        result.outcome = outcome;
        self.finish(result);
    }

    /// Delivers the terminal [`TaskOutcome::Shed`] result for a task
    /// dropped by overload protection. `load` is the queue depth or
    /// in-flight count at the shed decision (the trace value). The
    /// caller balances the accounting: a victim displaced from a queue
    /// is `release`d afterwards, a task refused admission never entered.
    fn shed_result(&self, spec: TaskSpec, endpoint: usize, hedges: u32, reroutes: u32, load: f64) {
        self.tracer.emit(self.sim.now(), self.actors[endpoint], kinds::TASK_SHED, spec.id, load);
        let report = WorkerReport { hedges, reroutes, ..WorkerReport::default() };
        let input_bytes = spec.input_bytes();
        self.abandon(endpoint, spec, input_bytes, report, TaskOutcome::Shed);
    }

    /// Fails a task with [`TaskError::Timeout`] once nothing can still
    /// deliver it: its delivery timed out with no reroute left, or the
    /// round-trip deadline expired. The task's envelope is wherever its
    /// copies are stuck, so the result is minted in a fresh one — the
    /// only terminal outcome that allocates.
    fn timeout_result(&self, endpoint: usize, stub: Stub, after: Duration) {
        let actor = self.actors[endpoint];
        self.tracer.emit(self.sim.now(), actor, kinds::TASK_TIMEOUT, stub.id, after.as_secs_f64());
        self.release(stub.topic);
        self.timed_out.set(self.timed_out.get() + 1);
        let outcome = TaskOutcome::Failed(TaskError::Timeout { after });
        let task = TaskSpec::stand_in(stub.id, stub.topic, stub.timing);
        self.abandon(endpoint, task, stub.input_bytes, WorkerReport::default(), outcome);
    }
}

/// A fabric executor: the shared dispatch core over one `Transport`,
/// used as [`crate::FnXExecutor`] or [`crate::HtexExecutor`].
pub struct Dispatcher<T> {
    inner: Rc<Inner<T>>,
}

impl<T> Clone for Dispatcher<T> {
    fn clone(&self) -> Self {
        Dispatcher { inner: Rc::clone(&self.inner) }
    }
}

impl<T> Dispatcher<T> {
    /// Endpoint worker pools (for utilization metrics).
    pub fn pools(&self) -> &[WorkerPool] {
        &self.inner.pools
    }

    /// The reliability layer (breaker state, hedge/reroute counters).
    pub fn health(&self) -> ReliabilityLayer {
        self.inner.health.clone()
    }

    /// The chaos-engine handles: pool pace/crash dials, link brownout
    /// dials, and the transport's connectivity and cloud dial, if any. The
    /// storm target stays `None`: the deployment owns the `Rc<dyn Fabric>`.
    pub fn chaos_targets(&self) -> ChaosTargets {
        self.inner.chaos.clone()
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.get()
    }

    /// Results returned so far (every terminal outcome counts).
    pub fn returned(&self) -> u64 {
        self.inner.returned.get()
    }

    /// Tasks failed by a delivery timeout or the round-trip deadline.
    pub fn timed_out(&self) -> u64 {
        self.inner.timed_out.get()
    }
}

impl<T: Transport> Dispatcher<T> {
    /// Builds the executor over the transport `wire` makes of its
    /// [`Net`], with one worker pool and return-path actor per `(pool,
    /// topics)` endpoint; a topic's first endpoint is its primary.
    // `W`, not `impl FnOnce`: hetlint's item parser drops a fn whose
    // signature contains `impl`, and this one must stay in the call graph.
    pub(crate) fn build<W: FnOnce(Net) -> T>(
        sim: &Sim,
        wire: W,
        endpoints: Vec<(WorkerPoolConfig, Vec<&'static str>)>,
        results: Sender<TaskResult>,
        rng: SimRng,
        tracer: Tracer,
        policies: ReliabilityPolicies,
    ) -> Self {
        let mut route: SymbolMap<Vec<usize>> = SymbolMap::new();
        let (mut pools, mut retries, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
        let mut pool_streams = Vec::new();
        for (i, (pool, topics)) in endpoints.into_iter().enumerate() {
            for topic in topics {
                route.get_or_insert_with(Symbol::intern(topic), Vec::new).push(i);
            }
            let (pool_res_tx, pool_res_rx) = channel::<TaskResult>();
            retries.push(pool.retry.clone());
            bounds.push((pool.queue_capacity, pool.overflow));
            let pool_rng = rng.substream(i as u64);
            pools.push(WorkerPool::spawn(sim, pool, pool_res_tx, &pool_rng, tracer.clone()));
            pool_streams.push(pool_res_rx);
        }
        let brownout: Vec<Knob> = pools.iter().map(|_| Knob::new(1.0)).collect();
        let rng = RefCell::new(rng.substream(u64::MAX));
        let transport = wire(Net { sim: sim.clone(), rng, brownout: brownout.clone() });
        // Admission configs, backpressure watermarks and deadlines are
        // read off the policies before the layer takes them; all-zero
        // configs register nothing.
        let admission = AdmissionController::new(sim);
        let mut admission_cfgs = SymbolMap::new();
        let gate = BackpressureGate::new(sim, tracer.clone(), T::LABEL);
        let (mut deadlines, mut due_queues) = (SymbolMap::new(), Vec::new());
        for (topic, targets) in route.iter() {
            let policy = policies.policy_for(topic);
            if policy.admission.enabled() {
                admission_cfgs.insert(topic, (policy.admission.clone(), targets[0]));
            }
            gate.register(topic, &policy.backpressure);
            if !policy.deadline.is_zero() {
                let (tx, rx) = channel();
                deadlines.insert(topic, (policy.deadline, tx));
                due_queues.push((policy.deadline, rx));
            }
        }
        // Without connectivity (direct links) no heartbeat watchers:
        // breakers are fed by task outcomes and timeouts only.
        let conns = transport.connectivity();
        let health = ReliabilityLayer::new(sim, tracer.clone(), T::LABEL, policies, route, conns);
        let actor = |i| Symbol::intern(&format!("{}/ep{i}", T::LABEL));
        let actors = (0..pools.len()).map(actor).collect();
        let chaos = ChaosTargets {
            connectivity: conns.to_vec(),
            pace: pools.iter().map(WorkerPool::pace_knob).collect(),
            crash: pools.iter().map(WorkerPool::crash_knob).collect(),
            brownout,
            cloud: transport.cloud().cloned(),
            storm: None,
        };
        let inner = Rc::new(Inner {
            sim: sim.clone(),
            transport,
            actors,
            health,
            pools,
            retries,
            bounds,
            admission,
            admission_cfgs,
            gate,
            deadlines,
            chaos,
            results,
            tracer,
            submitted: Cell::new(0),
            returned: Cell::new(0),
            timed_out: Cell::new(0),
        });
        // One return-path actor per endpoint.
        for (i, rx) in pool_streams.into_iter().enumerate() {
            let inner2 = Rc::clone(&inner);
            sim.spawn_detached(async move {
                while let Some(result) = rx.recv().await {
                    inner2.sim.spawn_detached(Self::return_result(Rc::clone(&inner2), result, i));
                }
            });
        }
        // One deadline actor per topic that has a deadline.
        for (dl, dues) in due_queues {
            sim.spawn_detached(Self::expire_overdue(Rc::clone(&inner), dl, dues));
        }
        Dispatcher { inner }
    }

    /// A topic's deadline actor, the round-trip backstop: a task with no
    /// terminal outcome `dl` after its dispatch fails here, and copies
    /// still in flight are cancelled as they surface. `dl` is fixed per
    /// topic and `after_cost` runs in clock order, so the dues arrive
    /// sorted and the channel is the whole schedule. Every entry gets its
    /// own wake, a finished task's included, so the run's timer fires
    /// and its end time are those of one watchdog per task.
    async fn expire_overdue(inner: Rc<Inner<T>>, dl: Duration, dues: Receiver<Due>) {
        while let Some((due, endpoint, stub)) = dues.recv().await {
            inner.sim.sleep_until(due).await;
            if inner.health.expire(stub.id) {
                inner.timeout_result(endpoint, stub, dl);
            }
        }
    }

    /// Spawns a task's delivery to `endpoint`: the bare leg, or the leg
    /// raced against the topic's delivery timeout there. A plain `fn`,
    /// so a reroute can spawn a delivery from inside one.
    fn spawn_delivery(inner: &Rc<Inner<T>>, task: TaskSpec, endpoint: usize) {
        let leg = Rc::clone(inner);
        match inner.retries[endpoint].policy_for(task.topic).timeout {
            None => inner.sim.spawn_detached(Self::deliver_inner(leg, task, endpoint)),
            Some(after) => {
                inner.sim.spawn_detached(Self::deliver_timed(leg, task, endpoint, after));
            }
        }
    }

    /// Races the delivery against the topic's `RetryPolicy::timeout`,
    /// `after`. A task stuck in transit past it (e.g. behind an endpoint
    /// outage) goes to the reliability layer, which reroutes it to
    /// another endpoint (within the topic's `max_reroutes` budget) or
    /// fails it with `TaskError::Timeout` on the normal result channel.
    async fn deliver_timed(inner: Rc<Inner<T>>, task: TaskSpec, endpoint: usize, after: Duration) {
        let stub = Stub::of(&task);
        let attempt = Self::deliver_inner(Rc::clone(&inner), task, endpoint);
        if inner.sim.timeout(after, attempt).await.is_err() {
            match inner.health.on_timeout(endpoint, stub.id, stub.topic) {
                TimeoutVerdict::Reroute { spec, to } => Self::spawn_delivery(&inner, spec, to),
                TimeoutVerdict::Suppress => {}
                TimeoutVerdict::Fail => inner.timeout_result(endpoint, stub, after),
            }
        }
    }

    async fn deliver_inner(inner: Rc<Inner<T>>, task: TaskSpec, endpoint: usize) {
        inner.transport.outbound(endpoint, task.wire_bytes()).await;
        let (capacity, overflow) = inner.bounds[endpoint];
        let queue = &inner.pools[endpoint].tasks;
        if let Offered::Displaced(victim) =
            queue.offer(task, capacity, overflow, |t| u64::from(t.priority))
        {
            // A shed copy is a failure for arbitration: with a live
            // hedge/reroute sibling the loss is silent, otherwise Shed
            // is the task's one terminal result. (`Closed`, ignored,
            // means the experiment was torn down.)
            let topic = victim.topic;
            if let Verdict::Deliver { hedges, reroutes } =
                inner.health.on_result(endpoint, victim.id, topic, true, 0.0)
            {
                inner.shed_result(victim, endpoint, hedges, reroutes, capacity as f64);
                inner.release(topic);
            }
        }
    }

    async fn return_result(inner: Rc<Inner<T>>, mut result: TaskResult, endpoint: usize) {
        inner.transport.inbound(endpoint, result.wire_bytes()).await;
        // Exactly-once arbitration, *after* the full return path: a
        // winner stuck behind a dead connection never gets here, so a
        // healthy hedge copy takes the race; losers count as waste.
        let waste =
            result.report.compute_time.as_secs_f64() + result.report.wasted_time.as_secs_f64();
        if let Verdict::Deliver { hedges, reroutes } =
            inner.health.on_result(endpoint, result.id, result.topic, result.is_failed(), waste)
        {
            inner.release(result.topic);
            result.report.hedges = hedges;
            result.report.reroutes = reroutes;
            result.timing.server_result_received = Some(inner.sim.now());
            inner.finish(result);
        }
    }
}

/// Where the synchronous half of a submission left its task.
enum Routed {
    /// Refused by admission control; the `Shed` goes to the topic's
    /// primary endpoint.
    Refused { primary: usize },
    /// Registered with the reliability layer and bound for `endpoint`.
    To { endpoint: usize },
}

/// What a [`Submit`] runs once the client's call is paid for. A trait
/// object because [`Fabric`] is one (`Rc<dyn Fabric>`), so `Submit`
/// cannot name the transport.
trait AfterCost {
    fn after_cost(&self, task: TaskSpec, routed: Routed);
}

/// The future [`Fabric::submit`] returns: the client-side submit cost as
/// one [`Sleep`], then the hand-off to the detached delivery. Named and
/// unboxed — everything a submission decides (payload check, `dispatched`
/// stamp, admission, routing, the cost draw) has already run inside
/// `submit`, so what is left to await needs no allocation. That is the
/// allocation the task's envelope took.
#[must_use = "a submission is only paid for, and handed off, by awaiting it"]
pub struct Submit<'a> {
    sleep: Sleep,
    then: Option<(&'a dyn AfterCost, TaskSpec, Routed)>,
}

const _: () = assert!(std::mem::size_of::<Submit<'_>>() <= 96);

impl Future for Submit<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Pin::new(&mut self.sleep).poll(cx).is_pending() {
            return Poll::Pending;
        }
        if let Some((core, task, routed)) = self.then.take() {
            core.after_cost(task, routed);
        }
        Poll::Ready(())
    }
}

impl<T: Transport> AfterCost for Dispatcher<T> {
    fn after_cost(&self, task: TaskSpec, routed: Routed) {
        let inner = &self.inner;
        inner.submitted.set(inner.submitted.get() + 1);
        let endpoint = match routed {
            Routed::Refused { primary } => {
                let load = inner.admission.in_flight(task.topic) as f64;
                inner.shed_result(task, primary, 0, 0, load);
                return;
            }
            Routed::To { endpoint } => endpoint,
        };
        let (id, topic) = (task.id, task.topic);
        // Hedge watchdog: after the topic's quantile-based delay,
        // re-issue a straggler elsewhere (first result wins). One per
        // task: the delay moves with the quantile, so its dues are not
        // monotone and cannot share a FIFO like the deadline's.
        if let Some(delay) = inner.health.hedge_delay(topic) {
            let inner2 = Rc::clone(inner);
            inner.sim.spawn_detached(async move {
                loop {
                    inner2.sim.sleep(delay).await;
                    let Some((spec, to)) = inner2.health.try_hedge(id, topic) else {
                        break;
                    };
                    Self::spawn_delivery(&inner2, spec, to);
                }
            });
        }
        // The round-trip deadline goes to the topic's deadline actor.
        if let Some((dl, dues)) = inner.deadlines.get(topic) {
            let due = (inner.sim.now() + *dl, endpoint, Stub::of(&task));
            if dues.send_now(due).is_err() {
                // The actor goes only when `Sim::teardown` drops every
                // actor, pools and return paths included: nothing is
                // left that could deliver the task.
                return;
            }
        }
        Self::spawn_delivery(inner, task, endpoint);
    }
}

impl<T: Transport> Fabric for Dispatcher<T> {
    fn submit(&self, mut task: TaskSpec) -> Submit<'_> {
        let inner = &self.inner;
        let bytes = task.wire_bytes();
        inner.transport.admit_payload(bytes, task.topic);
        task.timing.dispatched = Some(inner.sim.now());
        // Admission control: a refused submission still pays the
        // client's call (for an empty payload) and resolves to Shed;
        // it never reaches the breaker layer, so nothing to unwind.
        let (cost, routed) = match inner.admission_cfgs.get(task.topic) {
            Some((cfg, primary)) if !inner.admission.try_admit(task.topic, cfg) => {
                (inner.transport.submit_cost(0), Routed::Refused { primary: *primary })
            }
            _ => {
                inner.gate.on_enter(task.topic);
                // The reliability layer registers the dispatch and picks
                // the endpoint (breaker-aware when configured, else primary).
                #[expect(
                    clippy::panic,
                    reason = "unrouted topic is a deployment wiring bug, not a runtime fault"
                )]
                let endpoint = inner
                    .health
                    .admit(&task)
                    .unwrap_or_else(|| panic!("no endpoint registered for topic {}", task.topic));
                (inner.transport.submit_cost(bytes), Routed::To { endpoint })
            }
        };
        // The client pays the submit cost; the rest runs detached.
        let core: &dyn AfterCost = self;
        Submit { sleep: inner.sim.sleep(cost), then: Some((core, task, routed)) }
    }

    fn label(&self) -> &'static str {
        T::LABEL
    }

    fn backpressure(&self) -> Option<BackpressureGate> {
        (!self.inner.gate.is_empty()).then(|| self.inner.gate.clone())
    }
}

#[cfg(test)]
mod tests {
    //! The reliability and overload arms of the core, each run over both
    //! transports: the core is one body of code, but only a test per
    //! transport shows that neither one's legs break an arm.
    use super::*;
    use crate::faas::{EndpointSpec, FnXExecutor, FnXParams};
    use crate::health::{HedgeConfig, ReliabilityPolicy};
    use crate::htex::{HtexEndpoint, HtexExecutor, HtexParams, LinkParams};
    use crate::reliability::RetryPolicy;
    use crate::task::{Arg, TaskWork};
    use hetflow_sim::{Dist, Receiver, SimTime};
    use hetflow_store::SiteId;

    #[derive(Clone, Copy, Debug)]
    enum Kind {
        FnX,
        Htex,
    }

    const BOTH: [Kind; 2] = [Kind::FnX, Kind::Htex];

    impl Kind {
        /// What a client pays for a refused submission under the fixed
        /// test parameters: the HTTPS call, or the interchange hop
        /// without the serialization pass.
        fn refusal_cost(self) -> f64 {
            match self {
                Kind::FnX => 0.1,
                Kind::Htex => 0.002,
            }
        }
    }

    /// One endpoint of a rig, by default a single worker serving `unit`.
    /// A `stalled` endpoint never gets a task through: FnX's connection
    /// is offline, HTEX's link takes (virtual) decades.
    struct Ep {
        pool: WorkerPoolConfig,
        stalled: bool,
        topics: Vec<&'static str>,
    }

    impl Ep {
        fn new(site: u16, stalled: bool) -> Ep {
            let pool = WorkerPoolConfig::bare(SiteId(site), format!("ep{site}"), 1);
            Ep { pool, stalled, topics: vec!["unit"] }
        }

        /// An endpoint with no worker, serving `topics`: every task gets
        /// through and then sits in the queue, with no timer pending.
        fn unstaffed(site: u16, topics: Vec<&'static str>) -> Ep {
            let pool = WorkerPoolConfig::bare(SiteId(site), format!("ep{site}"), 0);
            Ep { pool, stalled: false, topics }
        }

        /// Fails `unit` deliveries that take more than 30 s.
        fn with_delivery_timeout(mut self) -> Ep {
            let policy =
                RetryPolicy { timeout: Some(Duration::from_secs(30)), ..Default::default() };
            self.pool.retry = RetryPolicies::default().with_topic("unit", policy);
            self
        }
    }

    /// An executor of either kind behind the handles the cases need.
    struct Rig {
        sim: Sim,
        fabric: Rc<dyn Fabric>,
        results: Receiver<TaskResult>,
        tracer: Tracer,
        health: ReliabilityLayer,
        chaos: ChaosTargets,
        /// `(submitted, returned, timed_out)`.
        counts: Rc<dyn Fn() -> (u64, u64, u64)>,
    }

    impl Rig {
        fn new(kind: Kind, eps: Vec<Ep>, default: ReliabilityPolicy) -> Rig {
            let policies = ReliabilityPolicies { default, per_topic: SymbolMap::new() };
            Rig::with_policies(kind, eps, policies)
        }

        fn with_policies(kind: Kind, eps: Vec<Ep>, policies: ReliabilityPolicies) -> Rig {
            let sim = Sim::new();
            let (tx, results) = channel();
            let tracer = Tracer::enabled();
            let rng = SimRng::from_seed(5);
            match kind {
                Kind::FnX => {
                    let params = FnXParams {
                        https_latency: Dist::Constant(0.1),
                        small_store_op: Dist::Constant(0.04),
                        large_store_op: Dist::Constant(0.2),
                        forward_latency: Dist::Constant(0.05),
                        result_latency: Dist::Constant(0.06),
                        ..FnXParams::default()
                    };
                    let eps = eps
                        .into_iter()
                        .map(|ep| {
                            let connectivity = Connectivity::always_on();
                            connectivity.set_online(!ep.stalled);
                            EndpointSpec { pool: ep.pool, topics: ep.topics, connectivity }
                        })
                        .collect();
                    let exec = FnXExecutor::with_reliability(
                        &sim,
                        params,
                        eps,
                        tx,
                        rng,
                        tracer.clone(),
                        policies,
                    );
                    Rig::over(sim, exec, results, tracer)
                }
                Kind::Htex => {
                    let params =
                        HtexParams { submit_hop: Dist::Constant(0.002), interchange_bw: 1.0e8 };
                    let eps = eps
                        .into_iter()
                        .map(|ep| {
                            let latency = Dist::Constant(if ep.stalled { 1.0e9 } else { 0.005 });
                            let link = LinkParams { latency, bandwidth: 4.0e7 };
                            HtexEndpoint { pool: ep.pool, topics: ep.topics, link }
                        })
                        .collect();
                    let exec = HtexExecutor::with_reliability(
                        &sim,
                        params,
                        eps,
                        tx,
                        rng,
                        tracer.clone(),
                        policies,
                    );
                    Rig::over(sim, exec, results, tracer)
                }
            }
        }

        fn over<T: Transport>(
            sim: Sim,
            exec: Dispatcher<T>,
            results: Receiver<TaskResult>,
            tracer: Tracer,
        ) -> Rig {
            let (health, chaos) = (exec.health(), exec.chaos_targets());
            let e = exec.clone();
            let counts = Rc::new(move || (e.submitted(), e.returned(), e.timed_out()));
            Rig { sim, fabric: Rc::new(exec), results, tracer, health, chaos, counts }
        }

        /// Runs `script` as the one client actor to quiescence; returns
        /// the virtual end time and every result, sorted by id.
        fn run<F>(&self, script: impl FnOnce(Sim, Rc<dyn Fabric>) -> F) -> (f64, Vec<TaskResult>)
        where
            F: Future<Output = ()> + 'static,
        {
            self.sim.spawn_detached(script(self.sim.clone(), Rc::clone(&self.fabric)));
            let end = self.sim.run().end.as_secs_f64();
            let mut results = self.results.drain_now();
            results.sort_by_key(|r| r.id);
            (end, results)
        }

        fn events(&self, kind: &'static str) -> usize {
            self.tracer.events_of_kind(kind).len()
        }
    }

    /// A `unit` task carrying `bytes` that computes for `secs`.
    fn work(id: TaskId, bytes: u64, secs: u64) -> TaskSpec {
        work_on("unit", id, bytes, secs)
    }

    /// A `topic` task carrying `bytes` that computes for `secs`.
    fn work_on(topic: &'static str, id: TaskId, bytes: u64, secs: u64) -> TaskSpec {
        let compute: crate::task::TaskFn =
            Rc::new(move |_| TaskWork::new((), 0, Duration::from_secs(secs)));
        TaskSpec::new(id, topic, Arg::inline((), bytes), compute)
    }

    fn ids(results: &[TaskResult]) -> Vec<TaskId> {
        results.iter().map(|r| r.id).collect()
    }

    #[test]
    fn delivery_timeout_fails_task_stuck_in_transit() {
        for kind in BOTH {
            let eps = vec![Ep::new(0, true).with_delivery_timeout()];
            let rig = Rig::new(kind, eps, ReliabilityPolicy::default());
            let (end, results) = rig.run(|_, f| async move { f.submit(work(3, 1_000, 0)).await });
            assert_eq!(ids(&results), [3], "{kind:?}: exactly one terminal outcome");
            let after = Duration::from_secs(30);
            assert_eq!(results[0].outcome.error(), Some(&TaskError::Timeout { after }), "{kind:?}");
            assert!(results[0].timing.worker_started.is_none(), "{kind:?}: never reached a worker");
            assert_eq!((rig.counts)(), (1, 1, 1), "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_TIMEOUT), 1, "{kind:?}");
            // The deadline — not the never-ending stall — bounds the
            // run: the submit cost plus 30 s.
            assert!(end < 31.0, "{kind:?}: end {end}");
        }
    }

    #[test]
    fn timeout_reroutes_to_failover_endpoint() {
        // The primary is stalled; the topic's reroute budget lets the
        // delivery timeout re-dispatch to endpoint 1 instead of failing
        // — the task completes there, stamped reroutes=1.
        for kind in BOTH {
            let eps = vec![
                Ep::new(0, true).with_delivery_timeout(),
                Ep::new(1, false).with_delivery_timeout(),
            ];
            let policy = ReliabilityPolicy { max_reroutes: 1, ..Default::default() };
            let rig = Rig::new(kind, eps, policy);
            let (_, results) = rig.run(|_, f| async move { f.submit(work(4, 1_000, 0)).await });
            assert_eq!(ids(&results), [4], "{kind:?}: exactly one terminal outcome");
            assert!(!results[0].is_failed(), "{kind:?}: the reroute rescued the task");
            assert_eq!(results[0].site, SiteId(1), "{kind:?}");
            assert_eq!(results[0].report.reroutes, 1, "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_REROUTED), 1, "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_TIMEOUT), 0, "{kind:?}");
            assert_eq!((rig.counts)(), (1, 1, 0), "{kind:?}");
            assert_eq!(rig.health.rerouted(), 1, "{kind:?}");
        }
    }

    #[test]
    fn deadlines_expire_each_stuck_task_once_in_dispatch_order_per_topic() {
        // `unit` (20 s) and `bulk` (35 s) tasks go interleaved to an
        // endpoint with no worker; two `quick` tasks (20 s) complete on
        // the other endpoint, handed off last. Each stuck task fails at
        // its own hand-off (the end of its submit call) + deadline. The
        // second quick task has long finished when its entry comes up
        // behind the first's, yet its deadline still wakes: it, not the
        // last expiry, ends the run.
        let (unit, bulk) = (Duration::from_secs(20), Duration::from_secs(35));
        for kind in BOTH {
            let default = ReliabilityPolicy { deadline: unit, ..Default::default() };
            let slow = ReliabilityPolicy { deadline: bulk, ..Default::default() };
            let policies = ReliabilityPolicies { default, per_topic: SymbolMap::new() }
                .with_topic("bulk", slow);
            let quick = Ep { topics: vec!["quick"], ..Ep::new(1, false) };
            let eps = vec![Ep::unstaffed(0, vec!["unit", "bulk"]), quick];
            let rig = Rig::with_policies(kind, eps, policies);
            let handed = Rc::new(RefCell::new(Vec::new()));
            let log = Rc::clone(&handed);
            let (end, results) = rig.run(|sim, f| async move {
                for id in 0..6 {
                    if id == 4 {
                        sim.sleep(Duration::from_secs(30)).await;
                    }
                    let topic = ["unit", "bulk", "unit", "bulk", "quick", "quick"][id as usize];
                    f.submit(work_on(topic, id, 1_000, 1)).await;
                    log.borrow_mut().push(sim.now());
                }
            });
            let handed = handed.borrow();
            assert_eq!(ids(&results), [0, 1, 2, 3, 4, 5], "{kind:?}: one terminal outcome per id");
            let mut want = Vec::new();
            for (stuck, dl) in [([0, 2], unit), ([1, 3], bulk)] {
                for id in stuck {
                    let r = &results[id];
                    let after = Some(&TaskError::Timeout { after: dl });
                    assert_eq!(r.outcome.error(), after, "{kind:?}: task {id}");
                    assert_eq!(r.timing.server_result_received, Some(handed[id] + dl), "{kind:?}");
                    want.push((handed[id] + dl, r.id, dl.as_secs_f64()));
                }
            }
            let traced: Vec<_> = rig
                .tracer
                .events_of_kind(kinds::TASK_TIMEOUT)
                .iter()
                .map(|e| (e.t, e.entity, e.value))
                .collect();
            assert_eq!(traced, want, "{kind:?}: one timeout each, in dispatch order per topic");
            assert!(results[4..].iter().all(|r| !r.is_failed()), "{kind:?}: finished, no timeout");
            assert_eq!((rig.counts)(), (6, 6, 4), "{kind:?}");
            assert_eq!(end, (handed[5] + unit).as_secs_f64(), "{kind:?}: the last deadline");
        }
    }

    #[test]
    fn hedged_dispatch_rescues_straggler_exactly_once() {
        // Warm the round-trip estimate with fast tasks, then make
        // endpoint 0's pool a straggler: the hedge watchdog re-issues
        // the slow task on endpoint 1, whose copy wins; the straggling
        // copy is cancelled when it finally surfaces.
        for kind in BOTH {
            let hedge = HedgeConfig { quantile: 0.5, factor: 2.0, min_samples: 3, max_hedges: 1 };
            let policy = ReliabilityPolicy { hedge, ..Default::default() };
            let rig = Rig::new(kind, vec![Ep::new(0, false), Ep::new(1, false)], policy);
            let pace = rig.chaos.pace[0].clone();
            let (_, results) = rig.run(|sim, f| async move {
                for id in 0..3 {
                    f.submit(work(id, 0, 10)).await;
                }
                sim.sleep(Duration::from_secs(60)).await;
                pace.set(50.0);
                f.submit(work(3, 0, 10)).await;
            });
            assert_eq!(ids(&results), [0, 1, 2, 3], "{kind:?}: one result per submitted id");
            assert!(!results[3].is_failed(), "{kind:?}");
            assert_eq!(results[3].site, SiteId(1), "{kind:?}: the hedge copy on endpoint 1 won");
            assert_eq!(results[3].report.hedges, 1, "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_HEDGED), 1, "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_CANCELLED), 1, "{kind:?}");
            assert_eq!((rig.health.hedged(), rig.health.cancelled()), (1, 1), "{kind:?}");
            assert!(rig.health.wasted_secs() > 0.0, "{kind:?}: the loser's burn is accounted");
        }
    }

    #[test]
    fn displaced_victim_gets_one_shed_and_frees_its_slot() {
        // One worker, a one-slot queue: task 0 runs, low-priority task 1
        // queues, task 2's arrival displaces it. The victim's admission
        // slot is released with its Shed, so task 3 fits under the
        // in-flight cap of 3 (and then waits out task 2 in the queue).
        for kind in BOTH {
            let mut ep = Ep::new(0, false);
            ep.pool.queue_capacity = 1;
            ep.pool.overflow = OverflowPolicy::ShedLowestPriority;
            let admission = AdmissionConfig { max_in_flight: 3, ..Default::default() };
            let policy = ReliabilityPolicy { admission, ..Default::default() };
            let rig = Rig::new(kind, vec![ep], policy);
            let victim_dispatched = Rc::new(Cell::new(None));
            let stamp = Rc::clone(&victim_dispatched);
            let (_, results) = rig.run(|sim, f| async move {
                f.submit(work(0, 0, 10)).await;
                let mut victim = work(1, 777, 10).with_priority(TaskSpec::PRIORITY_LOW);
                victim.timing.created = Some(SimTime::from_nanos(5));
                stamp.set(Some(sim.now()));
                f.submit(victim).await;
                f.submit(work(2, 0, 10)).await;
                sim.sleep(Duration::from_secs(15)).await; // task 0 done, task 2 running
                f.submit(work(3, 0, 10)).await;
            });
            assert_eq!(ids(&results), [0, 1, 2, 3], "{kind:?}: one terminal outcome per id");
            let shed: Vec<TaskId> = results.iter().filter(|r| r.is_shed()).map(|r| r.id).collect();
            assert_eq!(shed, [1], "{kind:?}: only the displaced victim is shed");
            assert!(results[1].timing.worker_started.is_none(), "{kind:?}");
            // The Shed is the victim's own envelope, finished in place:
            // its stamps and sizes, not the displacing arrival's.
            let victim = &results[1];
            assert_eq!(victim.timing.created, Some(SimTime::from_nanos(5)), "{kind:?}");
            assert_eq!(victim.timing.dispatched, victim_dispatched.get(), "{kind:?}");
            assert!(
                victim.timing.server_result_received >= results[2].timing.dispatched,
                "{kind:?}: shed when task 2 arrived"
            );
            assert_eq!((victim.input_bytes, victim.wire_bytes()), (777, 1_000), "{kind:?}");
            assert_eq!(victim.report.attempts, 0, "{kind:?}: no worker touched it");
            assert!(results.iter().all(|r| !r.is_failed()), "{kind:?}");
            let traced = rig.tracer.events_of_kind(kinds::TASK_SHED);
            assert_eq!(traced.len(), 1, "{kind:?}");
            assert_eq!(
                (traced[0].entity, traced[0].value),
                (1, 1.0),
                "{kind:?}: id and queue bound"
            );
            assert_eq!((rig.counts)(), (4, 4, 0), "{kind:?}");
        }
    }

    #[test]
    fn admission_refusal_gets_one_shed_and_pays_the_refusal_cost() {
        // In-flight cap 1: while task 0 computes, tasks 1 and 2 are
        // refused — each costs the client the transport's refusal cost
        // (not the payload-dependent submit cost) and resolves to one
        // Shed attributed to the primary endpoint. A refusal frees no
        // slot (task 2 is refused too); task 0's result does (task 3
        // is admitted).
        for kind in BOTH {
            let admission = AdmissionConfig { max_in_flight: 1, ..Default::default() };
            let policy = ReliabilityPolicy { admission, ..Default::default() };
            let rig = Rig::new(kind, vec![Ep::new(0, false)], policy);
            let paid = Rc::new(Cell::new(0.0));
            let paid2 = Rc::clone(&paid);
            let (_, results) = rig.run(|sim, f| async move {
                f.submit(work(0, 1_000_000, 10)).await;
                let t0 = sim.now();
                f.submit(work(1, 1_000_000, 10)).await;
                paid2.set((sim.now() - t0).as_secs_f64());
                f.submit(work(2, 1_000_000, 10)).await;
                sim.sleep(Duration::from_secs(20)).await;
                f.submit(work(3, 1_000_000, 10)).await;
            });
            assert_eq!(ids(&results), [0, 1, 2, 3], "{kind:?}: one terminal outcome per id");
            let shed: Vec<TaskId> = results.iter().filter(|r| r.is_shed()).map(|r| r.id).collect();
            assert_eq!(shed, [1, 2], "{kind:?}");
            assert!(!results[0].is_failed() && !results[3].is_failed(), "{kind:?}");
            assert_eq!(results[1].site, SiteId(0), "{kind:?}: attributed to the primary");
            assert!(
                (paid.get() - kind.refusal_cost()).abs() < 1e-9,
                "{kind:?}: paid {}",
                paid.get()
            );
            let traced = rig.tracer.events_of_kind(kinds::TASK_SHED);
            assert_eq!(traced.len(), 2, "{kind:?}");
            assert_eq!(traced[0].value, 1.0, "{kind:?}: the in-flight count at the refusal");
            assert_eq!((rig.counts)(), (4, 4, 0), "{kind:?}");
        }
    }

    #[test]
    fn refused_submission_pays_first_then_counts_and_sheds_on_the_load_it_finds() {
        // `submit` decides the refusal in the call, but what follows the
        // client's sleep stays after it: `submitted`, the in-flight read
        // and the Shed. Task 0's result frees its slot in the middle of
        // task 1's refusal, so the load the Shed reports is 0, not the 1
        // that refused it.
        for kind in BOTH {
            let admission = AdmissionConfig { max_in_flight: 1, ..Default::default() };
            let policy = ReliabilityPolicy { admission, ..Default::default() };
            // Dry run: the instant task 0's result is back at the server.
            let rig = Rig::new(kind, vec![Ep::new(0, false)], policy.clone());
            let (_, results) = rig.run(|_, f| async move { f.submit(work(0, 0, 1)).await });
            let back = results[0].timing.server_result_received.expect("task 0 completes");

            let half = hetflow_sim::time::secs(kind.refusal_cost() / 2.0);
            let start = SimTime::from_nanos(back.as_nanos() - half.as_nanos() as u64);
            let rig = Rig::new(kind, vec![Ep::new(0, false)], policy);
            let counts = Rc::clone(&rig.counts);
            let mid_sleep = Rc::new(Cell::new((0, 0, 0)));
            let (probe, paid) = (Rc::clone(&mid_sleep), Rc::new(Cell::new(None)));
            let paid2 = Rc::clone(&paid);
            let (_, results) = rig.run(|sim, f| async move {
                f.submit(work(0, 0, 1)).await;
                let sim2 = sim.clone();
                sim.spawn_detached(async move {
                    sim2.sleep_until(start + half / 2).await;
                    probe.set(counts());
                });
                sim.sleep_until(start).await;
                f.submit(work(1, 0, 1)).await;
                paid2.set(Some(sim.now()));
            });
            assert_eq!(paid.get(), Some(start + half + half), "{kind:?}: the refusal cost only");
            assert_eq!(mid_sleep.get(), (1, 0, 0), "{kind:?}: nothing counted or minted mid-sleep");
            assert_eq!(ids(&results), [0, 1], "{kind:?}");
            assert!(results[1].is_shed() && !results[0].is_failed(), "{kind:?}");
            assert_eq!(results[1].timing.dispatched, Some(start), "{kind:?}: stamped in the call");
            assert_eq!(results[1].timing.server_result_received, paid.get(), "{kind:?}");
            let traced = rig.tracer.events_of_kind(kinds::TASK_SHED);
            assert_eq!(traced.len(), 1, "{kind:?}");
            assert_eq!(traced[0].value, 0.0, "{kind:?}: in-flight read after the sleep");
            assert_eq!((rig.counts)(), (2, 2, 0), "{kind:?}");
        }
    }
}

//! The dispatch core shared by both fabrics.
//!
//! A [`Dispatcher`] owns everything about getting a task to a worker
//! pool and its one terminal result back that does *not* depend on how
//! bytes travel: topic routing, worker pools and their queue bounds,
//! the [`ReliabilityLayer`] wiring (admission, breakers, hedges,
//! reroutes, settling), the hedge actor, the per-topic deadline actors, the
//! delivery-timeout arm, the return-path actors and the counters.
//! What does is a [`Wire`], plain data: FnX's cloud ([`crate::faas`])
//! and HTEX's interchange links ([`crate::htex`]) each build one, and
//! the core reads its hop tables without asking which one it serves.

use crate::fabric::Fabric;
use crate::health::{ReliabilityLayer, ReliabilityPolicies, TimeoutVerdict, Verdict};
use crate::reliability::chaos::ChaosTargets;
use crate::reliability::{Connectivity, RetryPolicies};
use crate::task::{TaskError, TaskId, TaskOutcome, TaskResult, TaskSpec, TaskTiming, WorkerReport};
use crate::worker::{WorkerPool, WorkerPoolConfig};
use hetflow_sim::sync::EventWaitNext;
use hetflow_sim::{
    channel, trace_kinds as kinds, LegKey, Legs, Link, Offered, OverflowPolicy, Receiver, Sender,
    Sim, SimRng, SimTime, Sleep, Symbol, SymbolMap, Tracer,
};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

/// Which way a transit carries bytes.
#[derive(Clone, Copy)]
pub(crate) enum Way {
    /// A task, from the server to an endpoint's pool.
    Out,
    /// A result, from an endpoint back to the server.
    In,
}

/// One leg of a transit: the link its bytes cross, and whether an
/// offline endpoint holds them before it (the transit resumes at this
/// leg once the endpoint is back online).
#[derive(Clone)]
pub(crate) struct Hop {
    pub link: Link,
    /// A byte threshold and the link a larger payload crosses instead.
    pub above: Option<(u64, Link)>,
    pub held: bool,
}

impl Hop {
    /// A leg over `link` alone, never held.
    pub fn on(link: Link) -> Hop {
        Hop { link, above: None, held: false }
    }

    fn cost(&self, rng: &mut SimRng, bytes: u64) -> Duration {
        let link = match &self.above {
            Some((threshold, large)) if bytes > *threshold => large,
            _ => &self.link,
        };
        link.cost(rng, bytes)
    }
}

/// How bytes travel between the task server and an endpoint — the only
/// thing the two fabrics disagree on — as data. A transit is its hop
/// table, each leg drawn from the fabric's one transit-cost stream at
/// the instant the leg before it ends; the core sleeps through them as
/// one chained sleep ([`Sim::sleep_legs`]).
pub(crate) struct Wire {
    /// Fabric label, also the `"{label}/ep{i}"` trace-actor prefix.
    pub label: &'static str,
    /// Largest payload a submission may carry; a larger one panics.
    pub payload_cap: u64,
    /// What the client pays to submit a payload. A submission refused
    /// by admission control pays it for an empty payload: the refusal
    /// comes back on the client's call, before any data moves.
    pub submit: Link,
    /// Each endpoint's hop tables, by [`Way`]: `[out, in]`.
    pub hops: Vec<[Vec<Hop>; 2]>,
    /// Per-endpoint connection handles; none when links are direct.
    pub connectivity: Vec<Connectivity>,
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

/// A hedge check `(due, seq, task, topic)` as the hedge actor's queue
/// orders it: by due, then by `seq`, the order of the pushes, so checks
/// that fall due together run in the order they were made.
type Check = (SimTime, u64, TaskId, Symbol);

struct Inner {
    sim: Sim,
    wire: Wire,
    /// The fabric's one transit-cost stream: every submit and leg draws
    /// from it.
    rng: RefCell<SimRng>,
    /// Pre-interned `"{label}/ep{i}"` trace actors, one per endpoint.
    actors: Vec<Symbol>,
    health: ReliabilityLayer,
    pools: Vec<WorkerPool>,
    retries: Vec<RetryPolicies>,
    /// Per-endpoint pool-queue bound and overflow policy (0 = unbounded).
    bounds: Vec<(usize, OverflowPolicy)>,
    /// The round-trip deadline (zero: none) and each topic's deadline
    /// actor's queue, one per topic when there is a deadline.
    deadline: Duration,
    deadlines: SymbolMap<Sender<Due>>,
    /// The hedge actor's checks, earliest due first (empty unless a
    /// topic hedges), and the next `seq`.
    checks: RefCell<BinaryHeap<Reverse<Check>>>,
    check_seq: Cell<u64>,
    /// When the hedge actor wakes next: the due it sleeps until, or
    /// `None` while it has no check to sleep on.
    alarm: Cell<Option<SimTime>>,
    /// Wakes the hedge actor for a check due before its alarm.
    hedges: Sender<()>,
    /// Chaos-engine handles: the wire's connections, the pools' dials.
    chaos: ChaosTargets,
    results: Sender<TaskResult>,
    tracer: Tracer,
    submitted: Cell<u64>,
    returned: Cell<u64>,
    timed_out: Cell<u64>,
}

/// The one interpreter of the hop tables: draws leg `leg` of the transit
/// a [`Transit`] packed into the key, `None` past its table's last leg
/// or before a held leg while the endpoint is offline.
impl Legs for Inner {
    fn leg(&self, (route, bytes): LegKey, leg: u32) -> Option<Duration> {
        let hop = self.hops(route).get(leg as usize)?;
        if hop.held && !self.wire.connectivity[unpack_route(route).1].is_online() {
            return None;
        }
        Some(hop.cost(&mut self.rng.borrow_mut(), bytes))
    }
}

/// A transit's way and endpoint as one word of its chain's key.
fn pack_route(way: Way, endpoint: usize) -> u32 {
    (endpoint as u32) << 1 | way as u32
}

fn unpack_route(route: u32) -> (Way, usize) {
    let way = if route & 1 == 0 { Way::Out } else { Way::In };
    (way, (route >> 1) as usize)
}

/// Bytes in transit between the server and an endpoint: the hop table's
/// legs as one chained sleep, or, while an offline endpoint holds them,
/// a wait for its next connectivity change — after which the chain
/// resumes at the leg it stopped before, once the endpoint is online.
/// The legs are never drawn as separate sleeps. A named future, like
/// [`Submit`]: an `async fn` keeps its arguments twice in its frame,
/// and this one is inside every boxed delivery and result return.
struct Transit<'a> {
    inner: &'a Rc<Inner>,
    /// Way and endpoint ([`pack_route`]), the first word of the key.
    route: u32,
    /// The leg the chain stopped before, while the endpoint holds it.
    leg: u32,
    bytes: u64,
    state: Phase,
}

enum Phase {
    Chain(Sleep),
    Held(EventWaitNext),
}

impl<'a> Transit<'a> {
    fn new(inner: &'a Rc<Inner>, way: Way, endpoint: usize, bytes: u64) -> Self {
        let route = pack_route(way, endpoint);
        let legs: Rc<dyn Legs> = Rc::<Inner>::clone(inner);
        let state = Phase::Chain(inner.sim.sleep_legs(legs, (route, bytes), 0));
        Transit { inner, route, leg: 0, bytes, state }
    }
}

impl Future for Transit<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        loop {
            match &mut this.state {
                Phase::Chain(chain) => {
                    if Pin::new(&mut *chain).poll(cx).is_pending() {
                        return Poll::Pending;
                    }
                    this.leg = chain.leg();
                    if this.leg as usize == this.inner.hops(this.route).len() {
                        return Poll::Ready(());
                    }
                }
                Phase::Held(change) => {
                    if Pin::new(change).poll(cx).is_pending() {
                        return Poll::Pending;
                    }
                }
            }
            let conn = &this.inner.wire.connectivity[unpack_route(this.route).1];
            this.state = if conn.is_online() {
                let legs: Rc<dyn Legs> = Rc::<Inner>::clone(this.inner);
                Phase::Chain(this.inner.sim.sleep_legs(legs, (this.route, this.bytes), this.leg))
            } else {
                Phase::Held(conn.wait_change())
            };
        }
    }
}

impl Inner {
    /// The hop table of the transit `route` names.
    fn hops(&self, route: u32) -> &[Hop] {
        let (way, endpoint) = unpack_route(route);
        &self.wire.hops[endpoint][way as usize]
    }

    /// The rule the deadline and hedge actors walk their queues by: an
    /// entry whose task has settled is dropped without a wake, as long as
    /// another entry is queued behind it. The last entry is always slept
    /// on, so the run still ends at the last due.
    fn passes(&self, id: TaskId, more_queued: bool) -> bool {
        more_queued && !self.health.unsettled(id)
    }

    /// Queues a hedge check for `due` and wakes the hedge actor if the
    /// check falls due before its alarm.
    fn push_check(&self, due: SimTime, id: TaskId, topic: Symbol) {
        let seq = self.check_seq.get();
        self.check_seq.set(seq + 1);
        self.checks.borrow_mut().push(Reverse((due, seq, id, topic)));
        if self.alarm.get().is_none_or(|alarm| due < alarm) {
            self.alarm.set(Some(due));
            if self.hedges.send_now(()).is_err() {
                // Only `Sim::teardown` drops the hedge actor: no check runs.
                self.checks.borrow_mut().clear();
            }
        }
    }

    /// The due of the earliest hedge check, once every settled check
    /// ahead of the last has been dropped.
    fn next_check(&self) -> Option<SimTime> {
        let mut checks = self.checks.borrow_mut();
        while let Some(&Reverse((due, _, id, ..))) = checks.peek() {
            if !self.passes(id, checks.len() > 1) {
                return Some(due);
            }
            checks.pop();
        }
        None
    }

    /// Hands a task's one terminal result to the client: every outcome
    /// (delivered, shed, timed out) leaves the fabric through here.
    fn finish(&self, result: TaskResult) {
        // The stamps a task carries out of the fabric never go back.
        let t = &result.timing;
        let head = [t.created, t.submitted, t.server_received, t.dispatched, t.worker_started];
        let tail = [t.inputs_resolved, t.compute_finished, t.result_dispatched];
        let mut stamps = head.into_iter().chain(tail).chain([t.server_result_received]).flatten();
        debug_assert!(
            stamps.try_fold(SimTime::ZERO, |last, at| (at >= last).then_some(at)).is_some(),
            "task {} finishes with stamps out of order: {t:?}",
            result.id
        );
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
    /// in-flight count at the shed decision (the trace value).
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
        self.timed_out.set(self.timed_out.get() + 1);
        let outcome = TaskOutcome::Failed(TaskError::Timeout { after });
        let task = TaskSpec::stand_in(stub.id, stub.topic, stub.timing);
        self.abandon(endpoint, task, stub.input_bytes, WorkerReport::default(), outcome);
    }
}

/// A fabric executor: the shared dispatch core over one `Wire`, used
/// as [`crate::FnXExecutor`] or [`crate::HtexExecutor`]. `F` only names
/// the fabric, so that each has its own `with_reliability`.
pub struct Dispatcher<F> {
    inner: Rc<Inner>,
    fabric: PhantomData<F>,
}

impl<F> Clone for Dispatcher<F> {
    fn clone(&self) -> Self {
        Dispatcher { inner: Rc::clone(&self.inner), fabric: PhantomData }
    }
}

impl<F> Dispatcher<F> {
    /// Endpoint worker pools (for utilization metrics).
    pub fn pools(&self) -> &[WorkerPool] {
        &self.inner.pools
    }

    /// The reliability layer (breaker state, hedge/reroute counters).
    pub fn health(&self) -> ReliabilityLayer {
        self.inner.health.clone()
    }

    /// The chaos-engine handles: the pools' pace dials and the
    /// wire's connectivity, if any. The storm target stays `None`:
    /// the deployment owns the `Rc<dyn Fabric>`.
    pub fn chaos_targets(&self) -> ChaosTargets {
        self.inner.chaos.clone()
    }

    /// Tasks submitted so far.
    #[cfg(test)]
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.get()
    }

    /// Results returned so far (every terminal outcome counts).
    #[cfg(test)]
    pub fn returned(&self) -> u64 {
        self.inner.returned.get()
    }

    /// Tasks failed by a delivery timeout or the round-trip deadline.
    #[cfg(test)]
    pub fn timed_out(&self) -> u64 {
        self.inner.timed_out.get()
    }

    /// Builds the executor over `wire`, with one worker pool and
    /// return-path actor per `(pool, topics)` endpoint; a topic's first
    /// endpoint is its primary.
    pub(crate) fn build(
        sim: &Sim,
        wire: Wire,
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
        let rng = RefCell::new(rng.substream(u64::MAX));
        let policy = policies.default;
        let (hedging, deadline) = (policy.hedge.enabled(), policy.deadline);
        let (hedges, notify) = channel();
        let (mut deadlines, mut due_queues) = (SymbolMap::new(), Vec::new());
        if !deadline.is_zero() {
            for (topic, _) in route.iter() {
                let (tx, rx) = channel();
                deadlines.insert(topic, tx);
                due_queues.push(rx);
            }
        }
        // Without connectivity (direct links) no heartbeat watchers:
        // breakers are fed by task outcomes and timeouts only.
        let (label, conns) = (wire.label, &wire.connectivity);
        let health = ReliabilityLayer::new(sim, tracer.clone(), label, policy, route, conns);
        let actor = |i| Symbol::intern(&format!("{label}/ep{i}"));
        let actors = (0..pools.len()).map(actor).collect();
        let chaos = ChaosTargets {
            connectivity: conns.to_vec(),
            pace: pools.iter().map(WorkerPool::pace_knob).collect(),
            storm: None,
        };
        let inner = Rc::new(Inner {
            sim: sim.clone(),
            wire,
            rng,
            actors,
            health,
            pools,
            retries,
            bounds,
            deadline,
            deadlines,
            checks: RefCell::new(BinaryHeap::new()),
            check_seq: Cell::new(0),
            alarm: Cell::new(None),
            hedges,
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
                    inner2.sim.spawn_detached(Inner::return_result(Rc::clone(&inner2), result, i));
                }
            });
        }
        // One deadline actor per topic, when there is a deadline.
        for dues in due_queues {
            sim.spawn_detached(Inner::expire_overdue(Rc::clone(&inner), dues));
        }
        if hedging {
            sim.spawn_detached(Inner::hedge_stragglers(Rc::clone(&inner), notify));
        }
        Dispatcher { inner, fabric: PhantomData }
    }
}

impl Inner {
    /// The hedge actor. It sleeps until its earliest check falls due,
    /// walking past settled checks by [`Inner::passes`]; `push_check`
    /// wakes it early for a check due before its alarm. A straggler gets
    /// one copy elsewhere (first result wins); each task is checked once.
    async fn hedge_stragglers(inner: Rc<Inner>, notify: Receiver<()>) {
        loop {
            let Some(due) = inner.next_check() else {
                inner.alarm.set(None);
                if notify.recv().await.is_none() {
                    return;
                }
                continue;
            };
            inner.alarm.set(Some(due));
            let wait = due - inner.sim.now();
            match inner.sim.timeout(wait, notify.recv()).await {
                Ok(Some(())) => continue,
                Ok(None) => return,
                Err(_due) => {}
            }
            let Some(Reverse((_, _, id, topic))) = inner.checks.borrow_mut().pop() else {
                continue;
            };
            if let Some((spec, to)) = inner.health.try_hedge(id, topic) {
                Self::spawn_delivery(&inner, spec, to);
            }
        }
    }

    /// A topic's deadline actor, the round-trip backstop: a task not
    /// settled a deadline after its dispatch fails here, and copies
    /// still in flight are cancelled as they surface. The deadline is
    /// fixed and `after_cost` runs in clock order, so the dues arrive
    /// sorted and the channel is the whole schedule. The actor walks it
    /// by [`Inner::passes`]: it sleeps only on an entry whose task is
    /// still unsettled, or on the last one queued, so the run still ends
    /// at the last due.
    async fn expire_overdue(inner: Rc<Inner>, dues: Receiver<Due>) {
        while let Some((due, endpoint, stub)) = dues.recv().await {
            if inner.passes(stub.id, !dues.is_empty()) {
                continue;
            }
            inner.sim.sleep_until(due).await;
            if inner.health.expire(stub.id, stub.topic) {
                inner.timeout_result(endpoint, stub, inner.deadline);
            }
        }
    }

    /// Spawns a task's delivery to `endpoint`: the bare leg, or the leg
    /// raced against the topic's delivery timeout there. A plain `fn`,
    /// so a reroute can spawn a delivery from inside one.
    fn spawn_delivery(inner: &Rc<Inner>, task: TaskSpec, endpoint: usize) {
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
    /// another endpoint (within the policy's `max_reroutes` budget) or
    /// fails it with `TaskError::Timeout` on the normal result channel.
    async fn deliver_timed(inner: Rc<Inner>, task: TaskSpec, endpoint: usize, after: Duration) {
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

    async fn deliver_inner(inner: Rc<Inner>, task: TaskSpec, endpoint: usize) {
        Transit::new(&inner, Way::Out, endpoint, task.wire_bytes()).await;
        let (capacity, overflow) = inner.bounds[endpoint];
        let queue = &inner.pools[endpoint].tasks;
        if let Offered::Displaced(victim) =
            queue.offer(task, capacity, overflow, |t| u64::from(t.priority))
        {
            // A shed copy is a failure for arbitration: with a live
            // hedge/reroute sibling the loss is silent, otherwise Shed
            // is the task's one terminal result. (`Closed`, ignored,
            // means the experiment was torn down.)
            if let Verdict::Deliver { hedges, reroutes } =
                inner.health.on_result(endpoint, victim.id, victim.topic, true, 0.0)
            {
                inner.shed_result(victim, endpoint, hedges, reroutes, capacity as f64);
            }
        }
    }

    async fn return_result(inner: Rc<Inner>, mut result: TaskResult, endpoint: usize) {
        Transit::new(&inner, Way::In, endpoint, result.wire_bytes()).await;
        // Exactly-once arbitration, *after* the full return path: a
        // winner stuck behind a dead connection never gets here, so a
        // healthy hedge copy takes the race; losers count as waste.
        let waste =
            result.report.compute_time.as_secs_f64() + result.report.wasted_time.as_secs_f64();
        if let Verdict::Deliver { hedges, reroutes } =
            inner.health.on_result(endpoint, result.id, result.topic, result.is_failed(), waste)
        {
            result.report.hedges = hedges;
            result.report.reroutes = reroutes;
            result.timing.server_result_received = Some(inner.sim.now());
            inner.finish(result);
        }
    }

    /// Everything [`Fabric::submit`] decides, in the call: the payload
    /// check, the `dispatched` stamp, admission and routing, and the
    /// draw of the client's cost.
    fn submit(self: &Rc<Inner>, mut task: TaskSpec) -> Submit<'_> {
        let bytes = task.wire_bytes();
        let (label, cap) = (self.wire.label, self.wire.payload_cap);
        assert!(
            bytes <= cap,
            "{label} payload {bytes} bytes exceeds the {cap} byte cap (topic {}): large data \
             must be passed by reference",
            task.topic,
        );
        task.timing.dispatched = Some(self.sim.now());
        // The reliability layer admits the task and picks its endpoint.
        // A refused submission still pays the client's call (for an
        // empty payload) and resolves to Shed.
        let admitted = self.health.admit(&task);
        let bytes = if admitted.is_ok() { bytes } else { 0 };
        let cost = self.wire.submit.cost(&mut self.rng.borrow_mut(), bytes);
        // The client pays the submit cost; the rest runs detached.
        Submit { sleep: self.sim.sleep(cost), then: Some((self, task, admitted)) }
    }

    /// What a [`Submit`] runs once the client's call is paid for, given
    /// what `admit` decided: `Ok(endpoint)` the task is bound for, or the
    /// `Err(primary)` endpoint its refusal's `Shed` goes to.
    fn after_cost(inner: &Rc<Inner>, task: TaskSpec, admitted: Result<usize, usize>) {
        inner.submitted.set(inner.submitted.get() + 1);
        let endpoint = match admitted {
            Err(primary) => {
                let load = inner.health.in_flight(task.topic) as f64;
                inner.shed_result(task, primary, 0, 0, load);
                return;
            }
            Ok(endpoint) => endpoint,
        };
        let topic = task.topic;
        if let Some(delay) = inner.health.hedge_delay(topic) {
            inner.push_check(inner.sim.now() + delay, task.id, topic);
        }
        // The round-trip deadline goes to the topic's deadline actor.
        if let Some(dues) = inner.deadlines.get(topic) {
            let due = (inner.sim.now() + inner.deadline, endpoint, Stub::of(&task));
            if dues.send_now(due).is_err() {
                // Only `Sim::teardown` drops the actor, with the pools and
                // return paths: nothing is left that could deliver the task.
                return;
            }
        }
        Self::spawn_delivery(inner, task, endpoint);
    }
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
    then: Option<(&'a Rc<Inner>, TaskSpec, Result<usize, usize>)>,
}

const _: () = assert!(std::mem::size_of::<Submit<'_>>() <= 96);

impl Future for Submit<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Pin::new(&mut self.sleep).poll(cx).is_pending() {
            return Poll::Pending;
        }
        if let Some((inner, task, admitted)) = self.then.take() {
            Inner::after_cost(inner, task, admitted);
        }
        Poll::Ready(())
    }
}

impl<F> Fabric for Dispatcher<F> {
    fn submit(&self, task: TaskSpec) -> Submit<'_> {
        self.inner.submit(task)
    }

    fn label(&self) -> &'static str {
        self.inner.wire.label
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
    use crate::htex::{HtexEndpoint, HtexExecutor, HtexParams};
    use crate::reliability::overload::AdmissionConfig;
    use crate::reliability::RetryPolicy;
    use crate::task::{Arg, TaskWork};
    use hetflow_sim::{Dist, Link, Receiver, SimTime, TraceKind};
    use hetflow_store::SiteId;
    use proptest::prelude::*;

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
            Ep { stalled, ..Ep::staffed(site, 1) }
        }

        /// A healthy endpoint with `workers` workers, serving `unit`.
        fn staffed(site: u16, workers: usize) -> Ep {
            let pool = WorkerPoolConfig::bare(SiteId(site), format!("ep{site}"), workers);
            Ep { pool, stalled: false, topics: vec!["unit"] }
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
            let policies = ReliabilityPolicies { default };
            let sim = Sim::new();
            let (tx, results) = channel();
            let tracer = Tracer::enabled();
            let rng = SimRng::from_seed(5);
            match kind {
                Kind::FnX => {
                    let params = FnXParams {
                        https_latency: Dist::Constant(0.1),
                        small_store: Link { latency: Dist::Constant(0.04), bandwidth: 4.0e4 },
                        large_store: Link { latency: Dist::Constant(0.2), bandwidth: 8.0e5 },
                        forward_latency: Dist::Constant(0.05),
                        result_latency: Dist::Constant(0.06),
                        ..FnXParams::default()
                    };
                    let stalled: Vec<bool> = eps.iter().map(|ep| ep.stalled).collect();
                    let eps = eps.into_iter().map(|ep| EndpointSpec::reliable(ep.pool, ep.topics));
                    let exec = FnXExecutor::with_reliability(
                        &sim,
                        params,
                        eps.collect(),
                        tx,
                        rng,
                        tracer.clone(),
                        policies,
                    );
                    // Offline from the start: no watcher sees a transition.
                    for (conn, stalled) in exec.chaos_targets().connectivity.iter().zip(stalled) {
                        conn.set_online(!stalled);
                    }
                    Rig::over(sim, exec, results, tracer)
                }
                Kind::Htex => {
                    let submit = Link { latency: Dist::Constant(0.002), bandwidth: 1.0e8 };
                    let params = HtexParams { submit };
                    let eps = eps
                        .into_iter()
                        .map(|ep| {
                            let latency = Dist::Constant(if ep.stalled { 1.0e9 } else { 0.005 });
                            let link = Link { latency, bandwidth: 4.0e7 };
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

        fn over<F: 'static>(
            sim: Sim,
            exec: Dispatcher<F>,
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
            let (report, results) = self.run_report(script);
            (report.end.as_secs_f64(), results)
        }

        /// [`Rig::run`], returning the executor's whole report.
        fn run_report<F>(
            &self,
            script: impl FnOnce(Sim, Rc<dyn Fabric>) -> F,
        ) -> (hetflow_sim::RunReport, Vec<TaskResult>)
        where
            F: Future<Output = ()> + 'static,
        {
            self.sim.spawn_detached(script(self.sim.clone(), Rc::clone(&self.fabric)));
            let report = self.sim.run();
            let mut results = self.results.drain_now();
            results.sort_by_key(|r| r.id);
            (report, results)
        }

        fn events(&self, kind: TraceKind) -> usize {
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
        // `unit` and `bulk` tasks go interleaved to an endpoint with no
        // worker; two `quick` tasks complete on the other endpoint, handed
        // off last. Each topic has its own deadline actor. Each stuck task
        // fails at its own hand-off (the end of its submit call) + the
        // 20 s deadline. The second quick task has long finished when its
        // entry comes up behind the first's, yet its deadline still
        // wakes: it, not the last expiry, ends the run.
        let dl = Duration::from_secs(20);
        for kind in BOTH {
            let policy = ReliabilityPolicy { deadline: dl, ..Default::default() };
            let quick = Ep { topics: vec!["quick"], ..Ep::new(1, false) };
            let eps = vec![Ep::unstaffed(0, vec!["unit", "bulk"]), quick];
            let rig = Rig::new(kind, eps, policy);
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
            for id in 0..4 {
                let r = &results[id];
                let after = Some(&TaskError::Timeout { after: dl });
                assert_eq!(r.outcome.error(), after, "{kind:?}: task {id}");
                assert_eq!(r.timing.server_result_received, Some(handed[id] + dl), "{kind:?}");
                want.push((handed[id] + dl, r.id, dl.as_secs_f64()));
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
            assert_eq!(end, (handed[5] + dl).as_secs_f64(), "{kind:?}: the last deadline");
        }
    }

    #[test]
    fn hedged_dispatch_rescues_straggler_exactly_once() {
        // Warm the round-trip estimate with fast tasks, then make
        // endpoint 0's pool a straggler: the hedge actor re-issues
        // the slow task on endpoint 1, whose copy wins; the straggling
        // copy is cancelled when it finally surfaces.
        for kind in BOTH {
            let hedge = HedgeConfig { quantile: 0.5, factor: 2.0, min_samples: 3 };
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
            let cancelled = rig.tracer.events_of_kind(kinds::TASK_CANCELLED);
            assert!(cancelled[0].value > 0.0, "{kind:?}: the loser's burn is accounted");
        }
    }

    #[test]
    fn a_hedged_task_is_not_checked_again_so_the_run_ends_at_its_last_copy() {
        // Hedging only (no deadline). Three queued 10 s tasks set the
        // delay near 40 s; straggler 3 runs 65 s on endpoint 0, so its
        // copy on endpoint 1 wins well within one delay of the hedge and
        // the original surfaces, cancelled, about 15 s later. A task gets
        // one hedge, so nothing is left to wake for: the run ends when
        // the original surfaces, not one delay after the hedge.
        for kind in BOTH {
            let hedge = HedgeConfig { quantile: 0.5, factor: 2.0, min_samples: 3 };
            let policy = ReliabilityPolicy { hedge, ..Default::default() };
            let rig = Rig::new(kind, vec![Ep::new(0, false), Ep::new(1, false)], policy);
            let (pace, health) = (rig.chaos.pace[0].clone(), rig.health.clone());
            let delay = Rc::new(Cell::new(Duration::ZERO));
            let seen = Rc::clone(&delay);
            let (end, results) = rig.run(|sim, f| async move {
                for id in 0..3 {
                    f.submit(work(id, 0, 10)).await;
                }
                sim.sleep(Duration::from_secs(60)).await;
                pace.set(6.5);
                f.submit(work(3, 0, 10)).await;
                seen.set(health.hedge_delay("unit").expect("three round trips seen"));
            });
            assert_eq!(ids(&results), [0, 1, 2, 3], "{kind:?}");
            assert_eq!(results[3].site, SiteId(1), "{kind:?}: the copy won");
            let at = |event| rig.tracer.events_of_kind(event).iter().map(|e| e.t).collect::<Vec<_>>();
            let (hedged, cancelled) = (at(kinds::TASK_HEDGED), at(kinds::TASK_CANCELLED));
            assert_eq!((hedged.len(), cancelled.len()), (1, 1), "{kind:?}");
            assert!(cancelled[0] < hedged[0] + delay.get(), "{kind:?}: {cancelled:?} {hedged:?}");
            assert_eq!(end, cancelled[0].as_secs_f64(), "{kind:?}: the original surfaces last");
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

    #[test]
    fn settled_tasks_cost_the_armed_path_no_wakes_but_the_first_and_last_dues() {
        // Nine tasks, each handed off 3 s after the last has settled: the
        // first gives the hedge its round trip, and every one settles
        // within seconds, long before its hedge check (50x the round
        // trip, after the last hand-off) and its 600 s deadline. Each
        // actor sleeps on its first entry, queued alone, and on its last;
        // every entry between was settled when its turn came. Waking for
        // every entry would cost 17 fires, and skipping the last would
        // end the run before the last deadline.
        let deadline = Duration::from_secs(600);
        let script = |handed: Rc<Cell<SimTime>>| {
            move |sim: Sim, f: Rc<dyn Fabric>| async move {
                for id in 0..9 {
                    f.submit(work(id, 1_000, 1)).await;
                    handed.set(sim.now());
                    sim.sleep(Duration::from_secs(3)).await;
                }
            }
        };
        for kind in BOTH {
            let eps = || vec![Ep::staffed(0, 2), Ep::staffed(1, 2)];
            let bare = Rig::new(kind, eps(), ReliabilityPolicy::default());
            let (unarmed, _) = bare.run_report(script(Rc::default()));

            let hedge = HedgeConfig { quantile: 0.5, factor: 50.0, min_samples: 1 };
            let policy = ReliabilityPolicy { hedge, deadline, ..Default::default() };
            let rig = Rig::new(kind, eps(), policy);
            let handed = Rc::new(Cell::new(SimTime::ZERO));
            let (armed, results) = rig.run_report(script(Rc::clone(&handed)));
            assert_eq!(ids(&results), (0..9).collect::<Vec<_>>(), "{kind:?}");
            assert!(results.iter().all(|r| r.outcome == TaskOutcome::Success), "{kind:?}");
            assert_eq!(rig.events(kinds::TASK_HEDGED), 0, "{kind:?}: nothing left to hedge");
            assert_eq!(armed.end, handed.get() + deadline, "{kind:?}: the last deadline due");
            assert!(
                armed.timer_fires <= unarmed.timer_fires + 4,
                "{kind:?}: {} fires armed, {} unarmed",
                armed.timer_fires,
                unarmed.timer_fires
            );
        }
    }

    #[test]
    fn a_check_due_before_the_hedge_alarm_hedges_at_its_own_due() {
        // Three 60 s round trips set the hedge delay near 60 s; task 3,
        // a straggler, is checked at that delay, and the hedge actor
        // sleeps until then. Seven 1 s round trips then drop the delay to
        // about a second, so straggler 11's check falls due long before
        // the actor's alarm: the push must wake the actor, and task 11
        // is hedged at its own due, not at task 3's.
        for kind in BOTH {
            let hedge = HedgeConfig { quantile: 0.5, factor: 1.0, min_samples: 3 };
            let policy = ReliabilityPolicy { hedge, ..Default::default() };
            let rig = Rig::new(kind, vec![Ep::staffed(0, 16), Ep::staffed(1, 16)], policy);
            let health = rig.health.clone();
            let dues = Rc::new(RefCell::new(Vec::new()));
            let log = Rc::clone(&dues);
            let (_, results) = rig.run(|sim, f| async move {
                for id in 0..3 {
                    f.submit(work(id, 0, 60)).await;
                }
                sim.sleep(Duration::from_secs(80)).await;
                for id in 3..12 {
                    let straggler = id == 3 || id == 11;
                    if id == 11 {
                        sim.sleep(Duration::from_secs(5)).await;
                    }
                    f.submit(work(id, 0, if straggler { 200 } else { 1 })).await;
                    if straggler {
                        let delay = health.hedge_delay("unit").expect("three round trips seen");
                        log.borrow_mut().push(sim.now() + delay);
                    } else {
                        sim.sleep(Duration::from_secs(2)).await;
                    }
                }
            });
            assert_eq!(ids(&results), (0..12).collect::<Vec<_>>(), "{kind:?}");
            assert!(results.iter().all(|r| r.outcome == TaskOutcome::Success), "{kind:?}");
            let (first, late) = (dues.borrow()[0], dues.borrow()[1]);
            assert!(late + Duration::from_secs(20) < first, "{kind:?}: {late:?} vs {first:?}");
            let hedged: Vec<_> = rig
                .tracer
                .events_of_kind(kinds::TASK_HEDGED)
                .iter()
                .map(|e| (e.entity, e.t))
                .collect();
            assert_eq!(hedged, [(11, late), (3, first)], "{kind:?}: each hedge at its own due");
        }
    }

    #[test]
    fn retained_requests_take_no_more_slots_than_tasks_ever_unsettled() {
        // A re-issuing topic retains every admitted request until its
        // task settles. Waves of one to four tasks, 1 000 in all: the
        // slab must end at the peak unsettled count, reusing the slot of
        // every settled task.
        for kind in BOTH {
            let policy = ReliabilityPolicy { max_reroutes: 1, ..Default::default() };
            let rig = Rig::new(kind, vec![Ep::staffed(0, 4), Ep::staffed(1, 4)], policy);
            let health = rig.health.clone();
            let peak = Rc::new(Cell::new(0));
            let seen = Rc::clone(&peak);
            let (_, results) = rig.run(|sim, f| async move {
                let mut next = 0;
                for size in [1, 2, 3, 4].into_iter().cycle() {
                    let end = (next + size).min(1_000);
                    for id in next..end {
                        f.submit(work(id, 100, 2)).await;
                        seen.set(seen.get().max(health.outstanding().0));
                    }
                    next = end;
                    if next == 1_000 {
                        break;
                    }
                    sim.sleep(Duration::from_secs(10)).await;
                }
            });
            assert_eq!(results.len(), 1_000, "{kind:?}");
            assert_eq!(rig.health.outstanding(), (0, 0), "{kind:?}: everything settled");
            assert_eq!(peak.get(), 4, "{kind:?}: the waves overlap no further");
            assert_eq!(rig.health.retained_slots(), peak.get(), "{kind:?}: slots reused");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every submitted id settles exactly once, whichever arms are
        /// on — hedge (q 0.95), one reroute, a round-trip deadline, a
        /// shedding queue bound, an in-flight cap — over a stalled or a
        /// healthy primary that turns straggler halfway, on both
        /// transports. At quiescence no task is unsettled and no
        /// admission slot is held.
        #[test]
        fn every_task_settles_once_and_returns_its_admission_slot(
            seed in any::<u64>(),
            hedge in any::<bool>(),
            reroute in any::<bool>(),
            deadline in any::<bool>(),
            shed in any::<bool>(),
            cap in any::<bool>(),
            stalled in any::<bool>(),
        ) {
            const N: TaskId = 24;
            for kind in BOTH {
                let ep = |site, stalled| {
                    let mut ep = Ep::new(site, stalled).with_delivery_timeout();
                    if shed {
                        ep.pool.queue_capacity = 2;
                        ep.pool.overflow = OverflowPolicy::ShedLowestPriority;
                    }
                    ep
                };
                let off = HedgeConfig::default();
                let on = HedgeConfig { quantile: 0.95, factor: 1.0, min_samples: 3 };
                let policy = ReliabilityPolicy {
                    hedge: if hedge { on } else { off },
                    max_reroutes: u32::from(reroute),
                    deadline: Duration::from_secs(if deadline { 60 } else { 0 }),
                    admission: AdmissionConfig {
                        max_in_flight: if cap { 4 } else { 0 },
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let rig = Rig::new(kind, vec![ep(0, stalled), ep(1, false)], policy);
                let pace = rig.chaos.pace[0].clone();
                let (_, results) = rig.run(move |sim, f| async move {
                    let mut rng = SimRng::from_seed(seed);
                    for id in 0..N {
                        if id == N / 2 {
                            pace.set(20.0);
                        }
                        let secs = [1, 2, 5, 40][rng.below(4)];
                        let priority = rng.below(3) as u8;
                        f.submit(work(id, 1_000, secs).with_priority(priority)).await;
                        sim.sleep(Duration::from_millis(rng.below(8_000) as u64)).await;
                    }
                });
                prop_assert_eq!(ids(&results), (0..N).collect::<Vec<_>>(), "{:?}", kind);
                let (submitted, returned, _) = (rig.counts)();
                prop_assert_eq!((submitted, returned), (N, N), "{:?}", kind);
                prop_assert_eq!(rig.health.outstanding(), (0, 0), "{:?}: unsettled, slots held", kind);
            }
        }
    }
}

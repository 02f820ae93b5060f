//! Endpoint health tracking, circuit breaking, and failover dispatch —
//! the *active* half of the robustness story.
//!
//! The cloud services give the fabrics passive robustness (§IV-A3:
//! tasks are held while an endpoint is offline), but nothing in funcX
//! or Colmena *reacts* to an unhealthy resource: a task routed to a
//! dark endpoint waits out the outage and a straggling worker stalls
//! the campaign. [`ReliabilityLayer`] adds the reaction. Per endpoint
//! it folds heartbeat gaps (connectivity watchers), consecutive
//! failures, and tail-latency violations into an open/half-open/closed
//! circuit breaker; the dispatch path consults the breakers to steer
//! tasks to healthy endpoints, re-issues straggling tasks elsewhere
//! after a quantile-based hedge delay, and re-routes delivery timeouts
//! instead of failing them — while guaranteeing the thinker sees
//! **exactly one** terminal outcome per task id: the first result
//! settles the task, and every losing copy is cancelled and accounted
//! as waste.
//!
//! All decisions are RNG-free functions of observed simulation events,
//! so enabling the layer keeps same-seed runs digest-stable, and the
//! all-zero [`ReliabilityPolicy`] disables every mechanism without
//! perturbing existing traces (the `RetryPolicy` zero-defers
//! convention).

use crate::reliability::overload::AdmissionController;
use crate::reliability::Connectivity;
use crate::task::{Request, TaskId, TaskSpec};
use hetflow_sim::{trace_kinds as kinds, Sim, SimTime, Symbol, SymbolMap, Tracer};
use std::cell::{Cell, RefCell};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::time::Duration;

/// Cool-down applied when a breaker opens and the policy leaves
/// `open_for` at zero.
const DEFAULT_OPEN_FOR: Duration = Duration::from_secs(60);
/// Successes required to close a half-open breaker when the policy
/// leaves `close_after` at zero.
const DEFAULT_CLOSE_AFTER: u32 = 1;
/// Hedge-delay sample floor when the policy leaves `min_samples` at
/// zero.
const DEFAULT_MIN_SAMPLES: usize = 8;
/// Speculative copies issued per task at most.
const MAX_HEDGES: u32 = 1;

/// Per-topic circuit-breaker tuning. Zero values defer, matching
/// [`crate::reliability::RetryPolicy`]: the all-zero default disables
/// the breaker entirely and draws no entropy, leaving existing
/// same-seed traces bit-identical.
#[derive(Clone, Debug, Default)]
pub struct BreakerConfig {
    /// Consecutive failures observed at an endpoint before its breaker
    /// opens. `0` disables circuit breaking for this topic.
    pub failure_threshold: u32,
    /// How long an open breaker rejects dispatches before admitting a
    /// half-open probe. `0` defers to 60 s.
    pub open_for: Duration,
    /// Probe successes required to close a half-open breaker. `0`
    /// defers to 1.
    pub close_after: u32,
    /// Heartbeat grace: when the endpoint's connection stays offline
    /// longer than this, the breaker trips without waiting for task
    /// failures. `0` disables the connectivity watcher.
    pub offline_grace: Duration,
    /// Tail-latency SLO: a *successful* round trip slower than this
    /// still counts as a failure signal for the breaker (the endpoint
    /// is technically up but too slow to be useful). `0` disables
    /// latency-based tripping.
    pub latency_slo: Duration,
}

impl BreakerConfig {
    /// True when circuit breaking is enabled for this topic.
    pub(crate) fn enabled(&self) -> bool {
        self.failure_threshold > 0
    }

    fn open_for(&self) -> Duration {
        if self.open_for.is_zero() {
            DEFAULT_OPEN_FOR
        } else {
            self.open_for
        }
    }

    fn close_after(&self) -> u32 {
        self.close_after.max(DEFAULT_CLOSE_AFTER)
    }
}

/// Hedged-dispatch tuning for stragglers. Zero values defer; the
/// all-zero default disables hedging.
#[derive(Clone, Debug, Default)]
pub struct HedgeConfig {
    /// Round-trip-latency quantile after which a straggling task is
    /// re-issued (e.g. `0.95`). `0.0` disables hedging.
    pub quantile: f64,
    /// Multiplier on the quantile delay. `0.0` defers to 1.0.
    pub factor: f64,
    /// Observed round trips required before the quantile estimate is
    /// trusted. `0` defers to 8.
    pub min_samples: usize,
}

impl HedgeConfig {
    /// True when hedged dispatch is enabled for this topic.
    pub(crate) fn enabled(&self) -> bool {
        self.quantile > 0.0
    }

    fn min_samples(&self) -> usize {
        if self.min_samples == 0 {
            DEFAULT_MIN_SAMPLES
        } else {
            self.min_samples
        }
    }
}

/// The full reliability policy for one topic.
#[derive(Clone, Debug, Default)]
pub struct ReliabilityPolicy {
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Hedged-dispatch tuning.
    pub hedge: HedgeConfig,
    /// Delivery timeouts re-dispatch to another endpoint up to this
    /// many times before failing the task. `0` keeps the PR-2
    /// behavior: a delivery timeout fails the task immediately.
    pub max_reroutes: u32,
    /// Hard round-trip deadline measured from dispatch: a task with no
    /// terminal outcome after this long is failed by the fabric, even
    /// if copies are still stuck in flight (they are cancelled on
    /// arrival). The backstop that makes "exactly one terminal outcome
    /// per task" hold under arbitrary chaos. `Duration::ZERO` disables
    /// it.
    pub deadline: Duration,
    /// Admission control (token-bucket rate + in-flight cap) applied
    /// before the task enters the fabric. All-zero disables it.
    pub admission: crate::reliability::overload::AdmissionConfig,
}

impl ReliabilityPolicy {
    /// True when any active mechanism is configured — used by the
    /// fabrics to decide whether a task spec must be retained for
    /// possible re-issue.
    fn needs_copy(&self) -> bool {
        self.hedge.enabled() || self.max_reroutes > 0
    }
}

/// Per-topic reliability policies with a fallback default, mirroring
/// [`crate::reliability::RetryPolicies`]. The endpoint-level
/// connectivity watchers are governed by the `default` policy's
/// breaker config (an endpoint serves many topics; its heartbeat is
/// topic-agnostic).
#[derive(Clone, Debug, Default)]
pub struct ReliabilityPolicies {
    /// Policy for topics without a dedicated entry.
    pub default: ReliabilityPolicy,
    /// Topic-specific overrides. Indexed by interned [`Symbol`] id —
    /// O(1) per dispatch-path lookup — while iterating in
    /// resolved-string order, so traces match the old
    /// `BTreeMap<String, _>` exactly.
    pub per_topic: SymbolMap<ReliabilityPolicy>,
}

impl ReliabilityPolicies {
    /// Builder: sets the policy for one topic.
    pub fn with_topic(mut self, topic: impl Into<Symbol>, policy: ReliabilityPolicy) -> Self {
        self.per_topic.insert(topic.into(), policy);
        self
    }

    /// The policy governing `topic`.
    pub(crate) fn policy_for(&self, topic: impl Into<Symbol>) -> &ReliabilityPolicy {
        self.per_topic.get(topic.into()).unwrap_or(&self.default)
    }
}

/// Circuit-breaker state of one endpoint.
#[derive(Clone, Debug, PartialEq)]
enum Gate {
    /// Healthy: dispatches flow.
    Closed,
    /// Tripped: dispatches steer away until the cool-down elapses.
    Open {
        /// When the breaker becomes eligible for a half-open probe.
        until: SimTime,
    },
    /// Cooling down: a single probe task is admitted; its outcome
    /// decides whether the breaker closes or re-opens.
    HalfOpen {
        /// The probe currently in flight, if any.
        probe: Option<TaskId>,
        /// Successes observed since entering half-open.
        successes: u32,
    },
}

struct EndpointHealth {
    /// Pre-interned `"<label>/health/ep<i>"` trace actor.
    actor: Symbol,
    gate: RefCell<Gate>,
    /// Consecutive failures since the last success.
    consecutive: Cell<u32>,
    /// Trip generation: increments on every open, and is the payload
    /// of the `breaker_opened`/`breaker_closed` trace events.
    generation: Cell<u64>,
}

impl EndpointHealth {
    fn new(actor: Symbol) -> Self {
        EndpointHealth {
            actor,
            gate: RefCell::new(Gate::Closed),
            consecutive: Cell::new(0),
            generation: Cell::new(0),
        }
    }
}

/// A round trip ordered by [`f64::total_cmp`], so it can sit in a heap.
struct Rtt(f64);

impl Ord for Rtt {
    fn cmp(&self, other: &Rtt) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Rtt {
    fn partial_cmp(&self, other: &Rtt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rtt {
    fn eq(&self, other: &Rtt) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Rtt {}

/// Exact running `q`-quantile of every value recorded so far: the bits
/// that sorting the whole stream and interpolating at `pos = q·(n−1)`
/// gives, at O(log n) per record and O(1) per read. `lower` is a
/// max-heap of the `floor(pos) + 1` smallest values, so its top is
/// `sorted[floor(pos)]`; `upper` is a min-heap of the rest, so its top
/// is `sorted[floor(pos) + 1]`. `q` never changes, so the split only
/// moves up, by at most one value per record.
struct RunningQuantile {
    /// In `[0, 1]`.
    q: f64,
    lower: BinaryHeap<Rtt>,
    upper: BinaryHeap<Reverse<Rtt>>,
}

impl RunningQuantile {
    fn new(q: f64) -> Self {
        RunningQuantile { q, lower: BinaryHeap::new(), upper: BinaryHeap::new() }
    }

    fn len(&self) -> usize {
        self.lower.len() + self.upper.len()
    }

    fn record(&mut self, v: f64) {
        // `len()` is the new `n − 1`.
        let keep = (self.q * self.len() as f64).floor() as usize + 1;
        match self.lower.peek() {
            Some(top) if Rtt(v) > *top => self.upper.push(Reverse(Rtt(v))),
            _ => self.lower.push(Rtt(v)),
        }
        if self.lower.len() > keep {
            if let Some(top) = self.lower.pop() {
                self.upper.push(Reverse(top));
            }
        } else if self.lower.len() < keep {
            if let Some(Reverse(top)) = self.upper.pop() {
                self.lower.push(top);
            }
        }
        debug_assert_eq!(self.lower.len(), keep);
    }

    /// Linear interpolation between the two order statistics around
    /// `pos`; 0 when empty.
    fn quantile(&self) -> f64 {
        let Some(&Rtt(lo)) = self.lower.peek() else { return 0.0 };
        let pos = self.q * (self.len() - 1) as f64;
        let frac = pos - pos.floor();
        match self.upper.peek() {
            Some(&Reverse(Rtt(hi))) if frac > 0.0 => lo * (1.0 - frac) + hi * frac,
            _ => lo,
        }
    }
}

/// One admitted task that has not settled yet: how many of its copies
/// are in flight, and where what re-issuing one needs is kept. 32 bytes,
/// so the B-tree moves small entries on every insert and remove.
struct Inflight {
    /// The task's slot in the registry's slab of retained requests, for
    /// hedge/reroute re-issue (`None` when the topic's policy never
    /// re-issues). A copy gets an envelope of its own only when it is
    /// actually issued.
    spec: Option<u32>,
    /// Copies currently somewhere between dispatch and result.
    live: u32,
    /// Speculative copies issued so far.
    hedges: u32,
    /// Timeout-driven re-dispatches so far.
    reroutes: u32,
    /// When the task was first dispatched (round-trip baseline).
    dispatched: SimTime,
}

const _: () = assert!(std::mem::size_of::<Inflight>() <= 32);

/// Admitted tasks that have not settled, and the requests retained for
/// the ones whose topic may re-issue them.
#[derive(Default)]
struct Registry {
    inflight: BTreeMap<TaskId, Inflight>,
    retained: Retained,
}

impl Registry {
    /// Removes task `id`'s entry and drops its retained request; `false`
    /// when it had settled.
    fn settle(&mut self, id: TaskId) -> bool {
        let Some(entry) = self.inflight.remove(&id) else { return false };
        if let Some(slot) = entry.spec {
            self.retained.vacate(slot);
        }
        true
    }
}

/// The slab of retained requests: a request sits in a slot from `admit`
/// until its task settles, and the next admission reuses the slot, so
/// the slab holds as many slots as the most tasks ever unsettled at once.
#[derive(Default)]
struct Retained {
    /// A slot's request, or `None` and the next vacant slot: the vacant
    /// list lives in the slots, so the slab is one buffer.
    slots: Vec<(Option<Request>, Option<u32>)>,
    /// The vacant slot the next request takes.
    vacant: Option<u32>,
}

impl Retained {
    fn put(&mut self, request: Request) -> u32 {
        let Some(slot) = self.vacant else {
            self.slots.push((Some(request), None));
            return (self.slots.len() - 1) as u32;
        };
        let (held, next) = &mut self.slots[slot as usize];
        *held = Some(request);
        self.vacant = next.take();
        slot
    }

    /// A fresh copy of the request in `slot`, in an envelope of its own.
    fn copy(&self, slot: Option<u32>) -> Option<TaskSpec> {
        let request = self.slots.get(slot? as usize)?.0.clone()?;
        Some(TaskSpec::from(request))
    }

    fn vacate(&mut self, slot: u32) {
        self.slots[slot as usize] = (None, self.vacant);
        self.vacant = Some(slot);
    }
}

/// What the fabric should do with a result arriving from an endpoint.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// First terminal outcome for this id: deliver it to the thinker,
    /// stamped with how many hedges/reroutes the task needed.
    Deliver {
        /// Speculative copies issued for this task.
        hedges: u32,
        /// Timeout-driven re-dispatches for this task.
        reroutes: u32,
    },
    /// A losing duplicate (or a failure while a sibling copy is still
    /// live): drop it; it has been accounted as cancelled waste.
    Suppress,
}

/// What the fabric should do when a delivery attempt times out.
#[derive(Debug)]
pub(crate) enum TimeoutVerdict {
    /// Re-dispatch the task to endpoint `to`.
    Reroute {
        /// A fresh copy of the task to deliver.
        spec: TaskSpec,
        /// The endpoint chosen for the re-dispatch.
        to: usize,
    },
    /// No copies left and no reroutes allowed: fail the task with
    /// `TaskError::Timeout` (the PR-2 behavior).
    Fail,
    /// Another copy is still in flight (or the task already finished):
    /// swallow this timeout silently.
    Suppress,
}

struct LayerInner {
    sim: Sim,
    tracer: Tracer,
    /// Pre-interned `"<label>/health"` trace actor.
    actor: Symbol,
    policies: ReliabilityPolicies,
    /// Topic → candidate endpoints, primary first. Symbol-indexed:
    /// the per-dispatch lookup is an array index, not a string-compare
    /// tree walk.
    route: SymbolMap<Vec<usize>>,
    endpoints: Vec<EndpointHealth>,
    /// Admitted tasks that have not settled, and the requests retained
    /// for their re-issue; an entry and its request leave when the task
    /// settles.
    registry: RefCell<Registry>,
    /// Token-bucket/in-flight admission: `admit` takes a slot, settling
    /// returns it.
    admission: AdmissionController,
    /// Successful round trips of each topic whose policy hedges,
    /// tracked at that topic's `hedge.quantile`: the hedge delay's
    /// only input, so nothing is kept for a topic that never hedges.
    rtt: RefCell<SymbolMap<RunningQuantile>>,
    /// Seconds burned by cancelled losing copies.
    wasted: Cell<f64>,
    cancelled: Cell<u64>,
    hedged: Cell<u64>,
    rerouted: Cell<u64>,
}

/// The active reliability layer shared by both fabrics: breaker-aware
/// routing, hedged dispatch, timeout rerouting, and exactly-once
/// result arbitration. Cheap to clone (shared state).
#[derive(Clone)]
pub struct ReliabilityLayer {
    inner: Rc<LayerInner>,
}

impl ReliabilityLayer {
    /// Builds the layer for `n` endpoints with the given topic routing
    /// (primary endpoint first in each candidate list), and each topic's
    /// admission control from its policy. For endpoints
    /// with a [`Connectivity`], a heartbeat watcher is spawned when the
    /// default policy sets `offline_grace`: if the connection stays
    /// offline past the grace period, the endpoint's breaker trips
    /// without waiting for task failures.
    pub(crate) fn new(
        sim: &Sim,
        tracer: Tracer,
        label: &'static str,
        policies: ReliabilityPolicies,
        route: SymbolMap<Vec<usize>>,
        connectivity: &[Connectivity],
    ) -> Self {
        let n = route.values().flat_map(|c| c.iter()).fold(0, |m, &e| m.max(e + 1));
        let endpoints = (0..n.max(connectivity.len()))
            .map(|ep| EndpointHealth::new(Symbol::intern(&format!("{label}/health/ep{ep}"))))
            .collect();
        // All-zero configs register nothing. A topic's refusals are
        // attributed to its primary endpoint.
        let admission = AdmissionController::new(
            sim,
            route.iter().map(|(topic, targets)| {
                (topic, policies.policy_for(topic).admission.clone(), targets[0])
            }),
        );
        let layer = ReliabilityLayer {
            inner: Rc::new(LayerInner {
                sim: sim.clone(),
                tracer,
                actor: Symbol::intern(&format!("{label}/health")),
                policies,
                route,
                endpoints,
                registry: RefCell::new(Registry::default()),
                admission,
                rtt: RefCell::new(SymbolMap::new()),
                wasted: Cell::new(0.0),
                cancelled: Cell::new(0),
                hedged: Cell::new(0),
                rerouted: Cell::new(0),
            }),
        };
        let grace = layer.inner.policies.default.breaker.offline_grace;
        if !grace.is_zero() {
            for (ep, conn) in connectivity.iter().enumerate() {
                layer.spawn_watcher(ep, conn.clone(), grace);
            }
        }
        layer
    }

    /// Event-driven heartbeat watcher: on every offline transition,
    /// race the reconnection against the grace period; losing trips
    /// the breaker. No polling, no idle timers — the watcher pends on
    /// the connectivity event between transitions, so it never blocks
    /// simulation quiescence.
    fn spawn_watcher(&self, endpoint: usize, conn: Connectivity, grace: Duration) {
        let layer = self.clone();
        let sim = self.inner.sim.clone();
        self.inner.sim.spawn(async move {
            loop {
                conn.wait_change().await;
                if !conn.is_online() && sim.timeout(grace, conn.wait_online()).await.is_err() {
                    layer.trip(endpoint);
                    // Stay parked until the endpoint actually returns;
                    // the half-open probe cycle handles recovery from here.
                    conn.wait_online().await;
                }
            }
        });
    }

    fn policy(&self, topic: Symbol) -> &ReliabilityPolicy {
        self.inner.policies.policy_for(topic)
    }

    /// Admits a task and picks its endpoint: the first candidate whose
    /// breaker admits the task, falling back to the primary when every
    /// gate is shut (availability over purity). With breaking disabled
    /// for the topic this is exactly the PR-2 primary-only routing and
    /// touches no breaker state. An admitted task holds its registry
    /// entry and admission slot until it settles. `Err` carries the
    /// primary endpoint of a topic whose admission control refuses the
    /// task; a refused task is never registered. Panics on a topic no
    /// endpoint serves.
    pub(crate) fn admit(&self, task: &TaskSpec) -> Result<usize, usize> {
        self.inner.admission.try_admit(task.topic)?;
        let policy = self.policy(task.topic);
        #[expect(
            clippy::panic,
            reason = "unrouted topic is a deployment wiring bug, not a runtime fault"
        )]
        let endpoint = match self.inner.route.get(task.topic).map(Vec::as_slice) {
            Some(candidates) if policy.breaker.enabled() => self.pick(task.id, candidates, None),
            Some(&[primary, ..]) => primary,
            _ => panic!("no endpoint registered for topic {}", task.topic),
        };
        let mut reg = self.inner.registry.borrow_mut();
        let spec = policy.needs_copy().then(|| reg.retained.put(Request::clone(task)));
        let dispatched = self.inner.sim.now();
        let entry = Inflight { spec, live: 1, hedges: 0, reroutes: 0, dispatched };
        let unsettled = reg.inflight.insert(task.id, entry);
        debug_assert!(unsettled.is_none(), "task {} admitted while its id is unsettled", task.id);
        Ok(endpoint)
    }

    /// Breaker-aware endpoint choice among the candidates other than
    /// `skip`. Open gates past their cool-down lazily transition to
    /// half-open and admit the task as the probe. With every gate shut
    /// the first of them is chosen anyway (availability over purity);
    /// with no candidate but `skip`, the primary.
    fn pick(&self, id: TaskId, candidates: &[usize], skip: Option<usize>) -> usize {
        let now = self.inner.sim.now();
        let mut others = candidates.iter().copied().filter(|&ep| Some(ep) != skip);
        for ep in others.clone() {
            let Some(health) = self.inner.endpoints.get(ep) else { continue };
            let mut gate = health.gate.borrow_mut();
            match &mut *gate {
                Gate::Closed => return ep,
                Gate::Open { until } if now >= *until => {
                    *gate = Gate::HalfOpen { probe: Some(id), successes: 0 };
                    return ep;
                }
                Gate::Open { .. } => {}
                Gate::HalfOpen { probe, .. } => {
                    if probe.is_none() {
                        *probe = Some(id);
                        return ep;
                    }
                }
            }
        }
        others.next().or(candidates.first().copied()).unwrap_or(0)
    }

    /// The hedge check delay for `topic`: the configured round-trip
    /// quantile times the factor, once enough round trips have been
    /// observed. `None` while hedging is disabled or the estimate is
    /// not yet trustworthy.
    pub(crate) fn hedge_delay(&self, topic: impl Into<Symbol>) -> Option<Duration> {
        let topic = topic.into();
        let hedge = &self.policy(topic).hedge;
        if !hedge.enabled() {
            return None;
        }
        let rtt = self.inner.rtt.borrow();
        let seen = rtt.get(topic)?;
        if seen.len() < hedge.min_samples() {
            return None;
        }
        let q = seen.quantile();
        let factor = if hedge.factor > 0.0 { hedge.factor } else { 1.0 };
        let delay = (q * factor).max(0.0);
        Some(hetflow_sim::time::secs(delay))
    }

    /// Attempts to issue a speculative copy of task `id`: succeeds when
    /// the task has not settled and has no copy yet. The
    /// copy prefers an endpoint other than the candidates' primary so
    /// a straggling or dead endpoint is actually bypassed; with a
    /// single endpoint the copy re-queues there (still rescuing tasks
    /// stuck behind a crash). Emits `task_hedged`.
    pub(crate) fn try_hedge(&self, id: TaskId, topic: impl Into<Symbol>) -> Option<(TaskSpec, usize)> {
        let candidates = self.inner.route.get(topic.into())?;
        let mut guard = self.inner.registry.borrow_mut();
        let reg = &mut *guard;
        let entry = reg.inflight.get_mut(&id)?;
        if entry.hedges >= MAX_HEDGES {
            return None;
        }
        let spec = reg.retained.copy(entry.spec)?;
        entry.hedges += 1;
        entry.live += 1;
        let copy = entry.hedges;
        drop(guard);
        let to = self.pick(id, candidates, candidates.first().copied());
        self.inner.hedged.set(self.inner.hedged.get() + 1);
        self.inner.tracer.emit(
            self.inner.sim.now(),
            self.inner.actor,
            kinds::TASK_HEDGED,
            id,
            copy as f64,
        );
        Some((spec, to))
    }

    /// Arbitrates a result arriving from `endpoint` just before it
    /// would be delivered: the first terminal outcome settles the task
    /// and is delivered. A copy of a settled task — and any failure
    /// while a sibling copy is still live — is suppressed, traced as
    /// `task_cancelled`, and its burned time (`waste_secs`) is
    /// accounted as hedging waste. Successes/failures also feed the
    /// endpoint's breaker, including the tail-latency SLO check.
    pub(crate) fn on_result(
        &self,
        endpoint: usize,
        id: TaskId,
        topic: impl Into<Symbol>,
        failed: bool,
        waste_secs: f64,
    ) -> Verdict {
        let topic = topic.into();
        let now = self.inner.sim.now();
        let policy = self.policy(topic);
        let cfg = &policy.breaker;
        let mut reg = self.inner.registry.borrow_mut();
        let Some(entry) = reg.inflight.get_mut(&id) else {
            drop(reg);
            self.cancel(id, waste_secs);
            return Verdict::Suppress;
        };
        entry.live -= 1;
        let rtt = (now - entry.dispatched).as_secs_f64();
        let slow = !cfg.latency_slo.is_zero() && rtt > cfg.latency_slo.as_secs_f64();
        if failed && entry.live > 0 {
            // A sibling copy may still win: treat this failure as a
            // cancelled duplicate rather than a terminal outcome.
            drop(reg);
            self.observe(endpoint, cfg, false, id);
            self.cancel(id, waste_secs);
            return Verdict::Suppress;
        }
        let verdict = Verdict::Deliver { hedges: entry.hedges, reroutes: entry.reroutes };
        drop(reg);
        self.settle(id, topic);
        if !failed && policy.hedge.enabled() {
            self.inner
                .rtt
                .borrow_mut()
                .get_or_insert_with(topic, || {
                    RunningQuantile::new(policy.hedge.quantile.clamp(0.0, 1.0))
                })
                .record(rtt);
        }
        self.observe(endpoint, cfg, !failed && !slow, id);
        verdict
    }

    /// Arbitrates a delivery timeout at `endpoint`: reroute to another
    /// endpoint while the topic's budget allows (tracing
    /// `task_rerouted`), suppress when a sibling copy is still live or
    /// the task has settled, and otherwise settle the task and fail it.
    /// The timeout of an unsettled task counts as a failure signal for
    /// the endpoint's breaker.
    pub(crate) fn on_timeout(&self, endpoint: usize, id: TaskId, topic: impl Into<Symbol>) -> TimeoutVerdict {
        let topic = topic.into();
        let policy = self.policy(topic);
        let candidates: &[usize] =
            self.inner.route.get(topic).map(Vec::as_slice).unwrap_or(&[]);
        let mut reg = self.inner.registry.borrow_mut();
        let Some(entry) = reg.inflight.get_mut(&id) else { return TimeoutVerdict::Suppress };
        entry.live -= 1;
        let can_reroute = entry.reroutes < policy.max_reroutes && entry.spec.is_some();
        if can_reroute {
            entry.reroutes += 1;
            entry.live += 1;
            let (n, slot) = (entry.reroutes, entry.spec);
            let spec = reg.retained.copy(slot);
            drop(reg);
            self.observe(endpoint, &policy.breaker, false, id);
            if let Some(spec) = spec {
                let to = self.pick(id, candidates, Some(endpoint));
                self.inner.rerouted.set(self.inner.rerouted.get() + 1);
                self.inner.tracer.emit(
                    self.inner.sim.now(),
                    self.inner.actor,
                    kinds::TASK_REROUTED,
                    id,
                    n as f64,
                );
                return TimeoutVerdict::Reroute { spec, to };
            }
            return TimeoutVerdict::Fail;
        }
        if entry.live > 0 {
            drop(reg);
            self.observe(endpoint, &policy.breaker, false, id);
            return TimeoutVerdict::Suppress;
        }
        drop(reg);
        self.settle(id, topic);
        self.observe(endpoint, &policy.breaker, false, id);
        TimeoutVerdict::Fail
    }

    /// Fires the hard round-trip deadline for task `id` of `topic`:
    /// returns `true` when the task had not settled — it settles now,
    /// and the caller must deliver a synthesized timeout failure;
    /// in-flight copies are cancelled as they surface.
    pub(crate) fn expire(&self, id: TaskId, topic: impl Into<Symbol>) -> bool {
        self.settle(id, topic.into())
    }

    /// True while task `id` is admitted and has not settled: the only
    /// tasks a hedge check or a deadline can still act on.
    pub(crate) fn unsettled(&self, id: TaskId) -> bool {
        self.inner.registry.borrow().inflight.contains_key(&id)
    }

    /// Settles task `id` of `topic` at its first terminal outcome: its
    /// entry leaves the registry, its retained request is dropped and
    /// its admission slot is returned, so every later copy finds no
    /// entry. `false` when it had settled.
    fn settle(&self, id: TaskId, topic: Symbol) -> bool {
        let settled = self.inner.registry.borrow_mut().settle(id);
        if settled {
            self.inner.admission.release(topic);
        }
        settled
    }

    /// Admitted tasks of `topic` that hold an in-flight slot; 0 where
    /// the topic has no cap.
    pub(crate) fn in_flight(&self, topic: Symbol) -> usize {
        self.inner.admission.in_flight(topic)
    }

    /// Records a cancelled losing copy.
    fn cancel(&self, id: TaskId, waste_secs: f64) {
        self.inner.cancelled.set(self.inner.cancelled.get() + 1);
        self.inner.wasted.set(self.inner.wasted.get() + waste_secs.max(0.0));
        self.inner.tracer.emit(
            self.inner.sim.now(),
            self.inner.actor,
            kinds::TASK_CANCELLED,
            id,
            waste_secs.max(0.0),
        );
    }

    /// Feeds one observation into an endpoint's breaker.
    fn observe(&self, endpoint: usize, cfg: &BreakerConfig, success: bool, id: TaskId) {
        if !cfg.enabled() {
            return;
        }
        let Some(health) = self.inner.endpoints.get(endpoint) else { return };
        let mut transition: Option<bool> = None; // Some(true) = opened
        {
            let mut gate = health.gate.borrow_mut();
            if let Gate::HalfOpen { probe, .. } = &mut *gate {
                if *probe == Some(id) {
                    *probe = None;
                }
            }
            if success {
                health.consecutive.set(0);
                match &mut *gate {
                    Gate::Closed => {}
                    Gate::Open { .. } => {
                        // A round trip completed while open: genuine
                        // current evidence of health — move to
                        // half-open with this success banked.
                        if cfg.close_after() <= 1 {
                            *gate = Gate::Closed;
                            transition = Some(false);
                        } else {
                            *gate = Gate::HalfOpen { probe: None, successes: 1 };
                        }
                    }
                    Gate::HalfOpen { successes, .. } => {
                        *successes += 1;
                        if *successes >= cfg.close_after() {
                            *gate = Gate::Closed;
                            transition = Some(false);
                        }
                    }
                }
            } else {
                let c = health.consecutive.get() + 1;
                health.consecutive.set(c);
                let open_now = match &*gate {
                    Gate::Closed => c >= cfg.failure_threshold,
                    Gate::HalfOpen { .. } => true, // failed probe
                    Gate::Open { .. } => false,
                };
                if open_now {
                    *gate = Gate::Open { until: self.inner.sim.now() + cfg.open_for() };
                    transition = Some(true);
                }
            }
        }
        match transition {
            Some(true) => self.announce_open(endpoint),
            Some(false) => self.announce_closed(endpoint),
            None => {}
        }
    }

    /// Force-opens an endpoint's breaker (heartbeat watchers; tests).
    /// Uses the default policy's cool-down.
    pub(crate) fn trip(&self, endpoint: usize) {
        let Some(health) = self.inner.endpoints.get(endpoint) else { return };
        let open_for = self.inner.policies.default.breaker.open_for();
        let was_open = {
            let mut gate = health.gate.borrow_mut();
            let was = matches!(&*gate, Gate::Open { .. });
            *gate = Gate::Open { until: self.inner.sim.now() + open_for };
            was
        };
        if !was_open {
            self.announce_open(endpoint);
        }
    }

    fn announce_open(&self, endpoint: usize) {
        let Some(health) = self.inner.endpoints.get(endpoint) else { return };
        let generation = health.generation.get() + 1;
        health.generation.set(generation);
        health.consecutive.set(0);
        self.inner.tracer.emit(
            self.inner.sim.now(),
            health.actor,
            kinds::BREAKER_OPENED,
            endpoint as u64,
            generation as f64,
        );
    }

    fn announce_closed(&self, endpoint: usize) {
        let Some(health) = self.inner.endpoints.get(endpoint) else { return };
        self.inner.tracer.emit(
            self.inner.sim.now(),
            health.actor,
            kinds::BREAKER_CLOSED,
            endpoint as u64,
            health.generation.get() as f64,
        );
    }

    /// True while `endpoint`'s breaker is open (cool-down running).
    pub fn breaker_open(&self, endpoint: usize) -> bool {
        self.inner
            .endpoints
            .get(endpoint)
            .map(|h| matches!(&*h.gate.borrow(), Gate::Open { .. }))
            .unwrap_or(false)
    }

    /// Times an endpoint's breaker has opened so far.
    pub fn breaker_generation(&self, endpoint: usize) -> u64 {
        self.inner.endpoints.get(endpoint).map(|h| h.generation.get()).unwrap_or(0)
    }

    /// Admitted tasks that have not settled, and the admission slots
    /// held across every topic: both 0 at quiescence.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> (usize, usize) {
        (self.inner.registry.borrow().inflight.len(), self.inner.admission.held())
    }

    /// Slots of the retained-request slab, occupied or vacant: the most
    /// re-issuable tasks ever unsettled at once.
    #[cfg(test)]
    pub(crate) fn retained_slots(&self) -> usize {
        self.inner.registry.borrow().retained.slots.len()
    }

    /// Seconds burned by cancelled losing copies.
    #[cfg(test)]
    pub fn wasted_secs(&self) -> f64 {
        self.inner.wasted.get()
    }

    /// Losing copies cancelled so far.
    pub fn cancelled(&self) -> u64 {
        self.inner.cancelled.get()
    }

    /// Speculative copies issued so far.
    pub fn hedged(&self) -> u64 {
        self.inner.hedged.get()
    }

    /// Timeout-driven re-dispatches so far.
    pub fn rerouted(&self) -> u64 {
        self.inner.rerouted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use hetflow_sim::{Samples, Sim, SimRng, SimTime};
    use proptest::prelude::*;

    fn layer_with(policies: ReliabilityPolicies, n_endpoints: usize) -> (Sim, ReliabilityLayer) {
        let sim = Sim::new();
        let mut route = SymbolMap::new();
        for topic in ["noop", "simulate", "train"] {
            route.insert(Symbol::intern(topic), (0..n_endpoints).collect::<Vec<_>>());
        }
        let layer = ReliabilityLayer::new(
            &sim,
            Tracer::enabled(),
            "fnx",
            policies,
            route,
            &[],
        );
        (sim, layer)
    }

    fn breaker_policy(threshold: u32) -> ReliabilityPolicies {
        ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: threshold,
                    open_for: Duration::from_secs(30),
                    ..Default::default()
                },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        }
    }

    #[test]
    fn disabled_policy_routes_to_primary_and_passes_results() {
        let (_sim, layer) = layer_with(ReliabilityPolicies::default(), 2);
        let t = TaskSpec::noop(1, 100);
        assert_eq!(layer.admit(&t), Ok(0));
        assert_eq!(
            layer.on_result(0, 1, "noop", false, 0.0),
            Verdict::Deliver { hedges: 0, reroutes: 0 }
        );
        assert_eq!(layer.cancelled(), 0);
        assert!(!layer.breaker_open(0));
    }

    #[test]
    fn consecutive_failures_open_then_failover() {
        let (_sim, layer) = layer_with(breaker_policy(3), 2);
        for id in 0..3u64 {
            let t = TaskSpec::noop(id, 100);
            assert_eq!(layer.admit(&t), Ok(0), "primary while closed");
            let v = layer.on_result(0, id, "noop", true, 1.0);
            assert_eq!(v, Verdict::Deliver { hedges: 0, reroutes: 0 });
        }
        assert!(layer.breaker_open(0), "third consecutive failure trips the breaker");
        assert_eq!(layer.breaker_generation(0), 1);
        let t = TaskSpec::noop(10, 100);
        assert_eq!(layer.admit(&t), Ok(1), "dispatch steers to the healthy endpoint");
    }

    #[test]
    fn success_resets_consecutive_count() {
        let (_sim, layer) = layer_with(breaker_policy(3), 2);
        for id in 0..10u64 {
            let t = TaskSpec::noop(id, 100);
            assert_eq!(layer.admit(&t), Ok(0));
            // Alternate failure/success: never 3 consecutive.
            layer.on_result(0, id, "noop", id % 2 == 0, 0.0);
        }
        assert!(!layer.breaker_open(0));
    }

    #[test]
    fn half_open_probe_closes_breaker_after_cooldown() {
        let (sim, layer) = layer_with(breaker_policy(1), 2);
        let t = TaskSpec::noop(0, 100);
        assert_eq!(layer.admit(&t), Ok(0));
        layer.on_result(0, 0, "noop", true, 0.0);
        assert!(layer.breaker_open(0));
        // Within the cool-down: dispatches steer away.
        let t = TaskSpec::noop(1, 100);
        assert_eq!(layer.admit(&t), Ok(1));
        layer.on_result(1, 1, "noop", false, 0.0);
        // After the cool-down: the primary gets the half-open probe.
        let s = sim.clone();
        let l = layer.clone();
        let h = sim.spawn(async move {
            s.sleep(Duration::from_secs(31)).await;
            let probe = TaskSpec::noop(2, 100);
            let ep = l.admit(&probe);
            assert!(!l.breaker_open(0), "half-open is not open");
            let v = l.on_result(0, 2, "noop", false, 0.0);
            (ep, v)
        });
        let (ep, v) = sim.block_on(h);
        assert_eq!(ep, Ok(0), "probe goes to the recovering primary");
        assert_eq!(v, Verdict::Deliver { hedges: 0, reroutes: 0 });
        assert!(!layer.breaker_open(0), "successful probe closes the breaker");
        let opened = layer.inner.tracer.events_of_kind(kinds::BREAKER_OPENED);
        let closed = layer.inner.tracer.events_of_kind(kinds::BREAKER_CLOSED);
        assert_eq!(opened.len(), 1);
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        let (sim, layer) = layer_with(breaker_policy(1), 2);
        let t = TaskSpec::noop(0, 100);
        assert_eq!(layer.admit(&t), Ok(0));
        layer.on_result(0, 0, "noop", true, 0.0);
        let s = sim.clone();
        let l = layer.clone();
        let h = sim.spawn(async move {
            s.sleep(Duration::from_secs(31)).await;
            let probe = TaskSpec::noop(1, 100);
            let ep = l.admit(&probe);
            l.on_result(0, 1, "noop", true, 0.0);
            ep
        });
        assert_eq!(sim.block_on(h), Ok(0));
        assert!(layer.breaker_open(0), "failed probe re-opens");
        assert_eq!(layer.breaker_generation(0), 2);
    }

    #[test]
    fn half_open_admits_single_probe() {
        let (sim, layer) = layer_with(breaker_policy(1), 2);
        let t = TaskSpec::noop(0, 100);
        assert_eq!(layer.admit(&t), Ok(0));
        layer.on_result(0, 0, "noop", true, 0.0);
        let s = sim.clone();
        let l = layer.clone();
        let h = sim.spawn(async move {
            s.sleep(Duration::from_secs(31)).await;
            let a = l.admit(&TaskSpec::noop(1, 100));
            let b = l.admit(&TaskSpec::noop(2, 100));
            (a, b)
        });
        let (a, b) = sim.block_on(h);
        assert_eq!(a, Ok(0), "first dispatch is the probe");
        assert_eq!(b, Ok(1), "second dispatch steers away while the probe is out");
    }

    #[test]
    fn duplicate_results_suppressed_exactly_once_semantics() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.9, min_samples: 1, ..Default::default() },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let (_sim, layer) = layer_with(policies, 2);
        let t = TaskSpec::noop(7, 100);
        assert_eq!(layer.admit(&t), Ok(0));
        let hedge = layer.try_hedge(7, "noop");
        assert!(hedge.is_some(), "unresolved task under budget must hedge");
        let (_spec, to) = hedge.unwrap();
        assert_eq!(to, 1, "hedge prefers a different endpoint");
        assert_eq!(
            layer.on_result(1, 7, "noop", false, 0.0),
            Verdict::Deliver { hedges: 1, reroutes: 0 },
            "first result wins and reports the hedge count"
        );
        assert_eq!(
            layer.on_result(0, 7, "noop", false, 3.5),
            Verdict::Suppress,
            "the loser is cancelled"
        );
        assert_eq!(layer.cancelled(), 1);
        assert!((layer.wasted_secs() - 3.5).abs() < 1e-12);
        assert!(layer.try_hedge(7, "noop").is_none(), "resolved tasks never hedge");
        let cancelled = layer.inner.tracer.events_of_kind(kinds::TASK_CANCELLED);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].entity, 7);
    }

    #[test]
    fn failure_with_live_sibling_is_suppressed() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.9, min_samples: 1, ..Default::default() },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let (_sim, layer) = layer_with(policies, 2);
        assert_eq!(layer.admit(&TaskSpec::noop(1, 100)), Ok(0));
        layer.try_hedge(1, "noop");
        assert_eq!(
            layer.on_result(0, 1, "noop", true, 2.0),
            Verdict::Suppress,
            "a failure must not beat a still-live sibling"
        );
        assert_eq!(
            layer.on_result(1, 1, "noop", false, 0.0),
            Verdict::Deliver { hedges: 1, reroutes: 0 }
        );
    }

    #[test]
    fn hedge_delay_needs_samples_then_tracks_quantile() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.5, factor: 2.0, min_samples: 3 },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let (sim, layer) = layer_with(policies, 1);
        assert!(layer.hedge_delay("noop").is_none(), "no samples yet");
        let l = layer.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            for id in 0..4u64 {
                assert_eq!(l.admit(&TaskSpec::noop(id, 100)), Ok(0));
                s.sleep(Duration::from_secs(10)).await;
                l.on_result(0, id, "noop", false, 0.0);
            }
            l.hedge_delay("noop")
        });
        let delay = sim.block_on(h);
        // Every round trip took 10 s; median 10 × factor 2 = 20 s.
        assert_eq!(delay, Some(Duration::from_secs(20)));
    }

    #[test]
    fn reissue_choice_falls_back_to_first_other_then_primary() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                hedge: HedgeConfig { quantile: 0.9, ..Default::default() },
                max_reroutes: 2,
                ..breaker_policy(1).default
            },
            per_topic: SymbolMap::new(),
        };
        let (_sim, layer) = layer_with(policies.clone(), 3);
        assert_eq!(layer.admit(&TaskSpec::noop(1, 100)), Ok(0));
        layer.trip(2);
        assert_eq!(layer.try_hedge(1, "noop").map(|(_, to)| to), Some(1), "first open gate");
        layer.trip(0);
        layer.trip(1);
        // Every gate shut: the first candidate that is not the skipped one.
        assert_eq!(reroute_target(layer.on_timeout(1, 1, "noop")), Some(0));
        assert_eq!(reroute_target(layer.on_timeout(0, 1, "noop")), Some(1));
        // No other endpoint registered: the copy re-queues at the primary.
        let (_sim, solo) = layer_with(policies, 1);
        assert_eq!(solo.admit(&TaskSpec::noop(2, 100)), Ok(0));
        assert_eq!(solo.try_hedge(2, "noop").map(|(_, to)| to), Some(0));
        assert_eq!(reroute_target(solo.on_timeout(0, 2, "noop")), Some(0));
    }

    fn reroute_target(verdict: TimeoutVerdict) -> Option<usize> {
        match verdict {
            TimeoutVerdict::Reroute { to, .. } => Some(to),
            _ => None,
        }
    }

    /// A 53-bit uniform in `[0, 1)`.
    fn unit(raw: u64) -> f64 {
        (raw >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One stream value per draw: small integers, exact ties, both
    /// zeros and a few negatives (the cases where a partial order and
    /// `total_cmp` disagree), or a uniform in `[0, 50)`.
    fn stream_value(raw: u64, small_only: bool) -> f64 {
        match raw % 4 {
            0 => ((raw >> 2) % 6) as f64,
            1 => -(((raw >> 2) % 3) as f64),
            _ if small_only => ((raw >> 2) % 4) as f64 * 0.5,
            _ => unit(raw) * 50.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn running_quantile_matches_samples_bit_for_bit_after_every_record(
            raw in prop::collection::vec(any::<u64>(), 1..=300),
            q_pick in 0u8..6,
            q_raw in any::<u64>(),
            small_only in any::<bool>(),
        ) {
            let q = match q_pick {
                0 => 0.0,
                1 => 1.0,
                2 => 0.5,
                3 => 0.95,
                _ => unit(q_raw),
            };
            let mut reference = Samples::new();
            let mut running = RunningQuantile::new(q);
            for (i, &r) in raw.iter().enumerate() {
                let v = stream_value(r, small_only);
                reference.record(v);
                running.record(v);
                prop_assert_eq!(running.len(), i + 1);
                prop_assert_eq!(running.lower.len(), (q * i as f64).floor() as usize + 1);
                if let (Some(lo), Some(Reverse(hi))) = (running.lower.peek(), running.upper.peek()) {
                    prop_assert!(lo <= hi, "max(lower) {} > min(upper) {}", lo.0, hi.0);
                }
                prop_assert_eq!(
                    running.quantile().to_bits(),
                    reference.quantile(q).to_bits(),
                    "q {} after {} records (last {}): running {} vs sorted {}",
                    q, i + 1, v, running.quantile(), reference.quantile(q)
                );
            }
        }
    }

    fn hedging(quantile: f64, factor: f64) -> ReliabilityPolicy {
        ReliabilityPolicy {
            hedge: HedgeConfig { quantile, factor, min_samples: 1 },
            ..Default::default()
        }
    }

    fn task_on(topic: &str, id: TaskId) -> TaskSpec {
        let mut task = TaskSpec::noop(id, 100);
        task.topic = Symbol::intern(topic);
        task
    }

    /// The delay `hedge_delay` must return for `seen` at `(q, factor)`
    /// with `min_samples: 1`, through the sort-on-read reference.
    fn reference_delay(seen: &Samples, q: f64, factor: f64) -> Option<Duration> {
        let delay = (seen.quantile(q) * factor).max(0.0);
        (!seen.is_empty()).then(|| hetflow_sim::time::secs(delay))
    }

    /// Runs `rounds` round trips of random length, alternating over
    /// `topics`, and hands each one's recorded duration to `each`.
    fn drive(
        sim: &Sim,
        layer: &ReliabilityLayer,
        topics: &'static [&'static str],
        rounds: u64,
        mut each: impl FnMut(&'static str, f64) + 'static,
    ) {
        let (s, l) = (sim.clone(), layer.clone());
        let h = sim.spawn(async move {
            let mut rng = SimRng::from_seed(11);
            for id in 0..rounds {
                let topic = topics[id as usize % topics.len()];
                assert_eq!(l.admit(&task_on(topic, id)), Ok(0));
                let sent = s.now();
                s.sleep(Duration::from_micros(1 + rng.below(5_000_000) as u64)).await;
                l.on_result(0, id, topic, false, 0.0);
                each(topic, (s.now() - sent).as_secs_f64());
            }
        });
        sim.block_on(h);
    }

    #[test]
    fn each_hedging_topic_tracks_its_own_quantile_and_others_track_nothing() {
        let policies = ReliabilityPolicies::default()
            .with_topic("simulate", hedging(0.95, 1.5))
            .with_topic("noop", hedging(0.5, 0.0));
        let (sim, layer) = layer_with(policies, 1);
        let reference = Rc::new(RefCell::new((Samples::new(), Samples::new())));
        let (l, r) = (layer.clone(), Rc::clone(&reference));
        drive(&sim, &layer, &["simulate", "noop", "train"], 600, move |topic, rtt| {
            let mut r = r.borrow_mut();
            match topic {
                "simulate" => r.0.record(rtt),
                "noop" => r.1.record(rtt),
                _ => {}
            }
            assert_eq!(l.hedge_delay("simulate"), reference_delay(&r.0, 0.95, 1.5));
            assert_eq!(l.hedge_delay("noop"), reference_delay(&r.1, 0.5, 1.0));
            assert_eq!(l.hedge_delay("train"), None);
        });
        assert_eq!(reference.borrow().0.len(), 200);
        let rtt = layer.inner.rtt.borrow();
        assert_eq!(rtt.len(), 2, "no tracker for the topic that never hedges");
        assert!(!rtt.contains_key(Symbol::intern("train")));
    }

    /// 200 000 armed round trips, each reading the hedge delay: a read
    /// that is linear (or worse) in the history makes this quadratic —
    /// tens of minutes with a sort per read — and cannot pass tier-1.
    #[test]
    fn hedge_delay_stays_cheap_over_200k_round_trips() {
        let policies = ReliabilityPolicies::default().with_topic("noop", hedging(0.95, 1.5));
        let (sim, layer) = layer_with(policies, 1);
        let reference = Rc::new(RefCell::new(Samples::new()));
        let (l, r) = (layer.clone(), Rc::clone(&reference));
        drive(&sim, &layer, &["noop"], 200_000, move |_, rtt| {
            r.borrow_mut().record(rtt);
            assert!(l.hedge_delay("noop").is_some());
        });
        let reference = reference.borrow();
        assert_eq!(reference.len(), 200_000);
        assert_eq!(layer.hedge_delay("noop"), reference_delay(&reference, 0.95, 1.5));
    }

    #[test]
    fn timeout_reroutes_within_budget_then_fails() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy { max_reroutes: 1, ..Default::default() },
            per_topic: SymbolMap::new(),
        };
        let (_sim, layer) = layer_with(policies, 2);
        assert_eq!(layer.admit(&TaskSpec::noop(3, 100)), Ok(0));
        match layer.on_timeout(0, 3, "noop") {
            TimeoutVerdict::Reroute { spec, to } => {
                assert_eq!(spec.id, 3);
                assert_eq!(to, 1, "reroute avoids the timing-out endpoint");
            }
            other => panic!("expected reroute, got {other:?}"),
        }
        assert_eq!(layer.rerouted(), 1);
        match layer.on_timeout(1, 3, "noop") {
            TimeoutVerdict::Fail => {}
            other => panic!("budget exhausted must fail, got {other:?}"),
        }
        let rerouted = layer.inner.tracer.events_of_kind(kinds::TASK_REROUTED);
        assert_eq!(rerouted.len(), 1);
    }

    #[test]
    fn expire_fires_once_and_cancels_stragglers() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                deadline: Duration::from_secs(100),
                max_reroutes: 1,
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let (_sim, layer) = layer_with(policies, 1);
        assert_eq!(layer.admit(&TaskSpec::noop(9, 100)), Ok(0));
        assert!(layer.expire(9, "noop"), "an unsettled task expires");
        assert!(!layer.expire(9, "noop"), "second expiry is a no-op");
        assert_eq!(
            layer.on_result(0, 9, "noop", false, 4.0),
            Verdict::Suppress,
            "a result surfacing after expiry is cancelled"
        );
        assert_eq!(layer.cancelled(), 1);
    }

    #[test]
    fn hedged_and_rerouted_copies_equal_the_original() {
        // The registry retains the request as it stood at `admit`; every
        // copy it issues is that request in an envelope of its own.
        let policy = ReliabilityPolicy { max_reroutes: 1, ..hedging(0.5, 1.0) };
        let policies = ReliabilityPolicies { default: policy, per_topic: SymbolMap::new() };
        let (_sim, layer) = layer_with(policies, 2);
        let args = vec![crate::task::Arg::inline((), 1_200), crate::task::Arg::inline((), 34)];
        let compute: crate::task::TaskFn = Rc::new(|_| crate::task::TaskWork::noop());
        let mut original = TaskSpec::new(7, "simulate", args, compute).with_priority(42);
        original.ser_time = Duration::from_millis(3);
        original.timing.created = Some(SimTime::from_secs(1));
        original.timing.submitted = Some(SimTime::from_secs(2));
        original.timing.server_received = Some(SimTime::from_secs(3));
        original.timing.dispatched = Some(SimTime::from_secs(4));
        assert_eq!(layer.admit(&original), Ok(0));
        // Stamps after `admit` belong to the original's own journey.
        original.timing.worker_started = Some(SimTime::from_secs(5));

        let same = |copy: &TaskSpec, what: &str| {
            assert_eq!((copy.id, copy.topic, copy.priority), (7, original.topic, 42), "{what}");
            assert_eq!(copy.ser_time, original.ser_time, "{what}");
            assert_eq!((copy.wire_bytes(), copy.input_bytes()), (2_234, 1_234), "{what}");
            assert!(Rc::ptr_eq(&copy.compute, &original.compute), "{what}: one closure");
            let (c, o) = (copy.timing, original.timing);
            assert_eq!(
                (c.created, c.submitted, c.server_received, c.dispatched),
                (o.created, o.submitted, o.server_received, o.dispatched),
                "{what}"
            );
            assert!(c.worker_started.is_none() && copy.failed.is_none(), "{what}");
        };
        let (hedged, to) = layer.try_hedge(7, "simulate").expect("under its hedge budget");
        assert_eq!(to, 1, "a hedge bypasses the primary");
        same(&hedged, "hedged copy");
        match layer.on_timeout(1, 7, "simulate") {
            TimeoutVerdict::Reroute { spec, to } => {
                assert_eq!(to, 0, "a reroute leaves the endpoint that timed out");
                same(&spec, "rerouted copy");
            }
            other => panic!("expected a reroute, got {other:?}"),
        }
    }

    #[test]
    fn latency_slo_violations_count_as_failures() {
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    latency_slo: Duration::from_secs(5),
                    ..Default::default()
                },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let (sim, layer) = layer_with(policies, 2);
        let l = layer.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            for id in 0..2u64 {
                assert_eq!(l.admit(&TaskSpec::noop(id, 100)), Ok(0));
                s.sleep(Duration::from_secs(30)).await; // 30 s ≫ 5 s SLO
                l.on_result(0, id, "noop", false, 0.0);
            }
            l.breaker_open(0)
        });
        assert!(sim.block_on(h), "two slow successes trip the SLO breaker");
    }

    #[test]
    fn offline_watcher_trips_after_grace() {
        let sim = Sim::new();
        let conn = Connectivity::always_on();
        let mut route = SymbolMap::new();
        route.insert(Symbol::intern("noop"), vec![0]);
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    offline_grace: Duration::from_secs(10),
                    ..Default::default()
                },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let layer = ReliabilityLayer::new(
            &sim,
            Tracer::enabled(),
            "fnx",
            policies,
            route,
            std::slice::from_ref(&conn),
        );
        let s = sim.clone();
        let c = conn.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_secs(5)).await;
            c.set_online(false);
        });
        sim.run();
        assert!(layer.breaker_open(0), "grace elapsed offline must trip the breaker");
        let opened = layer.inner.tracer.events_of_kind(kinds::BREAKER_OPENED);
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].t, SimTime::from_secs(15), "trip at offline + grace");
    }

    #[test]
    fn short_blip_within_grace_does_not_trip() {
        let sim = Sim::new();
        let conn = Connectivity::scheduled(
            &sim,
            vec![(SimTime::from_secs(5), Duration::from_secs(3))],
        );
        let mut route = SymbolMap::new();
        route.insert(Symbol::intern("noop"), vec![0]);
        let policies = ReliabilityPolicies {
            default: ReliabilityPolicy {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    offline_grace: Duration::from_secs(10),
                    ..Default::default()
                },
                ..Default::default()
            },
            per_topic: SymbolMap::new(),
        };
        let layer = ReliabilityLayer::new(
            &sim,
            Tracer::enabled(),
            "fnx",
            policies,
            route,
            std::slice::from_ref(&conn),
        );
        sim.run();
        assert!(!layer.breaker_open(0), "a 3 s blip inside a 10 s grace is forgiven");
    }
}

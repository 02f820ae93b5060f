//! Overload protection: admission control and backpressure.
//!
//! Two complementary mechanisms guard a fabric against task storms:
//!
//! * [`AdmissionController`] — a per-topic token bucket plus in-flight
//!   cap consulted at submission time. A task refused admission is shed
//!   immediately (it never reaches an endpoint queue), so the fabric
//!   spends no transit or worker time on load it cannot carry.
//! * [`BackpressureGate`] — per-topic depth watermarks. When the number
//!   of tasks between submission and terminal result crosses the high
//!   watermark the gate closes and upstream submitters
//!   ([`BackpressureGate::acquire`]) park until the depth drains below
//!   the low watermark. Closing and reopening emit
//!   `backpressure_on`/`backpressure_off` trace events that fold into
//!   the digest.
//!
//! Both follow the crate's zero-value-defers convention: an all-zero
//! [`AdmissionConfig`]/[`BackpressureConfig`] performs no awaits, draws
//! no random numbers, and emits no trace events, so existing same-seed
//! runs stay bit-identical.

use hetflow_sim::{trace_kinds as kinds, Event, Sim, SimTime, Symbol, SymbolMap, Tracer};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Token-bucket admission control for one topic.
///
/// The zero values are "defer": `rate == 0` means no rate limit,
/// `max_in_flight == 0` means no concurrency cap, and the all-zero
/// default disables the controller entirely for the topic.
#[derive(Clone, Debug, Default)]
pub struct AdmissionConfig {
    /// Sustained admissions per (virtual) second. `0` disables rate
    /// limiting.
    pub rate: f64,
    /// Bucket depth: how many admissions can burst above the sustained
    /// rate. `0` with a nonzero `rate` defaults to `max(rate, 1)`.
    pub burst: f64,
    /// Maximum tasks of this topic between admission and terminal
    /// result. `0` disables the cap.
    pub max_in_flight: usize,
}

impl AdmissionConfig {
    /// True when any admission mechanism is configured.
    pub(crate) fn enabled(&self) -> bool {
        self.rate > 0.0 || self.max_in_flight > 0
    }

    fn bucket_cap(&self) -> f64 {
        if self.burst > 0.0 {
            self.burst
        } else {
            self.rate.max(1.0)
        }
    }
}

/// Depth watermarks for one topic's backpressure gate.
///
/// `high == 0` disables the gate (the zero-value defer). `low` is
/// clamped below `high` so a closed gate always reopens strictly under
/// the closing threshold.
#[derive(Clone, Debug, Default)]
pub struct BackpressureConfig {
    /// Depth at or above which the gate closes. `0` disables.
    pub high: usize,
    /// Depth at or below which a closed gate reopens.
    pub low: usize,
}

impl BackpressureConfig {
    /// True when the gate is configured.
    pub(crate) fn enabled(&self) -> bool {
        self.high > 0
    }

    fn low_mark(&self) -> usize {
        self.low.min(self.high.saturating_sub(1))
    }
}

struct TopicAdmission {
    tokens: Cell<f64>,
    refilled_at: Cell<SimTime>,
    in_flight: Cell<usize>,
}

/// Per-topic token buckets and in-flight caps, consulted by the fabrics
/// before `crate::ReliabilityLayer::admit`. Refills are computed
/// lazily from elapsed virtual time — no timer actors, no RNG draws —
/// so the controller is exactly as deterministic as the clock.
pub struct AdmissionController {
    sim: Sim,
    topics: RefCell<SymbolMap<Rc<TopicAdmission>>>,
    rejected: Cell<u64>,
}

impl AdmissionController {
    /// A controller with no per-topic state yet; buckets materialize on
    /// first use of an enabled config.
    pub(crate) fn new(sim: &Sim) -> Self {
        AdmissionController {
            sim: sim.clone(),
            topics: RefCell::new(SymbolMap::new()),
            rejected: Cell::new(0),
        }
    }

    fn state_for(&self, topic: Symbol, cfg: &AdmissionConfig) -> Rc<TopicAdmission> {
        let mut topics = self.topics.borrow_mut();
        if let Some(st) = topics.get(topic) {
            return Rc::clone(st);
        }
        let st = Rc::new(TopicAdmission {
            tokens: Cell::new(cfg.bucket_cap()),
            refilled_at: Cell::new(self.sim.now()),
            in_flight: Cell::new(0),
        });
        topics.insert(topic, Rc::clone(&st));
        st
    }

    /// Decides whether a task of `topic` may enter the fabric under
    /// `cfg`. `true` consumes a token (and an in-flight slot when
    /// capped); the caller must balance every capped admission with
    /// [`AdmissionController::on_done`]. A disabled config admits
    /// unconditionally and touches no state.
    pub(crate) fn try_admit(&self, topic: Symbol, cfg: &AdmissionConfig) -> bool {
        if !cfg.enabled() {
            return true;
        }
        let st = self.state_for(topic, cfg);
        if cfg.max_in_flight > 0 && st.in_flight.get() >= cfg.max_in_flight {
            self.rejected.set(self.rejected.get() + 1);
            return false;
        }
        if cfg.rate > 0.0 {
            let now = self.sim.now();
            let elapsed = now.duration_since(st.refilled_at.get()).as_secs_f64();
            let tokens = (st.tokens.get() + elapsed * cfg.rate).min(cfg.bucket_cap());
            st.refilled_at.set(now);
            if tokens < 1.0 {
                st.tokens.set(tokens);
                self.rejected.set(self.rejected.get() + 1);
                return false;
            }
            st.tokens.set(tokens - 1.0);
        }
        if cfg.max_in_flight > 0 {
            st.in_flight.set(st.in_flight.get() + 1);
        }
        true
    }

    /// Releases the in-flight slot taken by an admitted task of
    /// `topic`. No-op for topics that never had a capped admission.
    pub(crate) fn on_done(&self, topic: Symbol) {
        if let Some(st) = self.topics.borrow().get(topic) {
            st.in_flight.set(st.in_flight.get().saturating_sub(1));
        }
    }

    /// Tasks of `topic` currently between admission and release.
    pub(crate) fn in_flight(&self, topic: Symbol) -> usize {
        self.topics.borrow().get(topic).map_or(0, |st| st.in_flight.get())
    }

    /// Total submissions refused so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }
}

struct TopicGate {
    cfg: BackpressureConfig,
    /// Registration order — the `entity` of this topic's backpressure
    /// trace events (topics are not numeric entities).
    index: u64,
    depth: Cell<usize>,
    closed: Cell<bool>,
    /// Level event, set while the gate is open. `acquire` resolves
    /// synchronously while set, so an open gate adds zero awaits.
    open: Event,
}

struct GateInner {
    sim: Sim,
    tracer: Tracer,
    actor: Symbol,
    topics: RefCell<SymbolMap<Rc<TopicGate>>>,
    transitions: Cell<u64>,
}

/// Per-topic high/low watermark gate over in-fabric task depth.
///
/// The fabric calls `BackpressureGate::on_enter` when a submission is
/// accepted and `BackpressureGate::on_exit` when its terminal result
/// is forwarded; steering clients await
/// [`BackpressureGate::acquire`] before submitting. Clones share state.
#[derive(Clone)]
pub struct BackpressureGate {
    inner: Rc<GateInner>,
}

impl BackpressureGate {
    /// An empty gate attributed to `actor` in the trace.
    pub(crate) fn new(sim: &Sim, tracer: Tracer, actor: impl Into<Symbol>) -> Self {
        BackpressureGate {
            inner: Rc::new(GateInner {
                sim: sim.clone(),
                tracer,
                actor: actor.into(),
                topics: RefCell::new(SymbolMap::new()),
                transitions: Cell::new(0),
            }),
        }
    }

    /// Registers `topic` with its watermarks. A disabled config (high
    /// watermark 0) registers nothing, so the topic stays gate-free.
    pub(crate) fn register(&self, topic: impl Into<Symbol>, cfg: &BackpressureConfig) {
        if !cfg.enabled() {
            return;
        }
        let mut topics = self.inner.topics.borrow_mut();
        let index = topics.len() as u64;
        let open = Event::new();
        open.set();
        topics.insert(
            topic.into(),
            Rc::new(TopicGate {
                cfg: cfg.clone(),
                index,
                depth: Cell::new(0),
                closed: Cell::new(false),
                open,
            }),
        );
    }

    fn gate(&self, topic: Symbol) -> Option<Rc<TopicGate>> {
        self.inner.topics.borrow().get(topic).cloned()
    }

    /// Parks until `topic`'s gate is open. Resolves immediately —
    /// without suspending — when the topic is unregistered or the gate
    /// is open, so ungated workloads schedule identically with or
    /// without a gate in place.
    pub async fn acquire(&self, topic: Symbol) {
        let Some(g) = self.gate(topic) else { return };
        while g.closed.get() {
            g.open.wait().await;
        }
    }

    /// Records a submission entering the fabric; closes the gate at the
    /// high watermark and emits `backpressure_on`.
    pub(crate) fn on_enter(&self, topic: Symbol) {
        let Some(g) = self.gate(topic) else { return };
        let depth = g.depth.get() + 1;
        g.depth.set(depth);
        if !g.closed.get() && depth >= g.cfg.high {
            g.closed.set(true);
            g.open.clear();
            self.inner.transitions.set(self.inner.transitions.get() + 1);
            self.inner.tracer.emit(
                self.inner.sim.now(),
                self.inner.actor,
                kinds::BACKPRESSURE_ON,
                g.index,
                depth as f64,
            );
        }
    }

    /// Records a terminal result leaving the fabric; reopens the gate
    /// at the low watermark and emits `backpressure_off`.
    pub(crate) fn on_exit(&self, topic: Symbol) {
        let Some(g) = self.gate(topic) else { return };
        let depth = g.depth.get().saturating_sub(1);
        g.depth.set(depth);
        if g.closed.get() && depth <= g.cfg.low_mark() {
            g.closed.set(false);
            g.open.set();
            self.inner.tracer.emit(
                self.inner.sim.now(),
                self.inner.actor,
                kinds::BACKPRESSURE_OFF,
                g.index,
                depth as f64,
            );
        }
    }

    /// True when no topic has watermarks registered — the gate can be
    /// skipped entirely.
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.topics.borrow().is_empty()
    }

    /// Current in-fabric depth of `topic` (0 when unregistered).
    pub fn depth(&self, topic: Symbol) -> usize {
        self.gate(topic).map_or(0, |g| g.depth.get())
    }

    /// True while `topic`'s gate is closed.
    pub fn is_closed(&self, topic: Symbol) -> bool {
        self.gate(topic).is_some_and(|g| g.closed.get())
    }

    /// Number of open→closed transitions so far (a pressure measure for
    /// benches and degradation policies).
    pub fn closures(&self) -> u64 {
        self.inner.transitions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_sim::time::secs;

    fn topic() -> Symbol {
        "simulate".into()
    }

    #[test]
    fn disabled_config_admits_everything_statelessly() {
        let sim = Sim::new();
        let ctl = AdmissionController::new(&sim);
        let cfg = AdmissionConfig::default();
        for _ in 0..1000 {
            assert!(ctl.try_admit(topic(), &cfg));
        }
        assert_eq!(ctl.rejected(), 0);
        assert_eq!(ctl.in_flight(topic()), 0, "disabled config creates no state");
    }

    #[test]
    fn token_bucket_caps_burst_and_refills_with_time() {
        let sim = Sim::new();
        let ctl = AdmissionController::new(&sim);
        let cfg = AdmissionConfig { rate: 2.0, burst: 3.0, max_in_flight: 0 };
        let admitted = (0..10).filter(|_| ctl.try_admit(topic(), &cfg)).count();
        assert_eq!(admitted, 3, "burst admits the bucket depth");
        assert_eq!(ctl.rejected(), 7);
        let s = sim.clone();
        let ctl2 = Rc::new(ctl);
        let c = Rc::clone(&ctl2);
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            (0..10).filter(|_| c.try_admit(topic(), &cfg)).count()
        });
        assert_eq!(sim.block_on(h), 2, "1s at rate 2 refills two tokens");
    }

    #[test]
    fn in_flight_cap_blocks_until_release() {
        let sim = Sim::new();
        let ctl = AdmissionController::new(&sim);
        let cfg = AdmissionConfig { rate: 0.0, burst: 0.0, max_in_flight: 2 };
        assert!(ctl.try_admit(topic(), &cfg));
        assert!(ctl.try_admit(topic(), &cfg));
        assert!(!ctl.try_admit(topic(), &cfg));
        assert_eq!(ctl.in_flight(topic()), 2);
        ctl.on_done(topic());
        assert!(ctl.try_admit(topic(), &cfg));
        assert_eq!(ctl.rejected(), 1);
    }

    #[test]
    fn gate_closes_at_high_and_reopens_at_low() {
        let sim = Sim::new();
        let gate = BackpressureGate::new(&sim, Tracer::enabled(), "fabric");
        gate.register(topic(), &BackpressureConfig { high: 3, low: 1 });
        gate.on_enter(topic());
        gate.on_enter(topic());
        assert!(!gate.is_closed(topic()));
        gate.on_enter(topic());
        assert!(gate.is_closed(topic()));
        assert_eq!(gate.closures(), 1);
        gate.on_exit(topic());
        assert!(gate.is_closed(topic()), "still above the low watermark");
        gate.on_exit(topic());
        assert!(!gate.is_closed(topic()));
        assert_eq!(gate.depth(topic()), 1);
    }

    #[test]
    fn acquire_parks_while_closed_and_wakes_on_reopen() {
        let sim = Sim::new();
        let gate = BackpressureGate::new(&sim, Tracer::disabled(), "fabric");
        gate.register(topic(), &BackpressureConfig { high: 2, low: 0 });
        gate.on_enter(topic());
        gate.on_enter(topic());
        assert!(gate.is_closed(topic()));
        let g = gate.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            g.acquire(topic()).await;
            s.now()
        });
        let g2 = gate.clone();
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(5.0)).await;
            g2.on_exit(topic());
            g2.on_exit(topic());
        });
        assert_eq!(sim.block_on(h), hetflow_sim::SimTime::from_secs(5));
    }

    #[test]
    fn unregistered_topic_never_gates() {
        let sim = Sim::new();
        let gate = BackpressureGate::new(&sim, Tracer::disabled(), "fabric");
        gate.register(topic(), &BackpressureConfig::default());
        gate.on_enter(topic());
        assert!(!gate.is_closed(topic()));
        assert_eq!(gate.depth(topic()), 0, "disabled config registers nothing");
        let g = gate.clone();
        let h = sim.spawn(async move {
            g.acquire(topic()).await;
            true
        });
        assert!(sim.block_on(h));
    }
}

//! Failure and outage models.
//!
//! §IV-A3 of the paper credits the cloud-hosted services with
//! robustness: "both FuncX and Globus's services accept and store tasks
//! (and results) even while remote endpoints (or clients) are
//! unavailable so tasks can be resumed when endpoints reconnect."
//! [`Connectivity`] models an endpoint's outbound connection going up
//! and down, as a [`chaos::ChaosSpec`] scripts it; the FnX fabric holds
//! tasks in the cloud while the endpoint is offline. [`FailureModel`]
//! models worker-level task failures with in-place re-execution.

use hetflow_sim::sync::EventWaitNext;
use hetflow_sim::{Dist, Event, SimRng, Symbol, SymbolMap};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

pub mod chaos;
pub mod overload;

/// A shared, mutable scalar dial: the hook through which the chaos
/// engine slows a running worker pool (its pace factor). Cloning shares
/// the underlying cell, so the pool holding one end and the chaos actor
/// holding the other observe the same value. The pool reads its knob
/// lazily and skips the multiply when the value is exactly neutral, so
/// an untouched knob changes neither timing nor RNG streams.
#[derive(Clone)]
pub struct Knob(Rc<Cell<f64>>);

impl Knob {
    /// A knob at `value`.
    pub(crate) fn new(value: f64) -> Self {
        Knob(Rc::new(Cell::new(value)))
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        self.0.get()
    }

    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.0.set(value);
    }

    /// Scales a delay by the knob (negative values clamp to zero),
    /// skipping the multiply when the knob is neutral so an untouched
    /// knob leaves the delay bit-identical.
    pub(crate) fn scale(&self, d: Duration) -> Duration {
        let f = self.get();
        if f != 1.0 {
            d.mul_f64(f.max(0.0))
        } else {
            d
        }
    }
}

impl std::fmt::Debug for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Knob({})", self.0.get())
    }
}

struct ConnState {
    online: Cell<bool>,
    changed: Event,
    outages_seen: Cell<u32>,
}

/// An endpoint's connection state over time.
#[derive(Clone)]
pub struct Connectivity {
    state: Rc<ConnState>,
}

impl std::fmt::Debug for Connectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connectivity").field("online", &self.is_online()).finish()
    }
}

impl Connectivity {
    /// A connection that never drops.
    pub fn always_on() -> Self {
        Connectivity {
            state: Rc::new(ConnState {
                online: Cell::new(true),
                changed: Event::new(),
                outages_seen: Cell::new(0),
            }),
        }
    }

    /// Current state.
    pub(crate) fn is_online(&self) -> bool {
        self.state.online.get()
    }

    /// Number of outages that have begun so far.
    pub fn outages_seen(&self) -> u32 {
        self.state.outages_seen.get()
    }

    /// Resolves once the connection is online (immediately if it is).
    pub(crate) async fn wait_online(&self) {
        while !self.state.online.get() {
            self.state.changed.wait_next().await;
        }
    }

    /// A future that resolves at the *next* state transition
    /// (offline→online or online→offline). Used by heartbeat watchers,
    /// which must be event-driven: a watcher parked here pends on the
    /// event and never blocks simulation quiescence.
    pub(crate) fn wait_change(&self) -> EventWaitNext {
        self.state.changed.wait_next()
    }

    /// Sets the state: the chaos engine's flaps and kills.
    pub(crate) fn set_online(&self, online: bool) {
        if self.state.online.get() != online {
            if !online {
                self.state.outages_seen.set(self.state.outages_seen.get() + 1);
            }
            self.state.online.set(online);
            self.state.changed.set();
            self.state.changed.clear();
        }
    }
}

/// Worker-level task failure model: each execution attempt fails with
/// probability `prob`; a failed attempt wastes a fraction of the
/// compute time plus a detection/restart delay, then the task is
/// re-executed on the same worker.
#[derive(Clone, Debug)]
pub struct FailureModel {
    /// Per-attempt failure probability.
    pub prob: f64,
    /// Fraction of the compute duration spent before the failure
    /// (uniform in `[0, 1]` scaled by this cap).
    pub waste_fraction: f64,
    /// Detection + restart delay.
    pub restart_delay: Dist,
    /// Attempts before giving up. Exhausting them is a normal,
    /// reportable outcome: the task fails with
    /// `TaskError::ExhaustedRetries` and the failure travels the result
    /// path back to the thinker.
    pub max_attempts: u32,
}

impl FailureModel {
    /// Draws whether the next attempt fails.
    pub(crate) fn attempt_fails(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.prob)
    }

    /// Time wasted by a failed attempt on a task of `compute` length.
    pub(crate) fn wasted(&self, compute: Duration, rng: &mut SimRng) -> Duration {
        let frac = rng.unit() * self.waste_fraction.clamp(0.0, 1.0);
        let waste = compute.mul_f64(frac);
        waste + self.restart_delay.sample_secs(rng)
    }
}

/// How failures of one task topic are handled: how long the fabric
/// waits for delivery before declaring a timeout, and how long a worker
/// backs off between attempts. The attempt cap is the pool's
/// [`FailureModel::max_attempts`].
///
/// `timeout == None` means no deadline, and the default backoff
/// `Dist::Constant(0.0)` draws no random numbers — so the default
/// policy leaves existing same-seed traces bit-identical.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Deadline for the fabric to deliver the task to its endpoint's
    /// worker pool — the cloud-transit leg, including any time spent
    /// held behind an endpoint outage. A task stuck longer than this
    /// fails with `TaskError::Timeout` instead of waiting forever.
    /// Execution and the result's return trip are not covered: once a
    /// worker has the task, it runs.
    pub timeout: Option<Duration>,
    /// Delay a worker inserts before each re-execution attempt (on top
    /// of the failure model's wasted time).
    pub backoff: Dist,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { timeout: None, backoff: Dist::Constant(0.0) }
    }
}

/// Per-topic retry policies with a fallback default, configurable on
/// `WorkerPoolConfig`: workers read each topic's backoff, the dispatcher
/// its delivery timeout.
#[derive(Clone, Debug, Default)]
pub struct RetryPolicies {
    /// Policy for topics without a dedicated entry.
    pub default: RetryPolicy,
    /// Topic-specific overrides. Indexed by interned [`Symbol`] id —
    /// O(1) per lookup on the dispatch path — while iterating in
    /// resolved-string order, so traces match the old
    /// `BTreeMap<String, _>` exactly.
    pub per_topic: SymbolMap<RetryPolicy>,
}

impl RetryPolicies {
    /// Builder: sets the policy for one topic.
    pub fn with_topic(mut self, topic: impl Into<Symbol>, policy: RetryPolicy) -> Self {
        self.per_topic.insert(topic.into(), policy);
        self
    }

    /// The policy governing `topic`.
    pub(crate) fn policy_for(&self, topic: impl Into<Symbol>) -> &RetryPolicy {
        self.per_topic.get(topic.into()).unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_sim::time::secs;
    use hetflow_sim::{Sim, SimTime};

    #[test]
    fn always_on_never_blocks() {
        let sim = Sim::new();
        let conn = Connectivity::always_on();
        let c = conn.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.wait_online().await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::ZERO);
        assert!(conn.is_online());
        assert_eq!(conn.outages_seen(), 0);
    }

    /// One outage from `start` for `down` seconds, scripted as a chaos
    /// flap of one window on a fresh connection.
    fn one_outage(sim: &Sim, start: u64, down: f64) -> Connectivity {
        let targets = chaos::ChaosTargets {
            connectivity: vec![Connectivity::always_on()],
            ..Default::default()
        };
        chaos::ChaosSpec::new(vec![chaos::ChaosAction::Flap {
            endpoint: 0,
            start: SimTime::from_secs(start),
            up: Dist::Constant(0.0),
            down: Dist::Constant(down),
            cycles: 1,
        }])
        .install(sim, 0, &targets);
        targets.connectivity[0].clone()
    }

    #[test]
    fn outage_blocks_until_reconnect() {
        let sim = Sim::new();
        let conn = one_outage(&sim, 10, 30.0);
        let c = conn.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(secs(15.0)).await; // mid-outage
            assert!(!c.is_online());
            c.wait_online().await;
            s.now()
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(40));
        assert_eq!(conn.outages_seen(), 1);
    }

    #[test]
    fn manual_toggle() {
        let sim = Sim::new();
        let conn = Connectivity::always_on();
        conn.set_online(false);
        assert!(!conn.is_online());
        assert_eq!(conn.outages_seen(), 1);
        let c = conn.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.wait_online().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(secs(3.0)).await;
            conn.set_online(true);
        });
        assert_eq!(sim.block_on(h), SimTime::from_secs(3));
    }

    #[test]
    fn failure_model_statistics() {
        let m = FailureModel {
            prob: 0.3,
            waste_fraction: 0.5,
            restart_delay: Dist::Constant(1.0),
            max_attempts: 5,
        };
        let mut rng = SimRng::from_seed(4);
        let fails = (0..10_000).filter(|_| m.attempt_fails(&mut rng)).count();
        assert!((2_700..3_300).contains(&fails), "{fails}");
        let wasted = m.wasted(Duration::from_secs(100), &mut rng);
        assert!(wasted >= Duration::from_secs(1));
        assert!(wasted <= Duration::from_secs(51));
    }

    #[test]
    fn knob_shares_state_across_clones() {
        let k = Knob::new(1.0);
        let k2 = k.clone();
        k2.set(2.5);
        assert_eq!(k.get(), 2.5);
        assert_eq!(format!("{k:?}"), "Knob(2.5)");
    }

    #[test]
    fn wait_change_observes_both_transitions() {
        let sim = Sim::new();
        let conn = one_outage(&sim, 5, 5.0);
        let c = conn.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.wait_change().await;
            let first = (s.now(), c.is_online());
            c.wait_change().await;
            let second = (s.now(), c.is_online());
            (first, second)
        });
        let (first, second) = sim.block_on(h);
        assert_eq!(first, (SimTime::from_secs(5), false));
        assert_eq!(second, (SimTime::from_secs(10), true));
    }

    #[test]
    fn retry_policies_resolve_per_topic() {
        let policies = RetryPolicies::default().with_topic(
            "train",
            RetryPolicy { timeout: Some(Duration::from_secs(3)), ..RetryPolicy::default() },
        );
        assert_eq!(policies.policy_for("train").timeout, Some(Duration::from_secs(3)));
        assert!(policies.policy_for("simulate").timeout.is_none());
    }
}

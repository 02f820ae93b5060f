//! Graceful fidelity degradation under sustained overload.
//!
//! When overload protection starts shedding an application's tasks —
//! or the reliability layer opens a breaker on the endpoint the tasks
//! run on — finishing *some* science per unit time beats finishing
//! none at full fidelity. A [`DegradationPolicy`] turns that judgement
//! into a small deterministic state machine (`DegradationState`):
//!
//! * after `trigger_after` consecutive shed results (or any breaker
//!   opening), the campaign enters **degraded mode**: molecular design
//!   downgrades its oracle from the DFT-like tight-binding call to a
//!   TTM-like classical estimate, and fine-tuning halves its training
//!   ensemble;
//! * after `restore_after` consecutive successful results with every
//!   breaker closed again, full fidelity is **restored**.
//!
//! Transitions are observable: each degradation emits a
//! `fidelity_degraded` trace event and each recovery a
//! `fidelity_restored` event, both folding into the run's digest, so a
//! campaign that degraded is bit-distinguishable from one that never
//! did. The default policy is disabled (`trigger_after == 0`): it
//! never emits, never awaits, and never draws randomness, keeping
//! all-zero deployments bit-identical to pre-overload seeds.

use hetflow_sim::{trace_kinds as kinds, Sim, Symbol, Tracer};
use std::cell::Cell;
use std::rc::Rc;

/// When to trade fidelity for goodput. The all-zero default disables
/// degradation entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegradationPolicy {
    /// Enter degraded mode after this many *consecutive* shed results
    /// on the steered topic. `0` disables the policy.
    pub trigger_after: usize,
    /// Leave degraded mode after this many consecutive successes with
    /// no breaker open. `0` means "same as `trigger_after`".
    pub restore_after: usize,
}

impl DegradationPolicy {
    /// True when the policy can ever degrade.
    pub(crate) fn enabled(&self) -> bool {
        self.trigger_after > 0
    }

    /// Successes required before fidelity is restored.
    pub(crate) fn restore_threshold(&self) -> usize {
        if self.restore_after > 0 {
            self.restore_after
        } else {
            self.trigger_after
        }
    }
}

/// Per-campaign degradation tracker. Applications feed it result
/// outcomes ([`note_shed`](DegradationState::note_shed) /
/// [`note_ok`](DegradationState::note_ok)) and breaker transitions
/// ([`on_breaker`](DegradationState::on_breaker)); dispatchers consult
/// [`is_degraded`](DegradationState::is_degraded) and
/// [`ensemble_size`](DegradationState::ensemble_size) when choosing
/// task fidelity.
pub(crate) struct DegradationState {
    sim: Sim,
    tracer: Tracer,
    actor: Symbol,
    policy: DegradationPolicy,
    consecutive_shed: Cell<usize>,
    consecutive_ok: Cell<usize>,
    /// Breakers currently open anywhere in the deployment — overload
    /// pressure the shed counter cannot see (the fabric reroutes or
    /// suppresses instead of shedding).
    open_breakers: Cell<usize>,
    degraded: Cell<bool>,
    /// Monotone count of degradations so far; doubles as the trace
    /// entity so paired degrade/restore events correlate in the digest.
    generation: Cell<u64>,
}

impl DegradationState {
    /// A tracker emitting through `tracer` as `actor`.
    pub fn new(sim: &Sim, tracer: Tracer, actor: &str, policy: DegradationPolicy) -> Rc<Self> {
        Rc::new(DegradationState {
            sim: sim.clone(),
            tracer,
            actor: Symbol::intern(actor),
            policy,
            consecutive_shed: Cell::new(0),
            consecutive_ok: Cell::new(0),
            open_breakers: Cell::new(0),
            degraded: Cell::new(false),
            generation: Cell::new(0),
        })
    }

    /// True while the campaign should run at reduced fidelity.
    pub fn is_degraded(&self) -> bool {
        self.degraded.get()
    }

    /// Degradations entered so far.
    pub fn degradations(&self) -> u64 {
        self.generation.get()
    }

    /// Ensemble size to use this round: halved (never below one) while
    /// degraded, nominal otherwise.
    pub fn ensemble_size(&self, nominal: usize) -> usize {
        if self.degraded.get() {
            (nominal / 2).max(1)
        } else {
            nominal
        }
    }

    /// Record a shed result on the steered topic.
    pub fn note_shed(&self) {
        self.consecutive_ok.set(0);
        if !self.policy.enabled() {
            return;
        }
        let run = self.consecutive_shed.get() + 1;
        self.consecutive_shed.set(run);
        if !self.degraded.get() && run >= self.policy.trigger_after {
            self.degrade(run as f64);
        }
    }

    /// Record a successful result on the steered topic.
    pub fn note_ok(&self) {
        self.consecutive_shed.set(0);
        if !self.policy.enabled() || !self.degraded.get() {
            return;
        }
        let run = self.consecutive_ok.get() + 1;
        self.consecutive_ok.set(run);
        if run >= self.policy.restore_threshold() && self.open_breakers.get() == 0 {
            self.restore();
        }
    }

    /// Record a breaker transition (wire via
    /// `ReliabilityLayer::on_breaker_change`). An opening breaker is
    /// immediate overload pressure: the campaign degrades without
    /// waiting for a shed run. Recovery still requires the usual
    /// success run *and* every breaker closed.
    pub fn on_breaker(&self, open: bool) {
        let n = self.open_breakers.get();
        if open {
            self.open_breakers.set(n + 1);
            if self.policy.enabled() && !self.degraded.get() {
                self.degrade(0.0);
            }
        } else {
            self.open_breakers.set(n.saturating_sub(1));
        }
    }

    fn degrade(&self, pressure: f64) {
        self.degraded.set(true);
        self.consecutive_ok.set(0);
        let generation = self.generation.get() + 1;
        self.generation.set(generation);
        self.tracer.emit(
            self.sim.now(),
            self.actor,
            kinds::FIDELITY_DEGRADED,
            generation,
            pressure,
        );
    }

    fn restore(&self) {
        self.degraded.set(false);
        self.consecutive_shed.set(0);
        self.consecutive_ok.set(0);
        self.tracer.emit(
            self.sim.now(),
            self.actor,
            kinds::FIDELITY_RESTORED,
            self.generation.get(),
            0.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(policy: DegradationPolicy) -> (Sim, Rc<DegradationState>, Tracer) {
        let sim = Sim::new();
        let tracer = Tracer::enabled();
        let state = DegradationState::new(&sim, tracer.clone(), "test", policy);
        (sim, state, tracer)
    }

    #[test]
    fn disabled_policy_never_degrades() {
        let (_sim, state, tracer) = tracker(DegradationPolicy::default());
        for _ in 0..100 {
            state.note_shed();
        }
        state.on_breaker(true);
        assert!(!state.is_degraded());
        assert_eq!(state.degradations(), 0);
        assert_eq!(tracer.events().len(), 0, "disabled policy must not emit");
    }

    #[test]
    fn shed_run_triggers_and_success_run_restores() {
        let (_sim, state, tracer) =
            tracker(DegradationPolicy { trigger_after: 3, restore_after: 2 });
        state.note_shed();
        state.note_shed();
        assert!(!state.is_degraded(), "two sheds are below the trigger");
        state.note_shed();
        assert!(state.is_degraded(), "third consecutive shed degrades");
        assert_eq!(state.degradations(), 1);
        state.note_ok();
        assert!(state.is_degraded(), "one success is below the restore run");
        state.note_ok();
        assert!(!state.is_degraded(), "restore run completes");
        assert_eq!(tracer.events().len(), 2, "one degrade + one restore");
    }

    #[test]
    fn interleaved_ok_resets_the_shed_run() {
        let (_sim, state, _tracer) =
            tracker(DegradationPolicy { trigger_after: 2, restore_after: 1 });
        state.note_shed();
        state.note_ok();
        state.note_shed();
        assert!(!state.is_degraded(), "the run must be consecutive");
    }

    #[test]
    fn breaker_opening_degrades_and_blocks_restore() {
        let (_sim, state, _tracer) =
            tracker(DegradationPolicy { trigger_after: 5, restore_after: 1 });
        state.on_breaker(true);
        assert!(state.is_degraded(), "an open breaker is immediate pressure");
        state.note_ok();
        assert!(state.is_degraded(), "no restore while a breaker is open");
        state.on_breaker(false);
        state.note_ok();
        assert!(!state.is_degraded(), "restores once breakers close");
    }

    #[test]
    fn restore_threshold_defaults_to_trigger() {
        let p = DegradationPolicy { trigger_after: 4, restore_after: 0 };
        assert_eq!(p.restore_threshold(), 4);
        assert!(p.enabled());
    }

    #[test]
    fn ensemble_halves_only_while_degraded() {
        let (_sim, state, _tracer) =
            tracker(DegradationPolicy { trigger_after: 1, restore_after: 1 });
        assert_eq!(state.ensemble_size(8), 8);
        state.note_shed();
        assert_eq!(state.ensemble_size(8), 4);
        assert_eq!(state.ensemble_size(1), 1, "never shrinks to zero");
        state.note_ok();
        assert_eq!(state.ensemble_size(8), 8);
    }
}

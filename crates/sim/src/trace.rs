//! Structured trace of simulation activity.
//!
//! Actors append [`TraceEvent`]s to a shared [`Tracer`]; figure harnesses
//! replay the trace to compute utilization series and latency breakdowns.
//! Tracing is optional and cheap: a disabled tracer drops events, and an
//! enabled one allocates nothing per event — actors are interned
//! [`Symbol`]s and the determinism digest is folded *as events stream
//! through*, so retaining the event log is opt-in rather than the price
//! of reproducibility checking.

use crate::intern::Symbol;
use crate::time::SimTime;
use std::cell::{Ref, RefCell};
use std::rc::Rc;

/// A registered trace-event kind.
///
/// The field is private, so only this module makes one: every kind a
/// tracer sees is a [`kinds`] constant (R8). An ad-hoc kind does not
/// compile, whether built by hand or passed as a string:
///
/// ```compile_fail
/// let adhoc = hetflow_sim::TraceKind("adhoc");
/// ```
///
/// ```compile_fail
/// use hetflow_sim::{SimTime, Tracer};
/// Tracer::enabled().emit(SimTime::ZERO, "actor", "adhoc", 0, 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind(&'static str);

impl Kind {
    /// The kind's name, e.g. `"task_started"`: what the digest folds.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// Canonical event kinds emitted by the fabrics and the steering layer.
///
/// These constants are the only [`Kind`]s, which keeps producers and
/// trace consumers in sync; the failure-path kinds (`TASK_RETRY`,
/// `TASK_FAILED`, `TASK_TIMEOUT`) are part of the graceful-degradation
/// contract: a fault emits a trace event and a record, never a panic.
pub mod kinds {
    use super::Kind;

    /// Thinker created a task.
    pub const TASK_CREATED: Kind = Kind("task_created");
    /// Worker began executing a task.
    pub const TASK_STARTED: Kind = Kind("task_started");
    /// A failed attempt; value = the attempt number about to run.
    pub const TASK_RETRY: Kind = Kind("task_retry");
    /// Worker finished a task successfully.
    pub const TASK_FINISHED: Kind = Kind("task_finished");
    /// Task failed terminally on the worker (exhausted retries,
    /// resolve/put error); travels the result path as a failed record.
    pub const TASK_FAILED: Kind = Kind("task_failed");
    /// Task missed its delivery deadline (e.g. stuck behind an
    /// endpoint outage) and was failed by the fabric.
    pub const TASK_TIMEOUT: Kind = Kind("task_timeout");
    /// Thinker received a result envelope.
    pub const RESULT_RECEIVED: Kind = Kind("result_received");
    /// An endpoint's circuit breaker tripped open: dispatches steer
    /// away until the cool-down elapses. Value = trip generation.
    pub const BREAKER_OPENED: Kind = Kind("breaker_opened");
    /// A half-open probe succeeded and the breaker closed again.
    /// Value = trip generation being retired.
    pub const BREAKER_CLOSED: Kind = Kind("breaker_closed");
    /// A straggling task was re-issued speculatively to another
    /// endpoint; first result wins. Value = the hedge copy number.
    pub const TASK_HEDGED: Kind = Kind("task_hedged");
    /// A duplicate (hedged/rerouted) task copy lost the race and was
    /// cancelled; its time is accounted as waste, never as a second
    /// terminal outcome. Value = seconds the loser burned.
    pub const TASK_CANCELLED: Kind = Kind("task_cancelled");
    /// A task whose delivery timed out was re-dispatched to a
    /// different endpoint instead of failing. Value = reroute count.
    pub const TASK_REROUTED: Kind = Kind("task_rerouted");
    /// A task was shed by overload protection — displaced from a full
    /// bounded queue or refused by the admission controller — and
    /// delivered as a `TaskOutcome::Shed` record. Value = the queue
    /// depth (or in-flight count) at the moment of shedding.
    pub const TASK_SHED: Kind = Kind("task_shed");

    /// Every registered kind, in declaration order.
    ///
    /// The root test `every_registered_kind_is_emitted` checks that the
    /// pinned, chaos, storm and overload runs emit exactly these. The
    /// slice lets consumers (lifecycle accounting, figure harnesses)
    /// enumerate the registry without hand-maintained lists.
    pub const ALL: &[Kind] = &[
        TASK_CREATED,
        TASK_STARTED,
        TASK_RETRY,
        TASK_FINISHED,
        TASK_FAILED,
        TASK_TIMEOUT,
        RESULT_RECEIVED,
        BREAKER_OPENED,
        BREAKER_CLOSED,
        TASK_HEDGED,
        TASK_CANCELLED,
        TASK_REROUTED,
        TASK_SHED,
    ];
}

/// One trace record: what happened, where, when, and to which entity.
///
/// `Copy`: the actor is an interned [`Symbol`], so events move by value
/// with no heap traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// When the event occurred.
    pub t: SimTime,
    /// The emitting component, e.g. `"worker/theta/3"`.
    pub actor: Symbol,
    /// Event kind, e.g. [`kinds::TASK_STARTED`].
    pub kind: Kind,
    /// Entity id the event concerns (task id, transfer id, …).
    pub entity: u64,
    /// Optional numeric payload (bytes, durations in seconds, …).
    pub value: f64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

struct TracerState {
    events: Vec<TraceEvent>,
    enabled: bool,
    /// Whether an enabled tracer keeps its events (for figure harnesses
    /// that replay the trace) or only the digest and count (the fast
    /// path for perf runs and digest-invariance sweeps).
    retain: bool,
    /// FNV-1a fold over every event ever emitted, updated at emit time.
    digest: u64,
    /// Events ever emitted.
    emitted: usize,
}

impl Default for TracerState {
    fn default() -> Self {
        TracerState {
            events: Vec::new(),
            enabled: false,
            retain: true,
            digest: FNV_OFFSET,
            emitted: 0,
        }
    }
}

impl TracerState {
    #[inline]
    fn fold_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.digest;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.digest = h;
    }

    /// Folds one event into the digest. The byte recipe — time, actor
    /// bytes, 0xff, kind bytes, 0xff, entity, value bits — is pinned by
    /// the determinism suite and must never change: it is what makes
    /// digests comparable across kernel rewrites.
    #[inline]
    fn fold_event(&mut self, e: &TraceEvent) {
        self.fold_bytes(&e.t.as_nanos().to_le_bytes());
        self.fold_bytes(e.actor.as_str().as_bytes());
        self.fold_bytes(&[0xff]); // field separator: actor is variable-length
        self.fold_bytes(e.kind.as_str().as_bytes());
        self.fold_bytes(&[0xff]);
        self.fold_bytes(&e.entity.to_le_bytes());
        self.fold_bytes(&e.value.to_bits().to_le_bytes());
    }
}

/// Shared, clonable event sink.
#[derive(Clone, Default)]
pub struct Tracer {
    state: Rc<RefCell<TracerState>>,
}

impl Tracer {
    /// Creates a tracer that records every event (and streams the
    /// digest).
    pub fn enabled() -> Self {
        let t = Tracer::default();
        t.state.borrow_mut().enabled = true;
        t
    }

    /// Creates a tracer that folds the determinism digest but retains
    /// no events: [`Tracer::digest`] and [`Tracer::len`] work,
    /// [`Tracer::events`] stays empty. Constant memory regardless of
    /// run length — the right mode for perf baselines and digest
    /// sweeps.
    pub fn digest_only() -> Self {
        let t = Tracer::enabled();
        t.state.borrow_mut().retain = false;
        t
    }

    /// Creates a tracer that drops events.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Records an event (no-op when disabled).
    ///
    /// `actor` takes anything convertible to a [`Symbol`]; hot paths
    /// pass a pre-interned `Symbol` (zero work), occasional emitters
    /// can still pass `&str`.
    pub fn emit(&self, t: SimTime, actor: impl Into<Symbol>, kind: Kind, entity: u64, value: f64) {
        let mut s = self.state.borrow_mut();
        if !s.enabled {
            return;
        }
        let e = TraceEvent { t, actor: actor.into(), kind, entity, value };
        s.fold_event(&e);
        s.emitted += 1;
        if s.retain {
            s.events.push(e);
        }
    }

    /// Number of events ever emitted (retained or not).
    pub fn len(&self) -> usize {
        self.state.borrow().emitted
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of the retained events in emission order.
    ///
    /// This borrows the tracer's buffer instead of cloning it — do not
    /// hold the guard across an `emit` (same rule as any `RefCell`
    /// borrow). In digest-only mode it is empty.
    pub fn events(&self) -> Ref<'_, [TraceEvent]> {
        Ref::map(self.state.borrow(), |s| s.events.as_slice())
    }

    /// Snapshot filtered by event kind. Events are `Copy`, so this
    /// allocates one `Vec` of plain values and nothing per event.
    pub fn events_of_kind(&self, kind: Kind) -> Vec<TraceEvent> {
        self.state
            .borrow()
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .copied()
            .collect()
    }

    /// FNV-1a digest of the full event stream, in emission order.
    ///
    /// Folds every field of every event — time, actor, kind, entity,
    /// and the payload's exact bit pattern — so two traces share a
    /// digest only if they are bit-identical. This is the quantity the
    /// determinism regression suite compares across same-seed runs. The
    /// fold happens at emit time, so the digest covers every event ever
    /// emitted even in ring or digest-only mode.
    pub fn digest(&self) -> u64 {
        self.state.borrow().digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops() {
        let t = Tracer::disabled();
        t.emit(SimTime::ZERO, "a", Kind("x"), 1, 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let t = Tracer::enabled();
        t.emit(SimTime::from_secs(1), "a", Kind("start"), 1, 0.0);
        t.emit(SimTime::from_secs(2), "a", Kind("stop"), 1, 5.0);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, Kind("start"));
        assert_eq!(ev[1].value, 5.0);
    }

    #[test]
    fn events_returns_a_borrow_not_a_copy() {
        let t = Tracer::enabled();
        t.emit(SimTime::ZERO, "a", Kind("x"), 1, 0.0);
        let first = t.events().as_ptr();
        let second = t.events().as_ptr();
        assert_eq!(first, second, "same underlying buffer, no clone");
    }

    #[test]
    fn filter_by_kind() {
        let t = Tracer::enabled();
        t.emit(SimTime::ZERO, "a", Kind("start"), 1, 0.0);
        t.emit(SimTime::ZERO, "b", Kind("stop"), 1, 0.0);
        t.emit(SimTime::ZERO, "c", Kind("start"), 2, 0.0);
        assert_eq!(t.events_of_kind(Kind("start")).len(), 2);
        assert_eq!(t.events_of_kind(Kind("stop")).len(), 1);
        assert_eq!(t.events_of_kind(Kind("nope")).len(), 0);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = Tracer::enabled();
        a.emit(SimTime::from_secs(1), "w", Kind("start"), 1, 0.5);
        a.emit(SimTime::from_secs(2), "w", Kind("stop"), 1, 0.0);
        let b = Tracer::enabled();
        b.emit(SimTime::from_secs(1), "w", Kind("start"), 1, 0.5);
        b.emit(SimTime::from_secs(2), "w", Kind("stop"), 1, 0.0);
        assert_eq!(a.digest(), b.digest());
        let c = Tracer::enabled();
        c.emit(SimTime::from_secs(2), "w", Kind("stop"), 1, 0.0);
        c.emit(SimTime::from_secs(1), "w", Kind("start"), 1, 0.5);
        assert_ne!(a.digest(), c.digest(), "order must matter");
        // Variable-length actor/kind fields must not alias.
        let d = Tracer::enabled();
        d.emit(SimTime::from_secs(1), "ws", Kind("tart"), 1, 0.5);
        d.emit(SimTime::from_secs(2), "w", Kind("stop"), 1, 0.0);
        assert_ne!(a.digest(), d.digest(), "field boundaries must matter");
    }

    #[test]
    fn streaming_digest_matches_retained_fold() {
        // The streaming fold must agree with the reference definition:
        // an explicit FNV-1a pass over the retained events.
        let t = Tracer::enabled();
        t.emit(SimTime::from_secs(1), "w/1", Kind("start"), 7, 0.25);
        t.emit(SimTime::from_millis(1500), "w/2", Kind("stop"), 7, -1.5);
        t.emit(SimTime::from_secs(2), "thinker", Kind("start"), 8, 0.0);
        let mut h: u64 = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for e in t.events().iter() {
            fold(&e.t.as_nanos().to_le_bytes());
            fold(e.actor.as_str().as_bytes());
            fold(&[0xff]);
            fold(e.kind.as_str().as_bytes());
            fold(&[0xff]);
            fold(&e.entity.to_le_bytes());
            fold(&e.value.to_bits().to_le_bytes());
        }
        assert_eq!(t.digest(), h);
    }

    #[test]
    fn digest_only_mode_retains_nothing_but_digests_everything() {
        let full = Tracer::enabled();
        let lean = Tracer::digest_only();
        for i in 0..50u64 {
            full.emit(SimTime::from_millis(i), "w", Kind("start"), i, 0.1);
            lean.emit(SimTime::from_millis(i), "w", Kind("start"), i, 0.1);
        }
        assert_eq!(lean.digest(), full.digest());
        assert_eq!(lean.len(), 50);
        assert!(lean.events().is_empty(), "digest-only retains no events");
    }

    #[test]
    fn kind_registry_is_unique_and_well_formed() {
        for (i, a) in kinds::ALL.iter().enumerate() {
            let a = a.as_str();
            assert!(!a.is_empty());
            assert!(
                a.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "kind {a:?} must be snake_case"
            );
            for b in kinds::ALL.iter().skip(i + 1) {
                assert_ne!(a, b.as_str(), "duplicate registered kind");
            }
        }
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t2.emit(SimTime::ZERO, "a", Kind("x"), 1, 0.0);
        assert_eq!(t.len(), 1);
    }
}

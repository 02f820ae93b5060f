//! Overload protection: admission control.
//!
//! The reliability layer's `AdmissionController` is a per-topic token
//! bucket plus in-flight cap consulted at submission time. A task refused
//! admission is shed immediately (it never reaches an endpoint queue), so
//! the fabric spends no transit or worker time on load it cannot carry.
//!
//! It follows the crate's zero-value-defers convention: an all-zero
//! [`AdmissionConfig`] performs no awaits, draws no random numbers, and
//! emits no trace events, so existing same-seed runs stay bit-identical.

use hetflow_sim::{Sim, SimTime, Symbol, SymbolMap};
use std::cell::Cell;

/// Token-bucket admission control, applied to each topic on its own.
///
/// The zero values are "defer": `rate == 0` means no rate limit,
/// `max_in_flight == 0` means no concurrency cap, and the all-zero
/// default disables the controller entirely.
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
    fn enabled(&self) -> bool {
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

/// One admission-controlled topic: the primary endpoint its refusals are
/// attributed to, its token bucket and its in-flight count.
struct TopicAdmission {
    primary: usize,
    tokens: Cell<f64>,
    refilled_at: Cell<SimTime>,
    in_flight: Cell<usize>,
}

/// Per-topic token buckets and in-flight caps, owned by the
/// `crate::ReliabilityLayer`: its `admit` consults them first, and a task
/// that settles returns its slot. Every bucket starts full when
/// the controller is built; refills are computed lazily from elapsed
/// virtual time — no timer actors, no RNG draws — so the controller is
/// exactly as deterministic as the clock.
pub(crate) struct AdmissionController {
    sim: Sim,
    cfg: AdmissionConfig,
    /// A row per topic, none when `cfg` is disabled.
    topics: SymbolMap<TopicAdmission>,
}

impl AdmissionController {
    /// A controller applying `cfg` to each `(topic, primary endpoint)`.
    /// A disabled config makes no row: every topic is admitted without
    /// touching any state.
    pub(crate) fn new(
        sim: &Sim,
        cfg: AdmissionConfig,
        topics: impl IntoIterator<Item = (Symbol, usize)>,
    ) -> Self {
        let now = sim.now();
        let topics = topics
            .into_iter()
            .filter(|_| cfg.enabled())
            .map(|(topic, primary)| {
                let row = TopicAdmission {
                    tokens: Cell::new(cfg.bucket_cap()),
                    refilled_at: Cell::new(now),
                    in_flight: Cell::new(0),
                    primary,
                };
                (topic, row)
            })
            .collect();
        AdmissionController { sim: sim.clone(), cfg, topics }
    }

    /// Decides whether a task of `topic` may enter the fabric. `Ok`
    /// consumes a token (and an in-flight slot when capped); the caller
    /// must balance every admission with [`AdmissionController::release`].
    /// `Err` carries the topic's primary endpoint, which the refusal is
    /// attributed to.
    pub(crate) fn try_admit(&self, topic: Symbol) -> Result<(), usize> {
        let Some(st) = self.topics.get(topic) else { return Ok(()) };
        let cfg = &self.cfg;
        if cfg.max_in_flight > 0 && st.in_flight.get() >= cfg.max_in_flight {
            return Err(st.primary);
        }
        if cfg.rate > 0.0 {
            let now = self.sim.now();
            let elapsed = now.duration_since(st.refilled_at.get()).as_secs_f64();
            let tokens = (st.tokens.get() + elapsed * cfg.rate).min(cfg.bucket_cap());
            st.refilled_at.set(now);
            if tokens < 1.0 {
                st.tokens.set(tokens);
                return Err(st.primary);
            }
            st.tokens.set(tokens - 1.0);
        }
        if cfg.max_in_flight > 0 {
            st.in_flight.set(st.in_flight.get() + 1);
        }
        Ok(())
    }

    /// Releases the in-flight slot taken by an admitted task of `topic`.
    /// No-op for topics without a cap, which take no slot.
    pub(crate) fn release(&self, topic: Symbol) {
        let Some(st) = self.topics.get(topic).filter(|_| self.cfg.max_in_flight > 0) else {
            return;
        };
        let held = st.in_flight.get();
        debug_assert!(held > 0, "released an admission slot of {topic} that no task holds");
        st.in_flight.set(held - 1);
    }

    /// Tasks of `topic` currently between admission and release.
    pub(crate) fn in_flight(&self, topic: Symbol) -> usize {
        self.topics.get(topic).map_or(0, |st| st.in_flight.get())
    }

    /// In-flight slots held across every topic.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.topics.values().map(|st| st.in_flight.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_sim::time::secs;
    use std::rc::Rc;

    fn topic() -> Symbol {
        "simulate".into()
    }

    fn controller(sim: &Sim, cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(sim, cfg, [(topic(), 0)])
    }

    #[test]
    fn disabled_config_admits_everything_statelessly() {
        let sim = Sim::new();
        let ctl = controller(&sim, AdmissionConfig::default());
        for _ in 0..1000 {
            assert!(ctl.try_admit(topic()).is_ok());
        }
        assert_eq!(ctl.in_flight(topic()), 0, "disabled config creates no state");
    }

    #[test]
    fn token_bucket_caps_burst_and_refills_with_time() {
        let sim = Sim::new();
        let cfg = AdmissionConfig { rate: 2.0, burst: 3.0, max_in_flight: 0 };
        let ctl = controller(&sim, cfg);
        let refused = (0..10).filter(|_| ctl.try_admit(topic()).is_err()).count();
        assert_eq!(refused, 7, "burst admits the bucket depth");
        ctl.release(topic());
        assert_eq!(ctl.held(), 0, "an uncapped topic takes and returns no slot");
        let s = sim.clone();
        let ctl2 = Rc::new(ctl);
        let c = Rc::clone(&ctl2);
        let h = sim.spawn(async move {
            s.sleep(secs(1.0)).await;
            (0..10).filter(|_| c.try_admit(topic()).is_ok()).count()
        });
        assert_eq!(sim.block_on(h), 2, "1s at rate 2 refills two tokens");
    }

    #[test]
    fn in_flight_cap_blocks_until_release() {
        let sim = Sim::new();
        let ctl = controller(&sim, AdmissionConfig { rate: 0.0, burst: 0.0, max_in_flight: 2 });
        assert!(ctl.try_admit(topic()).is_ok());
        assert!(ctl.try_admit(topic()).is_ok());
        assert_eq!(ctl.try_admit(topic()), Err(0));
        assert_eq!(ctl.in_flight(topic()), 2);
        ctl.release(topic());
        assert!(ctl.try_admit(topic()).is_ok());
    }
}

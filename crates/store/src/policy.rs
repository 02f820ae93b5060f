//! Auto-proxy policy.
//!
//! Colmena "integrates support for ProxyStore by automatically creating
//! proxies for objects larger than a user-specified size", with a
//! threshold and backend that "can vary between task types" (§IV-D).
//! [`ProxyPolicy`] is that mapping from task topic to (store, threshold).

use crate::store::Store;
use std::collections::BTreeMap;

/// Per-topic proxying rule.
#[derive(Clone)]
pub struct TopicRule {
    /// Store to place proxied objects in.
    pub store: Store,
    /// Objects at or above this many bytes are proxied; smaller objects
    /// travel inline through the control plane. `0` proxies everything.
    pub threshold: u64,
}

/// Maps task topics to proxy rules, with an optional default.
#[derive(Clone, Default)]
pub struct ProxyPolicy {
    rules: BTreeMap<String, TopicRule>,
    default: Option<TopicRule>,
}

impl ProxyPolicy {
    /// A policy that never proxies (the plain-Parsl baseline).
    pub fn disabled() -> Self {
        ProxyPolicy::default()
    }

    /// A policy applying one rule to every topic.
    pub fn uniform(store: Store, threshold: u64) -> Self {
        ProxyPolicy { rules: BTreeMap::new(), default: Some(TopicRule { store, threshold }) }
    }

    /// Adds a topic-specific rule, overriding the default for that topic.
    pub fn with_topic(mut self, topic: impl Into<String>, store: Store, threshold: u64) -> Self {
        self.rules.insert(topic.into(), TopicRule { store, threshold });
        self
    }

    /// The rule applying to `topic`, if any.
    pub fn rule_for(&self, topic: &str) -> Option<&TopicRule> {
        self.rules.get(topic).or(self.default.as_ref())
    }

    /// Decides whether an object of `size` bytes in `topic` should be
    /// proxied, and into which store.
    pub fn decide(&self, topic: &str, size: u64) -> Option<&Store> {
        self.rule_for(topic)
            .filter(|r| size >= r.threshold)
            .map(|r| &r.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{SiteId, SiteSet};
    use crate::store::{Backend, FsParams};
    use hetflow_sim::{Dist, Sim, SimRng};

    fn make_store(sim: &Sim, name: &str) -> Store {
        Store::new(
            sim.clone(),
            name,
            Backend::Fs(FsParams {
                members: SiteSet::of(&[SiteId(0)]),
                op_latency: Dist::Constant(0.001),
                write_bandwidth: 1e9,
                read_bandwidth: 1e9,
            }),
            SimRng::from_seed(1),
        )
    }

    #[test]
    fn disabled_policy_never_proxies() {
        let p = ProxyPolicy::disabled();
        assert!(p.decide("simulate", u64::MAX).is_none());
    }

    #[test]
    fn uniform_threshold_applies() {
        let sim = Sim::new();
        let store = make_store(&sim, "s");
        let p = ProxyPolicy::uniform(store, 10_000);
        assert!(p.decide("any", 9_999).is_none());
        assert!(p.decide("any", 10_000).is_some());
        assert!(p.decide("other", 1_000_000).is_some());
    }

    #[test]
    fn topic_rule_overrides_default() {
        let sim = Sim::new();
        let default_store = make_store(&sim, "default");
        let infer_store = make_store(&sim, "infer");
        let p = ProxyPolicy::uniform(default_store, 10_000).with_topic(
            "inference",
            infer_store,
            0,
        );
        // Tiny inference payloads still proxy (threshold 0) into the
        // topic store.
        let chosen = p.decide("inference", 1).unwrap();
        assert_eq!(chosen.name(), "infer");
        // Other topics keep the default threshold.
        assert!(p.decide("simulate", 1).is_none());
        assert_eq!(p.decide("simulate", 20_000).unwrap().name(), "default");
    }

    #[test]
    fn zero_threshold_proxies_everything() {
        let sim = Sim::new();
        let store = make_store(&sim, "s");
        let p = ProxyPolicy::uniform(store, 0);
        assert!(p.decide("t", 0).is_some());
        assert!(p.decide("t", 1).is_some());
    }
}

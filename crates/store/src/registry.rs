//! Named store registry and object-lifetime policies.
//!
//! ProxyStore addresses stores by name through a process-global
//! registry and supports evicting objects once consumed — one-shot task
//! inputs should not accumulate in Redis or on the file system for the
//! length of a campaign. [`StoreRegistry`] provides the lookup;
//! [`EvictionPolicy`] the lifetime rules.

use crate::store::Store;
pub use crate::store::EvictionPolicy;
use hetflow_sim::{Symbol, SymbolMap};
use std::cell::RefCell;
use std::rc::Rc;

/// A named collection of stores with lifetime management. Names are
/// interned [`Symbol`]s, so repeated lookups index an array instead of
/// walking a string-keyed tree; iteration stays sorted by name.
#[derive(Clone, Default)]
pub struct StoreRegistry {
    inner: Rc<RefCell<SymbolMap<Store>>>,
}

impl StoreRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a store under its own name with a lifetime policy.
    /// Panics if the name is taken.
    pub fn register(&self, store: Store, policy: EvictionPolicy) {
        let name = Symbol::intern(store.name());
        store.set_eviction(policy);
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.contains_key(name), "store {name} already registered");
        inner.insert(name, store);
    }

    /// One summary line per store: `name backend objects bytes`.
    pub fn report(&self) -> Vec<String> {
        self.inner
            .borrow()
            .values()
            .map(|s| {
                format!(
                    "{:<12} {:<7} {:>6} objects {:>12} bytes",
                    s.name(),
                    s.backend_label(),
                    s.object_count(),
                    s.resident_bytes()
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{bytes::MB, SiteId, SiteSet};
    use crate::store::{Backend, FsParams};
    use hetflow_sim::{Dist, Sim, SimRng};
    use std::rc::Rc;

    const SITE: SiteId = SiteId(0);

    fn fs_store(sim: &Sim, name: &str) -> Store {
        Store::new(
            sim.clone(),
            name,
            Backend::Fs(FsParams {
                members: SiteSet::of(&[SITE]),
                op_latency: Dist::Constant(0.001),
                write_bandwidth: 1e9,
                read_bandwidth: 1e9,
            }),
            SimRng::from_seed(1),
        )
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_panics() {
        let sim = Sim::new();
        let reg = StoreRegistry::new();
        reg.register(fs_store(&sim, "x"), EvictionPolicy::Manual);
        reg.register(fs_store(&sim, "x"), EvictionPolicy::Manual);
    }

    #[test]
    fn after_resolves_policy_enforced() {
        let sim = Sim::new();
        let reg = StoreRegistry::new();
        let store = fs_store(&sim, "oneshot");
        reg.register(store.clone(), EvictionPolicy::AfterResolves(2));
        let s2 = store.clone();
        sim.spawn(async move {
            let key = s2.put_raw(Rc::new(9u8), MB, SITE).await.unwrap();
            s2.get_raw(key, SITE).await.unwrap();
            assert!(s2.contains(key), "survives the first resolve");
            s2.get_raw(key, SITE).await.unwrap();
            assert!(!s2.contains(key), "gone after the second");
        });
        sim.run();
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.object_count(), 0);
    }

    #[test]
    fn report_lines() {
        let sim = Sim::new();
        let reg = StoreRegistry::new();
        reg.register(fs_store(&sim, "r"), EvictionPolicy::Manual);
        let lines = reg.report();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains('r'));
        assert!(lines[0].contains("fs"));
    }
}

//! Named store registry and object-lifetime policies.
//!
//! ProxyStore addresses stores by name through a process-global
//! registry and supports evicting objects once consumed — one-shot task
//! inputs should not accumulate in Redis or on the file system for the
//! length of a campaign. [`StoreRegistry`] provides the lookup;
//! [`EvictionPolicy`] the lifetime rules.

use crate::store::Store;
pub use crate::store::EvictionPolicy;
use hetflow_sim::{Sim, SimTime, Symbol, SymbolMap};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Handle to a running sweeper; dropping it does *not* stop the actor.
pub struct SweeperHandle {
    stop: Rc<std::cell::Cell<bool>>,
}

impl SweeperHandle {
    /// Asks the sweeper to exit at its next tick.
    pub fn stop(&self) {
        self.stop.set(true);
    }
}

/// A named collection of stores with lifetime management. Names are
/// interned [`Symbol`]s, so repeated lookups index an array instead of
/// walking a string-keyed tree; iteration stays sorted by name.
#[derive(Clone, Default)]
pub struct StoreRegistry {
    inner: Rc<RefCell<SymbolMap<RegisteredStore>>>,
}

#[derive(Clone)]
struct RegisteredStore {
    store: Store,
    policy: EvictionPolicy,
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
        inner.insert(name, RegisteredStore { store, policy });
    }

    /// Sweeps every store with a [`EvictionPolicy::MaxAge`] policy,
    /// evicting objects stored before `now − max_age`. Returns the
    /// number of evictions.
    pub(crate) fn sweep(&self, now: SimTime) -> usize {
        let mut evicted = 0;
        for r in self.inner.borrow().values() {
            if let EvictionPolicy::MaxAge(age) = r.policy {
                let cutoff = SimTime::from_nanos(
                    now.as_nanos().saturating_sub(age.as_nanos() as u64),
                );
                evicted += r.store.evict_older_than(cutoff);
            }
        }
        evicted
    }

    /// Spawns a periodic sweeper actor. Stop it with the returned
    /// handle; otherwise its timer keeps the simulation from ever going
    /// quiescent.
    pub fn start_sweeper(&self, sim: &Sim, every: Duration) -> SweeperHandle {
        let registry = self.clone();
        let sim2 = sim.clone();
        let stop = Rc::new(std::cell::Cell::new(false));
        let stop2 = Rc::clone(&stop);
        sim.spawn(async move {
            loop {
                sim2.sleep(every).await;
                if stop2.get() {
                    break;
                }
                registry.sweep(sim2.now());
            }
        });
        SweeperHandle { stop }
    }

    /// One summary line per store: `name backend objects bytes`.
    pub fn report(&self) -> Vec<String> {
        self.inner
            .borrow()
            .values()
            .map(|r| {
                format!(
                    "{:<12} {:<7} {:>6} objects {:>12} bytes",
                    r.store.name(),
                    r.store.backend_label(),
                    r.store.object_count(),
                    r.store.resident_bytes()
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
    use hetflow_sim::{Dist, SimRng};
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
    fn sweep_evicts_old_objects() {
        let sim = Sim::new();
        let reg = StoreRegistry::new();
        let store = fs_store(&sim, "aged");
        reg.register(store.clone(), EvictionPolicy::MaxAge(Duration::from_secs(100)));
        let s2 = store.clone();
        let clock = sim.clone();
        sim.spawn(async move {
            s2.put_raw(Rc::new(1u8), MB, SITE).await.unwrap();
            clock.sleep(hetflow_sim::time::secs(200.0)).await;
            s2.put_raw(Rc::new(2u8), MB, SITE).await.unwrap();
        });
        sim.run();
        assert_eq!(store.object_count(), 2);
        let evicted = reg.sweep(sim.now());
        assert_eq!(evicted, 1, "only the old object goes");
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn sweeper_actor_runs_periodically() {
        let sim = Sim::new();
        let reg = StoreRegistry::new();
        let store = fs_store(&sim, "swept");
        reg.register(store.clone(), EvictionPolicy::MaxAge(Duration::from_secs(50)));
        reg.start_sweeper(&sim, Duration::from_secs(25));
        let s2 = store.clone();
        sim.spawn(async move {
            s2.put_raw(Rc::new(0u8), MB, SITE).await.unwrap();
        });
        sim.run_until(SimTime::from_secs(40));
        assert_eq!(store.object_count(), 1, "young object survives");
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(store.object_count(), 0, "sweeper removed it");
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

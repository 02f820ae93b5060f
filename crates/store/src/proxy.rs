//! Lazy transparent proxies — pass-by-reference for task data.
//!
//! The paper's key mechanism (§IV-C): instead of shipping a large object
//! through the control plane (Thinker → Task Server → cloud → worker), a
//! small *proxy* travels with the task while the data moves directly
//! through a store backend. The proxy resolves its target the first time
//! it is accessed, paying the (possibly prefetch-hidden) transfer cost on
//! the consuming resource only.

use crate::location::SiteId;
use crate::store::{Resolved, Store, StoreError};
use std::any::Any;
use std::marker::PhantomData;
use std::rc::Rc;

/// Serialized wire size of a proxy reference, in bytes.
///
/// References are "small so can be efficiently moved along with function
/// bodies" (§IV-C); ProxyStore proxies pickle to a few hundred bytes.
pub const PROXY_WIRE_BYTES: u64 = 500;

/// A type-erased proxy: store handle + object key + declared size.
#[derive(Clone)]
pub struct UntypedProxy {
    store: Store,
    key: u64,
    size: u64,
}

impl UntypedProxy {
    /// Creates a proxy for an already-stored object.
    pub fn new(store: Store, key: u64, size: u64) -> Self {
        UntypedProxy { store, key, size }
    }

    /// The object key within its store.
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Declared wire size of the *target* object.
    pub fn target_size(&self) -> u64 {
        self.size
    }

    /// Size the proxy itself occupies when serialized into a task.
    pub fn wire_size(&self) -> u64 {
        PROXY_WIRE_BYTES
    }

    /// Resolves the target at consumer site `at`.
    pub async fn resolve(&self, at: SiteId) -> Result<Resolved<dyn Any>, StoreError> {
        self.store.get_raw(self.key, at).await
    }

    /// Evicts the target from the store (the proxy becomes dangling).
    pub(crate) fn evict(&self) -> bool {
        self.store.evict(self.key)
    }

    /// Adds a type to the proxy. The type is checked at resolve time.
    pub(crate) fn typed<T: 'static>(self) -> Proxy<T> {
        Proxy { inner: self, _pd: PhantomData }
    }
}

/// A typed lazy proxy for a `T` stored in a [`Store`].
pub struct Proxy<T> {
    inner: UntypedProxy,
    _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for Proxy<T> {
    fn clone(&self) -> Self {
        Proxy { inner: self.inner.clone(), _pd: PhantomData }
    }
}

impl<T: 'static> Proxy<T> {
    /// Stores `value` (with declared wire size) at `from` and returns a
    /// proxy to it — the equivalent of ProxyStore's `proxy()` call.
    pub async fn create(
        store: &Store,
        value: T,
        size: u64,
        from: SiteId,
    ) -> Result<Proxy<T>, StoreError> {
        let key = store.put_raw(Rc::new(value), size, from).await?;
        Ok(UntypedProxy::new(store.clone(), key, size).typed())
    }

    /// Resolves the target at consumer site `at`, returning the value and
    /// the wait it cost.
    pub async fn resolve(&self, at: SiteId) -> Result<Resolved<T>, StoreError> {
        let raw = self.inner.resolve(at).await?;
        let value = raw
            .value
            .downcast::<T>()
            .map_err(|_| StoreError::TypeMismatch(self.inner.key()))?;
        Ok(Resolved { value, wait: raw.wait, was_local: raw.was_local })
    }

    /// Drops type information.
    pub fn untyped(&self) -> UntypedProxy {
        self.inner.clone()
    }

    /// Evicts the target from the store.
    pub fn evict(&self) -> bool {
        self.inner.evict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::bytes::MB;
    use crate::location::SiteSet;
    use crate::store::{Backend, FsParams};
    use hetflow_sim::{Dist, Sim, SimRng};

    const SITE: SiteId = SiteId(0);

    fn fs_store(sim: &Sim) -> Store {
        Store::new(
            sim.clone(),
            "fs",
            Backend::Fs(FsParams {
                members: SiteSet::of(&[SITE]),
                op_latency: Dist::Constant(0.005),
                write_bandwidth: 5e8,
                read_bandwidth: 5e8,
            }),
            SimRng::from_seed(1),
        )
    }

    #[test]
    fn typed_roundtrip() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, vec![1.0f64, 2.0], MB, SITE).await.unwrap();
            let r = p.resolve(SITE).await.unwrap();
            r.value.as_ref().clone()
        });
        assert_eq!(sim.block_on(h), vec![1.0, 2.0]);
    }

    #[test]
    fn type_mismatch_detected() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, 5u32, MB, SITE).await.unwrap();
            let wrong: Proxy<String> = p.untyped().typed();
            wrong.resolve(SITE).await.unwrap_err()
        });
        assert!(matches!(sim.block_on(h), StoreError::TypeMismatch(_)));
    }

    #[test]
    fn clone_points_to_same_target() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, 11u64, MB, SITE).await.unwrap();
            let p2 = p.clone();
            let a = p.resolve(SITE).await.unwrap();
            let b = p2.resolve(SITE).await.unwrap();
            (*a.value, *b.value)
        });
        assert_eq!(sim.block_on(h), (11, 11));
    }

    #[test]
    fn wire_size_is_small_constant() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, (), 100 * MB, SITE).await.unwrap();
            (p.untyped().wire_size(), p.untyped().target_size())
        });
        let (wire, target) = sim.block_on(h);
        assert_eq!(wire, PROXY_WIRE_BYTES);
        assert_eq!(target, 100 * MB);
        assert!(wire < 1000, "references must be small");
    }

    #[test]
    fn evicted_proxy_dangles() {
        let sim = Sim::new();
        let store = fs_store(&sim);
        let h = sim.spawn(async move {
            let p = Proxy::create(&store, 1u8, MB, SITE).await.unwrap();
            assert!(p.evict());
            p.resolve(SITE).await.unwrap_err()
        });
        assert!(matches!(sim.block_on(h), StoreError::Missing(_)));
    }
}

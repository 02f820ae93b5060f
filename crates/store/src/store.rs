//! The object store: put/get with backend-specific cost models.
//!
//! A [`Store`] owns a set of objects and prices access by locality, as
//! ProxyStore does with its Redis, file-system, and Globus backends
//! (§IV-C). Objects carry *real* Rust values (model weights, molecular
//! structures flow through the store), while their *wire size* is
//! declared by the producer so the cost models can charge for movement.

use crate::globus::{GlobusService, TransferTicket};
use crate::location::{SiteId, SiteSet};
use hetflow_sim::{Dist, Link, Samples, Sim, SimRng};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// When stored objects are automatically removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Objects live until explicitly evicted.
    #[default]
    Manual,
    /// Evict after this many successful resolves (1 = one-shot task
    /// inputs, which should not accumulate for the campaign's length).
    AfterResolves(u32),
}

/// Errors surfaced by store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The key does not exist (never stored, or evicted).
    Missing(u64),
    /// The requested site cannot reach this store's data plane.
    Unreachable {
        /// The site that attempted the access.
        site: SiteId,
        /// Name of the store backend that rejected it.
        store: &'static str,
    },
    /// The stored value is not of the requested type.
    TypeMismatch(u64),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing(k) => write!(f, "object {k} missing (evicted or never stored)"),
            StoreError::Unreachable { site, store } => {
                write!(f, "{site} cannot reach {store} store")
            }
            StoreError::TypeMismatch(k) => write!(f, "object {k} has a different type"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Parameters of the Redis-backend model.
///
/// Redis offers the lowest small-object latency but requires network
/// reachability: within a site, a fast LAN; across sites, an SSH tunnel
/// that must be listed in `connected`.
#[derive(Clone, Debug)]
pub struct RedisParams {
    /// Site hosting the Redis server.
    pub host: SiteId,
    /// Sites with connectivity to the server (including `host`).
    pub connected: SiteSet,
    /// Per-operation round trip and payload throughput within the host
    /// site.
    pub local: Link,
    /// The same from other connected sites (tunnel).
    pub remote: Link,
}

impl RedisParams {
    /// Defaults calibrated to Fig. 4: sub-millisecond ops on a fast LAN.
    pub(crate) fn intra_site(host: SiteId) -> Self {
        RedisParams {
            host,
            connected: SiteSet::of(&[host]),
            // Effective client throughputs (Python redis client chunking),
            // calibrated so Fig. 4's large-object behaviour holds: Redis
            // and the file system become comparable near 100 MB.
            local: Link { latency: Dist::log_normal(0.0004, 0.3), bandwidth: 1.0e8 },
            remote: Link { latency: Dist::log_normal(0.002, 0.3), bandwidth: 5.0e7 },
        }
    }

    /// Same server additionally reachable from `peers` via a tunnel
    /// (the paper's Parsl+Redis configuration, which "requires a third
    /// port").
    pub fn with_tunnel(host: SiteId, peers: &[SiteId]) -> Self {
        let mut p = RedisParams::intra_site(host);
        for &peer in peers {
            p.connected.insert(peer);
        }
        p
    }
}

/// Parameters of the shared-file-system backend model.
#[derive(Clone, Debug)]
pub struct FsParams {
    /// Sites mounting this file system.
    pub members: SiteSet,
    /// Per-operation latency (open + metadata).
    pub op_latency: Dist,
    /// Write bandwidth, bytes/s.
    pub write_bandwidth: f64,
    /// Read bandwidth, bytes/s.
    pub read_bandwidth: f64,
}

impl FsParams {
    /// Defaults calibrated to Fig. 4: ~5 ms ops, good large-object
    /// streaming (a parallel file system like Theta's Lustre).
    pub fn shared(members: &[SiteId]) -> Self {
        FsParams {
            members: SiteSet::of(members),
            op_latency: Dist::log_normal(0.005, 0.4),
            write_bandwidth: 1.2e8,
            read_bandwidth: 1.5e8,
        }
    }
}

/// Parameters of the Globus backend: a file system on each side plus the
/// shared transfer service.
#[derive(Clone)]
pub struct GlobusBackend {
    /// The transfer service shared by all stores in the experiment.
    pub service: GlobusService,
    /// File system at the producing site(s).
    pub src_fs: FsParams,
    /// File system at the consuming site(s).
    pub dst_fs: FsParams,
    /// Sites the data should be pushed to as soon as it is stored
    /// (ProxyStore initiates the Globus transfer at proxy-creation time,
    /// which is what hides transfer latency from consumers).
    pub push_to: Vec<SiteId>,
}

/// Which data plane a store uses.
#[derive(Clone)]
pub enum Backend {
    /// In-memory server, lowest latency, requires connectivity.
    Redis(RedisParams),
    /// Shared file system, best for large objects within a facility.
    Fs(FsParams),
    /// Cross-site transfers through the Globus service.
    Globus(Box<GlobusBackend>),
}

impl Backend {
    /// Short label used in error messages and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Backend::Redis(_) => "redis",
            Backend::Fs(_) => "fs",
            Backend::Globus(_) => "globus",
        }
    }
}

/// One object-table slot. A live slot holds `Some(value)`; a free one
/// holds `None` (the `Rc`'s niche is the free tag) and keeps only its
/// generation. 40 bytes: `data_htex` keeps 240 k of them.
struct Slot {
    value: Option<Rc<dyn Any>>,
    size: u64,
    /// Sites where the bytes are resident.
    resident: SiteSet,
    /// Successful resolves so far (for count-based eviction).
    resolves: u32,
    /// Bumped on every remove, so a key issued for an earlier tenant
    /// of the slot misses instead of reading the current one.
    generation: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 40);

/// The stored objects: a slot table with free-list reuse and
/// generation-checked keys. A key packs `generation << 32 | index`, so
/// put/evict churn recycles slots and a stale key never aliases the
/// object that reused its slot. It also keeps the sum of live sizes,
/// so [`Store::resident_bytes`] is O(1).
#[derive(Default)]
struct ObjectTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    resident_bytes: u64,
}

impl ObjectTable {
    fn insert(&mut self, value: Rc<dyn Any>, size: u64, resident: SiteSet) -> u64 {
        self.live += 1;
        self.resident_bytes += size;
        let tenant = |generation| Slot {
            value: Some(value),
            size,
            resident,
            resolves: 0,
            generation,
        };
        let index = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                *slot = tenant(slot.generation);
                index
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "2^32 live objects exceeds any simulated campaign by orders of magnitude"
                )]
                let index = u32::try_from(self.slots.len()).expect("table capped at u32 slots");
                self.slots.push(tenant(0));
                index
            }
        };
        (u64::from(self.slots[index as usize].generation) << 32) | u64::from(index)
    }

    /// The live slot behind `key`, unless `key` is stale or was never
    /// issued.
    fn get(&self, key: u64) -> Option<&Slot> {
        let slot = self.slots.get(key as u32 as usize)?;
        (slot.generation == (key >> 32) as u32 && slot.value.is_some()).then_some(slot)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(key as u32 as usize)?;
        (slot.generation == (key >> 32) as u32 && slot.value.is_some()).then_some(slot)
    }

    /// Frees the slot behind `key`; its generation advances, so `key`
    /// (and any copy of it) goes permanently stale.
    fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.get_mut(key) else { return false };
        slot.value = None;
        slot.generation = slot.generation.wrapping_add(1);
        let size = slot.size;
        self.free.push(key as u32);
        self.live -= 1;
        self.resident_bytes -= size;
        true
    }
}

/// Aggregate store statistics.
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Objects stored over the store's lifetime.
    pub puts: u64,
    /// Resolve operations served.
    pub gets: u64,
    /// Bytes written into the store.
    pub bytes_put: u64,
    /// Bytes read out of the store.
    pub bytes_get: u64,
    /// Gets that found data already resident at the consumer site.
    pub local_hits: u64,
    /// Gets that had to wait on a cross-site transfer.
    pub remote_waits: u64,
    /// Objects evicted.
    pub evictions: u64,
}

struct Inner {
    sim: Sim,
    name: String,
    backend: Backend,
    eviction: Cell<EvictionPolicy>,
    rng: RefCell<SimRng>,
    objects: RefCell<ObjectTable>,
    /// In-flight Globus replication, keyed by `(object key, destination
    /// site)`. Almost every object has none, so the tickets live here
    /// rather than in its slot; one is dropped when its site becomes
    /// resident, and all of an object's when the object is removed.
    tickets: RefCell<BTreeMap<(u64, SiteId), TransferTicket>>,
    stats: RefCell<StoreStats>,
    resolve_waits: RefCell<Samples>,
}

/// A named object store with one backend.
#[derive(Clone)]
pub struct Store {
    inner: Rc<Inner>,
}

/// Result of resolving a proxy: the value plus what it cost.
///
/// The `Debug` form omits the value (it is type-erased for
/// [`Resolved<dyn Any>`]).
pub struct Resolved<T: ?Sized> {
    /// The target object.
    pub value: Rc<T>,
    /// Virtual time spent waiting inside resolve.
    pub wait: std::time::Duration,
    /// True when the bytes were already resident at the consumer's site.
    pub was_local: bool,
}

impl<T: ?Sized> fmt::Debug for Resolved<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resolved")
            .field("wait", &self.wait)
            .field("was_local", &self.was_local)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Creates a store. `rng` should be a dedicated stream.
    pub fn new(sim: Sim, name: impl Into<String>, backend: Backend, rng: SimRng) -> Self {
        Store {
            inner: Rc::new(Inner {
                sim,
                name: name.into(),
                backend,
                eviction: Cell::new(EvictionPolicy::Manual),
                rng: RefCell::new(rng),
                objects: RefCell::new(ObjectTable::default()),
                tickets: RefCell::new(BTreeMap::new()),
                stats: RefCell::new(StoreStats::default()),
                resolve_waits: RefCell::new(Samples::new()),
            }),
        }
    }

    /// The store's name (used in traces and reports).
    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }

    /// The backend's label.
    pub(crate) fn backend_label(&self) -> &'static str {
        self.inner.backend.label()
    }

    /// Sets the automatic eviction policy.
    pub fn set_eviction(&self, policy: EvictionPolicy) {
        self.inner.eviction.set(policy);
    }

    /// Stores `value` with declared wire size `size`, produced at `from`.
    ///
    /// Awaiting this models the producer-side cost: payload upload for
    /// Redis, file write for the file system, file write *plus transfer
    /// initiation* for Globus. Returns the object key.
    pub async fn put_raw(
        &self,
        value: Rc<dyn Any>,
        size: u64,
        from: SiteId,
    ) -> Result<u64, StoreError> {
        let inner = &self.inner;
        let mut resident = SiteSet::EMPTY;
        let mut transfers = Vec::new();
        match &inner.backend {
            Backend::Redis(p) => {
                if !p.connected.contains(from) {
                    return Err(StoreError::Unreachable { site: from, store: "redis" });
                }
                let d = self.redis_op_cost(p, from, size);
                inner.sim.sleep(d).await;
                resident.insert(p.host);
            }
            Backend::Fs(p) => {
                if !p.members.contains(from) {
                    return Err(StoreError::Unreachable { site: from, store: "fs" });
                }
                inner.sim.sleep(self.fs_op_cost(p, size, p.write_bandwidth)).await;
                resident = p.members;
            }
            Backend::Globus(g) => {
                // Either side may produce data: the thinker's site (task
                // inputs) or the remote workers' site (results).
                let local_fs = if g.src_fs.members.contains(from) {
                    &g.src_fs
                } else if g.dst_fs.members.contains(from) {
                    &g.dst_fs
                } else {
                    return Err(StoreError::Unreachable { site: from, store: "globus" });
                };
                // Write locally first ("objects are still written to the
                // shared file system prior to starting a Globus
                // transfer", §V-C2), then initiate the push.
                let d = self.fs_op_cost(local_fs, size, local_fs.write_bandwidth);
                inner.sim.sleep(d).await;
                resident = local_fs.members;
                for &dst in &g.push_to {
                    if resident.contains(dst) {
                        continue;
                    }
                    let ticket = g.service.initiate(size).await;
                    transfers.push((dst, ticket));
                }
            }
        }
        let key = inner.objects.borrow_mut().insert(value, size, resident);
        if !transfers.is_empty() {
            let tickets = transfers.into_iter().map(|(dst, ticket)| ((key, dst), ticket));
            inner.tickets.borrow_mut().extend(tickets);
        }
        let mut stats = inner.stats.borrow_mut();
        stats.puts += 1;
        stats.bytes_put += size;
        Ok(key)
    }

    /// Resolves an object at consumer site `at`, paying transfer and read
    /// costs; returns the value, the wait, and whether it was local.
    pub async fn get_raw(&self, key: u64, at: SiteId) -> Result<Resolved<dyn Any>, StoreError> {
        let inner = &self.inner;
        let start = inner.sim.now();
        // Snapshot what we need without holding the borrow across awaits.
        let (size, resident) = {
            let objects = inner.objects.borrow();
            let slot = objects.get(key).ok_or(StoreError::Missing(key))?;
            (slot.size, slot.resident)
        };

        let mut was_local = true;
        match &inner.backend {
            Backend::Redis(p) => {
                if !p.connected.contains(at) {
                    return Err(StoreError::Unreachable { site: at, store: "redis" });
                }
                was_local = at == p.host;
                let d = self.redis_op_cost(p, at, size);
                inner.sim.sleep(d).await;
            }
            Backend::Fs(p) => {
                if !p.members.contains(at) {
                    return Err(StoreError::Unreachable { site: at, store: "fs" });
                }
                inner.sim.sleep(self.fs_op_cost(p, size, p.read_bandwidth)).await;
            }
            Backend::Globus(g) => {
                if !resident.contains(at) {
                    // Wait for the push initiated at put time.
                    let Some(ticket) = inner.tickets.borrow().get(&(key, at)).cloned() else {
                        return Err(StoreError::Unreachable { site: at, store: "globus" });
                    };
                    was_local = ticket.is_done();
                    ticket.wait().await;
                    if let Some(slot) = inner.objects.borrow_mut().get_mut(key) {
                        slot.resident.insert(at);
                        inner.tickets.borrow_mut().remove(&(key, at));
                    }
                }
                let fs = if g.dst_fs.members.contains(at) { &g.dst_fs } else { &g.src_fs };
                inner.sim.sleep(self.fs_op_cost(fs, size, fs.read_bandwidth)).await;
            }
        }

        let (value, spent) = {
            let mut objects = inner.objects.borrow_mut();
            let slot = objects.get_mut(key).ok_or(StoreError::Missing(key))?;
            slot.resolves += 1;
            let spent = match inner.eviction.get() {
                EvictionPolicy::AfterResolves(n) => slot.resolves >= n,
                _ => false,
            };
            (slot.value.clone().ok_or(StoreError::Missing(key))?, spent)
        };
        // Count-based lifetime: one-shot data leaves the store as soon
        // as its last consumer has it.
        if spent {
            self.evict(key);
        }
        let wait = inner.sim.now() - start;
        {
            let mut stats = inner.stats.borrow_mut();
            stats.gets += 1;
            stats.bytes_get += size;
            if was_local {
                stats.local_hits += 1;
            } else {
                stats.remote_waits += 1;
            }
        }
        inner.resolve_waits.borrow_mut().record(wait.as_secs_f64());
        Ok(Resolved { value, wait, was_local })
    }

    fn redis_op_cost(&self, p: &RedisParams, site: SiteId, size: u64) -> std::time::Duration {
        let path = if site == p.host { &p.local } else { &p.remote };
        path.cost(&mut self.inner.rng.borrow_mut(), size)
    }

    /// One file-system write or read of `size` bytes at `bandwidth`: the
    /// one `op_latency` serves both directions.
    fn fs_op_cost(&self, p: &FsParams, size: u64, bandwidth: f64) -> std::time::Duration {
        p.op_latency.sample_hop(&mut self.inner.rng.borrow_mut(), size, bandwidth)
    }

    /// Removes an object, freeing its (simulated) memory. Every removal
    /// path comes here: it frees the slot, drops the object's tickets
    /// (one range, never a scan) and counts the eviction.
    pub(crate) fn evict(&self, key: u64) -> bool {
        let inner = &self.inner;
        if !inner.objects.borrow_mut().remove(key) {
            return false;
        }
        let mut tickets = inner.tickets.borrow_mut();
        let of_key = (key, SiteId(0))..=(key, SiteId(u16::MAX));
        while let Some((&k, _)) = tickets.range(of_key.clone()).next() {
            tickets.remove(&k);
        }
        drop(tickets);
        inner.stats.borrow_mut().evictions += 1;
        true
    }

    /// True while the key is stored.
    #[cfg(test)]
    pub fn contains(&self, key: u64) -> bool {
        self.inner.objects.borrow().get(key).is_some()
    }

    /// Sum of declared sizes of all resident objects.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.objects.borrow().resident_bytes
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.inner.objects.borrow().live
    }

    /// Lifetime statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.inner.stats.borrow().clone()
    }

    /// Distribution of resolve waits (seconds).
    pub fn resolve_waits(&self) -> Samples {
        self.inner.resolve_waits.borrow().clone()
    }

    /// The simulation this store lives on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::globus::GlobusParams;
    use crate::location::bytes::{KB, MB};

    const THETA: SiteId = SiteId(0);
    const VENTI: SiteId = SiteId(1);

    fn sim_store(backend: Backend) -> (Sim, Store) {
        let sim = Sim::new();
        let store = Store::new(sim.clone(), "test", backend, SimRng::from_seed(7));
        (sim, store)
    }

    fn fixed_redis(host: SiteId) -> RedisParams {
        RedisParams {
            host,
            connected: SiteSet::of(&[host]),
            local: Link { latency: Dist::Constant(0.001), bandwidth: 1e9 },
            remote: Link { latency: Dist::Constant(0.005), bandwidth: 1e8 },
        }
    }

    fn fixed_fs(members: &[SiteId]) -> FsParams {
        FsParams {
            members: SiteSet::of(members),
            op_latency: Dist::Constant(0.005),
            write_bandwidth: 5e8,
            read_bandwidth: 5e8,
        }
    }

    #[test]
    fn redis_put_get_roundtrip() {
        let (sim, store) = sim_store(Backend::Redis(fixed_redis(THETA)));
        let s = store.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new(vec![1u8, 2, 3]), 10 * KB, THETA).await.unwrap();
            let got = s.get_raw(key, THETA).await.unwrap();
            let v = got.value.downcast::<Vec<u8>>().unwrap();
            (v.as_ref().clone(), got.was_local)
        });
        let (v, local) = sim.block_on(h);
        assert_eq!(v, vec![1, 2, 3]);
        assert!(local);
    }

    #[test]
    fn redis_costs_latency_plus_bandwidth() {
        let (sim, store) = sim_store(Backend::Redis(fixed_redis(THETA)));
        let s = store.clone();
        let clock = sim.clone();
        let h = sim.spawn(async move {
            let t0 = clock.now();
            let key = s.put_raw(Rc::new(()), MB, THETA).await.unwrap();
            let put_t = (clock.now() - t0).as_secs_f64();
            let t1 = clock.now();
            s.get_raw(key, THETA).await.unwrap();
            let get_t = (clock.now() - t1).as_secs_f64();
            (put_t, get_t)
        });
        let (put_t, get_t) = sim.block_on(h);
        assert!((put_t - 0.002).abs() < 1e-9, "1ms + 1MB/1GBps = 2ms, got {put_t}");
        assert!((get_t - 0.002).abs() < 1e-9);
    }

    #[test]
    fn redis_unreachable_site_errors() {
        let (sim, store) = sim_store(Backend::Redis(fixed_redis(THETA)));
        let s = store.clone();
        let h = sim.spawn(async move {
            let err = s.put_raw(Rc::new(()), KB, VENTI).await.unwrap_err();
            err
        });
        assert_eq!(
            sim.block_on(h),
            StoreError::Unreachable { site: VENTI, store: "redis" }
        );
    }

    #[test]
    fn redis_tunnel_reaches_remote_site() {
        let mut p = fixed_redis(THETA);
        p.connected.insert(VENTI);
        let (sim, store) = sim_store(Backend::Redis(p));
        let s = store.clone();
        let clock = sim.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new(7u32), MB, THETA).await.unwrap();
            let t0 = clock.now();
            let got = s.get_raw(key, VENTI).await.unwrap();
            ((clock.now() - t0).as_secs_f64(), got.was_local)
        });
        let (get_t, local) = sim.block_on(h);
        // 5ms tunnel latency + 1MB/100MBps = 15ms
        assert!((get_t - 0.015).abs() < 1e-9, "got {get_t}");
        assert!(!local, "cross-site Redis get is remote");
    }

    #[test]
    fn fs_shared_members_see_data() {
        let (sim, store) = sim_store(Backend::Fs(fixed_fs(&[THETA, SiteId(2)])));
        let s = store.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new("model"), 10 * MB, THETA).await.unwrap();
            let got = s.get_raw(key, SiteId(2)).await.unwrap();
            *got.value.downcast::<&str>().unwrap()
        });
        assert_eq!(sim.block_on(h), "model");
    }

    #[test]
    fn fs_non_member_errors() {
        let (sim, store) = sim_store(Backend::Fs(fixed_fs(&[THETA])));
        let s = store.clone();
        let h = sim.spawn(async move { s.get_raw(999, VENTI).await.unwrap_err() });
        assert_eq!(sim.block_on(h), StoreError::Missing(999));
        let s2 = store.clone();
        let h2 = sim.spawn(async move {
            let key = s2.put_raw(Rc::new(()), KB, THETA).await.unwrap();
            s2.get_raw(key, VENTI).await.unwrap_err()
        });
        assert_eq!(sim.block_on(h2), StoreError::Unreachable { site: VENTI, store: "fs" });
    }

    fn globus_backend(sim: &Sim) -> Backend {
        let service = GlobusService::new(
            sim.clone(),
            GlobusParams {
                request_latency: Dist::Constant(0.5),
                transfer: Link { latency: Dist::Constant(2.0), bandwidth: 1e9 },
                concurrent_per_user: 3,
            },
            SimRng::from_seed(3),
        );
        Backend::Globus(Box::new(GlobusBackend {
            service,
            src_fs: fixed_fs(&[THETA]),
            dst_fs: fixed_fs(&[VENTI]),
            push_to: vec![VENTI],
        }))
    }

    #[test]
    fn globus_put_initiates_push_and_get_waits() {
        let sim = Sim::new();
        let store = Store::new(sim.clone(), "g", globus_backend(&sim), SimRng::from_seed(7));
        let s = store.clone();
        let clock = sim.clone();
        let h = sim.spawn(async move {
            let t0 = clock.now();
            let key = s.put_raw(Rc::new(1u8), MB, THETA).await.unwrap();
            let put_t = (clock.now() - t0).as_secs_f64();
            let t1 = clock.now();
            let got = s.get_raw(key, VENTI).await.unwrap();
            ((put_t, (clock.now() - t1).as_secs_f64()), got.was_local)
        });
        let ((put_t, get_t), local) = sim.block_on(h);
        // put: 5ms fs write + 2ms bw + 500ms initiate ≈ 0.507
        assert!((put_t - 0.507).abs() < 1e-6, "got {put_t}");
        // get immediately after put: waits remaining 2.0s service plus
        // 1ms wire, then fs read 5ms + 2ms.
        assert!((get_t - 2.008).abs() < 1e-6, "got {get_t}");
        assert!(!local);
    }

    #[test]
    fn globus_prefetch_hides_transfer() {
        let sim = Sim::new();
        let store = Store::new(sim.clone(), "g", globus_backend(&sim), SimRng::from_seed(7));
        let s = store.clone();
        let clock = sim.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new(1u8), MB, THETA).await.unwrap();
            // Consumer shows up late: transfer already done.
            clock.sleep(hetflow_sim::time::secs(10.0)).await;
            let t1 = clock.now();
            let got = s.get_raw(key, VENTI).await.unwrap();
            ((clock.now() - t1).as_secs_f64(), got.was_local)
        });
        let (get_t, local) = sim.block_on(h);
        assert!(get_t < 0.1, "prefetched resolve must be fast, got {get_t}");
        assert!(local);
    }

    #[test]
    fn globus_second_get_is_resident() {
        let sim = Sim::new();
        let store = Store::new(sim.clone(), "g", globus_backend(&sim), SimRng::from_seed(7));
        let s = store.clone();
        let clock = sim.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new(1u8), MB, THETA).await.unwrap();
            s.get_raw(key, VENTI).await.unwrap();
            let t1 = clock.now();
            let got = s.get_raw(key, VENTI).await.unwrap();
            ((clock.now() - t1).as_secs_f64(), got.was_local)
        });
        let (get_t, local) = sim.block_on(h);
        assert!(get_t < 0.1, "resident read is fast, got {get_t}");
        assert!(local);
    }

    #[test]
    fn evict_frees_and_missing_errors() {
        let (sim, store) = sim_store(Backend::Fs(fixed_fs(&[THETA])));
        let s = store.clone();
        let h = sim.spawn(async move {
            let key = s.put_raw(Rc::new(0u8), 5 * MB, THETA).await.unwrap();
            assert_eq!(s.resident_bytes(), 5 * MB);
            assert!(s.evict(key));
            assert!(!s.evict(key));
            assert_eq!(s.resident_bytes(), 0);
            s.get_raw(key, THETA).await.unwrap_err()
        });
        let err = sim.block_on(h);
        assert!(matches!(err, StoreError::Missing(_)));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn stats_accumulate() {
        let (sim, store) = sim_store(Backend::Fs(fixed_fs(&[THETA])));
        let s = store.clone();
        sim.spawn(async move {
            let k1 = s.put_raw(Rc::new(()), KB, THETA).await.unwrap();
            let k2 = s.put_raw(Rc::new(()), 2 * KB, THETA).await.unwrap();
            s.get_raw(k1, THETA).await.unwrap();
            s.get_raw(k2, THETA).await.unwrap();
            s.get_raw(k2, THETA).await.unwrap();
        });
        sim.run();
        let st = store.stats();
        assert_eq!(st.puts, 2);
        assert_eq!(st.gets, 3);
        assert_eq!(st.bytes_put, 3 * KB);
        assert_eq!(st.bytes_get, 5 * KB);
        assert_eq!(store.resolve_waits().len(), 3);
        assert_eq!(store.object_count(), 2);
    }

    // ---------------------------------------------------------------
    // The object table keeps the guarantees of a generation-checked
    // slot arena: stale keys miss, freed slots are reused first, and a
    // first-generation key is its slot index.
    // ---------------------------------------------------------------

    fn put(table: &mut ObjectTable, size: u64) -> u64 {
        table.insert(Rc::new(size), size, SiteSet::EMPTY)
    }

    #[test]
    fn table_insert_get_remove_roundtrip() {
        let mut t = ObjectTable::default();
        let (x, y) = (put(&mut t, 1), put(&mut t, 2));
        assert_eq!((t.live, t.resident_bytes), (2, 3));
        assert_eq!(t.get(x).map(|s| s.size), Some(1));
        assert_eq!(t.get(y).map(|s| s.size), Some(2));
        assert!(t.remove(x));
        assert!(!t.remove(x), "double remove misses");
        assert_eq!((t.live, t.resident_bytes), (1, 2));
        assert!(t.get(x).is_none());
        assert!(t.get(y).is_some());
    }

    #[test]
    fn stale_key_never_aliases_a_reused_slot() {
        let mut t = ObjectTable::default();
        let first = put(&mut t, 1);
        t.remove(first);
        let second = put(&mut t, 2);
        assert_eq!(second as u32, first as u32, "the slot was reused");
        assert!(t.get(first).is_none());
        assert!(t.get_mut(first).is_none());
        assert!(!t.remove(first));
        assert_eq!(t.get(second).map(|s| s.size), Some(2));
    }

    #[test]
    fn free_list_is_reused_before_the_table_grows() {
        let mut t = ObjectTable::default();
        let keys: Vec<u64> = (0..4).map(|i| put(&mut t, i)).collect();
        for &k in &keys {
            t.remove(k);
        }
        assert_eq!((t.live, t.resident_bytes), (0, 0));
        for i in 0..4 {
            let k = put(&mut t, i + 10);
            assert!((k as u32) < 4, "reused a freed slot, got {k:#x}");
        }
        assert_eq!((t.live, t.slots.len()), (4, 4));
    }

    #[test]
    fn first_generation_keys_are_slot_indices() {
        let mut t = ObjectTable::default();
        assert_eq!(put(&mut t, 0), 0);
        let k = put(&mut t, 7);
        assert_eq!(k, 1);
        t.remove(k);
        let k2 = put(&mut t, 8);
        assert_eq!(k2, (1 << 32) | 1, "generation << 32 | index");
        assert!(t.get(k).is_none());
    }

    #[test]
    fn globus_tickets_leave_with_residency_and_with_the_object() {
        let sim = Sim::new();
        let store = Store::new(sim.clone(), "g", globus_backend(&sim), SimRng::from_seed(7));
        let s = store.clone();
        let h = sim.spawn(async move {
            let a = s.put_raw(Rc::new(1u8), MB, THETA).await.unwrap();
            let b = s.put_raw(Rc::new(2u8), MB, THETA).await.unwrap();
            assert_eq!(s.inner.tickets.borrow().len(), 2, "one push per object");
            s.get_raw(a, VENTI).await.unwrap();
            assert!(!s.inner.tickets.borrow().contains_key(&(a, VENTI)), "resident now");
            assert!(s.evict(b));
            assert!(s.inner.tickets.borrow().is_empty(), "removed with its object");
        });
        sim.block_on(h);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Under every eviction policy, after every step of a random
        /// put/get/evict script, the running total equals the sum
        /// of live sizes and `object_count` the number of live slots.
        #[test]
        fn resident_bytes_is_the_sum_of_live_sizes(
            script in prop::collection::vec(any::<u64>(), 1..=60),
            by_count in any::<bool>(),
        ) {
            let policy =
                if by_count { EvictionPolicy::AfterResolves(2) } else { EvictionPolicy::Manual };
            let (sim, store) = sim_store(Backend::Fs(fixed_fs(&[THETA])));
            store.set_eviction(policy);
            let s = store.clone();
            let h = sim.spawn(async move {
                let mut keys: Vec<u64> = Vec::new();
                for op in script {
                    let key = keys.get((op >> 8) as usize % keys.len().max(1)).copied();
                    match (op % 3, key) {
                        (0, _) => {
                            let size = (op >> 4) % (4 * MB);
                            keys.push(s.put_raw(Rc::new(op), size, THETA).await.unwrap());
                        }
                        (1, Some(k)) => drop(s.get_raw(k, THETA).await),
                        (2, Some(k)) => {
                            s.evict(k);
                        }
                        _ => {}
                    }
                    let table = s.inner.objects.borrow();
                    let live = table.slots.iter().filter(|x| x.value.is_some());
                    let (count, bytes) = live.fold((0, 0), |(c, b), x| (c + 1, b + x.size));
                    if (s.object_count(), s.resident_bytes()) != (count, bytes) {
                        return Err(format!(
                            "ledger {} objects {} B, table {count} objects {bytes} B",
                            s.object_count(),
                            s.resident_bytes()
                        ));
                    }
                }
                Ok(())
            });
            let verdict = sim.block_on(h);
            prop_assert!(verdict.is_ok(), "{:?} under {:?}", verdict, policy);
        }
    }
}

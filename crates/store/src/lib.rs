//! # hetflow-store — ProxyStore reproduction
//!
//! Pass-by-reference data fabric for multi-resource workflows (§IV-C of
//! the paper). Producers [`put`](store::Store::put_raw) objects into a
//! [`Store`] and hand out lazy [`Proxy`] references; consumers resolve a
//! proxy on their own resource, paying locality-dependent costs:
//!
//! * **Redis backend** — lowest latency for small objects; requires
//!   network reachability (an SSH tunnel across sites).
//! * **File-system backend** — shared parallel FS within a facility;
//!   best for large objects.
//! * **Globus backend** — cross-site transfers through a cloud transfer
//!   service with per-user concurrency limits; transfers start at proxy
//!   *creation* time, hiding latency from consumers that arrive late.
//!
//! [`ProxyPolicy`] reproduces Colmena's automatic proxying of objects
//! above a per-topic size threshold.
//!
//! ```
//! use hetflow_store::{Backend, FsParams, Proxy, SiteId, Store};
//! use hetflow_sim::{Sim, SimRng};
//!
//! let sim = Sim::new();
//! let store = Store::new(
//!     sim.clone(),
//!     "scratch",
//!     Backend::Fs(FsParams::shared(&[SiteId(0)])),
//!     SimRng::from_seed(1),
//! );
//! let h = sim.spawn(async move {
//!     // Put 10 MB of model weights; only a ~500 B reference travels.
//!     let proxy = Proxy::create(&store, vec![1.0f32; 4], 10_000_000, SiteId(0))
//!         .await
//!         .unwrap();
//!     let resolved = proxy.resolve(SiteId(0)).await.unwrap();
//!     resolved.value.len()
//! });
//! assert_eq!(sim.block_on(h), 4);
//! ```

pub mod globus;
pub mod location;
pub mod policy;
pub mod proxy;
pub mod registry;
pub mod store;

pub use globus::{GlobusParams, GlobusService, TransferTicket};
pub use location::{bytes, SiteId, SiteSet};
pub use policy::{ProxyPolicy, TopicRule};
pub use proxy::{Proxy, UntypedProxy, PROXY_WIRE_BYTES};
pub use registry::{EvictionPolicy, StoreRegistry};
pub use store::{Backend, FsParams, GlobusBackend, RedisParams, Resolved, Store, StoreError, StoreStats};

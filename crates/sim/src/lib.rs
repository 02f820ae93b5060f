//! # hetflow-sim — deterministic discrete-event simulation kernel
//!
//! The substrate on which the whole reproduction runs. The paper's
//! evaluation was performed on a physical testbed (Theta KNL nodes, a
//! 20-GPU server, cloud-hosted FuncX and Globus services); this crate
//! provides the virtual-time machinery that stands in for that hardware:
//!
//! * [`Sim`] — a single-threaded async executor over virtual time.
//!   Actors are ordinary `async` tasks; awaiting [`Sim::sleep`] advances
//!   the clock deterministically.
//! * [`channel()`]/[`bounded`] — FIFO message channels between actors
//!   (task queues, result queues, worker pools).
//! * [`Event`] and [`Semaphore`] — the coordination primitives the
//!   steering agents and resource models are built from.
//! * [`SimRng`], [`Dist`], [`Link`] — named deterministic random streams,
//!   and the latency distributions and payload hops of all cost models.
//! * [`Samples`], [`TimeSeries`], [`Gauge`], [`Tracer`] — measurement
//!   containers for regenerating the paper's figures.
//!
//! Determinism: runs are bit-reproducible for a given master seed. Tasks
//! wake in FIFO order, timers fire in `(deadline, tie, registration)` order,
//! and all randomness flows through named [`SimRng`] streams.
//!
//! ```
//! use hetflow_sim::{Sim, channel, time::secs};
//!
//! let sim = Sim::new();
//! let (tx, rx) = channel::<u32>();
//! let s = sim.clone();
//! sim.spawn(async move {
//!     s.sleep(secs(1.0)).await;
//!     tx.send_now(42).unwrap();
//! });
//! let h = sim.spawn(async move { rx.recv().await });
//! assert_eq!(sim.block_on(h), Some(42));
//! assert_eq!(sim.now().as_secs_f64(), 1.0);
//! ```

pub mod channel;
pub mod combinators;
pub mod dist;
pub mod executor;
pub mod intern;
pub mod metrics;
pub mod num;
pub mod rng;
pub mod symmap;
pub mod sync;
pub mod time;
pub mod trace;

pub use combinators::Elapsed;
pub use channel::{bounded, channel, Offered, OverflowPolicy, Receiver, Sender};
pub use dist::{Dist, Link};
pub use executor::{JoinHandle, LegKey, Legs, RunReport, Sim, Sleep};
pub use intern::Symbol;
pub use symmap::SymbolMap;
pub use metrics::{Gauge, Samples, TimeSeries};
pub use rng::SimRng;
pub use sync::{Event, Permit, Semaphore};
pub use time::SimTime;
pub use trace::{kinds as trace_kinds, Kind as TraceKind, TraceEvent, Tracer};

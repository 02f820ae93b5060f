//! # hetflow-fabric — compute fabrics
//!
//! Two ways of getting a [`task::TaskSpec`] onto a remote worker and its
//! result back (§IV-B, §V-B of the paper), built as **one dispatch core
//! over two transports**:
//!
//! * [`Dispatcher`] — the core. Routes topics to endpoints, feeds the
//!   [`worker::WorkerPool`]s, and owns every reliability and overload
//!   arm: breakers, failover, hedges, reroutes, deadlines
//!   ([`ReliabilityLayer`]), bounded pool queues with shedding,
//!   admission control, and the exactly-one terminal result per task. It
//!   reads its transport as data and never asks which one it has.
//! * [`FnXExecutor`] = the core over the cloud transport ([`faas`], the
//!   FuncX model): submissions travel through a cloud service with
//!   tiered payload storage (fast KV ≤ 20 kB, object store above, hard
//!   10 MB cap) and outbound-only endpoint connections that hold tasks
//!   and results while offline (a [`ChaosSpec`] scripts the outages). No
//!   open ports at the resources.
//! * [`HtexExecutor`] = the core over the interchange transport
//!   ([`htex`], the Parsl HTEX model): tasks cross direct TCP links,
//!   which requires ports/tunnels but moves payloads at link bandwidth.
//!
//! A transport is five fields: the fabric's label, its payload cap, the
//! `Link` the client pays to submit, one hop table per endpoint and way,
//! and the endpoints' connections — nothing else (DESIGN.md §9 has the
//! tables).
//!
//! Worker pools resolve proxied inputs, run the (real) compute closure
//! for its declared virtual duration, apply the result proxy policy,
//! and return a [`task::TaskResult`] stamped with the full life-cycle
//! timing the paper's figures decompose.
//!
//! ```
//! use hetflow_fabric::{EndpointSpec, Fabric, FnXExecutor, FnXParams,
//!                      ReliabilityPolicies, TaskSpec, WorkerPoolConfig};
//! use hetflow_store::SiteId;
//! use hetflow_sim::{channel, Sim, SimRng, Tracer};
//! use std::rc::Rc;
//!
//! let sim = Sim::new();
//! let (results_tx, results_rx) = channel();
//! let fabric = FnXExecutor::with_reliability(
//!     &sim,
//!     FnXParams::default(),
//!     vec![EndpointSpec::reliable(
//!         WorkerPoolConfig::bare(SiteId(0), "theta", 2),
//!         vec!["noop"],
//!     )],
//!     results_tx,
//!     SimRng::from_seed(1),
//!     Tracer::disabled(),
//!     ReliabilityPolicies::default(),
//! );
//! let f = Rc::new(fabric);
//! let f2 = Rc::clone(&f);
//! sim.spawn(async move { f2.submit(TaskSpec::noop(0, 10_000)).await });
//! sim.run();
//! assert_eq!(results_rx.drain_now().len(), 1);
//! ```

mod dispatch;
pub mod fabric;
pub mod faas;
pub mod health;
pub mod htex;
pub mod reliability;
pub mod task;
pub mod worker;

pub use dispatch::{Dispatcher, Submit};
pub use fabric::Fabric;
pub use faas::{EndpointSpec, FnXExecutor, FnXParams};
pub use health::{
    BreakerConfig, HedgeConfig, ReliabilityLayer, ReliabilityPolicies, ReliabilityPolicy,
};
pub use htex::{HtexEndpoint, HtexExecutor, HtexParams};
pub use reliability::chaos::{ChaosAction, ChaosSpec, ChaosTargets, STORM_ID_BASE};
pub use reliability::overload::AdmissionConfig;
pub use reliability::{Connectivity, FailureModel, Knob, RetryPolicies, RetryPolicy};
pub use task::{
    Arg, Args, TaskCtx, TaskError, TaskFn, TaskId, TaskOutcome, TaskResult, TaskSpec, TaskTiming,
    TaskWork, WorkerReport,
};
pub use worker::{WorkerPool, WorkerPoolConfig};

//! # hetflow-steer — steering policies as cooperating agents
//!
//! Reproduction of Colmena (§IV-D of the paper): a [`Thinker`] hosts the
//! steering agents; [`TaskServer`] bridges the agents' queues to a
//! compute fabric, automatically proxying payloads above a per-topic
//! threshold; [`ResourceCounter`] lets agents reallocate workers between
//! task types; [`lifecycle`] aggregates the finished-task records into
//! the latency decompositions the paper's figures report.
//!
//! ```
//! use hetflow_steer::ResourceCounter;
//! use hetflow_sim::Sim;
//!
//! let sim = Sim::new();
//! let counter = ResourceCounter::new();
//! counter.register("simulate", 6);
//! counter.register("sample", 2);
//! let c = counter.clone();
//! let h = sim.spawn(async move {
//!     // Shift a worker from simulation to sampling, as the
//!     // fine-tuning thinker's balancer does.
//!     c.reallocate("simulate", "sample").await;
//!     (c.available("simulate"), c.available("sample"))
//! });
//! assert_eq!(sim.block_on(h), (5, 3));
//! ```

pub mod advisor;
pub mod lifecycle;
pub mod queues;
pub mod resources;
pub mod thinker;

pub use advisor::{Advisor, PathChoice, Recommendation};
pub use lifecycle::{Breakdown, BreakdownRow, TaskRecord};
pub use queues::{ClientQueues, CompletedTask, Payload, QueueConfig, ResolvedTask, TaskServer};
pub use resources::ResourceCounter;
pub use thinker::Thinker;

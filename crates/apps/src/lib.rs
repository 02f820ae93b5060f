//! # hetflow-apps — the paper's two applications
//!
//! End-to-end AI-guided simulation campaigns running on any
//! [`hetflow_core::Deployment`]:
//!
//! * [`moldesign`] — active-learning molecular design (§III-A):
//!   simulate → retrain ensemble → score library → reorder queue.
//! * [`finetune`] — surrogate fine-tuning (§III-B): surrogate-MD
//!   sampling, audit/uncertainty pools, reference-level calculations,
//!   ensemble refits, and worker rebalancing.
//!
//! The campaigns perform real learning inside task closures while
//! communication and task durations advance virtual time, so the
//! science outcomes (Figs. 6a, 7a) reflect how fast each workflow
//! configuration actually moves data.

pub mod finetune;
pub mod moldesign;

pub use finetune::{
    ensemble_force_rmsd, initial_ensemble, test_set, FinetuneOutcome, FinetuneParams,
};
pub use moldesign::{MolDesignOutcome, MolDesignParams, SteeringMode};

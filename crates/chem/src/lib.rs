//! # hetflow-chem — synthetic chemistry substrates
//!
//! The paper's applications call real quantum-chemistry codes (xTB for
//! ionization potentials, Psi4/DFT for cluster energies and forces) on
//! real datasets (MOSES, HydroNet). Those are unavailable here, so this
//! crate provides synthetic equivalents that preserve what the workflow
//! experiments need:
//!
//! * [`MoleculeLibrary`] — a deterministic candidate set whose hidden
//!   ionization-potential function is smooth (learnable by a surrogate)
//!   with a calibrated ~2 % tail above the paper's IP > 14 threshold.
//! * [`MorsePes`] — a two-fidelity potential-energy surface (approximate
//!   vs reference level) with analytic forces; the inter-level
//!   difference is smooth, so fine-tuning on few reference calculations
//!   works, as in §III-B.
//! * [`run_md`] — velocity-Verlet dynamics on any [`EnergyModel`]
//!   (physical surfaces or ML surrogates) for the sampling tasks.
//!
//! ```
//! use hetflow_chem::{run_md, solvated_methane, EnergyModel, MdParams, MorsePes};
//! use hetflow_sim::SimRng;
//!
//! let start = solvated_methane(1);
//! let reference = MorsePes::reference();
//! let mut rng = SimRng::from_seed(1);
//! let traj = run_md(&reference, &start, MdParams::default(), &mut rng);
//! assert!(traj.energy_drift() < 0.5);
//! let (energy, forces) = reference.energy_forces(traj.last());
//! assert!(energy < 0.0 && forces.len() == start.n_atoms());
//! ```

#![allow(clippy::needless_range_loop, reason = "index loops are clearest for numeric kernels")]

pub mod clusters;
pub mod md;
pub mod molecules;
pub mod pes;

pub use clusters::{jittered_cluster, pretraining_set, solvated_methane, Structure, Vec3};
pub use md::{run_md, MdParams, Trajectory};
pub use molecules::{MoleculeLibrary, N_FEATURES};
pub use pes::{force_rmsd, numerical_forces, EnergyModel, MorsePes, MorseTerm};

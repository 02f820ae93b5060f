//! # hetflow-ml — machine-learning substrates
//!
//! The surrogate models the workflows train and query. The paper uses
//! MPNN and SchNet ensembles on GPUs; those are replaced by learners
//! that preserve the workflow-relevant properties — they genuinely learn
//! the synthetic targets, give calibrated ensemble uncertainty for
//! active learning, and train deterministically:
//!
//! * [`RffRidge`] — random-Fourier-feature ridge regression, the
//!   molecule-property surrogate (closed-form training); fit and scoring
//!   share one allocation-free kernel ([`features`]) and a libm-free cosine.
//! * [`PairPotential`] — a linear pair potential fit jointly on energies
//!   and forces; its analytic gradient is exact, so MD sampling can run
//!   on the learned surface (the §III-B sampling tasks).
//! * [`Ensemble`] — bagged ensembles with scoped-thread-parallel training
//!   and mean/std prediction for UCB acquisition ([`rank`]).
//! * [`linalg`] — the dense matrix/Cholesky kernel behind the solvers
//!   (row-walking, operation order fixed per element).
//!
//! ```
//! use hetflow_chem::MoleculeLibrary;
//! use hetflow_ml::{Ensemble, RffRidge, SurrogateParams, ucb};
//! use hetflow_sim::SimRng;
//!
//! let lib = MoleculeLibrary::generate(500, 1);
//! let inputs: Vec<Vec<f64>> = (0..200).map(|i| lib.features(i).to_vec()).collect();
//! let targets: Vec<f64> = (0..200).map(|i| lib.true_ip(i)).collect();
//! let rng = SimRng::from_seed(2);
//! let ensemble = Ensemble::fit_parallel(4, &rng, |_, mut r| {
//!     RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut r).unwrap()
//! });
//! let x = lib.features(499).to_vec();
//! let ms = ensemble.predict_with(|m| m.predict(&x));
//! let score = ucb(ms, 1.0);
//! assert!(score.is_finite());
//! ```

// Index loops are the clearest form for the numeric kernels here.
#![allow(clippy::needless_range_loop)]

mod cosine;
pub mod ensemble;
pub mod features;
pub mod linalg;
pub mod metrics;
pub mod pairpot;
pub mod rank;
pub mod ridge;
pub mod surrogate;
pub mod tune;

pub use ensemble::{bag_indices, Ensemble, MeanStd, DEFAULT_BAG_FRACTION};
pub use features::RandomFourierFeatures;
pub use linalg::{Cholesky, LinalgError, Matrix};
pub use metrics::{r2, rmse};
pub use pairpot::{DesignBlock, LabelledStructure, PairPotParams, PairPotential, RadialBasis};
pub use rank::{rank_by_uncertainty, top_k, ucb};
pub use ridge::Ridge;
pub use surrogate::{RffRidge, SurrogateParams};
pub use tune::{cv_rmse, grid_search, kfold_indices, GridSearchResult, StandardScaler};

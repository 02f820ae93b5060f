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
//!   The kernels compile three times from one source (baseline, AVX2,
//!   AVX-512); the CPU picks the widest clone it can run, and all three
//!   return the same bits.
//! * [`PairPotential`] — a linear pair potential fit jointly on energies
//!   and forces; its analytic gradient is exact, so MD sampling can run
//!   on the learned surface (the §III-B sampling tasks).
//! * [`Ensemble`] — bagged ensembles; the spread of member predictions
//!   is the uncertainty the campaigns rank by ([`rank`]).
//! * [`linalg`] — the dense matrix/Cholesky kernel behind the solvers
//!   (row-walking, operation order fixed per element).
//!
//! ```
//! use hetflow_chem::MoleculeLibrary;
//! use hetflow_ml::{
//!     bag_indices, top_k, Ensemble, RffRidge, SurrogateParams, DEFAULT_BAG_FRACTION,
//! };
//! use hetflow_sim::SimRng;
//!
//! let lib = MoleculeLibrary::generate(500, 1);
//! let rng = SimRng::from_seed(2);
//! let ensemble = Ensemble::fit(4, &rng, |_, mut r| {
//!     let bag = bag_indices(200, DEFAULT_BAG_FRACTION, &mut r);
//!     let inputs: Vec<_> = bag.iter().map(|&i| lib.features(i)).collect();
//!     let targets: Vec<f64> = bag.iter().map(|&i| lib.true_ip(i)).collect();
//!     RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut r).unwrap()
//! });
//! let mut mean = vec![0.0; lib.len()];
//! let mut scores = vec![0.0; lib.len()];
//! for member in ensemble.members() {
//!     member.predict_batch(|i| lib.features(i), &mut scores);
//!     mean.iter_mut().zip(&scores).for_each(|(m, s)| *m += s / ensemble.len() as f64);
//! }
//! let best = top_k(&mean, 10);
//! assert!(best.len() == 10 && mean[best[0]] >= mean[best[9]]);
//! ```

#![allow(clippy::needless_range_loop, reason = "index loops are clearest for numeric kernels")]

mod cosine;
pub mod ensemble;
pub mod features;
pub mod linalg;
pub mod pairpot;
pub mod rank;
pub mod ridge;
pub mod surrogate;

pub use ensemble::{bag_indices, Ensemble, DEFAULT_BAG_FRACTION};
pub use features::RandomFourierFeatures;
pub use linalg::{Cholesky, LinalgError, Matrix};
pub use pairpot::{DesignBlock, LabelledStructure, PairPotParams, PairPotential, RadialBasis};
pub use rank::{rank_by_uncertainty, top_k};
pub use ridge::Ridge;
pub use surrogate::{RffDraw, RffRidge, SurrogateParams};

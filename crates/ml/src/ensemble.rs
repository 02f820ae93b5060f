//! Bagged ensembles.
//!
//! Both paper applications train "an ensemble of 8 models where each is
//! trained on a different, randomly-selected subset of the training
//! data" (§III-A, §III-B) and use the spread of predictions as the
//! uncertainty signal for active learning. Every member receives a
//! member-derived seeded stream, so a fit is a pure function of the
//! ensemble's RNG and the member index.

use hetflow_sim::SimRng;

/// Fraction of the training set each member sees.
pub const DEFAULT_BAG_FRACTION: f64 = 0.8;

/// An ensemble of independently trained models.
#[derive(Clone, Debug)]
pub struct Ensemble<M> {
    members: Vec<M>,
}

impl<M> Ensemble<M> {
    /// Wraps pre-trained members.
    pub fn from_members(members: Vec<M>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members.
    pub fn members(&self) -> &[M] {
        &self.members
    }

    /// Trains `n_members` members sequentially. `train` receives the
    /// member index and a member-specific RNG; it must be deterministic
    /// given those.
    pub fn fit(n_members: usize, rng: &SimRng, mut train: impl FnMut(usize, SimRng) -> M) -> Self {
        assert!(n_members > 0);
        let members = (0..n_members)
            .map(|i| train(i, rng.substream(i as u64)))
            .collect();
        Ensemble { members }
    }
}

/// Draws a bagging subset: `ceil(fraction * n)` distinct indices.
pub fn bag_indices(n: usize, fraction: f64, rng: &mut SimRng) -> Vec<usize> {
    assert!(n > 0 && fraction > 0.0 && fraction <= 1.0);
    let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
    rng.sample_indices(n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::{RffRidge, SurrogateParams};
    use hetflow_chem::MoleculeLibrary;

    fn train_member(
        lib: &MoleculeLibrary,
        n_train: usize,
        _i: usize,
        mut rng: SimRng,
    ) -> RffRidge {
        let idx = bag_indices(n_train, DEFAULT_BAG_FRACTION, &mut rng);
        let inputs: Vec<Vec<f64>> = idx.iter().map(|&i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = idx.iter().map(|&i| lib.true_ip(i)).collect();
        RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng).unwrap()
    }

    #[test]
    fn members_differ() {
        let lib = MoleculeLibrary::generate(1000, 22);
        let rng = SimRng::from_seed(10);
        let ens = Ensemble::fit(8, &rng, |i, r| train_member(&lib, 300, i, r));
        let x = lib.features(900).to_vec();
        let preds: Vec<f64> = ens.members().iter().map(|m| m.predict(&x)).collect();
        let distinct = preds
            .iter()
            .filter(|&&p| (p - preds[0]).abs() > 1e-9)
            .count();
        assert!(distinct >= 1, "bagged members must not be identical");
    }

    #[test]
    fn bag_indices_distinct_and_sized() {
        let mut rng = SimRng::from_seed(12);
        let idx = bag_indices(100, 0.8, &mut rng);
        assert_eq!(idx.len(), 80);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 80);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        let _: Ensemble<f64> = Ensemble::from_members(vec![]);
    }
}

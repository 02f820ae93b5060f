//! Synthetic molecule library for the molecular-design application.
//!
//! Stands in for the MOSES-derived candidate set (§III-A: 1 115 321
//! molecules, screened for ionization potential). Each molecule id maps
//! deterministically to a feature vector (the stand-in for its bonding
//! connectivity / fingerprint) and to a ground-truth IP produced by a
//! smooth nonlinear function of those features — expensive to "compute"
//! (the simulation task sleeps ~60 s of virtual time) but learnable by a
//! surrogate, which is all active learning requires.
//!
//! The IP distribution is calibrated to mean ≈ 10, σ ≈ 2 so the paper's
//! "IP > 14" success threshold selects a ~2 % tail — rare enough that
//! random search does poorly and steering matters.

use hetflow_sim::rng::{fnv1a, splitmix64};
use hetflow_sim::SimRng;

/// Number of features per molecule.
pub const N_FEATURES: usize = 12;

/// A generated candidate library.
pub struct MoleculeLibrary {
    /// Every molecule's feature vector, computed once by `generate`:
    /// scoring the library reads it once per ensemble member per round.
    features: Vec<[f64; N_FEATURES]>,
    /// Hidden weights of the ground-truth property function.
    w_lin: [f64; N_FEATURES],
    w_sin: [f64; N_FEATURES],
    w_quad: [f64; N_FEATURES],
}

impl MoleculeLibrary {
    /// Generates a library of `n` candidates.
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n > 0, "library cannot be empty");
        let mut rng = SimRng::stream(seed, "molecule-library");
        // Each hidden direction is normalized to |w| = √N so that
        // w·x/√N has unit variance for any seed — this keeps the IP
        // distribution (and hence the >14 tail) calibrated seed to seed.
        let mut draw = || {
            let mut w = [0.0; N_FEATURES];
            for v in &mut w {
                *v = rng.standard_normal();
            }
            let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
            let target = (N_FEATURES as f64).sqrt();
            for v in &mut w {
                *v *= target / norm;
            }
            w
        };
        let (w_lin, w_sin, w_quad) = (draw(), draw(), draw());
        let features = (0..n).map(|id| feature_vector(seed, id)).collect();
        MoleculeLibrary { features, w_lin, w_sin, w_quad }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the library is empty (never: construction requires n>0).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Deterministic feature vector of molecule `id` (values in ~N(0,1)),
    /// `N_FEATURES` long.
    pub fn features(&self, id: usize) -> &[f64] {
        assert!(id < self.len(), "molecule {id} out of range");
        &self.features[id]
    }

    /// Ground-truth ionization potential of molecule `id` (eV).
    ///
    /// This is what the tight-binding simulation task "computes"; the
    /// surrogate never sees this function, only its sampled values.
    pub fn true_ip(&self, id: usize) -> f64 {
        self.ip_of(self.features(id))
    }

    /// The hidden property function at feature vector `x`.
    fn ip_of(&self, x: &[f64]) -> f64 {
        let norm = (N_FEATURES as f64).sqrt();
        let mut lin = 0.0;
        let mut sin_arg = 0.0;
        let mut quad = 0.0;
        for k in 0..N_FEATURES {
            lin += self.w_lin[k] * x[k];
            sin_arg += self.w_sin[k] * x[k];
            quad += self.w_quad[k] * x[k];
        }
        lin /= norm;
        sin_arg /= norm;
        quad /= norm;
        // Smooth, mildly nonlinear; lin/sin_arg/quad all have unit
        // variance by construction, so the combination below has mean 10
        // and sd ≈ 2 for every seed.
        10.0 + 2.0 * (0.85 * lin + 0.45 * (2.0 * sin_arg).sin() + 0.35 * (quad * quad - 1.0))
    }

    /// Convenience: ids of all molecules whose true IP exceeds `thresh`.
    pub fn ids_above(&self, thresh: f64) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.true_ip(i) > thresh).collect()
    }
}

/// The closed form of molecule `id`'s features in the library of `seed`.
fn feature_vector(seed: u64, id: usize) -> [f64; N_FEATURES] {
    let mut f = [0.0; N_FEATURES];
    let base = splitmix64(seed ^ fnv1a(b"molecule") ^ (id as u64));
    for (k, v) in f.iter_mut().enumerate() {
        // Two independent uniform draws -> one Box-Muller normal.
        let a = splitmix64(base.wrapping_add(2 * k as u64 + 1));
        let b = splitmix64(base.wrapping_add(2 * k as u64 + 2));
        let u1 = 1.0 - (a as f64 / u64::MAX as f64);
        let u2 = b as f64 / u64::MAX as f64;
        *v = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn the_table_is_the_closed_form(seed in 0u64..10_000, n in 1usize..=67, at in 0usize..67) {
            let lib = MoleculeLibrary::generate(n, seed);
            prop_assert_eq!(lib.len(), n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for id in [0, at % n, n - 1] {
                let want = feature_vector(seed, id);
                prop_assert_eq!(bits(lib.features(id)), bits(&want));
                prop_assert_eq!(lib.true_ip(id).to_bits(), lib.ip_of(&want).to_bits());
            }
        }
    }

    #[test]
    fn deterministic_features() {
        let lib = MoleculeLibrary::generate(100, 7);
        let lib2 = MoleculeLibrary::generate(100, 7);
        for id in [0, 17, 99] {
            assert_eq!(lib.features(id), lib2.features(id));
            assert_eq!(lib.true_ip(id), lib2.true_ip(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MoleculeLibrary::generate(10, 1);
        let b = MoleculeLibrary::generate(10, 2);
        assert_ne!(a.true_ip(0), b.true_ip(0));
    }

    #[test]
    fn features_standardized() {
        let lib = MoleculeLibrary::generate(5000, 3);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        let mut count = 0.0;
        for id in 0..1000 {
            for v in lib.features(id) {
                sum += v;
                sumsq += v * v;
                count += 1.0;
            }
        }
        let mean = sum / count;
        let var = sumsq / count - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn ip_distribution_calibrated() {
        let lib = MoleculeLibrary::generate(20_000, 42);
        let ips: Vec<f64> = (0..lib.len()).map(|i| lib.true_ip(i)).collect();
        let mean = ips.iter().sum::<f64>() / ips.len() as f64;
        let sd =
            (ips.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / ips.len() as f64).sqrt();
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
        assert!(sd > 1.0 && sd < 3.0, "sd {sd}");
        // The success threshold must select a small-but-nonempty tail.
        let frac = ips.iter().filter(|&&v| v > 14.0).count() as f64 / ips.len() as f64;
        assert!(
            frac > 0.002 && frac < 0.08,
            "IP>14 fraction {frac} out of calibrated range"
        );
    }

    #[test]
    fn tail_fraction_stable_across_seeds() {
        for seed in [1, 2, 3] {
            let lib = MoleculeLibrary::generate(10_000, seed);
            let frac = lib.ids_above(14.0).len() as f64 / lib.len() as f64;
            assert!(frac > 0.001 && frac < 0.1, "seed {seed}: frac {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let lib = MoleculeLibrary::generate(10, 1);
        let _ = lib.features(10);
    }

    #[test]
    fn ip_is_learnable_signal_not_noise() {
        // Nearby feature vectors should have correlated IPs: perturbing
        // one molecule's features slightly must change IP smoothly. We
        // check continuity of the hidden function via finite differences
        // on the linear part: molecules with similar features (found by
        // scanning) have closer IPs than random pairs on average.
        let lib = MoleculeLibrary::generate(3000, 5);
        let f0 = lib.features(0);
        // Distance in feature space vs |ΔIP| correlation (Spearman-ish):
        let mut pairs: Vec<(f64, f64)> = (1..lib.len())
            .map(|i| {
                let fi = lib.features(i);
                let d2: f64 = f0.iter().zip(fi.iter()).map(|(a, b)| (a - b).powi(2)).sum();
                (d2.sqrt(), (lib.true_ip(i) - lib.true_ip(0)).abs())
            })
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let near: f64 =
            pairs[..100].iter().map(|p| p.1).sum::<f64>() / 100.0;
        let far: f64 =
            pairs[pairs.len() - 100..].iter().map(|p| p.1).sum::<f64>() / 100.0;
        assert!(near < far, "IP must vary smoothly with features: near {near}, far {far}");
    }
}

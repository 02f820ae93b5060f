//! The scalar property surrogate: random Fourier features + ridge.
//!
//! Stand-in for the paper's message-passing neural networks that map a
//! molecule's connectivity to its ionization potential (§III-A). One
//! model trains in closed form in milliseconds of wall time, so a full
//! active-learning campaign with repeated retraining is cheap to
//! simulate while the *learning dynamics* stay real.

use crate::dispatch::dispatch;
use crate::features::{RandomFourierFeatures, BLOCK, TILE};
use crate::linalg::LinalgError;
use crate::ridge::Ridge;
use hetflow_sim::SimRng;

/// Hyperparameters of the RFF-ridge surrogate.
#[derive(Clone, Copy, Debug)]
pub struct SurrogateParams {
    /// Random feature dimension.
    pub n_features: usize,
    /// RBF lengthscale.
    pub lengthscale: f64,
    /// Ridge penalty.
    pub lambda: f64,
}

impl Default for SurrogateParams {
    fn default() -> Self {
        SurrogateParams { n_features: 384, lengthscale: 4.5, lambda: 1e-2 }
    }
}

/// A fitted scalar surrogate.
#[derive(Clone, Debug)]
pub struct RffRidge {
    rff: RandomFourierFeatures,
    /// Ridge weights, one per random feature.
    weights: Vec<f64>,
    intercept: f64,
}

impl RffRidge {
    /// Fits on `(inputs, targets)`; the feature map is drawn from `rng`
    /// (so ensemble members differ in both data subset and features).
    pub fn fit(
        inputs: &[impl AsRef<[f64]>],
        targets: &[f64],
        params: SurrogateParams,
        rng: &mut SimRng,
    ) -> Result<RffRidge, LinalgError> {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot fit on empty data");
        let d_in = inputs[0].as_ref().len();
        let rff = RandomFourierFeatures::sample(d_in, params.n_features, params.lengthscale, rng);
        let model = Ridge::fit(&rff.transform_batch(inputs), targets, params.lambda)?;
        let weights = (0..params.n_features).map(|i| model.weights()[(i, 0)]).collect();
        Ok(RffRidge { rff, weights, intercept: model.intercepts()[0] })
    }

    /// Predicts the property of one input.
    pub fn predict(&self, input: &[f64]) -> f64 {
        dispatch(
            #[inline(always)]
            || self.score([input])[0],
        )
    }

    /// Predicts `out.len()` inputs into `out`, `row(i)` supplying the
    /// `i`-th (a slice element, or features computed on the fly).
    pub fn predict_batch<R: AsRef<[f64]>>(&self, row: impl Fn(usize) -> R, out: &mut [f64]) {
        dispatch(
            #[inline(always)]
            || self.predict_batch_body(row, out),
        )
    }

    /// [`RffRidge::predict_batch`] undispatched: inputs scored in blocks
    /// of `BLOCK` (interleaving their independent in-order `Σ zᵢ·wᵢ`
    /// chains hides each chain's add latency), the rest one at a time.
    #[inline(always)]
    pub(crate) fn predict_batch_body<R: AsRef<[f64]>>(
        &self,
        row: impl Fn(usize) -> R,
        out: &mut [f64],
    ) {
        let mut blocks = out.chunks_exact_mut(BLOCK);
        let mut i = 0;
        for out in &mut blocks {
            let rows: [R; BLOCK] = std::array::from_fn(|m| row(i + m));
            out.copy_from_slice(&self.score::<BLOCK>(std::array::from_fn(|m| rows[m].as_ref())));
            i += BLOCK;
        }
        for (m, out) in blocks.into_remainder().iter_mut().enumerate() {
            *out = self.score([row(i + m).as_ref()])[0];
        }
    }

    /// Feature tiles folded into running ridge sums; per input exactly
    /// `Ridge::predict`: `i` ascending from `-0.0`, then the intercept.
    #[inline(always)]
    pub(crate) fn score<const M: usize>(&self, xs: [&[f64]; M]) -> [f64; M] {
        xs.iter().for_each(|x| self.rff.check_input(x));
        let mut tile = [[0.0; TILE]; M];
        let mut sums = [-0.0; M];
        for (t, weights) in self.weights.chunks(TILE).enumerate() {
            self.rff.tile(xs, t * TILE, &mut tile);
            for (j, w) in weights.iter().enumerate() {
                for m in 0..M {
                    sums[m] += tile[m][j] * w;
                }
            }
        }
        sums.map(|sum| self.intercept + sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tests::naive_transform;
    use hetflow_chem::MoleculeLibrary;
    use proptest::prelude::*;

    /// The reference prediction: naive features, then `Ridge::predict`'s
    /// in-order `Iterator::sum` dot and `intercept + sum`.
    fn naive(model: &RffRidge, x: &[f64]) -> (Vec<f64>, f64) {
        let z = naive_transform(&model.rff, x);
        let dot: f64 = (0..z.len()).map(|i| z[i] * model.weights[i]).sum();
        (z, model.intercept + dot)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn every_entry_point_is_bit_identical_to_the_naive_reference(
            seed in 0u64..1000,
            n in 0usize..14,
            d_in in 1usize..20,
            d_out in 1usize..200,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let draw = |rng: &mut SimRng| -> Vec<f64> {
                (0..d_in).map(|_| 2.0 * rng.standard_normal()).collect()
            };
            let train: Vec<Vec<f64>> = (0..d_out.min(24) + 2).map(|_| draw(&mut rng)).collect();
            let targets: Vec<f64> = train.iter().map(|x| x[0].sin() + x.len() as f64).collect();
            let params = SurrogateParams { n_features: d_out, lengthscale: 1.5, lambda: 1e-3 };
            let model = RffRidge::fit(&train, &targets, params, &mut rng).unwrap();
            let xs: Vec<Vec<f64>> = (0..n).map(|_| draw(&mut rng)).collect();
            let mut batch = vec![f64::NAN; n];
            model.predict_batch(|i| &xs[i], &mut batch);
            let z_batch = model.rff.transform_batch(&xs);
            prop_assert_eq!((z_batch.rows(), z_batch.cols()), (n, d_out));
            for (i, x) in xs.iter().enumerate() {
                let (z, y) = naive(&model, x);
                prop_assert_eq!(batch[i].to_bits(), y.to_bits(), "predict_batch row {}", i);
                prop_assert_eq!(model.predict(x).to_bits(), y.to_bits(), "predict row {}", i);
                prop_assert_eq!(bits(z_batch.row(i)), bits(&z), "transform_batch row {}", i);
                prop_assert_eq!(bits(&model.rff.transform(x)), bits(&z), "transform row {}", i);
            }
        }
    }

    proptest! {
        #[test]
        fn a_row_s_bits_do_not_depend_on_its_block_mates(
            seed in 0u64..1000,
            d_in in 1usize..=16,
            d_out in 1usize..200,
        ) {
            let mut rng = SimRng::from_seed(seed);
            // One mate in four is far out, so its block takes the cosine's
            // cold path; the row under test must not notice.
            let draw = |rng: &mut SimRng| -> Vec<f64> {
                let scale = if rng.below(4) == 0 { 1e7 } else { 2.0 };
                (0..d_in).map(|_| scale * rng.standard_normal()).collect()
            };
            let train: Vec<Vec<f64>> = (0..16).map(|_| draw(&mut rng)).collect();
            let targets: Vec<f64> = train.iter().map(|x| x[0].tanh()).collect();
            let params = SurrogateParams { n_features: d_out, lengthscale: 1.5, lambda: 1e-3 };
            let model = RffRidge::fit(&train, &targets, params, &mut rng).unwrap();
            let x: Vec<f64> = (0..d_in).map(|_| 2.0 * rng.standard_normal()).collect();
            let (z, y) = (bits(&model.rff.transform(&x)), model.predict(&x).to_bits());
            for at in [0, BLOCK - 1] {
                let mut block: Vec<Vec<f64>> = (0..BLOCK).map(|_| draw(&mut rng)).collect();
                block[at] = x.clone();
                let mut scores = [f64::NAN; BLOCK];
                model.predict_batch(|i| &block[i], &mut scores);
                prop_assert_eq!(scores[at].to_bits(), y, "score at {}", at);
                let features = model.rff.transform_batch(&block);
                prop_assert_eq!(&bits(features.row(at)), &z, "features at {}", at);
            }
        }
    }

    #[test]
    fn fit_trains_on_the_features_predict_sees() {
        // Ridge::predict on transform(x) — the pre-kernel composition —
        // must equal the fused path, so training and inference agree.
        let lib = MoleculeLibrary::generate(300, 3);
        let rows: Vec<_> = (0..200).map(|i| lib.features(i)).collect();
        let targets: Vec<f64> = (0..200).map(|i| lib.true_ip(i)).collect();
        let params = SurrogateParams::default();
        let model = RffRidge::fit(&rows, &targets, params, &mut SimRng::from_seed(9)).unwrap();
        let mut rng = SimRng::from_seed(9);
        let rff =
            RandomFourierFeatures::sample(12, params.n_features, params.lengthscale, &mut rng);
        let ridge = Ridge::fit(&rff.transform_batch(&rows), &targets, params.lambda).unwrap();
        for i in 200..300 {
            let x = lib.features(i);
            let composed = ridge.predict(&rff.transform(&x))[0];
            assert_eq!(model.predict(&x).to_bits(), composed.to_bits());
        }
    }

    #[test]
    fn learns_the_synthetic_ip_function() {
        // The whole premise of the molecular-design reproduction: the
        // surrogate must learn chem's hidden IP function from samples.
        let lib = MoleculeLibrary::generate(4000, 11);
        let mut rng = SimRng::from_seed(1);
        let train_ids: Vec<usize> = (0..800).collect();
        let inputs: Vec<Vec<f64>> =
            train_ids.iter().map(|&i| lib.features(i).to_vec()).collect();
        let targets: Vec<f64> = train_ids.iter().map(|&i| lib.true_ip(i)).collect();
        let model = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
            .unwrap();
        // Held-out RMSE must beat the trivial (predict-the-mean) model
        // by a wide margin.
        let test_ids: Vec<usize> = (800..1600).collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut se_model = 0.0;
        let mut se_mean = 0.0;
        for &i in &test_ids {
            let truth = lib.true_ip(i);
            se_model += (model.predict(&lib.features(i)) - truth).powi(2);
            se_mean += (mean - truth).powi(2);
        }
        let rmse_model = (se_model / test_ids.len() as f64).sqrt();
        let rmse_mean = (se_mean / test_ids.len() as f64).sqrt();
        assert!(
            rmse_model < 0.5 * rmse_mean,
            "surrogate must learn: rmse {rmse_model:.3} vs baseline {rmse_mean:.3}"
        );
    }

    #[test]
    fn more_data_helps() {
        let lib = MoleculeLibrary::generate(4000, 13);
        let rmse_with = |n: usize, seed: u64| {
            let mut rng = SimRng::from_seed(seed);
            let inputs: Vec<Vec<f64>> = (0..n).map(|i| lib.features(i).to_vec()).collect();
            let targets: Vec<f64> = (0..n).map(|i| lib.true_ip(i)).collect();
            let m = RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
                .unwrap();
            let se: f64 = (2000..2500)
                .map(|i| (m.predict(&lib.features(i)) - lib.true_ip(i)).powi(2))
                .sum();
            (se / 500.0).sqrt()
        };
        let small = rmse_with(50, 2);
        let large = rmse_with(1000, 2);
        assert!(large < small, "small-data rmse {small}, large-data rmse {large}");
    }

    #[test]
    fn deterministic_given_rng() {
        let lib = MoleculeLibrary::generate(100, 5);
        let fit = || {
            let mut rng = SimRng::from_seed(3);
            let inputs: Vec<Vec<f64>> = (0..50).map(|i| lib.features(i).to_vec()).collect();
            let targets: Vec<f64> = (0..50).map(|i| lib.true_ip(i)).collect();
            RffRidge::fit(&inputs, &targets, SurrogateParams::default(), &mut rng)
                .unwrap()
                .predict(&lib.features(99))
        };
        assert_eq!(fit(), fit());
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_fit_panics() {
        let mut rng = SimRng::from_seed(1);
        let none: [Vec<f64>; 0] = [];
        let _fit = RffRidge::fit(&none, &[], SurrogateParams::default(), &mut rng);
    }
}

//! The scalar property surrogate: random Fourier features + ridge.
//!
//! Stand-in for the paper's message-passing neural networks that map a
//! molecule's connectivity to its ionization potential (§III-A). One
//! model trains in closed form in milliseconds of wall time, so a full
//! active-learning campaign with repeated retraining is cheap to
//! simulate while the *learning dynamics* stay real.
//!
//! A fit is two steps: [`RffRidge::draw`] takes the feature map from
//! the caller's stream, and [`RffDraw::solve`] featurizes the data and
//! solves for the ridge weights without drawing, so a caller may defer
//! the solve until a model is read. Scoring folds each `[feature][lane]`
//! tile of the features kernel into one ridge sum per lane: per feature
//! one vector multiply and add over `LANES` inputs, each lane summing
//! `i` ascending from `-0.0` and adding the intercept last, as
//! `Ridge::predict` does.

use crate::features::{RandomFourierFeatures, LANES, PASS, TILE};
use crate::linalg::LinalgError;
use crate::ridge::Ridge;
use hetflow_sim::num::dispatch;
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

/// Features per projection pass for one input alone: with a single
/// lane, a pass's features fill the vectors (two `zmm`, four `ymm`).
const SOLO: usize = 16;

/// A fitted scalar surrogate.
#[derive(Clone, Debug)]
pub struct RffRidge {
    rff: RandomFourierFeatures,
    /// Ridge weights, one per random feature.
    weights: Vec<f64>,
    intercept: f64,
}

/// A surrogate whose feature map is drawn and whose weights are not yet
/// solved for: everything [`RffRidge::fit`] takes from its stream.
#[derive(Clone, Debug)]
pub struct RffDraw {
    rff: RandomFourierFeatures,
    lambda: f64,
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
        RffRidge::draw(inputs[0].as_ref().len(), params, rng).solve(inputs, targets)
    }

    /// Draws the feature map for `d_in`-dimensional inputs from `rng`:
    /// every draw [`RffRidge::fit`] makes, and nothing else.
    pub fn draw(d_in: usize, params: SurrogateParams, rng: &mut SimRng) -> RffDraw {
        let rff = RandomFourierFeatures::sample(d_in, params.n_features, params.lengthscale, rng);
        RffDraw { rff, lambda: params.lambda }
    }

    /// Predicts the property of one input.
    pub fn predict(&self, input: &[f64]) -> f64 {
        dispatch(
            #[inline(always)]
            || self.predict_body(input),
        )
    }

    /// [`RffRidge::predict`] undispatched: the kernel one lane wide,
    /// `SOLO` features a pass.
    #[inline(always)]
    pub(crate) fn predict_body(&self, input: &[f64]) -> f64 {
        self.rff.check_input(input);
        self.score::<1, SOLO>(input.as_chunks::<1>().0)[0]
    }

    /// Predicts `out.len()` inputs into `out`, `row(i)` supplying the
    /// `i`-th (a slice element, or features computed on the fly).
    pub fn predict_batch<R: AsRef<[f64]>>(&self, row: impl Fn(usize) -> R, out: &mut [f64]) {
        dispatch(
            #[inline(always)]
            || self.predict_batch_body(row, out),
        )
    }

    /// [`RffRidge::predict_batch`] undispatched: inputs scored `LANES`
    /// at a time, dead lanes padding the last group.
    #[inline(always)]
    pub(crate) fn predict_batch_body<R: AsRef<[f64]>>(
        &self,
        row: impl Fn(usize) -> R,
        out: &mut [f64],
    ) {
        let mut xt = self.rff.lanes::<LANES>();
        for (g, out) in out.chunks_mut(LANES).enumerate() {
            self.rff.load(&mut xt, out.len(), |l| row(g * LANES + l));
            out.copy_from_slice(&self.score::<LANES, PASS>(&xt)[..out.len()]);
        }
    }

    /// Feature tiles of the `L` inputs in `xt` folded into running ridge
    /// sums, one vector add per feature; per lane exactly
    /// `Ridge::predict`: `i` ascending from `-0.0`, then the intercept.
    #[inline(always)]
    fn score<const L: usize, const P: usize>(&self, xt: &[[f64; L]]) -> [f64; L] {
        let mut tile = [[0.0; L]; TILE];
        let mut sums = [-0.0; L];
        for (t, weights) in self.weights.chunks(TILE).enumerate() {
            self.rff.tile::<L, P>(xt, t * TILE, &mut tile);
            for (z, w) in tile.iter().zip(weights) {
                for l in 0..L {
                    sums[l] += z[l] * w;
                }
            }
        }
        sums.map(|sum| self.intercept + sum)
    }
}

impl RffDraw {
    /// Fits the drawn map's ridge weights on `(inputs, targets)`: the
    /// transform and the solve of [`RffRidge::fit`], with no draw.
    pub fn solve(
        self,
        inputs: &[impl AsRef<[f64]>],
        targets: &[f64],
    ) -> Result<RffRidge, LinalgError> {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty(), "cannot fit on empty data");
        let model = Ridge::fit(self.rff.transform_batch(inputs), targets.to_vec(), self.lambda)?;
        let weights = (0..model.weights().rows()).map(|i| model.weights()[(i, 0)]).collect();
        Ok(RffRidge { rff: self.rff, weights, intercept: model.intercepts()[0] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tests::naive_transform;
    use crate::linalg::Matrix;
    use crate::ridge::tests::{fit_bits, rows};
    use hetflow_chem::MoleculeLibrary;
    use hetflow_sim::num::{run_on, supported_arms};
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
            n in 0usize..18,
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

    /// Batch sizes: empty, single, a short group, whole groups and one
    /// or two groups plus a tail of dead lanes.
    const N: [usize; 9] = [0, 1, 2, 7, 8, 9, 15, 16, 17];
    /// Feature counts around the projection pass (4) and the tile (64).
    const D: [usize; 10] = [1, 2, 5, 7, 8, 63, 64, 65, 66, 384];

    #[test]
    fn dispatched_and_baseline_bodies_are_bit_identical() {
        // Every batch size with every feature count, each pair with its
        // own seed and input dimension.
        let mut pick = SimRng::from_seed(56);
        for n in N {
            for d_out in D {
                check_bodies(pick.below(1000) as u64, n, 1 + pick.below(16), d_out);
            }
        }
    }

    /// Each entry point's body run in every clone the host supports, and
    /// each entry point through the dispatcher (the widest clone),
    /// against the body called from here, which is compiled at the
    /// baseline level, and against the naive reference.
    fn check_bodies(seed: u64, n: usize, d_in: usize, d_out: usize) {
        let mut rng = SimRng::from_seed(seed);
        let draw = |rng: &mut SimRng| -> Vec<f64> {
            (0..d_in).map(|_| 2.0 * rng.standard_normal()).collect()
        };
        let train: Vec<Vec<f64>> = (0..12).map(|_| draw(&mut rng)).collect();
        let targets: Vec<f64> = train.iter().map(|x| x[0].sin() + x.len() as f64).collect();
        let params = SurrogateParams { n_features: d_out, lengthscale: 1.5, lambda: 1e-3 };
        let model = RffRidge::fit(&train, &targets, params, &mut rng).unwrap();
        let xs: Vec<Vec<f64>> = (0..n).map(|_| draw(&mut rng)).collect();
        let rff = RandomFourierFeatures::sample(d_in, d_out, 1.5, &mut rng);
        let k = 1 + rng.below(3);
        let y = Matrix::from_vec(n, k, (0..n * k).map(|_| rng.standard_normal()).collect());

        let mut body = vec![f64::NAN; n];
        model.predict_batch_body(|i| &xs[i], &mut body);
        let z = rff.transform_batch_body(&xs);
        let fit_body = fit_bits(Ridge::fit_multi_body(z.clone(), y.clone(), 1e-3));
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(body[i].to_bits(), naive(&model, x).1.to_bits(), "row {}", i);
            assert_eq!(bits(z.row(i)), bits(&naive_transform(&rff, x)), "row {}", i);
        }

        for arm in supported_arms() {
            let mut clone = vec![f64::NAN; n];
            run_on(arm, #[inline(always)] || model.predict_batch_body(|i| &xs[i], &mut clone));
            assert_eq!(bits(&clone), bits(&body), "predict_batch on {:?}", arm);
            for (i, x) in xs.iter().enumerate() {
                let one = run_on(arm, #[inline(always)] || model.predict_body(x));
                assert_eq!(one.to_bits(), body[i].to_bits(), "predict on {:?}", arm);
            }
            let zc = run_on(arm, #[inline(always)] || rff.transform_batch_body(&xs));
            assert_eq!(rows(&zc), rows(&z), "transform_batch on {:?}", arm);
            let (zc, yc) = (z.clone(), y.clone());
            let fit = run_on(arm, #[inline(always)] move || Ridge::fit_multi_body(zc, yc, 1e-3));
            assert_eq!(fit_bits(fit), fit_body.clone(), "fit_multi on {:?}", arm);
        }

        let mut entry = vec![f64::NAN; n];
        model.predict_batch(|i| &xs[i], &mut entry);
        assert_eq!(bits(&entry), bits(&body), "predict_batch");
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(model.predict(x).to_bits(), body[i].to_bits(), "predict");
        }
        assert_eq!(rows(&rff.transform_batch(&xs)), rows(&z), "transform_batch");
        for (i, x) in xs.iter().enumerate() {
            let alone = rff.transform_batch_body(&[x]);
            assert_eq!(bits(&rff.transform(x)), bits(alone.row(0)), "transform");
            assert_eq!(bits(alone.row(0)), bits(z.row(i)), "transform row {}", i);
        }
        assert_eq!(fit_bits(Ridge::fit_multi(z, y, 1e-3)), fit_body, "fit_multi");
    }

    proptest! {
        #[test]
        fn a_row_s_bits_do_not_depend_on_its_lane_mates(
            seed in 0u64..1000,
            d_in in 1usize..=16,
            d_out in 1usize..200,
        ) {
            let mut rng = SimRng::from_seed(seed);
            // One mate in four is far out, so its tile takes the cosine's
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
            for at in [0, LANES - 1] {
                let mut group: Vec<Vec<f64>> = (0..LANES).map(|_| draw(&mut rng)).collect();
                group[at] = x.clone();
                let mut scores = [f64::NAN; LANES];
                model.predict_batch(|i| &group[i], &mut scores);
                prop_assert_eq!(scores[at].to_bits(), y, "score at {}", at);
                let features = model.rff.transform_batch(&group);
                prop_assert_eq!(&bits(features.row(at)), &z, "features at {}", at);
            }
        }
    }

    #[test]
    fn draw_then_solve_is_fit_and_leaves_the_stream_where_fit_does() {
        let lib = MoleculeLibrary::generate(200, 4);
        let rows: Vec<_> = (0..150).map(|i| lib.features(i)).collect();
        let targets: Vec<f64> = (0..150).map(|i| lib.true_ip(i)).collect();
        let params = SurrogateParams::default();
        let (mut eager_rng, mut rng) = (SimRng::from_seed(8), SimRng::from_seed(8));
        let eager = RffRidge::fit(&rows, &targets, params, &mut eager_rng).unwrap();
        let drawn = RffRidge::draw(12, params, &mut rng);
        assert_eq!(rng.standard_normal().to_bits(), eager_rng.standard_normal().to_bits());
        // Debug prints every field's shortest round-trip digits: equal
        // strings are equal bits.
        let solved = drawn.solve(&rows, &targets).unwrap();
        assert_eq!(format!("{solved:?}"), format!("{eager:?}"));
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
        let ridge = Ridge::fit(rff.transform_batch(&rows), targets, params.lambda).unwrap();
        for i in 200..300 {
            let x = lib.features(i);
            let composed = ridge.predict(&rff.transform(x))[0];
            assert_eq!(model.predict(x).to_bits(), composed.to_bits());
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
            se_model += (model.predict(lib.features(i)) - truth).powi(2);
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
                .map(|i| (m.predict(lib.features(i)) - lib.true_ip(i)).powi(2))
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
                .predict(lib.features(99))
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

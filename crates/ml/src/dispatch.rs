//! One source, two clones: the kernels run under AVX2 when the CPU has it.
//!
//! [`dispatch`] runs a body inside a `#[target_feature(enable = "avx2")]`
//! function when the CPU reports AVX2, and plainly otherwise (and on every
//! target that is not x86-64), so LLVM compiles each kernel twice from the
//! same source — baseline SSE2 and AVX2 — and the CPU chooses at run time.
//! No option, feature or build flag is involved, and the binary still runs
//! on any x86-64.
//!
//! **Lanes, not arithmetic.** The clone is the same sequence of IEEE-754
//! operations in wider registers: "fma" is not enabled (so no multiply and
//! add can be contracted), the kernels contain no `mul_add`, and no
//! reduction is split across lanes — every vector lane carries its own
//! output's in-order chain. Both clones therefore return the same bits,
//! which the tests below check against the undispatched bodies.
//!
//! **Everything under a body is `#[inline(always)]`.** A `#[target_feature]`
//! function only changes the code that is inlined into it; a callee LLVM
//! declines to inline stays a call into its baseline copy, and the clone
//! degenerates into a trampoline. Each body closure and every kernel
//! function it reaches therefore carries `#[inline(always)]`.

/// Runs `body` in the AVX2 clone when the CPU has AVX2, else as is.
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` needs nothing but AVX2, which the CPU was just
        // reported (`is_x86_feature_detected!`) to support.
        #[allow(unsafe_code, reason = "the workspace's one unsafe block; see SAFETY above")]
        return unsafe { avx2(body) };
    }
    body()
}

/// `body`, with everything inlined into it compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::features::RandomFourierFeatures;
    use crate::linalg::{LinalgError, Matrix};
    use crate::ridge::Ridge;
    use crate::surrogate::{RffRidge, SurrogateParams};
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    /// Batch sizes: empty, single, partial blocks, one block plus a tail.
    const N: [usize; 6] = [0, 1, 2, 3, 5, 9];
    /// Feature counts around the lane group (8) and the tile (64).
    const D: [usize; 7] = [1, 7, 8, 63, 64, 65, 384];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn rows(m: &Matrix) -> Vec<Vec<u64>> {
        (0..m.rows()).map(|i| bits(m.row(i))).collect()
    }

    type FitBits = Result<(Vec<Vec<u64>>, Vec<u64>), LinalgError>;

    /// A fit's weight rows and intercepts as bits, or its error.
    pub(crate) fn fit_bits(fit: Result<Ridge, LinalgError>) -> FitBits {
        fit.map(|m| (rows(m.weights()), bits(m.intercepts())))
    }

    proptest! {
        // Each entry point through the dispatcher (the AVX2 clone on a
        // host that has it) against its body called from here, which is
        // compiled at the baseline level.
        #[test]
        fn dispatched_and_baseline_bodies_are_bit_identical(
            seed in 0u64..1000,
            ni in 0usize..N.len(),
            d_in in 1usize..=16,
            di in 0usize..D.len(),
        ) {
            let (n, d_out) = (N[ni], D[di]);
            let mut rng = SimRng::from_seed(seed);
            let draw = |rng: &mut SimRng| -> Vec<f64> {
                (0..d_in).map(|_| 2.0 * rng.standard_normal()).collect()
            };
            let train: Vec<Vec<f64>> = (0..12).map(|_| draw(&mut rng)).collect();
            let targets: Vec<f64> = train.iter().map(|x| x[0].sin() + x.len() as f64).collect();
            let params = SurrogateParams { n_features: d_out, lengthscale: 1.5, lambda: 1e-3 };
            let model = RffRidge::fit(&train, &targets, params, &mut rng).unwrap();
            let xs: Vec<Vec<f64>> = (0..n).map(|_| draw(&mut rng)).collect();

            let (mut clone, mut body) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            model.predict_batch(|i| &xs[i], &mut clone);
            model.predict_batch_body(|i| &xs[i], &mut body);
            prop_assert_eq!(bits(&clone), bits(&body), "predict_batch");
            for x in &xs {
                prop_assert_eq!(model.predict(x).to_bits(), model.score([x])[0].to_bits(), "predict");
            }

            let rff = RandomFourierFeatures::sample(d_in, d_out, 1.5, &mut rng);
            let z = rff.transform_batch_body(&xs);
            prop_assert_eq!(rows(&rff.transform_batch(&xs)), rows(&z), "transform_batch");
            for (i, x) in xs.iter().enumerate() {
                let alone = rff.transform_batch_body(&[x]);
                prop_assert_eq!(bits(&rff.transform(x)), bits(alone.row(0)), "transform");
                prop_assert_eq!(bits(alone.row(0)), bits(z.row(i)), "transform row {}", i);
            }

            let k = 1 + rng.below(3);
            let y = Matrix::from_vec(n, k, (0..n * k).map(|_| rng.standard_normal()).collect());
            for center in [true, false] {
                prop_assert_eq!(
                    fit_bits(Ridge::fit_multi(z.clone(), y.clone(), 1e-3, center)),
                    fit_bits(Ridge::fit_multi_body(z.clone(), y.clone(), 1e-3, center)),
                    "fit_multi, center {}", center
                );
            }
        }
    }
}

//! One source, three clones: the kernels run in the widest vector unit
//! the CPU has.
//!
//! [`dispatch`] runs a body inside a `#[target_feature(enable =
//! "avx512f")]` function when the CPU reports AVX-512F, inside an
//! `avx2` one when it reports AVX2, and plainly otherwise (and on every
//! target that is not x86-64), so LLVM compiles each kernel three times
//! from the same source — baseline SSE2, AVX2 and AVX-512 — and the CPU
//! chooses at run time. No option, feature or build flag is involved,
//! and the binary still runs on any x86-64.
//!
//! **Lanes, not arithmetic.** Each clone is the same sequence of IEEE-754
//! operations in wider registers. `avx512f` implies `fma`, so that clone
//! could encode a fused multiply-add, but nothing asks for one: Rust
//! never emits a contractable float operation (`a * b + c` rounds
//! twice), the crate contains no `mul_add`, and no reduction is split
//! across lanes — every vector lane carries its own output's in-order
//! chain. All clones therefore return the same bits, which the tests
//! below check against the undispatched bodies on every arm the host
//! supports; CI's disassembly guard checks that no clone holds an FMA.
//!
//! **Everything under a body is `#[inline(always)]`.** A `#[target_feature]`
//! function only changes the code that is inlined into it; a callee LLVM
//! declines to inline stays a call into its baseline copy, and the clone
//! degenerates into a trampoline. Each body closure and every kernel
//! function it reaches therefore carries `#[inline(always)]`.

/// A clone of the kernels, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arm {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// Compiled with `avx2` enabled.
    Avx2,
    /// Compiled with `avx512f` enabled.
    Avx512,
}

impl Arm {
    const ALL: [Arm; 3] = [Arm::Baseline, Arm::Avx2, Arm::Avx512];

    /// Whether the CPU reports every feature this arm's clone is compiled
    /// with: rustc's `avx512f` also enables `avx2`, `fma` and `f16c`.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Arm::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => has!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c"),
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 | Arm::Avx512 => false,
        }
    }
}

/// The widest arm the CPU supports.
pub(crate) fn widest() -> Arm {
    Arm::ALL.into_iter().rfind(|arm| arm.supported()).unwrap_or(Arm::Baseline)
}

/// Runs `body` in the widest clone the CPU supports.
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    run_on(widest(), body)
}

/// Runs `body` in `arm`'s clone. Panics if the CPU lacks `arm`'s features.
#[inline(always)]
pub(crate) fn run_on<R>(arm: Arm, body: impl FnOnce() -> R) -> R {
    assert!(arm.supported(), "this CPU cannot run the {arm:?} clone");
    #[cfg(target_arch = "x86_64")]
    if arm != Arm::Baseline {
        // SAFETY: a clone needs nothing but the features it is compiled
        // with, which `Arm::supported` just found the CPU reports
        // (`is_x86_feature_detected!`).
        #[allow(unsafe_code, reason = "the workspace's one unsafe block; see SAFETY above")]
        return unsafe {
            match arm {
                Arm::Avx512 => avx512(body),
                _ => avx2(body),
            }
        };
    }
    body()
}

/// `body`, with everything inlined into it compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body`, with everything inlined into it compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{run_on, widest, Arm};
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

    /// Every arm this host can run, narrowest first.
    pub(crate) fn supported_arms() -> impl Iterator<Item = Arm> {
        Arm::ALL.into_iter().filter(|arm| arm.supported())
    }

    #[test]
    #[expect(clippy::print_stdout, reason = "the test log names the arms this host exercised")]
    fn dispatch_runs_the_widest_supported_arm() {
        let arms: Vec<Arm> = supported_arms().collect();
        assert_eq!(arms.first(), Some(&Arm::Baseline));
        assert_eq!(arms.last(), Some(&widest()));
        println!("hetflow-ml dispatch: arms exercised {arms:?}, entry points run {:?}", widest());
    }

    proptest! {
        // Each entry point's body run in every clone the host supports,
        // and each entry point through the dispatcher (the widest clone),
        // against the body called from here, which is compiled at the
        // baseline level.
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
            let rff = RandomFourierFeatures::sample(d_in, d_out, 1.5, &mut rng);
            let k = 1 + rng.below(3);
            let y = Matrix::from_vec(n, k, (0..n * k).map(|_| rng.standard_normal()).collect());

            let mut body = vec![f64::NAN; n];
            model.predict_batch_body(|i| &xs[i], &mut body);
            let z = rff.transform_batch_body(&xs);
            let fit_body = fit_bits(Ridge::fit_multi_body(z.clone(), y.clone(), 1e-3));

            for arm in supported_arms() {
                let mut clone = vec![f64::NAN; n];
                run_on(arm, #[inline(always)] || model.predict_batch_body(|i| &xs[i], &mut clone));
                prop_assert_eq!(bits(&clone), bits(&body), "predict_batch on {:?}", arm);
                for x in &xs {
                    let one = run_on(arm, #[inline(always)] || model.score([x])[0]);
                    prop_assert_eq!(one.to_bits(), model.score([x])[0].to_bits(), "predict on {:?}", arm);
                }
                let zc = run_on(arm, #[inline(always)] || rff.transform_batch_body(&xs));
                prop_assert_eq!(rows(&zc), rows(&z), "transform_batch on {:?}", arm);
                let (zc, yc) = (z.clone(), y.clone());
                let fit = run_on(arm, #[inline(always)] move || Ridge::fit_multi_body(zc, yc, 1e-3));
                prop_assert_eq!(fit_bits(fit), fit_body.clone(), "fit_multi on {:?}", arm);
            }

            let mut entry = vec![f64::NAN; n];
            model.predict_batch(|i| &xs[i], &mut entry);
            prop_assert_eq!(bits(&entry), bits(&body), "predict_batch");
            for x in &xs {
                prop_assert_eq!(model.predict(x).to_bits(), model.score([x])[0].to_bits(), "predict");
            }
            prop_assert_eq!(rows(&rff.transform_batch(&xs)), rows(&z), "transform_batch");
            for (i, x) in xs.iter().enumerate() {
                let alone = rff.transform_batch_body(&[x]);
                prop_assert_eq!(bits(&rff.transform(x)), bits(alone.row(0)), "transform");
                prop_assert_eq!(bits(alone.row(0)), bits(z.row(i)), "transform row {}", i);
            }
            prop_assert_eq!(fit_bits(Ridge::fit_multi(z, y, 1e-3)), fit_body, "fit_multi");
        }
    }
}

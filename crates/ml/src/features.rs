//! Random Fourier features — the kernel trick for linear solvers.
//!
//! `z(x) = sqrt(2/D) cos(W x + b)` with `W ~ N(0, 1/ℓ²)`, `b ~ U[0, 2π)`
//! approximates an RBF kernel with lengthscale `ℓ`. Combined with ridge
//! regression this gives a closed-form-trainable nonlinear surrogate —
//! our stand-in for the paper's MPNN/SchNet models, chosen because it
//! learns the synthetic targets well and trains deterministically.
//!
//! Everything runs through one kernel, `RandomFourierFeatures::tile`,
//! which holds one input per vector lane: the inputs come transposed,
//! `[k][lane]`, and `W` is stored transposed (`d_in × D`, `D` zero-padded
//! to a multiple of `TILE`), so each weight is broadcast into the lanes.
//! A pass projects `PASS` features of all `L` inputs, with the
//! accumulators in registers; the `[feature][lane]` stack tile then takes
//! phase, cosine and scale in one vectorized pass. Each feature still
//! sums `k = 0..d_in` in order from `-0.0` (as `Iterator::sum` does), so
//! a value never depends on tiling or on which inputs share the lanes.
//! Batches run `LANES` inputs at a time, dead lanes padding the last
//! group; a single input runs the same kernel one lane wide. The entry
//! points run their bodies through `hetflow_sim::num::dispatch`, so the
//! kernel also has AVX2 and AVX-512 clones.

use crate::cosine::scaled_cos_in_place;
use crate::linalg::Matrix;
use hetflow_sim::num::dispatch;
use hetflow_sim::SimRng;

/// Features per kernel tile.
pub(crate) const TILE: usize = 64;
/// Inputs per vector in a batch: one per lane, eight `f64` to a `zmm`.
pub(crate) const LANES: usize = 8;
/// Features per projection pass over `LANES` inputs: each load of an
/// input column feeds `PASS` accumulators. Eight spill in the AVX2 clone.
pub(crate) const PASS: usize = 4;

/// A fixed random feature map.
#[derive(Clone, Debug)]
pub struct RandomFourierFeatures {
    d_in: usize,
    d_out: usize,
    /// `Wᵀ`: `d_in` rows of `b.len()` (padded `D`) projection weights.
    wt: Vec<f64>,
    /// Phase offsets, zero-padded to a multiple of `TILE`.
    b: Vec<f64>,
    scale: f64,
}

impl RandomFourierFeatures {
    /// Samples a feature map: `d_in` inputs → `d_out` features, RBF
    /// lengthscale `lengthscale`.
    pub(crate) fn sample(d_in: usize, d_out: usize, lengthscale: f64, rng: &mut SimRng) -> Self {
        assert!(d_in > 0 && d_out > 0 && lengthscale > 0.0);
        let padded = d_out.next_multiple_of(TILE);
        let mut wt = vec![0.0; d_in * padded];
        for i in 0..d_out {
            for k in 0..d_in {
                wt[k * padded + i] = rng.standard_normal() / lengthscale;
            }
        }
        let mut b = vec![0.0; padded];
        b[..d_out].fill_with(|| rng.uniform(0.0, std::f64::consts::TAU));
        let scale = (2.0 / d_out as f64).sqrt();
        RandomFourierFeatures { d_in, d_out, wt, b, scale }
    }

    /// The kernel's input buffer: `d_in` columns of `L` lanes.
    pub(crate) fn lanes<const L: usize>(&self) -> Vec<[f64; L]> {
        vec![[0.0; L]; self.d_in]
    }

    /// Panics unless `x` has the map's input dimension.
    #[inline(always)]
    pub(crate) fn check_input(&self, x: &[f64]) {
        assert_eq!(x.len(), self.d_in, "feature dim mismatch");
    }

    /// Puts checked inputs `row(0..live)` into the first `live` lanes of
    /// `xt` and zeroes the rest: a short last group's dead lanes.
    #[inline(always)]
    pub(crate) fn load<const L: usize, R: AsRef<[f64]>>(
        &self,
        xt: &mut [[f64; L]],
        live: usize,
        row: impl Fn(usize) -> R,
    ) {
        for lane in 0..live {
            let x = row(lane);
            self.check_input(x.as_ref());
            xt.iter_mut().zip(x.as_ref()).for_each(|(column, &v)| column[lane] = v);
        }
        xt.iter_mut().for_each(|column| column[live..].fill(0.0));
    }

    /// The kernel: features `j..j + TILE` of the `L` inputs in `xt`
    /// (`[k][lane]`) into `z` (`[feature][lane]`; features at or past
    /// `d_out` are padding, which callers skip). Per pass of `P`
    /// features, each `k` loads one input column and broadcasts `P`
    /// weights of `Wᵀ` against it, so every lane's accumulator is its own
    /// feature's `k`-ascending sum.
    #[inline(always)]
    pub(crate) fn tile<const L: usize, const P: usize>(
        &self,
        xt: &[[f64; L]],
        j: usize,
        z: &mut [[f64; L]; TILE],
    ) {
        let padded = self.b.len();
        // `xt` is `d_in` long as far as LLVM knows: no bounds check per `k`.
        let xt = &xt[..self.d_in];
        for jp in (j..j + TILE).step_by(P) {
            let mut acc = [[-0.0; L]; P];
            for (k, x) in xt.iter().enumerate() {
                let w = &self.wt[k * padded + jp..][..P];
                for f in 0..P {
                    for l in 0..L {
                        acc[f][l] += w[f] * x[l];
                    }
                }
            }
            let b = &self.b[jp..][..P];
            for f in 0..P {
                for l in 0..L {
                    z[jp - j + f][l] = acc[f][l] + b[f];
                }
            }
        }
        scaled_cos_in_place(z.as_flattened_mut(), self.scale);
    }

    /// Maps one input vector.
    #[cfg(test)]
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        self.transform_batch(&[x]).row(0).to_vec()
    }

    /// Maps a batch into a design matrix (`n × D`).
    pub(crate) fn transform_batch(&self, xs: &[impl AsRef<[f64]>]) -> Matrix {
        dispatch(
            #[inline(always)]
            || self.transform_batch_body(xs),
        )
    }

    /// [`RandomFourierFeatures::transform_batch`] undispatched: inputs
    /// `LANES` at a time, each tile written back into their rows.
    #[inline(always)]
    pub(crate) fn transform_batch_body(&self, xs: &[impl AsRef<[f64]>]) -> Matrix {
        let mut out = Matrix::zeros(xs.len(), self.d_out);
        let mut xt = self.lanes::<LANES>();
        let mut tile = [[0.0; LANES]; TILE];
        for (g, group) in xs.chunks(LANES).enumerate() {
            self.load(&mut xt, group.len(), |l| &group[l]);
            for j in (0..self.d_out).step_by(TILE) {
                self.tile::<LANES, PASS>(&xt, j, &mut tile);
                let len = TILE.min(self.d_out - j);
                // `l < LANES` as far as LLVM knows: no bounds check per `z[l]`.
                for l in 0..group.len().min(LANES) {
                    let row = &mut out.row_mut(g * LANES + l)[j..][..len];
                    row.iter_mut().zip(&tile).for_each(|(v, z)| *v = z[l]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cosine::cos_portable;

    /// What the kernel must equal bit for bit: per feature, an in-order
    /// `Iterator::sum` projection over the unpadded column of `Wᵀ`, then
    /// `scale · cos(p + b)`.
    pub(crate) fn naive_transform(f: &RandomFourierFeatures, x: &[f64]) -> Vec<f64> {
        let padded = f.b.len();
        (0..f.d_out)
            .map(|i| {
                let p: f64 = (0..f.d_in).map(|k| f.wt[k * padded + i] * x[k]).sum();
                f.scale * cos_portable(p + f.b[i])
            })
            .collect()
    }

    #[test]
    fn sampling_order_is_row_major_over_w_then_phases() {
        // The transposed, padded layout must consume the RNG exactly as
        // the old D × d_in row-major fill did.
        let (d_in, d_out) = (3, 70);
        let f = RandomFourierFeatures::sample(d_in, d_out, 2.0, &mut SimRng::from_seed(6));
        let mut rng = SimRng::from_seed(6);
        for i in 0..d_out {
            for k in 0..d_in {
                assert_eq!(f.wt[k * f.b.len() + i], rng.standard_normal() / 2.0);
            }
        }
        for i in 0..d_out {
            assert_eq!(f.b[i], rng.uniform(0.0, std::f64::consts::TAU));
        }
        assert_eq!(f.b.len(), 128);
        assert!(f.b[d_out..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_for_seed() {
        let mut r1 = SimRng::from_seed(1);
        let mut r2 = SimRng::from_seed(1);
        let f1 = RandomFourierFeatures::sample(3, 16, 1.0, &mut r1);
        let f2 = RandomFourierFeatures::sample(3, 16, 1.0, &mut r2);
        let x = vec![0.5, -1.0, 2.0];
        assert_eq!(f1.transform(&x), f2.transform(&x));
    }

    #[test]
    fn output_bounded() {
        let mut rng = SimRng::from_seed(2);
        let f = RandomFourierFeatures::sample(4, 64, 1.0, &mut rng);
        let z = f.transform(&[1.0, -2.0, 0.5, 3.0]);
        let bound = (2.0f64 / 64.0).sqrt();
        assert!(z.iter().all(|v| v.abs() <= bound + 1e-12));
        assert_eq!(z.len(), 64);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "libm's exp is the kernel's independent oracle")]
    fn kernel_approximation_quality() {
        // z(x)·z(y) ≈ exp(-|x-y|²/(2ℓ²)) for large D.
        let mut rng = SimRng::from_seed(3);
        let f = RandomFourierFeatures::sample(3, 4096, 1.5, &mut rng);
        let x = vec![0.2, -0.3, 0.8];
        let y = vec![0.5, 0.1, 0.4];
        let zx = f.transform(&x);
        let zy = f.transform(&y);
        let dot: f64 = zx.iter().zip(&zy).map(|(a, b)| a * b).sum();
        let d2: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).powi(2)).sum();
        let expect = (-d2 / (2.0 * 1.5 * 1.5)).exp();
        assert!((dot - expect).abs() < 0.05, "dot {dot}, kernel {expect}");
    }

    #[test]
    fn batch_matches_single() {
        let mut rng = SimRng::from_seed(4);
        let f = RandomFourierFeatures::sample(2, 8, 1.0, &mut rng);
        let xs = vec![vec![1.0, 2.0], vec![-0.5, 0.5]];
        let batch = f.transform_batch(&xs);
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.row(0), f.transform(&xs[0]).as_slice());
        assert_eq!(batch.row(1), f.transform(&xs[1]).as_slice());
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_input_dim_panics() {
        let mut rng = SimRng::from_seed(5);
        let f = RandomFourierFeatures::sample(3, 8, 1.0, &mut rng);
        let _ = f.transform(&[1.0, 2.0]);
    }
}

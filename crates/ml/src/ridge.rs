//! Ridge regression (single- and multi-output), solved in whichever
//! normal system is smaller: the primal `d × d` one when the data has at
//! least as many rows as features, the dual `n × n` one when it has
//! fewer. Both give the same weights; only the cost and the rounding
//! differ.

use crate::linalg::{LinalgError, Matrix};
use hetflow_sim::num::dispatch;

/// A fitted linear model `y = W x (+ intercept)`.
#[derive(Clone, Debug)]
pub struct Ridge {
    /// `d × k` weights (k outputs).
    weights: Matrix,
    intercepts: Vec<f64>,
}

impl Ridge {
    /// Fits `X w = y` with L2 penalty `lambda` and a fitted intercept.
    pub(crate) fn fit(x: Matrix, y: Vec<f64>, lambda: f64) -> Result<Ridge, LinalgError> {
        Ridge::fit_multi(x, Matrix::from_vec(y.len(), 1, y), lambda)
    }

    /// Fits a multi-output model; `y` is `n × k`, and per-output
    /// intercepts absorb the means.
    pub(crate) fn fit_multi(x: Matrix, y: Matrix, lambda: f64) -> Result<Ridge, LinalgError> {
        dispatch(
            #[inline(always)]
            move || Ridge::fit_multi_body(x, y, lambda),
        )
    }

    /// [`Ridge::fit_multi`] undispatched. Centres `x` and `y` in their
    /// own buffers, then solves the smaller normal system: [`primal`] when
    /// `n ≥ d`, [`dual`] when `n < d`. The shape chooses, not a knob.
    #[inline(always)]
    pub(crate) fn fit_multi_body(
        mut x: Matrix,
        mut y: Matrix,
        lambda: f64,
    ) -> Result<Ridge, LinalgError> {
        assert_eq!(x.rows(), y.rows(), "row count mismatch");
        assert!(lambda >= 0.0);
        let n = x.rows();
        let d = x.cols();
        let k = y.cols();
        // Center both X and y so the penalty does not shrink the
        // intercept and the weights are unbiased by feature offsets.
        let x_means: Vec<f64> =
            (0..d).map(|c| (0..n).map(|r| x[(r, c)]).sum::<f64>() / n as f64).collect();
        let y_means: Vec<f64> =
            (0..k).map(|c| (0..n).map(|r| y[(r, c)]).sum::<f64>() / n as f64).collect();
        for r in 0..n {
            for (v, m) in x.row_mut(r).iter_mut().zip(&x_means) {
                *v -= m;
            }
            for (v, m) in y.row_mut(r).iter_mut().zip(&y_means) {
                *v -= m;
            }
        }
        // A touch of jitter keeps the factorization stable even at
        // lambda = 0 with collinear features (or duplicate rows).
        let jitter = lambda.max(1e-10);
        let weights = if n < d { dual(x, y, jitter)? } else { primal(x, y, jitter)? };
        // intercept_c = ȳ_c − w_c · x̄
        let intercepts: Vec<f64> = (0..k)
            .map(|c| y_means[c] - (0..d).map(|dd| weights[(dd, c)] * x_means[dd]).sum::<f64>())
            .collect();
        Ok(Ridge { weights, intercepts })
    }

    /// Number of outputs.
    #[cfg(test)]
    pub fn n_outputs(&self) -> usize {
        self.weights.cols()
    }

    /// Predicts all outputs for one input.
    #[cfg(test)]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.weights.rows(), "feature dim mismatch");
        (0..self.n_outputs())
            .map(|c| {
                self.intercepts[c]
                    + (0..x.len()).map(|d| x[d] * self.weights[(d, c)]).sum::<f64>()
            })
            .collect()
    }

    /// The raw weight matrix (`d × k`).
    pub(crate) fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Per-output intercepts (length `k`).
    pub(crate) fn intercepts(&self) -> &[f64] {
        &self.intercepts
    }
}

/// `W = (XᵀX + λI)⁻¹ XᵀY`, factoring the `d × d` Gram matrix. Drops `x`
/// once the system is formed, so the factorization runs with no copy of
/// the design matrix alive, and solves into `XᵀY`'s buffer.
#[inline(always)]
fn primal(x: Matrix, y: Matrix, lambda: f64) -> Result<Matrix, LinalgError> {
    let mut gram = x.gram();
    gram.add_diag(lambda);
    let xty = x.t_matmul(&y);
    drop((x, y));
    Ok(gram.cholesky()?.solve_matrix(xty))
}

/// `W = Xᵀ (XXᵀ + λI)⁻¹ Y`, factoring the `n × n` kernel matrix `XXᵀ`
/// (the Gram matrix of `Xᵀ`) and solving into `Y`'s buffer.
#[inline(always)]
fn dual(x: Matrix, y: Matrix, lambda: f64) -> Result<Matrix, LinalgError> {
    let mut kernel = x.transpose().gram();
    kernel.add_diag(lambda);
    let alpha = kernel.cholesky()?.solve_matrix(y);
    Ok(x.t_matmul(&alpha))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::linalg::tests::copying_cholesky;
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A matrix's rows as bits.
    pub(crate) fn rows(m: &Matrix) -> Vec<Vec<u64>> {
        (0..m.rows()).map(|i| bits(m.row(i))).collect()
    }

    type FitBits = Result<(Vec<Vec<u64>>, Vec<u64>), LinalgError>;

    /// A fit's weight rows and intercepts as bits, or its error.
    pub(crate) fn fit_bits(fit: Result<Ridge, LinalgError>) -> FitBits {
        fit.map(|m| (rows(m.weights()), bits(m.intercepts())))
    }

    /// The fit as it stood when it centred copies of borrowed inputs and
    /// factored a copy of the Gram matrix: the in-place fit's reference,
    /// in the primal form for `n ≥ d` and the dual form for `n < d`.
    fn copying_fit_multi(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Ridge, LinalgError> {
        let (n, d, k) = (x.rows(), x.cols(), y.cols());
        let x_means: Vec<f64> =
            (0..d).map(|c| (0..n).map(|r| x[(r, c)]).sum::<f64>() / n as f64).collect();
        let y_means: Vec<f64> =
            (0..k).map(|c| (0..n).map(|r| y[(r, c)]).sum::<f64>() / n as f64).collect();
        let mut xc = x.clone();
        let mut yc = y.clone();
        for r in 0..n {
            for c in 0..d {
                xc[(r, c)] -= x_means[c];
            }
            for c in 0..k {
                yc[(r, c)] -= y_means[c];
            }
        }
        let weights = if n < d {
            let mut kernel = xc.transpose().gram();
            kernel.add_diag(lambda.max(1e-10));
            let alpha = copying_cholesky(&kernel)?.solve_matrix(yc);
            xc.t_matmul(&alpha)
        } else {
            let mut gram = xc.gram();
            gram.add_diag(lambda.max(1e-10));
            copying_cholesky(&gram)?.solve_matrix(xc.t_matmul(&yc))
        };
        let intercepts: Vec<f64> = (0..k)
            .map(|c| y_means[c] - (0..d).map(|dd| weights[(dd, c)] * x_means[dd]).sum::<f64>())
            .collect();
        Ok(Ridge { weights, intercepts })
    }

    /// Standard normals with exact `0.0` and `-0.0` sprinkled in.
    fn signed_zeros(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.below(10) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.standard_normal(),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    proptest! {
        #[test]
        fn in_place_fit_bit_identical_to_copying_fit(
            seed in 0u64..1000,
            n in 1usize..=40,
            d in 1usize..=24,
            k in 1usize..=2,
            li in 0usize..3,
        ) {
            let lambda = [0.0, 1e-3, 1.0][li];
            let mut rng = SimRng::from_seed(seed);
            let x = signed_zeros(n, d, &mut rng);
            let y = signed_zeros(n, k, &mut rng);
            prop_assert_eq!(
                fit_bits(Ridge::fit_multi(x.clone(), y.clone(), lambda)),
                fit_bits(copying_fit_multi(&x, &y, lambda))
            );
        }
    }

    /// `max |a − b| / max |b|` over two equally shaped matrices.
    fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
        let rows = |m: &Matrix| (0..m.rows()).flat_map(|r| m.row(r).to_vec()).collect::<Vec<_>>();
        let (a, b) = (rows(a), rows(b));
        let scale = b.iter().fold(0.0, |acc: f64, v| acc.max(v.abs()));
        let diff = a.iter().zip(&b).fold(0.0, |acc: f64, (p, q)| acc.max((p - q).abs()));
        diff / scale.max(f64::MIN_POSITIVE)
    }

    proptest! {
        #[test]
        fn dual_and_primal_agree_when_rows_are_fewer_than_features(
            seed in 0u64..1000,
            n in 1usize..=24,
            extra in 1usize..=40,
            k in 1usize..=2,
            li in 0usize..3,
        ) {
            let lambda = [1e-3, 1e-2, 1.0][li];
            let d = n + extra;
            let mut rng = SimRng::from_seed(seed);
            let x = signed_zeros(n, d, &mut rng);
            let y = signed_zeros(n, k, &mut rng);
            let w_dual = dual(x.clone(), y.clone(), lambda).unwrap();
            let w_primal = primal(x, y, lambda).unwrap();
            prop_assert!(max_rel_diff(&w_dual, &w_primal) <= 1e-10, "weights");
            // Predictions on fresh inputs: `P W` as `(Pᵀ)ᵀ W`.
            let probe = signed_zeros(6, d, &mut rng).transpose();
            let rel = max_rel_diff(&probe.t_matmul(&w_dual), &probe.t_matmul(&w_primal));
            prop_assert!(rel <= 1e-10, "predictions: {}", rel);
        }
    }

    #[test]
    fn recovers_linear_function() {
        let mut rng = SimRng::from_seed(1);
        let true_w = [2.0, -1.0, 0.5];
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..3).map(|_| rng.standard_normal()).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>() + 3.0)
            .collect();
        let x = Matrix::from_rows(&rows);
        let model = Ridge::fit(x, y, 1e-6).unwrap();
        let pred = model.predict(&[1.0, 1.0, 1.0])[0];
        let expect = 2.0 - 1.0 + 0.5 + 3.0;
        assert!((pred - expect).abs() < 1e-3, "pred {pred}");
    }

    #[test]
    fn regularization_shrinks_weights() {
        let mut rng = SimRng::from_seed(2);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..4).map(|_| rng.standard_normal()).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 5.0 * r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let loose = Ridge::fit(x.clone(), y.clone(), 1e-8).unwrap();
        let tight = Ridge::fit(x, y, 100.0).unwrap();
        assert!(tight.weights()[(0, 0)].abs() < loose.weights()[(0, 0)].abs());
    }

    #[test]
    fn multi_output_fits_independent_targets() {
        let mut rng = SimRng::from_seed(3);
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..2).map(|_| rng.standard_normal()).collect())
            .collect();
        let y_rows: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0] * 2.0, r[1] * -3.0]).collect();
        let x = Matrix::from_rows(&rows);
        let y = Matrix::from_rows(&y_rows);
        let model = Ridge::fit_multi(x, y, 1e-8).unwrap();
        let p = model.predict(&[1.0, 1.0]);
        assert!((p[0] - 2.0).abs() < 1e-3);
        assert!((p[1] + 3.0).abs() < 1e-3);
    }

    #[test]
    fn intercept_handles_offset_targets() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 100.0 + r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let model = Ridge::fit(x, y, 1e-6).unwrap();
        assert!((model.predict(&[0.0])[0] - 100.0).abs() < 0.1);
    }

    #[test]
    fn collinear_features_do_not_crash() {
        // Two identical columns: singular Gram, saved by jitter/ridge.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let model = Ridge::fit(x, y, 1e-4).unwrap();
        assert!((model.predict(&[5.0, 5.0])[0] - 5.0).abs() < 0.1);
    }
}

//! Dense linear algebra: row-major matrices and Cholesky solves.
//!
//! Sized for surrogate training: design matrices with up to a few
//! thousand rows and a few hundred columns, normal-equation solves on
//! whichever of the feature and sample dimensions is smaller (`gram` of
//! the matrix or of its `transpose`). No external BLAS (the build stays
//! dependency-free), so loop shape matters: at d = 384 a factorization
//! over strided dependent chains costs 2.4× one over contiguous axpys.
//! The kernels here walk rows and keep each element's operation order,
//! and are `#[inline(always)]` so that `Ridge::fit_multi`'s AVX2 and
//! AVX-512 clones contain them rather than calls into their baseline
//! copies.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors from numerical routines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix is not positive definite (within tolerance).
    NotPositiveDefinite,
    /// Shape mismatch between operands.
    ShapeMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite => write!(f, "matrix not positive definite"),
            LinalgError::ShapeMismatch => write!(f, "shape mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from nested rows; all rows must have equal length.
    #[cfg(test)]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// A row as a slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row access.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `selfᵀ`, as a new row-major matrix.
    #[inline(always)]
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                t[(c, r)] = v;
            }
        }
        t
    }

    /// `selfᵀ * self` (the Gram matrix), exploiting symmetry.
    #[inline(always)]
    pub fn gram(&self) -> Matrix {
        let mut g = self.t_accumulate(self, true);
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `selfᵀ * other`.
    #[inline(always)]
    pub(crate) fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        if other.cols != 1 {
            return self.t_accumulate(other, false);
        }
        // `Xᵀy`: the output is one contiguous column, walked alongside
        // each design row rather than sliced per element.
        let mut out = Matrix::zeros(self.cols, 1);
        for (r, &y) in other.data.iter().enumerate() {
            for (o, &a) in out.data.iter_mut().zip(self.row(r)) {
                if a != 0.0 {
                    *o += a * y;
                }
            }
        }
        out
    }

    /// `out.row(i)[from..] += Σ_r self[(r, i)] · b.row(r)[from..]`, with
    /// `from = i` when only the upper triangle is wanted (`gram`) and 0
    /// otherwise: four rows `r` per pass over each output row, then the
    /// `rows % 4` left over one at a time.
    #[inline(always)]
    fn t_accumulate(&self, b: &Matrix, upper_only: bool) -> Matrix {
        let mut out = Matrix::zeros(self.cols, b.cols);
        let quads = self.rows - self.rows % 4;
        for r in (0..quads).step_by(4) {
            let a_rows: [&[f64]; 4] = std::array::from_fn(|q| self.row(r + q));
            let b_rows: [&[f64]; 4] = std::array::from_fn(|q| b.row(r + q));
            for i in 0..self.cols {
                let from = if upper_only { i } else { 0 };
                add_scaled_rows(
                    &mut out.row_mut(i)[from..],
                    a_rows.map(|row| row[i]),
                    b_rows.map(|row| &row[from..]),
                );
            }
        }
        for r in quads..self.rows {
            let (a_row, b_row) = (self.row(r), b.row(r));
            for i in 0..self.cols {
                let from = if upper_only { i } else { 0 };
                add_scaled_row(&mut out.row_mut(i)[from..], a_row[i], &b_row[from..]);
            }
        }
        out
    }

    /// Adds `lambda` to the diagonal (ridge regularization).
    #[inline(always)]
    pub(crate) fn add_diag(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Cholesky factorization `A = L Lᵀ`; consumes a symmetric
    /// positive-definite `A` and factors it in place. Right-looking on
    /// `U = Lᵀ`, which starts as `A`'s upper triangle (its strict lower
    /// triangle is zeroed): a finished row `k` is subtracted, scaled,
    /// from each later row — a contiguous axpy. Each element still loses
    /// its products in ascending `k`, so the factor is bit-identical to
    /// the left-looking dot-product form.
    #[inline(always)]
    pub(crate) fn cholesky(self) -> Result<Cholesky, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch);
        }
        let n = self.rows;
        let mut u = self;
        for i in 1..n {
            u.row_mut(i)[..i].fill(0.0);
        }
        for k in 0..n {
            let (done, rest) = u.data.split_at_mut((k + 1) * n);
            let pivot_row = &mut done[k * n..];
            if pivot_row[k] <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let pivot = pivot_row[k].sqrt();
            pivot_row[k] = pivot;
            for v in &mut pivot_row[k + 1..] {
                *v /= pivot;
            }
            for (i, row) in (k + 1..n).zip(rest.chunks_exact_mut(n)) {
                let f = pivot_row[i];
                for (v, p) in row[i..].iter_mut().zip(&pivot_row[i..]) {
                    *v -= f * p;
                }
            }
        }
        Ok(Cholesky { u })
    }
}

/// `out[j] += a · b[j]`; a zero `a` leaves `out` untouched, bits included.
#[inline(always)]
pub(crate) fn add_scaled_row(out: &mut [f64], a: f64, b: &[f64]) {
    if a != 0.0 {
        for (o, b) in out.iter_mut().zip(b) {
            *o += a * b;
        }
    }
}

/// [`add_scaled_row`] for four rows in one pass over `out`: each element
/// adds its products in row order, unfused and unreassociated, so the
/// result is that of four single passes. A zero coefficient sends the
/// quad down those, which keeps its skip exact.
#[inline(always)]
pub(crate) fn add_scaled_rows(out: &mut [f64], a: [f64; 4], b: [&[f64]; 4]) {
    if a.contains(&0.0) {
        for (a, b) in a.into_iter().zip(b) {
            add_scaled_row(out, a, b);
        }
        return;
    }
    let n = out.len();
    let [b0, b1, b2, b3] = b.map(|row| &row[..n]);
    for j in 0..n {
        out[j] = (((out[j] + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// A Cholesky factor with forward/back substitution solvers.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// `Lᵀ`, upper triangular, so both substitutions walk its rows.
    u: Matrix,
}

impl Cholesky {
    /// Solves `A X = B` for all of `B`'s columns in `B`'s own buffer,
    /// `A = L Lᵀ`, one row pass at a time. Per element the operations are
    /// those of a one-column solve: the forward pass subtracts in `k`
    /// ascending (like a dot), and the back pass subtracts `j` ascending
    /// from the entry before it divides.
    #[inline(always)]
    pub(crate) fn solve_matrix(&self, mut b: Matrix) -> Matrix {
        let n = self.u.rows();
        assert_eq!(b.rows(), n);
        let m = b.cols();
        // Forward, L Y = B: row k is final once divided, then each later
        // row i loses `L[i][k]` times it.
        for k in 0..n {
            let u = self.u.row(k);
            let (head, tail) = b.data.split_at_mut((k + 1) * m);
            let row_k = &mut head[k * m..];
            for v in row_k.iter_mut() {
                *v /= u[k];
            }
            for (i, &f) in (k + 1..n).zip(&u[k + 1..]) {
                let row_i = &mut tail[(i - k - 1) * m..(i - k) * m];
                for (v, p) in row_i.iter_mut().zip(&*row_k) {
                    *v -= f * p;
                }
            }
        }
        // Back, Lᵀ X = Y: row i loses each later, finished row j.
        for i in (0..n).rev() {
            let u = self.u.row(i);
            let (head, done) = b.data.split_at_mut((i + 1) * m);
            let row_i = &mut head[i * m..];
            for (j, &f) in (i + 1..n).zip(&u[i + 1..]) {
                let row_j = &done[(j - i - 1) * m..(j - i) * m];
                for (v, p) in row_i.iter_mut().zip(row_j) {
                    *v -= f * p;
                }
            }
            for v in row_i.iter_mut() {
                *v /= u[i];
            }
        }
        b
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The factorization as it stood when it copied `A`'s lower triangle
    /// into a fresh `U`: the reference the consuming one must match.
    pub(crate) fn copying_cholesky(a: &Matrix) -> Result<Cholesky, LinalgError> {
        if a.rows != a.cols {
            return Err(LinalgError::ShapeMismatch);
        }
        let n = a.rows;
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u[(i, j)] = a[(j, i)];
            }
        }
        for k in 0..n {
            let (done, rest) = u.data.split_at_mut((k + 1) * n);
            let pivot_row = &mut done[k * n..];
            if pivot_row[k] <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let pivot = pivot_row[k].sqrt();
            pivot_row[k] = pivot;
            for v in &mut pivot_row[k + 1..] {
                *v /= pivot;
            }
            for (i, row) in (k + 1..n).zip(rest.chunks_exact_mut(n)) {
                let f = pivot_row[i];
                for (v, p) in row[i..].iter_mut().zip(&pivot_row[i..]) {
                    *v -= f * p;
                }
            }
        }
        Ok(Cholesky { u })
    }

    #[test]
    fn gram_matches_t_matmul() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
            vec![-1.0, 0.5, 2.0],
        ]);
        let g = a.gram();
        let g2 = a.t_matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = a.cholesky().unwrap().solve_matrix(Matrix::from_vec(2, 1, vec![2.0, 1.0]));
        assert!((x[(0, 0)] - 0.5).abs() < 1e-12);
        assert!(x[(1, 0)].abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::ShapeMismatch);
    }

    #[test]
    fn solve_matrix_multi_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 4.0], vec![1.0, 2.0]]);
        let x = a.cholesky().unwrap().solve_matrix(b);
        // Column 2 is 2x column 1.
        assert!((x[(0, 1)] - 2.0 * x[(0, 0)]).abs() < 1e-12);
        assert!((x[(1, 1)] - 2.0 * x[(1, 0)]).abs() < 1e-12);
    }

    /// The textbook left-looking factorization and dot-product solves
    /// this module used before it walked rows: the exactness reference.
    fn reference_cholesky_solve(a: &Matrix, b: &[f64]) -> (Matrix, Vec<f64>) {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = if i == j { sum.sqrt() } else { sum / l[(j, j)] };
            }
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        (l, x)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `gram` and `t_matmul` as they stood when they indexed one output
    /// element per multiply: rows ascending, a zero coefficient skipped.
    fn reference_t_matmul(a: &Matrix, b: &Matrix, upper_only: bool) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            for i in 0..a.cols() {
                if a[(r, i)] == 0.0 {
                    continue;
                }
                for j in if upper_only { i } else { 0 }..b.cols() {
                    out[(i, j)] += a[(r, i)] * b[(r, j)];
                    if upper_only {
                        out[(j, i)] = out[(i, j)];
                    }
                }
            }
        }
        out
    }

    /// Standard normals with exact `0.0` and `-0.0` sprinkled in, and a
    /// rare infinity — the one operand under which adding a skipped
    /// `0 · b` would show (as a NaN).
    fn sprinkled(rows: usize, cols: usize, rng: &mut hetflow_sim::SimRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = match rng.below(40) {
                0..=3 => 0.0,
                4..=6 => -0.0,
                7 => f64::INFINITY,
                _ => rng.standard_normal(),
            };
        }
        m
    }

    proptest! {
        #[test]
        fn gram_and_t_matmul_bit_identical_to_naive_triple_loop(
            seed in 0u64..2000,
            rows in 0usize..=40,
            cols in 1usize..=30,
            rhs in 1usize..=3,
        ) {
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let x = sprinkled(rows, cols, &mut rng);
            let y = sprinkled(rows, rhs, &mut rng);
            let (gram, xty) = (reference_t_matmul(&x, &x, true), reference_t_matmul(&x, &y, false));
            prop_assert_eq!(bits(&x.gram().data), bits(&gram.data));
            prop_assert_eq!(bits(&x.t_matmul(&y).data), bits(&xty.data));
        }

        #[test]
        fn cholesky_and_solves_bit_identical_to_left_looking_reference(
            seed in 0u64..400,
            n in 1usize..=64,
            cols in 1usize..4,
        ) {
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let rows: Vec<Vec<f64>> = (0..n + 2)
                .map(|_| (0..n).map(|_| rng.standard_normal()).collect())
                .collect();
            let mut a = Matrix::from_rows(&rows).gram();
            a.add_diag(0.5);
            let mut b = Matrix::zeros(n, cols);
            b.data.iter_mut().for_each(|v| *v = rng.standard_normal());
            let ch = a.clone().cholesky().unwrap();
            // Factoring `A`'s own buffer leaves every bit of the copying
            // factor, the zeroed strict lower triangle included.
            prop_assert_eq!(bits(&ch.u.data), bits(&copying_cholesky(&a).unwrap().u.data));
            let xs = ch.solve_matrix(b.clone());
            for c in 0..cols {
                let col: Vec<f64> = (0..n).map(|r| b[(r, c)]).collect();
                let (l, x) = reference_cholesky_solve(&a, &col);
                for i in 0..n {
                    for j in 0..=i {
                        prop_assert_eq!(ch.u[(j, i)].to_bits(), l[(i, j)].to_bits());
                    }
                }
                let single = ch.solve_matrix(Matrix::from_vec(n, 1, col.clone()));
                prop_assert_eq!(bits(&single.data), bits(&x));
                let got: Vec<f64> = (0..n).map(|r| xs[(r, c)]).collect();
                prop_assert_eq!(bits(&got), bits(&x));
            }
        }

        #[test]
        fn cholesky_roundtrip_random_spd(seed in 0u64..500) {
            // Build A = MᵀM + I (SPD by construction), solve, verify.
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let n = 1 + (seed as usize % 8);
            let rows: Vec<Vec<f64>> = (0..n + 2)
                .map(|_| (0..n).map(|_| rng.standard_normal()).collect())
                .collect();
            let m = Matrix::from_rows(&rows);
            let mut a = m.gram();
            a.add_diag(1.0);
            let b: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
            let x = a.clone().cholesky().unwrap().solve_matrix(Matrix::from_vec(n, 1, b.clone())).data;
            let back: Vec<f64> =
                (0..n).map(|i| a.row(i).iter().zip(&x).map(|(p, q)| p * q).sum()).collect();
            for (bb, ba) in b.iter().zip(&back) {
                prop_assert!((bb - ba).abs() < 1e-8, "residual {}", (bb - ba).abs());
            }
        }

        #[test]
        fn gram_is_symmetric_psd_diag(seed in 0u64..200) {
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..4).map(|_| rng.standard_normal()).collect())
                .collect();
            let g = Matrix::from_rows(&rows).gram();
            for i in 0..4 {
                prop_assert!(g[(i, i)] >= -1e-12);
                for j in 0..4 {
                    prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
                }
            }
        }
    }
}

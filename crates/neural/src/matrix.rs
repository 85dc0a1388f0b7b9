//! Dense row-major matrices with exactly the kernels the model needs.

use crate::kernel::{self, Lhs, Simd};
use rand::Rng;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Kaiming-style init: `N(0, sqrt(2/fan_in))`, the standard choice for
    /// ReLU networks (what PyTorch does for our layers).
    pub fn kaiming(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let data = (0..rows * cols).map(|_| gauss(rng) * std).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_in(Simd::detect(), other)
    }

    fn matmul_in(&self, simd: Simd, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let a = Lhs {
            data: &self.data,
            row_stride: k,
            col_stride: 1,
        };
        Matrix::from_vec(n, m, kernel::gemm(simd, a, &other.data, n, k, m))
    }

    /// `selfᵀ · other`, reading `self` through a stride instead of
    /// materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_in(Simd::detect(), other)
    }

    fn t_matmul_in(&self, simd: Simd, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let a = Lhs {
            data: &self.data,
            row_stride: 1,
            col_stride: n,
        };
        Matrix::from_vec(n, m, kernel::gemm(simd, a, &other.data, n, k, m))
    }

    /// `self · otherᵀ`. `otherᵀ` is packed into a `k × m` buffer first, so
    /// the product runs on the same tiled kernel as [`Matrix::matmul`].
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_in(Simd::detect(), other)
    }

    fn matmul_t_in(&self, simd: Simd, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (k, m) = (self.cols, other.rows);
        let mut bt = vec![0.0; k * m];
        for j in 0..m {
            for p in 0..k {
                bt[p * m + j] = other.data[j * k + p];
            }
        }
        self.matmul_in(simd, &Matrix::from_vec(k, m, bt))
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise in-place scaled addition `self += alpha · other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Add a `1 × cols` bias row to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &b) in dst.iter_mut().zip(&bias.data) {
                *d += b;
            }
        }
    }

    /// Column-sum collapsed to a `1 × cols` row (the bias gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Mean over rows as a `1 × cols` row (the critic's pooling).
    pub fn mean_rows(&self) -> Matrix {
        let mut out = self.sum_rows();
        let n = self.rows.max(1) as f64;
        for v in &mut out.data {
            *v /= n;
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Standard normal sample via Box-Muller (keeps us off rand_distr).
pub fn gauss(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m23();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m23(); // 2×3
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let direct = a.t_matmul(&b); // (3×2)
                                     // aᵀ explicitly:
        let at = Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(direct, at.matmul(&b));
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = m23(); // 2×3
        let b = Matrix::from_vec(4, 3, (1..=12).map(f64::from).collect());
        let direct = a.matmul_t(&b); // 2×4
        let bt = Matrix::from_vec(
            3,
            4,
            vec![
                1.0, 4.0, 7.0, 10.0, 2.0, 5.0, 8.0, 11.0, 3.0, 6.0, 9.0, 12.0,
            ],
        );
        assert_eq!(direct, a.matmul(&bt));
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut a = m23();
        a.add_row_broadcast(&Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        assert_eq!(a.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(a.sum_rows().as_slice(), &[25.0, 47.0, 69.0]);
        assert_eq!(m23().mean_rows().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::zeros(1, 2);
        a.axpy(2.0, &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        assert_eq!(a.as_slice(), &[6.0, 8.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn kaiming_init_has_sane_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Matrix::kaiming(256, 64, &mut rng);
        let mean: f64 = w.as_slice().iter().sum::<f64>() / w.as_slice().len() as f64;
        let var: f64 = w
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / w.as_slice().len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let expect = 2.0 / 256.0;
        assert!((var - expect).abs() < expect * 0.3, "var {var} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        m23().matmul(&m23());
    }

    /// Naive ikj matmul: the pre-blocking reference kernel. Every output
    /// element accumulates in ascending `p` order, the order the blocked
    /// kernels promise to preserve.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for p in 0..k {
                let av = a.get(i, p);
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = out.get(i, j) + av * b.get(p, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Depth 150 spans multiple DEPTH_BLOCK panels plus a ragged tail;
        // equality here is exact (f64 bits), not approximate.
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::kaiming(37, 150, &mut rng);
        let b = Matrix::kaiming(150, 23, &mut rng);
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    #[test]
    fn blocked_t_matmul_is_bit_identical_to_naive() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::kaiming(150, 37, &mut rng); // k=150 shared rows
        let b = Matrix::kaiming(150, 23, &mut rng);
        let at = {
            let mut t = Matrix::zeros(37, 150);
            for r in 0..150 {
                for c in 0..37 {
                    t.set(c, r, a.get(r, c));
                }
            }
            t
        };
        assert_eq!(a.t_matmul(&b), naive_matmul(&at, &b));
    }

    #[test]
    fn map_and_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.map(|v| v * v).as_slice(), &[9.0, 16.0]);
    }

    /// A finite operand built to probe the kernels' zero handling: about
    /// 40% exact zeros (half of them `-0.0`), 10% subnormals of either
    /// sign, the rest normal.
    fn probe(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..10) {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 => {
                    let v = f64::from_bits(rng.gen_range(1..1u64 << 52));
                    if rng.gen_range(0..2) == 0 {
                        v
                    } else {
                        -v
                    }
                }
                _ => gauss(rng),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The naive reference: `Σ_p a(i,p)·b(p,j)` from `+0.0` in ascending
    /// `p`, skipping nothing.
    fn reference(
        (n, k, m): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f64,
        b: impl Fn(usize, usize) -> f64,
    ) -> Matrix {
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a(i, p) * b(p, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #[test]
        fn tiled_kernels_are_bit_identical_to_naive_loops(
            (n, k, m, seed) in (1usize..71, 1usize..71, 1usize..71, 0u64..u64::MAX)
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let simds = [Simd::detect(), Simd::PORTABLE];

            let a = probe(n, k, &mut rng);
            let b = probe(k, m, &mut rng);
            let want = bits(&reference((n, k, m), |i, p| a.get(i, p), |p, j| b.get(p, j)));
            for simd in simds {
                proptest::prop_assert_eq!(bits(&a.matmul_in(simd, &b)), want.clone());
            }
            proptest::prop_assert_eq!(bits(&a.matmul(&b)), want);

            let s = probe(k, n, &mut rng);
            let want = bits(&reference((n, k, m), |i, p| s.get(p, i), |p, j| b.get(p, j)));
            for simd in simds {
                proptest::prop_assert_eq!(bits(&s.t_matmul_in(simd, &b)), want.clone());
            }
            proptest::prop_assert_eq!(bits(&s.t_matmul(&b)), want);

            let o = probe(m, k, &mut rng);
            let want = bits(&reference((n, k, m), |i, p| a.get(i, p), |p, j| o.get(j, p)));
            for simd in simds {
                proptest::prop_assert_eq!(bits(&a.matmul_t_in(simd, &o)), want.clone());
            }
            proptest::prop_assert_eq!(bits(&a.matmul_t(&o)), want);

            // A sparse n × n operator whose stored values include zeros,
            // `-0.0` and subnormals, times a dense n × m operand.
            let dense = probe(n, m, &mut rng);
            let entries = probe(n, n, &mut rng);
            let triples: Vec<(usize, usize, f64)> = (0..n * n)
                .filter(|_| rng.gen_range(0..3) == 0)
                .map(|e| (e / n, e % n, entries.as_slice()[e]))
                .collect();
            let csr = Csr::from_triples(n, &triples);
            let want = bits(&reference((n, n, m), |i, p| csr.get(i, p), |p, j| dense.get(p, j)));
            for simd in simds {
                proptest::prop_assert_eq!(bits(&csr.matmul_dense_in(simd, &dense)), want.clone());
            }
            proptest::prop_assert_eq!(bits(&csr.matmul_dense(&dense)), want);
        }
    }
}

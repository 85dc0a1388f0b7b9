//! Layers with hand-derived forward/backward passes.
//!
//! Each layer caches whatever its backward pass needs during `forward`.
//! `backward` takes `∂L/∂output`, **accumulates** parameter gradients and
//! returns `∂L/∂input`. The convention matches a single sample that is a
//! whole node-feature matrix (`n_nodes × features`), which is how the
//! agent consumes graphs.

use crate::matrix::Matrix;
use crate::param::Param;
use crate::sparse::Csr;
use rand::Rng;

/// Fully-connected layer `y = xW + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight, `in × out`.
    pub w: Param,
    /// Bias, `1 × out`.
    pub b: Param,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Kaiming-initialized layer.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            b: Param::new(Matrix::zeros(1, fan_out)),
            cached_input: None,
        }
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        self.cached_input = Some(x.clone());
        y
    }

    /// Backward pass: accumulates `∂L/∂W = xᵀg`, `∂L/∂b = Σ_rows g`,
    /// returns `∂L/∂x = g Wᵀ`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.cached_input.as_ref().expect("forward before backward");
        self.w.grad.add_assign(&x.t_matmul(grad_out));
        self.b.grad.add_assign(&grad_out.sum_rows());
        grad_out.matmul_t(&self.w.value)
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Rectified linear unit.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New activation layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }

    /// `max(0, x)` elementwise; caches the activity mask.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        x.map(|v| v.max(0.0))
    }

    /// Zero the gradient where the forward input was non-positive.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("forward before backward");
        let mut g = grad_out.clone();
        for (v, &alive) in g.as_mut_slice().iter_mut().zip(mask) {
            if !alive {
                *v = 0.0;
            }
        }
        g
    }
}

/// Graph-convolution layer (paper Eq. 7):
/// `H' = ReLU(Â H W)` with `Â = D^{-1/2}(A + I)D^{-1/2}` fixed.
///
/// `Â` is symmetric, so the backward pass can propagate with `Â` itself
/// instead of its transpose:
/// `∂L/∂W = (ÂH)ᵀ · g`, `∂L/∂H = Â · g · Wᵀ` (with `g` already gated by
/// the ReLU mask).
#[derive(Clone, Debug)]
pub struct Gcn {
    /// Weight, `in × out`.
    pub w: Param,
    adj: Csr,
    relu: Relu,
    cached_ah: Option<Matrix>,
}

impl Gcn {
    /// New layer over a fixed normalized adjacency.
    pub fn new(adj: Csr, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        debug_assert!(adj.is_symmetric(1e-9), "GCN requires a symmetric operator");
        Gcn {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            adj,
            relu: Relu::new(),
            cached_ah: None,
        }
    }

    /// The propagation operator this layer uses.
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }

    /// Forward pass.
    pub fn forward(&mut self, h: &Matrix) -> Matrix {
        let ah = self.adj.matmul_dense(h);
        let z = ah.matmul(&self.w.value);
        self.cached_ah = Some(ah);
        self.relu.forward(&z)
    }

    /// Backward pass; accumulates into `w.grad`, returns `∂L/∂H`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let g = self.accumulate_grads(grad_out);
        let gw = g.matmul_t(&self.w.value);
        self.adj.matmul_dense(&gw)
    }

    /// [`Gcn::backward`] without `∂L/∂H`, for a first layer whose input
    /// is data: accumulates the same `w.grad` bits and skips `Â·g·Wᵀ`.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.accumulate_grads(grad_out);
    }

    /// Accumulate `∂L/∂W`; returns the ReLU-gated output gradient.
    fn accumulate_grads(&mut self, grad_out: &Matrix) -> Matrix {
        let g = self.relu.backward(grad_out);
        let ah = self.cached_ah.as_ref().expect("forward before backward");
        self.w.grad.add_assign(&ah.t_matmul(&g));
        g
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_hand_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.value = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b.value = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let y = l.forward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn relu_gates_forward_and_backward() {
        let mut r = Relu::new();
        let y = r.forward(&Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::kaiming(4, 3, &mut rng);
        let mut layer = Linear::new(3, 2, &mut rng);
        // Loss = sum of outputs; dL/dy = ones.
        check_param_gradients(
            &mut |l: &mut Linear| l.forward(&x).as_slice().iter().sum::<f64>(),
            &mut |l: &mut Linear| {
                let y = l.forward(&x);
                l.backward(&Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 8]));
            },
            &mut layer,
            |l| l.params_mut(),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn linear_input_gradient_passes_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::kaiming(2, 3, &mut rng);
        let y = layer.forward(&x);
        let gx = layer.backward(&Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 4]));
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fp: f64 = layer.forward(&xp).as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fm: f64 = layer.forward(&xm).as_slice().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-5, "input grad {i}");
        }
    }

    fn path_adjacency() -> Csr {
        // 3-node path graph normalized adjacency with self-loops.
        let d = [2.0f64, 3.0, 2.0];
        let mut t = vec![];
        for (i, &di) in d.iter().enumerate() {
            t.push((i, i, 1.0 / di));
        }
        for &(a, b) in &[(0usize, 1usize), (1, 2)] {
            let w = 1.0 / (d[a] * d[b]).sqrt();
            t.push((a, b, w));
            t.push((b, a, w));
        }
        Csr::from_triples(3, &t)
    }

    #[test]
    fn gcn_propagates_between_neighbors_only() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gcn = Gcn::new(path_adjacency(), 1, 1, &mut rng);
        gcn.w.value = Matrix::from_vec(1, 1, vec![1.0]);
        // Only node 0 has a feature; after one layer nodes 0 and 1 see it,
        // node 2 (two hops away) does not.
        let h = Matrix::from_vec(3, 1, vec![1.0, 0.0, 0.0]);
        let y = gcn.forward(&h);
        assert!(y.get(0, 0) > 0.0);
        assert!(y.get(1, 0) > 0.0);
        assert_eq!(y.get(2, 0), 0.0);
    }

    #[test]
    fn gcn_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.3); // keep ReLU mostly active
        let mut layer = Gcn::new(path_adjacency(), 2, 2, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gcn| l.forward(&x).as_slice().iter().sum::<f64>(),
            &mut |l: &mut Gcn| {
                let y = l.forward(&x);
                let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 6]);
                l.backward(&ones);
            },
            &mut layer,
            |l| l.params_mut(),
            1e-5,
            1e-4,
        );
    }

    #[test]
    fn gcn_backward_params_passes_gradcheck_with_the_bits_of_backward() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.3);
        let mut layer = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        let g = Matrix::kaiming(3, 3, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gcn| {
                let y = l.forward(&x);
                y.as_slice()
                    .iter()
                    .zip(g.as_slice())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            },
            &mut |l: &mut Gcn| {
                l.forward(&x);
                l.backward_params(&g);
            },
            &mut layer,
            |l| l.params_mut(),
            1e-5,
            1e-4,
        );
        let run = |full: bool| {
            let mut l = layer.clone();
            l.w.zero_grad();
            l.forward(&x);
            if full {
                l.backward(&g);
            } else {
                l.backward_params(&g);
            }
            l.w.grad
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gcn_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Gcn::new(path_adjacency(), 2, 3, &mut rng);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.5);
        let y = layer.forward(&x);
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 9]);
        let gx = layer.backward(&ones);
        let eps = 1e-6;
        for i in 0..x.as_slice().len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fp: f64 = layer.forward(&xp).as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fm: f64 = layer.forward(&xm).as_slice().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-4, "input grad {i}");
        }
    }
}

//! Graph attention layer (Veličković et al.), single-head.
//!
//! §4.2 of the paper: "We have also experimented NeuroPlan with a Graph
//! Attention Network (GAT). GATs introduce an attention mechanism as a
//! substitute for the statically normalized convolution operation in
//! GCNs. GATs did not perform as well as GCNs for our problem." This
//! module provides that alternative encoder so the comparison is
//! reproducible.
//!
//! For node `i` with neighbourhood `N(i) ∪ {i}`:
//!
//! ```text
//!   z        = H W
//!   e_ij     = LeakyReLU(a₁·z_i + a₂·z_j)
//!   α_i·     = softmax_j(e_ij)
//!   out_i    = ReLU(Σ_j α_ij z_j)
//! ```
//!
//! All gradients are hand-derived and checked against finite differences
//! in the tests.

// Per-node loops index several parallel arrays (scores, attention rows,
// gradients) at once; enumerate over any single one hides the coupling.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;

/// Negative slope of the attention LeakyReLU (the GAT paper's 0.2).
const LEAKY_SLOPE: f64 = 0.2;

/// Single-head graph attention layer over a fixed neighbour structure.
#[derive(Clone, Debug)]
pub struct Gat {
    /// Feature transform, `in × out`.
    pub w: Param,
    /// Attention vector for the *source* part, `1 × out`.
    pub a_src: Param,
    /// Attention vector for the *neighbour* part, `1 × out`.
    pub a_dst: Param,
    /// Neighbour lists including the self-loop, fixed per problem.
    neighbors: Vec<Vec<usize>>,
    cache: Option<Cache>,
}

#[derive(Clone, Debug)]
struct Cache {
    input: Matrix,
    z: Matrix,
    /// Attention weights α, aligned with `neighbors`.
    alpha: Vec<Vec<f64>>,
    /// Pre-LeakyReLU attention logits.
    raw: Vec<Vec<f64>>,
    /// Pre-ReLU aggregated output.
    pre: Matrix,
}

impl Gat {
    /// Build over neighbour lists (self-loops are added automatically).
    pub fn new(
        mut neighbors: Vec<Vec<usize>>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        for (i, list) in neighbors.iter_mut().enumerate() {
            if !list.contains(&i) {
                list.push(i);
            }
            list.sort_unstable();
        }
        Gat {
            w: Param::new(Matrix::kaiming(fan_in, fan_out, rng)),
            a_src: Param::new(Matrix::kaiming(1, fan_out, rng)),
            a_dst: Param::new(Matrix::kaiming(1, fan_out, rng)),
            neighbors,
            cache: None,
        }
    }

    /// Number of nodes this layer is built for.
    pub fn num_nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Forward pass.
    pub fn forward(&mut self, h: &Matrix) -> Matrix {
        let n = self.neighbors.len();
        assert_eq!(h.rows(), n, "node count mismatch");
        let z = h.matmul(&self.w.value);
        let d = z.cols();
        // Scalar attention terms.
        let dot = |row: &[f64], a: &Param| -> f64 {
            row.iter().zip(a.value.as_slice()).map(|(x, y)| x * y).sum()
        };
        let s_src: Vec<f64> = (0..n).map(|i| dot(z.row(i), &self.a_src)).collect();
        let s_dst: Vec<f64> = (0..n).map(|j| dot(z.row(j), &self.a_dst)).collect();
        let mut alpha = Vec::with_capacity(n);
        let mut raw = Vec::with_capacity(n);
        let mut pre = Matrix::zeros(n, d);
        for i in 0..n {
            let js = &self.neighbors[i];
            let raw_i: Vec<f64> = js.iter().map(|&j| s_src[i] + s_dst[j]).collect();
            let act: Vec<f64> = raw_i
                .iter()
                .map(|&e| if e > 0.0 { e } else { LEAKY_SLOPE * e })
                .collect();
            let max = act.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let exps: Vec<f64> = act.iter().map(|&e| (e - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let alpha_i: Vec<f64> = exps.iter().map(|&e| e / sum).collect();
            for (&j, &a) in js.iter().zip(&alpha_i) {
                let zrow = z.row(j);
                for c in 0..d {
                    let v = pre.get(i, c) + a * zrow[c];
                    pre.set(i, c, v);
                }
            }
            alpha.push(alpha_i);
            raw.push(raw_i);
        }
        let out = pre.map(|v| v.max(0.0));
        self.cache = Some(Cache {
            input: h.clone(),
            z,
            alpha,
            raw,
            pre,
        });
        out
    }

    /// Backward pass; accumulates parameter gradients and returns
    /// `∂L/∂H`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let dz = self.accumulate_grads(grad_out);
        dz.matmul_t(&self.w.value)
    }

    /// [`Gat::backward`] without `∂L/∂H`, for a first layer whose input
    /// is data: accumulates the same gradient bits and skips `∂L/∂z·Wᵀ`.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.accumulate_grads(grad_out);
    }

    /// Accumulate every parameter gradient; returns `∂L/∂z`.
    fn accumulate_grads(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("forward before backward");
        let n = self.neighbors.len();
        let d = cache.z.cols();
        // Gate through the output ReLU.
        let mut r = grad_out.clone();
        for i in 0..n {
            for c in 0..d {
                if cache.pre.get(i, c) <= 0.0 {
                    r.set(i, c, 0.0);
                }
            }
        }
        let mut dz = Matrix::zeros(n, d);
        let mut ds_src = vec![0.0f64; n];
        let mut ds_dst = vec![0.0f64; n];
        for i in 0..n {
            let js = &self.neighbors[i];
            let alpha_i = &cache.alpha[i];
            // dα_ij = r_i · z_j
            let dalpha: Vec<f64> = js
                .iter()
                .map(|&j| {
                    let mut s = 0.0;
                    for c in 0..d {
                        s += r.get(i, c) * cache.z.get(j, c);
                    }
                    s
                })
                .collect();
            // Softmax backward: de = α ∘ (dα − Σ α dα).
            let inner: f64 = alpha_i.iter().zip(&dalpha).map(|(a, g)| a * g).sum();
            for (k, &j) in js.iter().enumerate() {
                // Aggregation path: dz_j += α_ij r_i.
                for c in 0..d {
                    let v = dz.get(j, c) + alpha_i[k] * r.get(i, c);
                    dz.set(j, c, v);
                }
                let de = alpha_i[k] * (dalpha[k] - inner);
                let slope = if cache.raw[i][k] > 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                };
                let dr = de * slope;
                ds_src[i] += dr;
                ds_dst[j] += dr;
            }
        }
        // s_src_i = z_i · a_src; s_dst_j = z_j · a_dst.
        for i in 0..n {
            for c in 0..d {
                let za = cache.z.get(i, c);
                self.a_src.grad.as_mut_slice()[c] += ds_src[i] * za;
                self.a_dst.grad.as_mut_slice()[c] += ds_dst[i] * za;
                let v = dz.get(i, c)
                    + ds_src[i] * self.a_src.value.as_slice()[c]
                    + ds_dst[i] * self.a_dst.value.as_slice()[c];
                dz.set(i, c, v);
            }
        }
        // z = h W.
        self.w.grad.add_assign(&cache.input.t_matmul(&dz));
        dz
    }

    /// Mutable access to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.a_src, &mut self.a_dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_neighbors(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gat = Gat::new(path_neighbors(4), 3, 5, &mut rng);
        let h = Matrix::kaiming(4, 3, &mut rng);
        gat.forward(&h);
        let cache = gat.cache.as_ref().unwrap();
        for (i, alpha) in cache.alpha.iter().enumerate() {
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn information_stays_within_one_hop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gat = Gat::new(path_neighbors(4), 1, 1, &mut rng);
        // Two inputs differing only at node 3: outputs at node 0 (two hops
        // away) must agree.
        let h1 = Matrix::from_vec(4, 1, vec![0.5, 0.5, 0.5, 0.5]);
        let h2 = Matrix::from_vec(4, 1, vec![0.5, 0.5, 0.5, 9.0]);
        let o1 = gat.forward(&h1);
        let o2 = gat.forward(&h2);
        assert!((o1.get(0, 0) - o2.get(0, 0)).abs() < 1e-12);
        assert!((o1.get(2, 0) - o2.get(2, 0)).abs() > 0.0 || o1.get(2, 0) == 0.0);
    }

    #[test]
    fn gat_parameter_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::kaiming(4, 3, &mut rng).map(|v| v + 0.2);
        let mut layer = Gat::new(path_neighbors(4), 3, 4, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gat| l.forward(&x).as_slice().iter().sum::<f64>(),
            &mut |l: &mut Gat| {
                let y = l.forward(&x);
                let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; 16]);
                l.backward(&ones);
            },
            &mut layer,
            |l| l.params_mut(),
            1e-6,
            2e-4,
        );
    }

    #[test]
    fn gat_backward_params_passes_gradcheck_with_the_bits_of_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Matrix::kaiming(4, 3, &mut rng).map(|v| v + 0.2);
        let mut layer = Gat::new(path_neighbors(4), 3, 4, &mut rng);
        let g = Matrix::kaiming(4, 4, &mut rng);
        check_param_gradients(
            &mut |l: &mut Gat| {
                let y = l.forward(&x);
                y.as_slice()
                    .iter()
                    .zip(g.as_slice())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            },
            &mut |l: &mut Gat| {
                l.forward(&x);
                l.backward_params(&g);
            },
            &mut layer,
            |l| l.params_mut(),
            1e-6,
            2e-4,
        );
        let run = |full: bool| {
            let mut l = layer.clone();
            for p in l.params_mut() {
                p.zero_grad();
            }
            l.forward(&x);
            if full {
                l.backward(&g);
            } else {
                l.backward_params(&g);
            }
            l.params_mut()
                .iter()
                .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gat_input_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Gat::new(path_neighbors(3), 2, 3, &mut rng);
        let x = Matrix::kaiming(3, 2, &mut rng).map(|v| v + 0.3);
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
            assert!(
                (gx.as_slice()[i] - fd).abs() < 2e-4 * (1.0 + fd.abs()),
                "input grad {i}: {} vs {fd}",
                gx.as_slice()[i]
            );
        }
    }

    #[test]
    fn self_loops_are_always_included() {
        let mut rng = StdRng::seed_from_u64(5);
        let gat = Gat::new(vec![vec![], vec![]], 1, 1, &mut rng);
        assert_eq!(gat.neighbors, vec![vec![0], vec![1]]);
        assert_eq!(gat.num_nodes(), 2);
    }
}

//! Fully connected (time-distributed) layer.
//!
//! A [`Seq`] already is the `(T*B) x I` operand, so the forward pass is a
//! single GEMM over all timesteps (rows are independent, so this is bitwise
//! identical to the per-step products). Input and activations are cached in
//! reusable workspace slots for the backward pass; the output and the input
//! gradient land in caller-owned `Seq`s.

use crate::activation::Activation;
use crate::seq::Seq;
use crate::workspace::Workspace;
use evfad_tensor::{kernels, Initializer, MatMut, MatRef, Matrix};
use rand::Rng;

// Workspace slots; forward slots double as the backward cache, eval-mode
// forwards shift to `EVAL_BASE`.
const X_CAT: usize = 0; // (T*B) x I (training forwards only)
const Y_CAT: usize = 1; // (T*B) x O (post-activation)
const DPRE: usize = 2; // B x O
const TW: usize = 3; // I x O
const BSUM: usize = 4; // 1 x O
const EVAL_BASE: usize = 8;

/// A fully connected layer `y = f(x W + b)` applied to every timestep.
///
/// Applying the kernel independently per step makes a `Dense` on a
/// multi-step [`Seq`] exactly Keras's `TimeDistributed(Dense)`, while on a
/// single-step `Seq` it is a plain `Dense` — the two usages the paper's
/// models need (forecaster head and autoencoder output projection).
///
/// # Examples
///
/// ```
/// use evfad_nn::{Activation, Dense, Seq};
/// use evfad_tensor::Matrix;
///
/// let mut layer = Dense::new(3, 2, Activation::Relu);
/// let x = Seq::single(Matrix::ones(4, 3));
/// let mut y = Seq::default();
/// layer.forward(&x, false, &mut y);
/// assert_eq!(y.shape(), (1, 4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Matrix,
    ws: Workspace,
    cached_steps: usize,
    cached_batch: usize,
}

impl Dense {
    /// Creates a layer with Glorot-uniform kernel and zero bias, seeded from
    /// the thread RNG. Prefer [`Dense::new_seeded`] for reproducible models;
    /// [`Sequential::with`](crate::Sequential::with) reseeds layers it adopts.
    pub fn new(input_dim: usize, output_dim: usize, activation: Activation) -> Self {
        Self::new_with_rng(input_dim, output_dim, activation, &mut rand::thread_rng())
    }

    /// Creates a layer using the supplied RNG for initialisation.
    pub fn new_with_rng(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w: Initializer::GlorotUniform.init(input_dim, output_dim, rng),
            b: Matrix::zeros(1, output_dim),
            activation,
            grad_w: Matrix::zeros(input_dim, output_dim),
            grad_b: Matrix::zeros(1, output_dim),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
        }
    }

    /// Creates a layer initialised from a fixed seed.
    pub fn new_seeded(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::new_with_rng(input_dim, output_dim, activation, &mut rng)
    }

    /// Re-initialises the kernel from `rng`, zeroing the bias.
    pub fn reinitialize(&mut self, rng: &mut impl Rng) {
        let (i, o) = self.w.shape();
        self.w = Initializer::GlorotUniform.init(i, o, rng);
        self.b = Matrix::zeros(1, o);
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output feature width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass into `out` (reshaped to `T x B x O`, storage reused).
    /// Caches input and activations for [`Dense::backward`] when `training`
    /// is `true`; an eval forward works in its own slots and leaves a
    /// pending training cache alone.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        let base = if training { 0 } else { EVAL_BASE };
        let (steps, batch) = (input.len(), input.batch_size());
        let (i_dim, o_dim) = (self.w.rows(), self.w.cols());
        let rows = steps * batch;

        let mut y_cat = self.ws.take(base + Y_CAT, rows * o_dim);
        // One GEMM for all timesteps: each output row only depends on its
        // own input row, so this matches the per-step products bitwise.
        kernels::matmul_into(
            input.view(),
            self.w.view(),
            MatMut::new(rows, o_dim, &mut y_cat),
        );
        kernels::add_row_broadcast_into(MatMut::new(rows, o_dim, &mut y_cat), self.b.view());
        let act = self.activation;
        for v in y_cat.iter_mut() {
            *v = act.apply(*v);
        }
        out.reshape(steps, batch, o_dim);
        out.as_mut_slice().copy_from_slice(&y_cat);
        self.ws.put(base + Y_CAT, y_cat);
        if training {
            // The input is the one thing backward reads that the caller,
            // not this layer, owns: keep a copy.
            let mut x_cat = self.ws.take(X_CAT, rows * i_dim);
            x_cat.copy_from_slice(input.as_slice());
            self.ws.put(X_CAT, x_cat);
            self.cached_steps = steps;
            self.cached_batch = batch;
        }
    }

    /// Backward pass: accumulates kernel/bias gradients and, when `dx` is
    /// given, writes the gradient with respect to the input sequence into
    /// it. Passing `None` skips that product (the first layer of a model
    /// discards it anyway); parameter gradients are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass or
    /// with a gradient whose length differs from that pass.
    pub fn backward(&mut self, grad: &Seq, mut dx: Option<&mut Seq>) {
        assert_eq!(
            grad.len(),
            self.cached_steps,
            "backward called with mismatched sequence length"
        );
        let steps = self.cached_steps;
        let batch = self.cached_batch;
        let (i_dim, o_dim) = (self.w.rows(), self.w.cols());
        let (bi, bo) = (batch * i_dim, batch * o_dim);

        let x_cat = self.ws.take(X_CAT, steps * bi);
        let y_cat = self.ws.take(Y_CAT, steps * bo);
        let mut dpre = self.ws.take(DPRE, bo);
        let mut tw = self.ws.take(TW, i_dim * o_dim);
        let mut bsum = self.ws.take(BSUM, o_dim);
        if let Some(dx) = dx.as_deref_mut() {
            dx.reshape(steps, batch, i_dim);
        }

        let act = self.activation;
        for t in 0..steps {
            let y_t = &y_cat[t * bo..(t + 1) * bo];
            for ((d, &gv), &yv) in dpre.iter_mut().zip(grad.step(t).as_slice()).zip(y_t) {
                *d = gv * act.derivative_from_output(yv);
            }
            let dpre_ref = MatRef::new(batch, o_dim, &dpre);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, &x_cat[t * bi..(t + 1) * bi]),
                dpre_ref,
                MatMut::new(i_dim, o_dim, &mut tw),
            );
            for (gw, &v) in self.grad_w.as_mut_slice().iter_mut().zip(tw.iter()) {
                *gw += v;
            }
            bsum.fill(0.0);
            for r in 0..batch {
                let row = &dpre[r * o_dim..(r + 1) * o_dim];
                for (o, &x) in bsum.iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            for (gb, &v) in self.grad_b.as_mut_slice().iter_mut().zip(bsum.iter()) {
                *gb += v;
            }
            if let Some(dx) = dx.as_deref_mut() {
                kernels::matmul_transpose_into(
                    dpre_ref,
                    self.w.view(),
                    MatMut::new(batch, i_dim, dx.step_data_mut(t)),
                );
            }
        }

        self.ws.put(X_CAT, x_cat);
        self.ws.put(Y_CAT, y_cat);
        self.ws.put(DPRE, dpre);
        self.ws.put(TW, tw);
        self.ws.put(BSUM, bsum);
    }

    /// Immutable access to `(kernel, bias)`.
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.w, &mut self.grad_w),
            (&mut self.b, &mut self.grad_b),
        ]
    }

    /// Clears accumulated gradients (in place once correctly shaped).
    pub fn zero_grads(&mut self) {
        if self.grad_w.shape() == self.w.shape() {
            self.grad_w.as_mut_slice().fill(0.0);
        } else {
            self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        }
        if self.grad_b.shape() == self.b.shape() {
            self.grad_b.as_mut_slice().fill(0.0);
        } else {
            self.grad_b = Matrix::zeros(1, self.b.cols());
        }
    }

    /// The parameters without the gradients or the workspace: what an
    /// eval forward reads, and nothing a trained layer merely carries.
    pub(crate) fn serving_copy(&self) -> Self {
        Self {
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: Matrix::default(),
            grad_b: Matrix::default(),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(l: &mut Dense, x: &Seq, training: bool) -> Seq {
        let mut y = Seq::default();
        l.forward(x, training, &mut y);
        y
    }

    fn simple_layer() -> Dense {
        let mut l = Dense::new_seeded(2, 2, Activation::Linear, 1);
        // Overwrite with known weights.
        let pg = l.params_and_grads_mut();
        drop(pg);
        l
    }

    #[test]
    fn forward_known_values() {
        let mut l = simple_layer();
        {
            let mut pg = l.params_and_grads_mut();
            *pg[0].0 = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
            *pg[1].0 = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        }
        let x = Seq::single(Matrix::from_rows(&[vec![1.0, 1.0]]));
        let y = forward(&mut l, &x, false);
        assert_eq!(y, Seq::single(Matrix::from_rows(&[vec![1.5, 1.5]])));
    }

    #[test]
    fn time_distributed_applies_per_step() {
        let mut l = Dense::new_seeded(1, 1, Activation::Linear, 3);
        {
            let mut pg = l.params_and_grads_mut();
            *pg[0].0 = Matrix::from_vec(1, 1, vec![2.0]);
            *pg[1].0 = Matrix::zeros(1, 1);
        }
        let x = Seq::from_steps(vec![Matrix::filled(2, 1, 1.0), Matrix::filled(2, 1, 3.0)]);
        let y = forward(&mut l, &x, false);
        assert_eq!(y.step(0).as_slice(), &[2.0, 2.0]);
        assert_eq!(y.step(1).as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn relu_zeroes_negative_preactivations() {
        let mut l = Dense::new_seeded(1, 1, Activation::Relu, 3);
        {
            let mut pg = l.params_and_grads_mut();
            *pg[0].0 = Matrix::from_vec(1, 1, vec![1.0]);
            *pg[1].0 = Matrix::zeros(1, 1);
        }
        let x = Seq::single(Matrix::from_rows(&[vec![-5.0], vec![5.0]]));
        let y = forward(&mut l, &x, false);
        assert_eq!(y.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn backward_accumulates_bias_gradient() {
        let mut l = Dense::new_seeded(2, 1, Activation::Linear, 5);
        let x = Seq::single(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let _ = forward(&mut l, &x, true);
        let g = Seq::single(Matrix::from_rows(&[vec![1.0], vec![1.0]]));
        let mut dx = Seq::default();
        l.backward(&g, Some(&mut dx));
        assert_eq!(dx.shape(), (1, 2, 2));
        // dL/db = sum over batch of upstream grads = 2.
        let pg = l.params_and_grads_mut();
        assert_eq!(pg[1].1[(0, 0)], 2.0);
    }

    #[test]
    fn zero_grads_resets() {
        let mut l = Dense::new_seeded(2, 1, Activation::Linear, 5);
        let x = Seq::single(Matrix::ones(1, 2));
        let _ = forward(&mut l, &x, true);
        l.backward(&Seq::single(Matrix::ones(1, 1)), None);
        l.zero_grads();
        let pg = l.params_and_grads_mut();
        assert_eq!(pg[0].1.sum(), 0.0);
        assert_eq!(pg[1].1.sum(), 0.0);
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Dense::new_seeded(3, 4, Activation::Tanh, 11);
        let b = Dense::new_seeded(3, 4, Activation::Tanh, 11);
        assert_eq!(a.params()[0], b.params()[0]);
    }
}

//! Fully connected (time-distributed) layer.
//!
//! A [`Seq`] already is the `(T*B) x I` operand, so the forward pass is a
//! single GEMM over all timesteps (rows are independent, so this is bitwise
//! identical to the per-step products), written straight into the
//! caller's output buffer — a span of the model's arena. The layer declares
//! no cache and no eval slots: the backward pass reads the input and the
//! activations back from the caller and works in the backward scratch the
//! model lends it (`backward_blocks`); the input gradient lands in a
//! caller-owned buffer too.

use crate::activation::Activation;
use crate::arena::{carve, Slots};
use crate::seq::{Seq, SeqRef, Shape};
use evfad_tensor::{kernels, Initializer, MatMut, MatRef, Matrix};
use rand::Rng;

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

    /// Output shape for an input of `(T, B, _)`: `T x B x O`.
    pub(crate) fn output_shape(&self, (steps, batch, _): Shape) -> Shape {
        (steps, batch, self.w.cols())
    }

    /// The blocks of the backward scratch: one step's `dpre`, its
    /// `x^T @ dpre` staging and its bias sums.
    fn backward_blocks(&self, batch: usize) -> [usize; 3] {
        let (i_dim, o_dim) = (self.w.rows(), self.w.cols());
        [batch * o_dim, i_dim * o_dim, o_dim]
    }

    /// What the layer declares at an input of `(_, B, _)`: backward
    /// scratch only.
    pub(crate) fn slots(&self, (_, batch, _): Shape) -> Slots {
        Slots {
            scratch: self.backward_blocks(batch).iter().sum(),
            ..Slots::default()
        }
    }

    /// Forward pass into `out` (reshaped to `T x B x O`, storage reused).
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        let (t, b, o) = self.output_shape(input.shape());
        out.reshape(t, b, o);
        self.forward_in(input.as_seq_ref(), training, out.as_mut_slice());
    }

    /// Forward pass into `out`, a buffer of the output shape. A training
    /// forward records the shape the backward pass checks its `input` and
    /// `output` against; neither mode keeps anything else.
    pub(crate) fn forward_in(&mut self, input: SeqRef<'_>, training: bool, out: &mut [f64]) {
        let (steps, batch) = (input.len(), input.batch_size());
        let o_dim = self.w.cols();
        let rows = steps * batch;
        let y = &mut out[..rows * o_dim];
        // One GEMM for all timesteps: each output row only depends on its
        // own input row, so this matches the per-step products bitwise.
        kernels::matmul_into(input.view(), self.w.view(), MatMut::new(rows, o_dim, y));
        kernels::add_row_broadcast_into(MatMut::new(rows, o_dim, y), self.b.view());
        let act = self.activation;
        for v in y.iter_mut() {
            *v = act.apply(*v);
        }
        (self.cached_steps, self.cached_batch) = if training { (steps, batch) } else { (0, 0) };
    }

    /// Backward pass: accumulates kernel/bias gradients and, when `dx` (a
    /// buffer of the input's shape) is given, writes the gradient with
    /// respect to the input sequence into it. `input` and `output` are the
    /// `input` and `out` of the last training forward, unchanged since.
    /// Passing `None` for `dx` skips that product (the first layer of a
    /// model discards it anyway); parameter gradients are identical either
    /// way. One step's `dpre`, `x^T dpre` and bias sums live in `scratch`;
    /// each is written before it is read.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass, or
    /// if `input`, `output` or `grad` is not of that pass's shape.
    pub(crate) fn backward(
        &mut self,
        input: SeqRef<'_>,
        output: SeqRef<'_>,
        grad: SeqRef<'_>,
        mut dx: Option<&mut [f64]>,
        scratch: &mut [f64],
    ) {
        let (steps, batch) = (self.cached_steps, self.cached_batch);
        assert!(steps > 0, "backward requires a training forward pass");
        let (i_dim, o_dim) = (self.w.rows(), self.w.cols());
        input.expect_shape((steps, batch, i_dim), "Dense input");
        output.expect_shape((steps, batch, o_dim), "Dense output");
        assert_eq!(grad.len(), steps, "gradient length mismatch");
        let (bi, bo) = (batch * i_dim, batch * o_dim);
        let (x_all, y_all) = (input.as_slice(), output.as_slice());

        let [dpre, tw, bsum] = carve(scratch, self.backward_blocks(batch));

        let act = self.activation;
        for t in 0..steps {
            let y_t = &y_all[t * bo..(t + 1) * bo];
            for ((d, &gv), &yv) in dpre.iter_mut().zip(grad.step(t).as_slice()).zip(y_t) {
                *d = gv * act.derivative_from_output(yv);
            }
            let dpre_ref = MatRef::new(batch, o_dim, dpre);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, &x_all[t * bi..(t + 1) * bi]),
                dpre_ref,
                MatMut::new(i_dim, o_dim, tw),
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
                    MatMut::new(batch, i_dim, &mut dx[t * bi..(t + 1) * bi]),
                );
            }
        }
    }

    /// Immutable access to `(kernel, bias)`.
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> [(&mut Matrix, &mut Matrix); 2] {
        [
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

    /// Forgets the pending training forward (a backward now needs a fresh
    /// one). Weights and their gradients stay.
    pub(crate) fn release_arenas(&mut self) {
        self.cached_steps = 0;
        self.cached_batch = 0;
    }

    /// The parameters without the gradients: what an eval forward reads,
    /// and nothing a trained layer merely carries.
    pub(crate) fn serving_copy(&self) -> Self {
        Self {
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: Matrix::default(),
            grad_b: Matrix::default(),
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

    /// The backward of a training forward of `x` that gave `y`, working in
    /// `scratch`; returns the input gradient.
    fn backward_in(l: &mut Dense, x: &Seq, y: &Seq, grad: &Seq, scratch: &mut [f64]) -> Seq {
        let mut dx = x.clone();
        l.backward(
            x.into(),
            y.into(),
            grad.into(),
            Some(dx.as_mut_slice()),
            scratch,
        );
        dx
    }

    /// [`backward_in`] a zeroed scratch of the declared length.
    fn backward(l: &mut Dense, x: &Seq, y: &Seq, grad: &Seq) -> Seq {
        let mut scratch = vec![0.0; l.slots(x.shape()).scratch];
        backward_in(l, x, y, grad, &mut scratch)
    }

    #[test]
    fn forward_known_values() {
        let mut l = Dense::new_seeded(2, 2, Activation::Linear, 1);
        {
            let pg = l.params_and_grads_mut();
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
            let pg = l.params_and_grads_mut();
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
            let pg = l.params_and_grads_mut();
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
        let y = forward(&mut l, &x, true);
        let g = Seq::single(Matrix::from_rows(&[vec![1.0], vec![1.0]]));
        let dx = backward(&mut l, &x, &y, &g);
        assert_eq!(dx.shape(), (1, 2, 2));
        // dL/db = sum over batch of upstream grads = 2.
        let pg = l.params_and_grads_mut();
        assert_eq!(pg[1].1[(0, 0)], 2.0);
    }

    #[test]
    fn backward_works_in_the_lent_scratch() {
        let (b, i, o) = (4, 3, 2);
        let mut l = Dense::new_seeded(i, o, Activation::Tanh, 5);
        let x = Seq::from_steps(vec![Matrix::from_fn(b, i, |r, c| (r + c) as f64 * 0.1); 2]);
        // Input and activations are the caller's; the layer declares one
        // step's dpre, x^T dpre and bias sums of scratch and nothing else.
        assert_eq!(l.backward_blocks(b), [b * o, i * o, o]);
        let slots = l.slots(x.shape());
        assert_eq!(
            (slots.cache, slots.scratch, slots.eval),
            (0, b * o + i * o + o, 0)
        );
        // A scratch of exactly that length, poisoned: every value is
        // written before it is read.
        let y = forward(&mut l, &x, true);
        let mut poisoned = vec![f64::NAN; slots.scratch];
        let dx = backward_in(&mut l, &x, &y, &y, &mut poisoned);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.is_finite() && l.params_and_grads_mut()[0].1.is_finite());
    }

    #[test]
    fn zero_grads_resets() {
        let mut l = Dense::new_seeded(2, 1, Activation::Linear, 5);
        let x = Seq::single(Matrix::ones(1, 2));
        let y = forward(&mut l, &x, true);
        let g = Seq::single(Matrix::ones(1, 1));
        backward(&mut l, &x, &y, &g);
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

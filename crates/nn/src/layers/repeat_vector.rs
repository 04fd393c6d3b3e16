//! Keras-style `RepeatVector` layer.

use crate::seq::{Seq, SeqRef, Shape};

/// Repeats a single-step batch `n` times along the time axis.
///
/// This is the bottleneck-to-decoder bridge of the paper's LSTM autoencoder:
/// the encoder's final hidden state is repeated `SEQUENCE_LENGTH` times so
/// the decoder LSTM can unroll over it.
///
/// # Examples
///
/// ```
/// use evfad_nn::{RepeatVector, Seq};
/// use evfad_tensor::Matrix;
///
/// let mut r = RepeatVector::new(3);
/// let x = Seq::single(Matrix::ones(2, 4));
/// let mut y = Seq::default();
/// r.forward(&x, false, &mut y);
/// assert_eq!(y.shape(), (3, 2, 4));
/// assert_eq!(y.step(2).as_slice(), x.step(0).as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct RepeatVector {
    n: usize,
}

impl RepeatVector {
    /// Creates a layer repeating its input `n` times.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "RepeatVector needs n >= 1");
        Self { n }
    }

    /// Number of repetitions.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Output shape for an input of `(_, B, F)`: `n x B x F`.
    pub(crate) fn output_shape(&self, (_, batch, features): Shape) -> Shape {
        (self.n, batch, features)
    }

    /// Forward pass into `out` (reshaped to `n x B x F`): `n` copies of the
    /// input step.
    ///
    /// # Panics
    ///
    /// Panics if the input has more than one timestep.
    pub fn forward(&mut self, input: &Seq, _training: bool, out: &mut Seq) {
        let (t, b, f) = self.output_shape(input.shape());
        out.reshape(t, b, f);
        self.forward_in(input.as_seq_ref(), out.as_mut_slice());
    }

    /// Forward pass into `out`, a buffer of the output shape.
    ///
    /// # Panics
    ///
    /// Panics if the input has more than one timestep.
    pub(crate) fn forward_in(&self, input: SeqRef<'_>, out: &mut [f64]) {
        assert_eq!(
            input.len(),
            1,
            "RepeatVector expects a single-step input (got {} steps)",
            input.len()
        );
        let step = input.element_count();
        for copy in out[..self.n * step].chunks_exact_mut(step) {
            copy.copy_from_slice(input.as_slice());
        }
    }

    /// Backward pass: sums the per-step gradients back into one step of
    /// `dx` (when given; a buffer of one step), starting from `+0.0` and
    /// adding in time order.
    pub(crate) fn backward(&mut self, grad: SeqRef<'_>, dx: Option<&mut [f64]>) {
        let Some(dx) = dx else { return };
        let dx = &mut dx[..grad.batch_size() * grad.features()];
        dx.fill(0.0);
        for g in grad.iter() {
            for (acc, &v) in dx.iter_mut().zip(g.as_slice()) {
                *acc += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_tensor::Matrix;

    #[test]
    fn repeats_content() {
        let mut r = RepeatVector::new(4);
        let x = Seq::single(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let mut y = Seq::default();
        r.forward(&x, true, &mut y);
        assert_eq!(y.shape(), (4, 1, 2));
        for t in 0..4 {
            assert_eq!(y.step(t).as_slice(), x.as_slice());
        }
    }

    #[test]
    fn backward_sums() {
        let mut r = RepeatVector::new(3);
        let g = Seq::from_steps(vec![
            Matrix::from_rows(&[vec![1.0, 2.0]]),
            Matrix::from_rows(&[vec![3.0, 4.0]]),
            Matrix::from_rows(&[vec![5.0, -0.0]]),
        ]);
        // A reused, longer buffer: the sum must not see what it holds.
        let mut dx = vec![9.0; 16];
        r.backward(g.as_seq_ref(), Some(&mut dx));
        assert_eq!(dx[..2], [9.0, 6.0]);
    }

    #[test]
    fn backward_starts_from_positive_zero() {
        // +0.0 + -0.0 is +0.0: the sum's start, not the first step's sign.
        let mut r = RepeatVector::new(2);
        let g = Seq::from_steps(vec![Matrix::filled(1, 1, -0.0); 2]);
        let mut dx = Seq::single(Matrix::filled(1, 1, 9.0));
        r.backward(g.as_seq_ref(), Some(dx.as_mut_slice()));
        assert_eq!(dx.as_slice()[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "single-step")]
    fn multi_step_input_panics() {
        let mut r = RepeatVector::new(2);
        let x = Seq::from_steps(vec![Matrix::zeros(1, 1), Matrix::zeros(1, 1)]);
        r.forward(&x, false, &mut Seq::default());
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn zero_n_panics() {
        let _ = RepeatVector::new(0);
    }
}

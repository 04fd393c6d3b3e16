//! Keras-style `RepeatVector` layer.

use crate::seq::Seq;

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

    /// Forward pass into `out`: `n` copies of the input step.
    ///
    /// # Panics
    ///
    /// Panics if the input has more than one timestep.
    pub fn forward(&mut self, input: &Seq, _training: bool, out: &mut Seq) {
        assert_eq!(
            input.len(),
            1,
            "RepeatVector expects a single-step input (got {} steps)",
            input.len()
        );
        out.reshape(self.n, input.batch_size(), input.features());
        for t in 0..self.n {
            out.step_data_mut(t).copy_from_slice(input.as_slice());
        }
    }

    /// Backward pass: sums the per-step gradients back into one step of
    /// `dx` (when given), starting from `+0.0` and adding in time order.
    pub(crate) fn backward(&mut self, grad: &Seq, dx: Option<&mut Seq>) {
        let Some(dx) = dx else { return };
        dx.reshape(1, grad.batch_size(), grad.features());
        dx.as_mut_slice().fill(0.0);
        for g in grad.iter() {
            for (acc, &v) in dx.as_mut_slice().iter_mut().zip(g.as_slice()) {
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
        // A reused, differently shaped buffer: the sum must not see it.
        let mut dx = Seq::single(Matrix::filled(4, 4, 9.0));
        r.backward(&g, Some(&mut dx));
        assert_eq!(dx, Seq::single(Matrix::from_rows(&[vec![9.0, 6.0]])));
    }

    #[test]
    fn backward_starts_from_positive_zero() {
        // +0.0 + -0.0 is +0.0: the sum's start, not the first step's sign.
        let mut r = RepeatVector::new(2);
        let g = Seq::from_steps(vec![Matrix::filled(1, 1, -0.0); 2]);
        let mut dx = Seq::default();
        r.backward(&g, Some(&mut dx));
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

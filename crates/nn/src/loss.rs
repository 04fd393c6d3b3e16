//! Loss functions.

use crate::seq::{Seq, SeqRef};

/// Training loss evaluated over an entire output sequence batch.
///
/// The value is the mean over all `time x batch x feature` elements, so a
/// one-step forecaster and a 24-step autoencoder use the same code path
/// (matching Keras's `mse` on 3-D tensors).
///
/// # Examples
///
/// ```
/// use evfad_nn::{Loss, Seq};
/// use evfad_tensor::Matrix;
///
/// let pred = Seq::single(Matrix::from_rows(&[vec![1.0], vec![3.0]]));
/// let target = Seq::single(Matrix::from_rows(&[vec![0.0], vec![1.0]]));
/// let mut grad = Seq::default();
/// let value = Loss::Mse.evaluate(&pred, &target, &mut grad);
/// assert!((value - 2.5).abs() < 1e-12); // (1 + 4) / 2
/// assert_eq!(grad.as_slice(), &[1.0, 2.0]); // 2 (p - t) / n
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// Mean squared error.
    #[default]
    Mse,
}

impl Loss {
    /// Returns the loss value and writes its gradient with respect to the
    /// predictions into `grad` (reshaped to match, storage reused).
    ///
    /// The value is a two-level sum — per-step partial sums, then across
    /// steps — where [`Loss::value`] keeps one running sum; the two agree
    /// to rounding, not bitwise, and training reads only this one.
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` differ in any of time, batch or
    /// feature width.
    pub fn evaluate(self, pred: &Seq, target: &Seq, grad: &mut Seq) -> f64 {
        let (time, batch, features) = pred.shape();
        grad.reshape(time, batch, features);
        self.gradient(pred.as_seq_ref(), target.as_seq_ref(), grad.as_mut_slice())
    }

    /// [`Loss::evaluate`] into `grad`, a buffer of the predictions' length.
    pub(crate) fn gradient(self, pred: SeqRef<'_>, target: SeqRef<'_>, grad: &mut [f64]) -> f64 {
        assert_eq!(pred.shape(), target.shape(), "loss shape mismatch");
        let n = pred.element_count() as f64;
        let grad = &mut grad[..pred.element_count()];
        for ((d, p), t) in grad.iter_mut().zip(pred.as_slice()).zip(target.as_slice()) {
            *d = p - t;
        }
        let step = pred.batch_size() * pred.features();
        let value = (0..pred.len())
            .map(|t| {
                grad[t * step..(t + 1) * step]
                    .iter()
                    .map(|d| d * d)
                    .sum::<f64>()
            })
            .sum::<f64>()
            / n;
        grad.iter_mut().for_each(|d| *d = 2.0 * *d / n);
        value
    }

    /// Loss value only: one running sum over every element, no gradient.
    /// Takes a [`Seq`] or a [`SeqRef`].
    ///
    /// # Panics
    ///
    /// As [`Loss::evaluate`].
    pub fn value<'a>(self, pred: impl Into<SeqRef<'a>>, target: impl Into<SeqRef<'a>>) -> f64 {
        let (pred, target) = (pred.into(), target.into());
        assert_eq!(pred.shape(), target.shape(), "loss shape mismatch");
        let n = pred.element_count() as f64;
        let mut acc = 0.0;
        for (pv, tv) in pred.as_slice().iter().zip(target.as_slice()) {
            let d = pv - tv;
            acc += d * d;
        }
        acc / n
    }

    /// Stable identifier (`"mse"`).
    pub fn name(self) -> &'static str {
        "mse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_tensor::Matrix;

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let p = Seq::single(Matrix::ones(2, 2));
        let mut g = Seq::default();
        assert_eq!(Loss::Mse.evaluate(&p, &p.clone(), &mut g), 0.0);
        assert_eq!(g, Seq::single(Matrix::zeros(2, 2)));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let p = Seq::single(Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.0, 1.0], vec![-1.0, 2.0]]));
        // A reused gradient buffer of another shape is reshaped, not read.
        let mut g = Seq::single(Matrix::filled(3, 1, 7.0));
        Loss::Mse.evaluate(&p, &t, &mut g);
        assert_eq!(g.shape(), p.shape());
        let eps = 1e-6;
        for i in 0..4 {
            let (mut plus, mut minus) = (p.clone(), p.clone());
            plus.as_mut_slice()[i] += eps;
            minus.as_mut_slice()[i] -= eps;
            let num = (Loss::Mse.value(&plus, &t) - Loss::Mse.value(&minus, &t)) / (2.0 * eps);
            assert!((num - g.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn multi_step_mean_over_all_elements() {
        let p = Seq::from_steps(vec![Matrix::filled(1, 1, 2.0), Matrix::filled(1, 1, 4.0)]);
        let t = Seq::from_steps(vec![Matrix::zeros(1, 1), Matrix::zeros(1, 1)]);
        // (4 + 16) / 2
        assert!((Loss::Mse.value(&p, &t) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn value_agrees_with_evaluate() {
        let p = Seq::single(Matrix::from_rows(&[vec![0.3, 0.7], vec![1.1, -0.2]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.1, 0.2], vec![0.9, 0.1]]));
        let v = Loss::Mse.evaluate(&p, &t, &mut Seq::default());
        assert!((v - Loss::Mse.value(&p, &t)).abs() < 1e-12);
    }

    /// Checking the step count alone would zip the flat buffers, truncate
    /// the wider target and return 5.
    #[test]
    #[should_panic(expected = "loss shape mismatch")]
    fn value_rejects_a_wider_target() {
        let p = Seq::single(Matrix::from_rows(&[vec![1.0], vec![3.0]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.0, 9.0], vec![1.0, 9.0]]));
        let _ = Loss::Mse.value(&p, &t);
    }

    /// Same element count, different batch x feature split: on flat
    /// buffers only the shape check stands between this and a wrong loss.
    #[test]
    #[should_panic(expected = "loss shape mismatch")]
    fn evaluate_rejects_a_shape_mismatch_of_equal_length() {
        let p = Seq::single(Matrix::from_rows(&[vec![1.0], vec![3.0]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.0, 1.0]]));
        let _ = Loss::Mse.evaluate(&p, &t, &mut Seq::default());
    }

    #[test]
    fn names() {
        assert_eq!(Loss::Mse.name(), "mse");
        assert_eq!(Loss::default(), Loss::Mse);
    }
}

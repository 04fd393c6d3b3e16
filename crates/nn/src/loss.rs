//! Loss functions.

use crate::seq::SeqRef;

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
/// let value = Loss::Mse.value(&pred, &target);
/// assert!((value - 2.5).abs() < 1e-12); // (1 + 4) / 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// Mean squared error.
    #[default]
    Mse,
}

impl Loss {
    /// Returns the loss value and writes its gradient with respect to the
    /// predictions into the first `pred.element_count()` values of `grad`.
    ///
    /// The value is a two-level sum — per-step partial sums, then across
    /// steps — where [`Loss::value`] keeps one running sum; the two agree
    /// to rounding, not bitwise, and training reads only this one.
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` differ in any of time, batch or
    /// feature width.
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
    /// Takes a [`Seq`](crate::Seq) or a [`SeqRef`].
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` differ in any of time, batch or
    /// feature width.
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
    use crate::seq::Seq;
    use evfad_tensor::Matrix;

    /// `Loss::gradient` over `Seq`s, into a fresh buffer of `len` NaNs.
    fn gradient(pred: &Seq, target: &Seq, len: usize) -> (f64, Vec<f64>) {
        let mut grad = vec![f64::NAN; len];
        let value = Loss::Mse.gradient(pred.as_seq_ref(), target.as_seq_ref(), &mut grad);
        (value, grad)
    }

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let p = Seq::single(Matrix::ones(2, 2));
        assert_eq!(gradient(&p, &p, 4), (0.0, vec![0.0; 4]));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let p = Seq::single(Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.0, 1.0], vec![-1.0, 2.0]]));
        // A longer buffer is written in its first four values only.
        let (_, g) = gradient(&p, &t, 5);
        assert!(g[4].is_nan());
        let eps = 1e-6;
        for (i, gi) in g[..4].iter().enumerate() {
            let (mut plus, mut minus) = (p.clone(), p.clone());
            plus.as_mut_slice()[i] += eps;
            minus.as_mut_slice()[i] -= eps;
            let num = (Loss::Mse.value(&plus, &t) - Loss::Mse.value(&minus, &t)) / (2.0 * eps);
            assert!((num - gi).abs() < 1e-6);
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
    fn value_agrees_with_gradient() {
        let p = Seq::single(Matrix::from_rows(&[vec![0.3, 0.7], vec![1.1, -0.2]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.1, 0.2], vec![0.9, 0.1]]));
        let (v, _) = gradient(&p, &t, 4);
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
    fn gradient_rejects_a_shape_mismatch_of_equal_length() {
        let p = Seq::single(Matrix::from_rows(&[vec![1.0], vec![3.0]]));
        let t = Seq::single(Matrix::from_rows(&[vec![0.0, 1.0]]));
        let _ = gradient(&p, &t, 2);
    }

    #[test]
    fn names() {
        assert_eq!(Loss::Mse.name(), "mse");
        assert_eq!(Loss::default(), Loss::Mse);
    }
}

//! Inverted-dropout regularisation layer.
//!
//! The mask of the last training forward is one flat buffer, a keep flag
//! per element in the [`Seq`]'s own order, reused from step to step and
//! kept in the layer, not in its model's arena; forward and backward are
//! one multiply pass each over caller-owned buffers, by the same two
//! factors (`0` and `1 / (1 - rate)`).
//!
//! Its backward reads neither its input nor its output, so in a model's
//! training step it multiplies its input's span in place and has no output
//! span of its own (see `arena`): nothing reads the values it overwrites.
//! The layer before it must not read its own output back either, so a
//! dropout after a `Dense`, or first in the model, still writes a span of
//! its own, by the same multiply over a copy.

use crate::seq::{Seq, SeqRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: during training each element is zeroed with
/// probability `rate` and the survivors are scaled by `1 / (1 - rate)`, so
/// inference needs no rescaling (Keras semantics — the paper uses
/// `Dropout(0.2)` in its autoencoder).
///
/// # Examples
///
/// ```
/// use evfad_nn::{Dropout, Seq};
/// use evfad_tensor::Matrix;
///
/// let mut d = Dropout::new(0.5);
/// d.reseed(1);
/// let x = Seq::single(Matrix::ones(1, 100));
/// let mut y = Seq::default();
/// // Inference: identity.
/// d.forward(&x, false, &mut y);
/// assert_eq!(y, x);
/// // Training: some elements dropped, survivors scaled to 2.0.
/// d.forward(&x, true, &mut y);
/// assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f64,
    seed: u64,
    eval_only: bool,
    rng_state: Option<StdRng>,
    /// The last training forward's mask, one keep flag per element in the
    /// sequence's flat order; empty after an identity forward.
    mask: Vec<bool>,
}

impl Dropout {
    /// Creates a dropout layer with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Self {
            rate,
            seed: 0,
            eval_only: false,
            rng_state: None,
            mask: Vec::new(),
        }
    }

    /// Pins the layer to inference behaviour (identity) even when the
    /// surrounding forward pass runs in training mode, so finite-difference
    /// gradient checks see one function (builder style).
    #[cfg(test)]
    pub(crate) fn eval_mode(mut self, enabled: bool) -> Self {
        self.eval_only = enabled;
        self
    }

    /// Re-seeds the mask RNG (used by [`Sequential::with`](crate::Sequential::with)).
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.rng_state = None;
    }

    /// Drops the cached mask; the mask RNG keeps its place in the stream,
    /// so the next training forward draws what it would have drawn.
    pub(crate) fn release_arenas(&mut self) {
        self.mask = Vec::new();
    }

    /// Forward pass into `out` (reshaped to the input's shape). Identity at
    /// inference; samples a fresh mask per call in training mode, drawing
    /// element by element in the sequence's flat order (step-major, then
    /// row-major).
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        let (t, b, f) = input.shape();
        out.reshape(t, b, f);
        self.forward_in(input.as_seq_ref(), training, out.as_mut_slice());
    }

    /// Forward pass into `out`, a buffer of the input's shape: a copy of
    /// the input, then [`Dropout::forward_in_place`] over it.
    pub(crate) fn forward_in(&mut self, input: SeqRef<'_>, training: bool, out: &mut [f64]) {
        let out = &mut out[..input.element_count()];
        out.copy_from_slice(input.as_slice());
        self.forward_in_place(training, out);
    }

    /// Forward pass over `values` in place: the input before the call, the
    /// output after it.
    pub(crate) fn forward_in_place(&mut self, training: bool, values: &mut [f64]) {
        // Drop the mask of an earlier training pass first: a backward call
        // after an identity forward must also be the identity, not a replay
        // of a stale mask (or a shape panic).
        self.mask.clear();
        if !training || self.eval_only || self.rate == 0.0 {
            return;
        }
        let rate = self.rate;
        let keep_scale = 1.0 / (1.0 - rate);
        let rng = self
            .rng_state
            .get_or_insert_with(|| StdRng::seed_from_u64(self.seed));
        self.mask.reserve(values.len());
        for x in values {
            let keep = rng.gen::<f64>() >= rate;
            *x *= if keep { keep_scale } else { 0.0 };
            self.mask.push(keep);
        }
    }

    /// Backward pass: writes the upstream gradient times the cached mask
    /// into `dx` (when given; a buffer of the gradient's shape). After an
    /// inference (or rate-0) forward pass there is no mask and the gradient
    /// passes through unchanged — matching the identity forward.
    ///
    /// # Panics
    ///
    /// Panics if the cached mask disagrees with the gradient's size
    /// (forward and backward saw different sequences).
    pub(crate) fn backward(&mut self, grad: SeqRef<'_>, dx: Option<&mut [f64]>) {
        let Some(dx) = dx else { return };
        let dx = &mut dx[..grad.element_count()];
        dx.copy_from_slice(grad.as_slice());
        if self.mask.is_empty() {
            return;
        }
        assert_eq!(
            grad.element_count(),
            self.mask.len(),
            "dropout mask/grad mismatch"
        );
        let keep_scale = 1.0 / (1.0 - self.rate);
        for (g, &keep) in dx.iter_mut().zip(&self.mask) {
            *g *= if keep { keep_scale } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_tensor::Matrix;

    fn forward(d: &mut Dropout, x: &Seq, training: bool) -> Seq {
        let mut y = Seq::default();
        d.forward(x, training, &mut y);
        y
    }

    fn seeded(rate: f64, seed: u64) -> Dropout {
        let mut d = Dropout::new(rate);
        d.reseed(seed);
        d
    }

    fn backward(d: &mut Dropout, grad: &Seq) -> Seq {
        let mut dx = grad.clone();
        d.backward(grad.as_seq_ref(), Some(dx.as_mut_slice()));
        dx
    }

    #[test]
    fn inference_is_identity() {
        let mut d = seeded(0.9, 3);
        let x = Seq::single(Matrix::ones(3, 3));
        assert_eq!(forward(&mut d, &x, false), x);
    }

    #[test]
    fn zero_rate_is_identity_even_training() {
        let mut d = Dropout::new(0.0);
        let x = Seq::single(Matrix::ones(3, 3));
        assert_eq!(forward(&mut d, &x, true), x);
    }

    #[test]
    fn expected_value_preserved() {
        let mut d = seeded(0.2, 7);
        let x = Seq::single(Matrix::ones(50, 50));
        let y = forward(&mut d, &x, true);
        // E[y] = 1; with 2500 samples the mean should be close.
        let mean = y.as_slice().iter().sum::<f64>() / 2500.0;
        assert!((mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = seeded(0.5, 9);
        let x = Seq::from_steps(vec![Matrix::ones(4, 4); 3]);
        let y = forward(&mut d, &x, true);
        let g = backward(&mut d, &x);
        // Gradient is zero exactly where the output was zero.
        assert_eq!(g.shape(), (3, 4, 4));
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn masks_differ_across_calls() {
        let mut d = seeded(0.5, 11);
        let x = Seq::single(Matrix::ones(10, 10));
        let y1 = forward(&mut d, &x, true);
        let y2 = forward(&mut d, &x, true);
        assert_ne!(y1, y2, "fresh masks expected per training step");
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn invalid_rate_panics() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn backward_after_inference_forward_is_identity() {
        let mut d = seeded(0.5, 3);
        let x = Seq::single(Matrix::ones(4, 4));
        let _ = forward(&mut d, &x, false);
        let g = Seq::single(Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64));
        assert_eq!(backward(&mut d, &g), g);
    }

    #[test]
    fn backward_after_zero_rate_forward_is_identity() {
        let mut d = Dropout::new(0.0);
        let x = Seq::single(Matrix::ones(2, 3));
        let _ = forward(&mut d, &x, true);
        let g = Seq::single(Matrix::ones(2, 3));
        assert_eq!(backward(&mut d, &g), g);
    }

    #[test]
    fn inference_forward_clears_stale_training_masks() {
        let mut d = seeded(0.5, 5);
        let train_x = Seq::single(Matrix::ones(3, 3));
        let _ = forward(&mut d, &train_x, true);
        // Switch to eval on a *different* shape: the stale 3×3 mask must
        // not be replayed onto (or panic against) the new gradient.
        let eval_x = Seq::single(Matrix::ones(2, 5));
        let _ = forward(&mut d, &eval_x, false);
        let g = Seq::single(Matrix::ones(2, 5));
        assert_eq!(backward(&mut d, &g), g);
    }
}

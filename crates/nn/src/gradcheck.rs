//! Finite-difference gradient checking: the test oracle for every layer's
//! backward pass, single and composed.

use crate::loss::Loss;
use crate::model::{Sample, Sequential};
use crate::seq::Seq;
use evfad_tensor::Matrix;

/// Outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest relative error across all checked coordinates.
    pub max_rel_error: f64,
    /// Number of scalar parameters compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// `true` when the analytic gradients match finite differences within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_error < tol
    }
}

/// Compares the model's analytic parameter gradients against central finite
/// differences of the loss on a single batch.
///
/// `stride` subsamples the parameters (check every `stride`-th coordinate)
/// to keep the O(params) re-evaluations affordable on larger stacks.
///
/// # Panics
///
/// Panics if `samples` is empty or `stride == 0`.
pub fn check_model_gradients(
    model: &mut Sequential,
    samples: &[Sample],
    loss: Loss,
    epsilon: f64,
    stride: usize,
) -> GradCheckReport {
    assert!(!samples.is_empty(), "gradient check needs samples");
    assert!(stride > 0, "stride must be >= 1");
    let inputs: Vec<Matrix> = samples.iter().map(|s| s.input.clone()).collect();
    let targets: Vec<Matrix> = samples.iter().map(|s| s.target.clone()).collect();
    let input_seq = Seq::from_samples(&inputs);
    let target_seq = Seq::from_samples(&targets);

    // Analytic gradients.
    model.zero_grads();
    let mut grad = Seq::default();
    loss.evaluate(model.forward(&input_seq, true), &target_seq, &mut grad);
    model.backward(&grad);
    let analytic = snapshot_grads(model);
    model.zero_grads();

    // Finite differences on the weight vector.
    let base_weights = model.weights();
    let mut max_rel_error: f64 = 0.0;
    let mut checked = 0usize;
    for (tensor_idx, tensor) in base_weights.iter().enumerate() {
        for flat in (0..tensor.len()).step_by(stride) {
            let mut plus = base_weights.clone();
            plus[tensor_idx].as_mut_slice()[flat] += epsilon;
            model.set_weights(&plus).expect("same shapes");
            let lp = loss.value(model.forward(&input_seq, false), &target_seq);

            let mut minus = base_weights.clone();
            minus[tensor_idx].as_mut_slice()[flat] -= epsilon;
            model.set_weights(&minus).expect("same shapes");
            let lm = loss.value(model.forward(&input_seq, false), &target_seq);

            let numeric = (lp - lm) / (2.0 * epsilon);
            let exact = analytic[tensor_idx].as_slice()[flat];
            let denom = numeric.abs().max(exact.abs()).max(1e-8);
            max_rel_error = max_rel_error.max((numeric - exact).abs() / denom);
            checked += 1;
        }
    }
    model.set_weights(&base_weights).expect("same shapes");
    GradCheckReport {
        max_rel_error,
        checked,
    }
}

fn snapshot_grads(model: &mut Sequential) -> Vec<Matrix> {
    // `weights()` order matches params_and_grads order by construction.
    let mut grads = Vec::new();
    for layer in model.layers_mut() {
        for (_, g) in layer.params_and_grads_mut() {
            grads.push(g.clone());
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::{Dense, Lstm, RepeatVector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_samples(n: usize, time: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let xs: Vec<f64> = (0..time).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y = rng.gen_range(-1.0..1.0);
                Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
            })
            .collect()
    }

    #[test]
    fn dense_gradients_match() {
        let mut model = Sequential::new(1)
            .with(Dense::new(1, 3, Activation::Tanh))
            .with(Dense::new(3, 1, Activation::Linear));
        let samples: Vec<Sample> = random_samples(4, 1, 2);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn lstm_gradients_match() {
        let mut model = Sequential::new(3)
            .with(Lstm::new(1, 4, false))
            .with(Dense::new(4, 1, Activation::Linear));
        let samples = random_samples(3, 5, 4);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn stacked_lstm_return_sequences_gradients_match() {
        let mut model = Sequential::new(5)
            .with(Lstm::new(1, 3, true))
            .with(Lstm::new(3, 2, false))
            .with(Dense::new(2, 1, Activation::Linear));
        let samples = random_samples(2, 4, 6);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn autoencoder_stack_gradients_match() {
        // Miniature version of the paper's autoencoder (no dropout: masks
        // resample between the analytic and numeric passes).
        let seq_len = 3;
        let mut model = Sequential::new(7)
            .with(Lstm::new(1, 4, true))
            .with(Lstm::new(4, 2, false))
            .with(RepeatVector::new(seq_len))
            .with(Lstm::new(2, 2, true))
            .with(Lstm::new(2, 4, true))
            .with(Dense::new(4, 1, Activation::Linear));
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<Sample> = (0..2)
            .map(|_| {
                let xs: Vec<f64> = (0..seq_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Sample::autoencoding(Matrix::column_vector(&xs))
            })
            .collect();
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 3);
        // Deep recurrent stacks accumulate more finite-difference noise.
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn gru_gradients_match() {
        let mut model = Sequential::new(13)
            .with(crate::layers::Gru::new(1, 4, false))
            .with(Dense::new(4, 1, Activation::Linear));
        let samples = random_samples(3, 5, 14);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn stacked_gru_return_sequences_gradients_match() {
        let mut model = Sequential::new(15)
            .with(crate::layers::Gru::new(1, 3, true))
            .with(crate::layers::Gru::new(3, 2, false))
            .with(Dense::new(2, 1, Activation::Linear));
        let samples = random_samples(2, 4, 16);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn mae_gradients_match_away_from_kinks() {
        let mut model = Sequential::new(9)
            .with(Lstm::new(1, 3, false))
            .with(Dense::new(3, 1, Activation::Linear));
        let samples = random_samples(3, 4, 10);
        let report = check_model_gradients(&mut model, &samples, Loss::Mae, 1e-5, 2);
        // MAE has kinks at zero residual; random targets keep us away with
        // high probability, but use a slightly looser tolerance.
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn dropout_in_eval_mode_passes_gradients_through() {
        // A dropout layer pinned to eval behaviour must be gradient-exact
        // inside a recurrent stack: identity forward, pass-through backward.
        let mut model = Sequential::new(17)
            .with(Lstm::new(1, 3, false))
            .with(crate::layers::Dropout::new(0.4).eval_mode(true))
            .with(Dense::new(3, 1, Activation::Linear));
        let samples = random_samples(3, 4, 18);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn zero_rate_dropout_is_gradient_exact_in_training() {
        // rate = 0 takes the same identity path as eval mode, inside a
        // full training-mode forward/backward.
        let mut model = Sequential::new(19)
            .with(Dense::new(1, 4, Activation::Tanh))
            .with(crate::layers::Dropout::new(0.0))
            .with(Dense::new(4, 1, Activation::Linear));
        let samples = random_samples(4, 1, 20);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-4), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn gru_autoencoder_with_eval_dropout_gradients_match() {
        // GRU counterpart of the paper's dropout-regularised autoencoder:
        // encoder → bottleneck → decoder, with the Dropout(0.2) layer
        // pinned to eval so finite differences see the same function.
        let seq_len = 3;
        let mut model = Sequential::new(21)
            .with(crate::layers::Gru::new(1, 4, true))
            .with(crate::layers::Dropout::new(0.2).eval_mode(true))
            .with(crate::layers::Gru::new(4, 2, false))
            .with(RepeatVector::new(seq_len))
            .with(crate::layers::Gru::new(2, 4, true))
            .with(Dense::new(4, 1, Activation::Linear));
        let mut rng = StdRng::seed_from_u64(22);
        let samples: Vec<Sample> = (0..2)
            .map(|_| {
                let xs: Vec<f64> = (0..seq_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Sample::autoencoding(Matrix::column_vector(&xs))
            })
            .collect();
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 3);
        // Deep recurrent stacks accumulate more finite-difference noise.
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn relu_head_gradients_match() {
        let mut model = Sequential::new(11)
            .with(Lstm::new(1, 3, false))
            .with(Dense::new(3, 5, Activation::Relu))
            .with(Dense::new(5, 1, Activation::Linear));
        let samples = random_samples(4, 3, 12);
        let report = check_model_gradients(&mut model, &samples, Loss::Mse, 1e-5, 1);
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
    }
}

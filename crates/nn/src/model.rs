//! Layer container and training loop.
//!
//! A [`Sequential`] owns one activation arena — a reusable [`Seq`] per layer
//! — two ping-pong gradient buffers and one backward scratch that each
//! layer's backward borrows in turn. `train_batch`, `evaluate`, `predict`,
//! `predict_into` and `predict_seq_into` all run through them: each layer
//! reshapes its slot in place, so a warm call allocates nothing whatever
//! the batch size, and alternating a full inference chunk with a ragged
//! tail (or a train batch with a validation pass) costs nothing. Inference
//! is chunked only to bound the arena on a long series.

use crate::batch::BatchPlan;
use crate::error::{NnError, NnResult};
use crate::layer::Layer;
use crate::layers::{Dense, Dropout, Lstm};
use crate::loss::Loss;
use crate::optimizer::Adam;
use crate::seq::Seq;
use crate::workspace::Workspace;
use evfad_tensor::{kernels, MatMut, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One training example: an input sequence and its target.
///
/// `input` is `time x features`; `target` is `target_time x target_features`
/// (one row for a single-step forecast, `time` rows for an autoencoder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Input sequence, `time x features`.
    pub input: Matrix,
    /// Training target.
    pub target: Matrix,
}

impl Sample {
    /// Creates a sample from an input sequence and target.
    pub fn new(input: Matrix, target: Matrix) -> Self {
        Self { input, target }
    }

    /// Creates an autoencoder sample whose target is the input itself.
    pub fn autoencoding(input: Matrix) -> Self {
        let target = input.clone();
        Self { input, target }
    }
}

/// Hyper-parameters for [`Sequential::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Whether to shuffle sample order each epoch.
    pub shuffle: bool,
    /// Fraction (0..1) of the *end* of the dataset held out for validation.
    pub validation_split: f64,
    /// Early-stopping patience in epochs; `None` disables early stopping.
    /// The paper uses `patience = 10` for autoencoder training.
    pub patience: Option<usize>,
    /// Minimum improvement that resets patience.
    pub min_delta: f64,
    /// Global-norm gradient clipping; `None` disables clipping.
    pub clip_norm: Option<f64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            shuffle: true,
            validation_split: 0.0,
            patience: None,
            min_delta: 1e-6,
            clip_norm: Some(5.0),
        }
    }
}

/// Per-epoch statistics recorded during [`Sequential::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation loss, when a validation split was configured.
    pub val_loss: Option<f64>,
}

/// The result of a [`Sequential::fit`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainHistory {
    /// Statistics per completed epoch.
    pub epochs: Vec<EpochStats>,
    /// Whether early stopping fired before `cfg.epochs` epochs.
    pub stopped_early: bool,
    /// Epoch with the best monitored loss.
    pub best_epoch: usize,
}

impl TrainHistory {
    /// Final training loss, if any epoch ran.
    pub fn final_train_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.train_loss)
    }
}

/// A Keras-style sequential stack of [`Layer`]s.
///
/// The model owns its [`Adam`] optimiser (learning rate by default the
/// paper's `LEARNING_RATE = 0.001`) and a master seed that deterministically
/// initialises every layer added through [`Sequential::with`].
///
/// # Examples
///
/// Build the paper's forecaster — `LSTM(50) -> Dense(10, relu) -> Dense(1)`:
///
/// ```
/// use evfad_nn::{Activation, Dense, Lstm, Sequential};
///
/// let model = Sequential::new(0)
///     .with(Lstm::new(1, 50, false))
///     .with(Dense::new(50, 10, Activation::Relu))
///     .with(Dense::new(10, 1, Activation::Linear));
/// assert_eq!(model.layers().len(), 3);
/// assert!(model.scalar_param_count() > 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Layer>,
    optimizer: Adam,
    seed: u64,
    layers_added: u64,
    /// The activation arena: layer `i` writes its output into `acts[i]`.
    acts: Vec<Seq>,
    /// Ping-pong input-gradient buffers for the backward chain.
    grads: [Seq; 2],
    /// The backward scratch every layer's backward borrows in turn, as
    /// long as its widest layer's.
    scratch: Workspace,
    /// The loss gradient's buffer, reused by every `train_batch`.
    loss_grad: Seq,
    /// Staged input / target batches for `predict*` and `evaluate`.
    staged: [Seq; 2],
    /// Row-index scratch for scattering batched outputs into flat buffers.
    scatter_idx: Vec<usize>,
}

/// Samples per staged batch of `predict` / `predict_into`: bounds the arena
/// at `PREDICT_CHUNK x T x widest layer` however long the series. Batch
/// rows are independent, so any value gives the same bits; this one keeps
/// the `(T·B) x 4H` pre-activations of the paper's models at L2 size and
/// the arena small enough for several models to predict side by side, as
/// the study's concurrent fits do.
const PREDICT_CHUNK: usize = 64;

/// Samples per staged batch of `evaluate`. Not the predict chunk: the
/// per-chunk `loss x len` sum is in the bits of the validation loss that
/// early stopping and the golden fixture see, so this value is pinned.
const EVAL_CHUNK: usize = 256;

impl Sequential {
    /// Creates an empty model whose layers will be re-initialised
    /// deterministically from `seed` as they are added.
    pub fn new(seed: u64) -> Self {
        Self {
            layers: Vec::new(),
            optimizer: Adam::default(),
            seed,
            layers_added: 0,
            acts: Vec::new(),
            grads: Default::default(),
            scratch: Workspace::new(),
            loss_grad: Seq::default(),
            staged: Default::default(),
            scatter_idx: Vec::new(),
        }
    }

    /// Adds a layer (builder style), re-initialising its weights from the
    /// model seed so identically-built models start identical regardless of
    /// how the layers themselves were constructed.
    pub fn with(mut self, layer: impl Into<Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Adds a layer in place; see [`Sequential::with`].
    pub fn push(&mut self, layer: impl Into<Layer>) {
        let mut layer = layer.into();
        let layer_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.layers_added);
        let mut rng = StdRng::seed_from_u64(layer_seed);
        match &mut layer {
            Layer::Dense(l) => l.reinitialize(&mut rng),
            Layer::Lstm(l) => l.reinitialize(&mut rng),
            Layer::Dropout(l) => l.reseed(rng.gen()),
            Layer::RepeatVector(_) => {}
        }
        self.layers_added += 1;
        self.layers.push(layer);
    }

    /// Replaces the optimiser (builder style).
    pub fn with_optimizer(mut self, optimizer: Adam) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Borrow of the layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The model's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of scalar trainable parameters.
    pub fn scalar_param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(Matrix::len)
            .sum()
    }

    /// Forward pass through every layer; returns a borrow of the last
    /// layer's slot in the activation arena (of `input` itself for an
    /// empty model).
    pub fn forward<'a>(&'a mut self, input: &'a Seq, training: bool) -> &'a Seq {
        self.acts.resize_with(self.layers.len(), Seq::default);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (done, rest) = self.acts.split_at_mut(i);
            layer.forward(done.last().unwrap_or(input), training, &mut rest[0]);
        }
        self.acts.last().unwrap_or(input)
    }

    /// Backward pass through every layer (reverse order), accumulating
    /// parameter gradients. Layer `i` reads its input and output back from
    /// the activation arena (`input` itself for layer 0), so this is only
    /// correct directly after a training [`Sequential::forward`] of `input`.
    /// Input gradients alternate between the two gradient buffers; the
    /// first layer skips its input-gradient product — nothing consumes it.
    /// Every layer works in the model's one backward scratch.
    pub(crate) fn backward(&mut self, input: &Seq, grad: &Seq) {
        let [mut upstream, mut dx] = self.grads.each_mut();
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let from_above = if i == last { grad } else { &*upstream };
            let x = if i == 0 { input } else { &self.acts[i - 1] };
            let dx_i = (i > 0).then_some(&mut *dx);
            layer.backward(x, &self.acts[i], from_above, dx_i, &mut self.scratch);
            std::mem::swap(&mut upstream, &mut dx);
        }
    }

    /// Frees the model's scratch: the activation arena, the gradient,
    /// backward-scratch and staging buffers, and every layer's workspace
    /// and dropout mask. What stays is the model — weights, parameter
    /// gradients, Adam's moments and each dropout layer's RNG state — so
    /// training and inference carry on with the same bits. The next call
    /// regrows only the arenas it uses.
    ///
    /// Arenas otherwise live as long as the model and keep the size of the
    /// largest batch they served, a training batch's BPTT caches included:
    /// a model fitted once and then only scored (a fitted detector) calls
    /// this when its fit ends; one that trains round after round (a
    /// federated client) keeps them warm.
    pub fn release_arenas(&mut self) {
        for layer in &mut self.layers {
            layer.release_arenas();
        }
        self.acts = Vec::new();
        self.grads = Default::default();
        self.scratch = Workspace::new();
        self.loss_grad = Seq::default();
        self.staged = Default::default();
        self.scatter_idx = Vec::new();
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Runs inference on a set of samples, returning one output matrix
    /// (`target_time x target_features`) per sample. Samples are staged and
    /// evaluated in chunks through the arena; only the returned matrices
    /// are freshly allocated.
    pub fn predict(&mut self, inputs: &[Matrix]) -> Vec<Matrix> {
        // The staged batches leave `self` while a forward borrows it.
        let mut staged = std::mem::take(&mut self.staged[0]);
        let mut outputs = Vec::with_capacity(inputs.len());
        for chunk in inputs.chunks(PREDICT_CHUNK) {
            staged.load_samples(chunk, |m| m);
            outputs.extend(self.forward(&staged, false).to_samples());
        }
        self.staged[0] = staged;
        outputs
    }

    /// [`Sequential::predict`] without the `to_samples` round-trip: every
    /// sample's output is written into `out` sample-major
    /// (`out[(i * T + t) * F + f]` for sample `i`), which is resized to
    /// exactly `inputs.len() * T * F`. Returns `(out_time, out_features)`.
    ///
    /// Bitwise identical values to `predict`; a warm call makes zero
    /// matrix allocations.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the samples disagree on shape.
    pub fn predict_into(&mut self, inputs: &[Matrix], out: &mut Vec<f64>) -> (usize, usize) {
        assert!(!inputs.is_empty(), "predict_into requires inputs");
        let mut staged = std::mem::take(&mut self.staged[0]);
        let mut shape = (0usize, 0usize);
        let mut written = 0usize;
        for chunk in inputs.chunks(PREDICT_CHUNK) {
            staged.load_samples(chunk, |m| m);
            shape = self.predict_seq_into(&staged, out, written);
            written += chunk.len() * shape.0 * shape.1;
        }
        self.staged[0] = staged;
        out.truncate(written);
        shape
    }

    /// Eval-mode forward over one caller-prepared batch, writing the
    /// output into `out` starting at `offset`, sample-major
    /// (`out[offset + (b * T + t) * F + f]`). `out` grows if needed.
    /// Returns `(out_time, out_features)`.
    ///
    /// This is the streaming entry point for callers that marshal their
    /// own batches into a [`Seq`] (e.g. windowed anomaly scoring) and want
    /// reconstructions in a flat reusable buffer. The caller picks the
    /// batch size; the arena follows it.
    pub fn predict_seq_into(
        &mut self,
        input: &Seq,
        out: &mut Vec<f64>,
        offset: usize,
    ) -> (usize, usize) {
        let mut idx = std::mem::take(&mut self.scatter_idx);
        let res = self.forward(input, false);
        let (t_out, batch, f_out) = res.shape();
        let need = offset + batch * t_out * f_out;
        if out.len() < need {
            out.resize(need, 0.0);
        }
        let dst = &mut out[offset..need];
        // Each time step scatters its rows to the per-sample positions:
        // viewing `dst` as a (batch * T) x F matrix, sample b's step t is
        // row b * T + t.
        for t in 0..t_out {
            idx.clear();
            idx.extend((0..batch).map(|b| b * t_out + t));
            kernels::scatter_rows_into(res.step(t), &idx, MatMut::new(batch * t_out, f_out, dst));
        }
        self.scatter_idx = idx;
        (t_out, f_out)
    }

    /// Mean loss of the model on `samples` (inference mode), staged and
    /// evaluated in chunks through the arena like [`Sequential::predict`].
    ///
    /// # Panics
    ///
    /// Panics if the model's output shape differs from the targets'.
    pub fn evaluate(&mut self, samples: &[Sample], loss: Loss) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let [mut input, mut target] = std::mem::take(&mut self.staged);
        let mut total = 0.0;
        for chunk in samples.chunks(EVAL_CHUNK) {
            input.load_samples(chunk, |s| &s.input);
            target.load_samples(chunk, |s| &s.target);
            total += loss.value(self.forward(&input, false), &target) * chunk.len() as f64;
        }
        self.staged = [input, target];
        total / samples.len() as f64
    }

    /// Runs one mini-batch gradient step — forward, loss, backward,
    /// optional gradient clipping, optimiser update, gradient reset — and
    /// returns the batch loss. This is the training hot path
    /// [`Sequential::fit`] iterates; it is public so benchmarks and custom
    /// training loops can drive single steps.
    pub fn train_batch(
        &mut self,
        input: &Seq,
        target: &Seq,
        loss: Loss,
        clip_norm: Option<f64>,
    ) -> f64 {
        let mut grad = std::mem::take(&mut self.loss_grad);
        let loss_value = loss.evaluate(self.forward(input, true), target, &mut grad);
        self.backward(input, &grad);
        self.loss_grad = grad;
        if let Some(max_norm) = clip_norm {
            self.clip_gradients(max_norm);
        }
        let pairs = self.layers.iter_mut().flat_map(Layer::params_and_grads_mut);
        self.optimizer.step(pairs);
        self.zero_grads();
        loss_value
    }

    /// Trains the model with mini-batch gradient descent.
    ///
    /// Mirrors `model.fit` in Keras under an `mse` loss: optional
    /// shuffling, a tail validation split, and early stopping with
    /// best-weight restoration.
    ///
    /// Batches are marshalled through a [`BatchPlan`] built once per call:
    /// the shuffle produces an index permutation that gathers rows out of a
    /// time-major sample stack straight into reusable batch buffers, and
    /// each batch runs through [`Sequential::train_batch`]. Both are
    /// bitwise identical to the historical per-batch clone +
    /// `from_samples` + inline-step loop.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyDataset`] if `samples` is empty (or empty after the
    ///   validation split).
    /// * [`NnError::InvalidConfig`] for a zero batch size or a validation
    ///   split outside `[0, 1)`.
    /// * [`NnError::NonFiniteLoss`] if training diverges. The divergence
    ///   check runs after the optimiser step that consumed the non-finite
    ///   loss (the step itself is unconditional inside `train_batch`), so
    ///   on this error path the model weights reflect one more update than
    ///   they historically did — observable only by callers that keep
    ///   using a model whose `fit` returned `Err`.
    pub fn fit(&mut self, samples: &[Sample], cfg: &TrainConfig) -> NnResult<TrainHistory> {
        if cfg.batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&cfg.validation_split) {
            return Err(NnError::InvalidConfig(
                "validation_split must be in [0, 1)".into(),
            ));
        }
        if samples.is_empty() {
            return Err(NnError::EmptyDataset);
        }
        let val_len = (samples.len() as f64 * cfg.validation_split).round() as usize;
        let train_len = samples.len() - val_len;
        if train_len == 0 {
            return Err(NnError::EmptyDataset);
        }
        let (train, val) = samples.split_at(train_len);

        let mut history = TrainHistory::default();
        let mut best_loss = f64::INFINITY;
        let mut best_weights: Option<Vec<Matrix>> = None;
        let mut epochs_without_improvement = 0usize;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(self.seed ^ 0xD1B5_4A32_D192_ED03);
        // Stack the training set time-major once; every batch of every
        // epoch is then a row gather into the same two buffers.
        let plan = BatchPlan::new(train);
        let (mut batch_in, mut batch_tgt) = (Seq::default(), Seq::default());

        for epoch in 0..cfg.epochs {
            if cfg.shuffle {
                order.shuffle(&mut shuffle_rng);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch_idx in order.chunks(cfg.batch_size) {
                plan.gather_into(batch_idx, &mut batch_in, &mut batch_tgt);
                let loss_value = self.train_batch(&batch_in, &batch_tgt, Loss::Mse, cfg.clip_norm);
                if !loss_value.is_finite() {
                    return Err(NnError::NonFiniteLoss { epoch });
                }
                epoch_loss += loss_value;
                batches += 1;
            }
            let train_loss = epoch_loss / batches.max(1) as f64;
            let val_loss = if val.is_empty() {
                None
            } else {
                Some(self.evaluate(val, Loss::Mse))
            };
            history.epochs.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
            });

            let monitored = val_loss.unwrap_or(train_loss);
            if monitored + cfg.min_delta < best_loss {
                best_loss = monitored;
                history.best_epoch = epoch;
                epochs_without_improvement = 0;
                if cfg.patience.is_some() {
                    best_weights = Some(self.weights());
                }
            } else {
                epochs_without_improvement += 1;
                if let Some(patience) = cfg.patience {
                    if epochs_without_improvement >= patience {
                        history.stopped_early = true;
                        break;
                    }
                }
            }
        }
        if let Some(w) = best_weights {
            if history.stopped_early {
                self.set_weights(&w)?;
            }
        }
        Ok(history)
    }

    /// Exports every trainable parameter tensor (the federated-averaging
    /// payload), in layer order.
    pub fn weights(&self) -> Vec<Matrix> {
        self.layers
            .iter()
            .flat_map(|l| l.params().into_iter().cloned())
            .collect()
    }

    /// Imports parameter tensors previously produced by
    /// [`Sequential::weights`] on an identically-shaped model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightMismatch`] if the tensor count or any shape
    /// differs.
    pub fn set_weights(&mut self, weights: &[Matrix]) -> NnResult<()> {
        let expected = self.weights().len();
        if weights.len() != expected {
            return Err(NnError::WeightMismatch {
                expected,
                got: weights.len(),
            });
        }
        // Validate shapes first so we never apply a partial update.
        {
            let current = self.weights();
            for (c, n) in current.iter().zip(weights.iter()) {
                if c.shape() != n.shape() {
                    return Err(NnError::WeightMismatch {
                        expected,
                        got: weights.len(),
                    });
                }
            }
        }
        let mut it = weights.iter();
        for layer in &mut self.layers {
            for (param, _) in layer.params_and_grads_mut() {
                *param = it.next().expect("count validated above").clone();
            }
        }
        Ok(())
    }

    /// A replica for serving: the layers' parameters without their
    /// gradients or workspaces, dropout left out (the identity at
    /// inference), a fresh optimiser and an empty arena. Its eval forward
    /// has this model's bits, and nothing done to either afterwards
    /// reaches the other.
    pub(crate) fn serving_replica(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().filter_map(Layer::serving_copy).collect(),
            layers_added: self.layers_added,
            ..Sequential::new(self.seed)
        }
    }

    /// The layers with their gradients, for the finite-difference check.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> impl Iterator<Item = &mut Layer> {
        self.layers.iter_mut()
    }

    fn clip_gradients(&mut self, max_norm: f64) {
        let mut total = 0.0;
        for layer in &mut self.layers {
            for (_, g) in layer.params_and_grads_mut() {
                total += g.as_slice().iter().map(|x| x * x).sum::<f64>();
            }
        }
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for layer in &mut self.layers {
                for (_, g) in layer.params_and_grads_mut() {
                    g.map_inplace(|x| x * scale);
                }
            }
        }
    }
}

/// Builds the paper's forecaster architecture:
/// `LSTM(units) -> Dense(10, relu) -> Dense(1)` over univariate input.
///
/// # Examples
///
/// ```
/// let model = evfad_nn::forecaster_model(50, 7);
/// assert_eq!(model.layers().len(), 3);
/// ```
pub fn forecaster_model(lstm_units: usize, seed: u64) -> Sequential {
    Sequential::new(seed)
        .with(Lstm::new(1, lstm_units, false))
        .with(Dense::new(lstm_units, 10, crate::Activation::Relu))
        .with(Dense::new(10, 1, crate::Activation::Linear))
}

/// Builds the paper's LSTM autoencoder:
/// encoder `LSTM(50, seq) -> LSTM(25)` and decoder
/// `RepeatVector(seq_len) -> LSTM(25, seq) -> LSTM(50, seq) ->
/// TimeDistributed(Dense(1))`, with `Dropout(0.2)` after each encoder LSTM.
///
/// # Examples
///
/// ```
/// let model = evfad_nn::autoencoder_model(24, 7);
/// assert_eq!(model.layers().len(), 8);
/// ```
pub fn autoencoder_model(seq_len: usize, seed: u64) -> Sequential {
    Sequential::new(seed)
        .with(Lstm::new(1, 50, true))
        .with(Dropout::new(0.2))
        .with(Lstm::new(50, 25, false))
        .with(Dropout::new(0.2))
        .with(crate::RepeatVector::new(seq_len))
        .with(Lstm::new(25, 25, true))
        .with(Lstm::new(25, 50, true))
        .with(Dense::new(50, 1, crate::Activation::Linear))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn toy_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = (0..6).map(|t| ((i + t) as f64 * 0.4).sin() * 0.5).collect();
                let y = ((i + 6) as f64 * 0.4).sin() * 0.5;
                Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
            })
            .collect()
    }

    fn tiny_model(seed: u64) -> Sequential {
        Sequential::new(seed)
            .with(Lstm::new(1, 6, false))
            .with(Dense::new(6, 1, Activation::Linear))
    }

    #[test]
    fn same_seed_same_initial_weights() {
        let a = tiny_model(3);
        let b = tiny_model(3);
        assert_eq!(a.weights(), b.weights());
        let c = tiny_model(4);
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn fit_reduces_loss_on_learnable_signal() {
        let samples = toy_samples(64);
        let mut model = tiny_model(1).with_optimizer(Adam::new(0.01));
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let before = model.evaluate(&samples, Loss::Mse);
        let history = model.fit(&samples, &cfg).expect("fit");
        let after = model.evaluate(&samples, Loss::Mse);
        assert!(after < before * 0.25, "before={before} after={after}");
        assert_eq!(history.epochs.len(), 40);
    }

    /// Released arenas are scratch only: a model that sheds them between
    /// two fits trains on — Adam's moments, dropout's mask stream — to the
    /// bits of one that kept them, and predicts the same.
    #[test]
    fn released_arenas_keep_the_training_bits() {
        let samples = toy_samples(48);
        let model = || {
            Sequential::new(5)
                .with(Lstm::new(1, 6, true))
                .with(Dropout::new(0.2))
                .with(Lstm::new(6, 4, false))
                .with(Dense::new(4, 1, Activation::Linear))
        };
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let (mut kept, mut released) = (model(), model());
        for m in [&mut kept, &mut released] {
            m.fit(&samples, &cfg).expect("fit");
        }
        released.release_arenas();
        assert!(released.acts.is_empty() && released.scatter_idx.is_empty());
        assert!(released.scratch.slot_lens().is_empty());
        for m in [&mut kept, &mut released] {
            m.fit(&samples, &cfg).expect("fit");
        }
        assert_eq!(kept.weights(), released.weights());
        let inputs: Vec<Matrix> = samples.iter().map(|s| s.input.clone()).collect();
        assert_eq!(kept.predict(&inputs), released.predict(&inputs));
    }

    /// Every backward writes a scratch slot before it reads it, so what
    /// the previous layer or step left there is not in the bits: a stack of
    /// unequal widths, its scratch poisoned with NaN at the lengths the
    /// last backward left, takes the same next step as an untouched twin.
    #[test]
    fn the_backward_scratch_carries_nothing_between_layers() {
        let samples: Vec<Sample> = toy_samples(16)
            .into_iter()
            .map(|s| Sample::autoencoding(s.input))
            .collect();
        let model = || {
            Sequential::new(6)
                .with(Lstm::new(1, 6, true))
                .with(Lstm::new(6, 3, false))
                .with(crate::RepeatVector::new(6))
                .with(Lstm::new(3, 6, true))
                .with(Dense::new(6, 1, Activation::Linear))
        };
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainConfig::default()
        };
        // A batch of the last fit batch's size, so the slots keep their
        // poisoned lengths wherever the next layer's shapes allow.
        let inputs: Vec<Matrix> = samples[..8].iter().map(|s| s.input.clone()).collect();
        let x = Seq::from_samples(&inputs);
        let (mut twin, mut poisoned) = (model(), model());
        for m in [&mut twin, &mut poisoned] {
            m.fit(&samples, &cfg).expect("fit");
        }
        poisoned.scratch.fill(f64::NAN);
        for m in [&mut twin, &mut poisoned] {
            m.train_batch(&x, &x, Loss::Mse, Some(5.0));
        }
        assert!(twin.weights().iter().all(Matrix::is_finite));
        assert_eq!(twin.weights(), poisoned.weights());
    }

    #[test]
    fn fit_rejects_empty_dataset() {
        let mut model = tiny_model(1);
        assert_eq!(
            model.fit(&[], &TrainConfig::default()),
            Err(NnError::EmptyDataset)
        );
    }

    #[test]
    fn fit_rejects_zero_batch() {
        let mut model = tiny_model(1);
        let cfg = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(matches!(
            model.fit(&toy_samples(4), &cfg),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn early_stopping_fires_and_truncates() {
        let samples = toy_samples(32);
        let mut model = tiny_model(2);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 8,
            validation_split: 0.25,
            patience: Some(3),
            ..TrainConfig::default()
        };
        let history = model.fit(&samples, &cfg).expect("fit");
        assert!(history.epochs.len() <= 200);
        if history.stopped_early {
            assert!(history.best_epoch < history.epochs.len());
        }
    }

    #[test]
    fn weights_round_trip_through_set_weights() {
        let mut a = tiny_model(5);
        let b = tiny_model(9);
        a.set_weights(&b.weights()).expect("compatible");
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn set_weights_rejects_wrong_count() {
        let mut a = tiny_model(5);
        let err = a.set_weights(&[Matrix::zeros(1, 1)]).unwrap_err();
        assert!(matches!(err, NnError::WeightMismatch { .. }));
    }

    #[test]
    fn set_weights_rejects_wrong_shape() {
        let mut a = tiny_model(5);
        let mut w = a.weights();
        w[0] = Matrix::zeros(1, 1);
        assert!(a.set_weights(&w).is_err());
    }

    #[test]
    fn predict_matches_forward() {
        let mut model = tiny_model(8);
        let inputs = vec![
            Matrix::column_vector(&[0.1, 0.2]),
            Matrix::column_vector(&[0.3, 0.4]),
        ];
        let preds = model.predict(&inputs);
        let x = Seq::from_samples(&inputs);
        let batch = model.forward(&x, false);
        assert_eq!(batch.as_slice(), &[preds[0][(0, 0)], preds[1][(0, 0)]]);
    }

    #[test]
    fn paper_architectures_have_expected_shapes() {
        let f = forecaster_model(50, 0);
        // LSTM(1->50): (51*200 + 200) ; Dense(50->10): 510 ; Dense(10->1): 11.
        assert_eq!(f.scalar_param_count(), 51 * 200 + 200 + 510 + 11);
        let mut ae = autoencoder_model(4, 0);
        let x = Seq::from_samples(&[Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4])]);
        assert_eq!(ae.forward(&x, false).shape(), (4, 1, 1));
    }

    #[test]
    fn gradient_clipping_bounds_update() {
        let samples = toy_samples(8);
        let mut model = tiny_model(1);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            clip_norm: Some(1e-9),
            ..TrainConfig::default()
        };
        let w_before = model.weights();
        model.fit(&samples, &cfg).expect("fit");
        let w_after = model.weights();
        // With a minuscule clip norm the weights barely move.
        let max_delta: f64 = w_before
            .iter()
            .zip(&w_after)
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max);
        assert!(max_delta < 0.01, "max_delta={max_delta}");
    }
}

//! Layer container and training loop.
//!
//! A [`Sequential`] keeps every `f64` buffer a call works in — each layer's
//! output, the BPTT caches, the backward scratch, the eval slots, the
//! gradient and staging buffers — in one arena, laid out per call by a
//! plan from the phase, the input shape and what each layer declares (see
//! `arena`). `train_batch`, `evaluate`, `predict`, `predict_into` and
//! `predict_seq_into` all run through it; a training step and an eval pass
//! both start at offset 0, so the arena is the larger of the two, and a
//! warm call allocates and zero-fills nothing whatever the batch size:
//! alternating a full inference chunk with a ragged tail (or a train batch
//! with a validation pass) costs nothing. Inference is chunked only to
//! bound the arena on a long series.

use crate::arena::{carve, elems, Arena, ArenaPlan, Plan, Span};
use crate::batch::BatchPlan;
use crate::error::{NnError, NnResult};
use crate::layer::Layer;
use crate::layers::{Dense, Dropout, Lstm};
use crate::loss::Loss;
use crate::optimizer::Adam;
use crate::seq::{stage, staged_shape, Seq, SeqRef};
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

/// What a model's training steps have done since it was built: counted by
/// [`Sequential::train_batch`], read by [`Sequential::train_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainCounts {
    /// Optimizer steps taken.
    pub steps: u64,
    /// Training windows those steps ran over (each batch's rows).
    pub samples: u64,
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
    /// Every `f64` buffer a call works in, laid out by `plan`; it only
    /// grows, and only [`Sequential::release_arenas`] frees it.
    arena: Arena,
    /// The current call's layout, rebuilt before each call.
    plan: Plan,
    /// Row-index scratch for scattering batched outputs into flat buffers.
    scatter_idx: Vec<usize>,
    /// Steps and samples trained on, for [`Sequential::train_counts`].
    trained: TrainCounts,
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
            arena: Arena::default(),
            plan: Plan::default(),
            scatter_idx: Vec::new(),
            trained: TrainCounts::default(),
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

    /// The optimizer steps this model has taken and the training windows
    /// they ran over. A clone carries the counts of its source; a serving
    /// replica starts from zero.
    pub fn train_counts(&self) -> TrainCounts {
        self.trained
    }

    /// Total number of scalar trainable parameters.
    pub fn scalar_param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(Matrix::len)
            .sum()
    }

    /// Eval forward pass through every layer, in an eval layout with
    /// nothing staged; returns a borrow of the last layer's output in the
    /// arena (of `input` itself for an empty model). Training runs its
    /// forward inside [`Sequential::train_batch`].
    pub fn forward<'a>(&'a mut self, input: &'a Seq) -> SeqRef<'a> {
        let x = input.as_seq_ref();
        let len = self.plan.eval(&self.layers, x.shape(), [0, 0]);
        let [_, _, a, b, slots] = carve(self.arena.lay_out(len), self.plan.regions);
        eval_layers(&mut self.layers, &self.plan.spans, x, [a, b], slots)
    }

    /// The bytes of the arena a training step and an `evaluate` pass of
    /// `batch` windows of `steps x features` lay out, per layer and by
    /// lifetime — from the plan every call is laid out by.
    pub fn arena_plan(&self, steps: usize, batch: usize, features: usize) -> ArenaPlan {
        let input = (steps, batch, features);
        let (mut train, mut eval) = (Plan::default(), Plan::default());
        train.train(&self.layers, input);
        let staged = [elems(input), elems(train.output(input))];
        eval.eval(&self.layers, input, staged);
        ArenaPlan::new(&train, &eval)
    }

    /// An eval pass over `items` staged in the arena: each item's input
    /// matrix is a batch row of the staged input, and with `target_of` its
    /// target one of the staged target. Returns the output and the staged
    /// target (empty without `target_of`).
    fn eval_staged<T>(
        &mut self,
        items: &[T],
        input_of: impl Fn(&T) -> &Matrix,
        target_of: Option<fn(&T) -> &Matrix>,
    ) -> (SeqRef<'_>, SeqRef<'_>) {
        let in_shape = staged_shape(items, &input_of);
        let tgt_shape = target_of.map_or((0, 0, 0), |f| staged_shape(items, f));
        let staged = [elems(in_shape), elems(tgt_shape)];
        let len = self.plan.eval(&self.layers, in_shape, staged);
        let [x, target, a, b, slots] = carve(self.arena.lay_out(len), self.plan.regions);
        stage(items, input_of, x);
        if let Some(f) = target_of {
            stage(items, f, target);
        }
        let x = SeqRef::new(in_shape, x);
        let out = eval_layers(&mut self.layers, &self.plan.spans, x, [a, b], slots);
        (out, SeqRef::new(tgt_shape, target))
    }

    /// One training step up to the optimiser: the training forward of
    /// `input`, the loss against `target` and the backward pass, which
    /// accumulates every layer's parameter gradients; returns the loss.
    /// Layer `i`'s backward reads its input and output back from the
    /// arena (`input` itself for layer 0) and its cache; input gradients
    /// alternate between the two gradient buffers, the loss gradient in
    /// the first, and the first layer skips its input-gradient product —
    /// nothing consumes it. The backward runs straight after its forward,
    /// so no training cache outlives this call.
    pub(crate) fn accumulate_gradients(&mut self, input: &Seq, target: &Seq, loss: Loss) -> f64 {
        let x = input.as_seq_ref();
        let len = self.plan.train(&self.layers, x.shape());
        let [acts, caches, scratch, mut upstream, mut dx] =
            carve(self.arena.lay_out(len), self.plan.regions);
        let spans = &self.plan.spans;
        train_forward(&mut self.layers, spans, x, acts, caches);
        let acts = &*acts;
        let loss_value = loss.gradient(last_output(spans, x, acts), target.as_seq_ref(), upstream);
        for (i, (layer, span)) in self.layers.iter_mut().zip(spans).enumerate().rev() {
            let out = SeqRef::new(span.output, &acts[span.act..][..elems(span.output)]);
            let grad = SeqRef::new(span.output, &upstream[..elems(span.output)]);
            let dx_i = (i > 0).then(|| &mut dx[..elems(span.input)]);
            let cache = &mut caches[span.cache..][..span.slots.cache];
            layer.backward(layer_input(x, acts, span), out, grad, dx_i, cache, scratch);
            std::mem::swap(&mut upstream, &mut dx);
        }
        loss_value
    }

    /// Frees the model's scratch: the arena — activations, BPTT caches,
    /// backward scratch, eval slots, gradient and staging buffers — the
    /// plan's table, the scatter indices and every dropout layer's mask.
    /// What stays is the model — weights, parameter gradients, Adam's
    /// moments and each dropout layer's RNG state — so training and
    /// inference carry on with the same bits. The next call regrows the
    /// arena to its plan.
    ///
    /// The arena otherwise lives as long as the model and keeps the size of
    /// the largest call it served, a training batch's BPTT caches included:
    /// a model fitted once and then only scored (a fitted detector) calls
    /// this when its fit ends; one that trains round after round (a
    /// federated client) keeps it warm.
    pub fn release_arenas(&mut self) {
        for layer in &mut self.layers {
            layer.release_arenas();
        }
        self.arena.free();
        self.plan = Plan::default();
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
        let mut outputs = Vec::with_capacity(inputs.len());
        for chunk in inputs.chunks(PREDICT_CHUNK) {
            outputs.extend(self.eval_staged(chunk, |m| m, None).0.to_samples());
        }
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
        let mut idx = std::mem::take(&mut self.scatter_idx);
        let mut shape = (0usize, 0usize);
        let mut written = 0usize;
        for chunk in inputs.chunks(PREDICT_CHUNK) {
            let (res, _) = self.eval_staged(chunk, |m| m, None);
            shape = scatter_samples(res, &mut idx, out, written);
            written += chunk.len() * shape.0 * shape.1;
        }
        self.scatter_idx = idx;
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
        let shape = scatter_samples(self.forward(input), &mut idx, out, offset);
        self.scatter_idx = idx;
        shape
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
        let mut total = 0.0;
        for chunk in samples.chunks(EVAL_CHUNK) {
            let (out, target) = self.eval_staged(chunk, |s| &s.input, Some(|s| &s.target));
            total += loss.value(out, target) * chunk.len() as f64;
        }
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
        let loss_value = self.accumulate_gradients(input, target, loss);
        if let Some(max_norm) = clip_norm {
            self.clip_gradients(max_norm);
        }
        let pairs = self.layers.iter_mut().flat_map(Layer::params_and_grads_mut);
        self.optimizer.step(pairs);
        self.zero_grads();
        self.trained.steps += 1;
        self.trained.samples += input.batch_size() as u64;
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
                    // Into the snapshot's own buffers: a second copy of the
                    // weights never lives beside it.
                    let params = self.layers.iter().flat_map(Layer::params);
                    match &mut best_weights {
                        Some(best) => best
                            .iter_mut()
                            .zip(params)
                            .for_each(|(b, p)| b.as_mut_slice().copy_from_slice(p.as_slice())),
                        None => best_weights = Some(self.weights()),
                    }
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
    /// [`Sequential::weights`] on an identically-shaped model, copying
    /// each into the parameter buffer it replaces: nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightMismatch`] if the tensor count or any shape
    /// differs.
    pub fn set_weights(&mut self, weights: &[Matrix]) -> NnResult<()> {
        let expected = self.params_mut().count();
        // Validate shapes first so we never apply a partial update.
        if weights.len() != expected
            || !self
                .params_mut()
                .map(|p| p.shape())
                .eq(weights.iter().map(Matrix::shape))
        {
            return Err(NnError::WeightMismatch {
                expected,
                got: weights.len(),
            });
        }
        for (param, w) in self.params_mut().zip(weights) {
            param.as_mut_slice().copy_from_slice(w.as_slice());
        }
        Ok(())
    }

    /// Every trainable parameter tensor, in [`Sequential::weights`] order.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(Layer::params_and_grads_mut)
            .map(|(param, _)| param)
    }

    /// A replica for serving: the layers' parameters without their
    /// gradients, dropout left out (the identity at inference), a fresh
    /// optimiser and an empty arena. Its eval forward
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

/// The training forward of `x` through `layers`: layer `i` writes its output
/// into its span of `acts` and keeps its BPTT state in its span of
/// `caches`.
fn train_forward(
    layers: &mut [Layer],
    spans: &[Span],
    x: SeqRef<'_>,
    acts: &mut [f64],
    caches: &mut [f64],
) {
    for (layer, span) in layers.iter_mut().zip(spans) {
        let (done, rest) = acts.split_at_mut(span.act);
        let out = &mut rest[..elems(span.output)];
        let cache = &mut caches[span.cache..][..span.slots.cache];
        layer.forward_in(layer_input(x, done, span), true, out, cache);
    }
}

/// A layer's input in a training step: the output just before its span in
/// `acts`, or the batch `x` itself for layer 0.
fn layer_input<'a>(x: SeqRef<'a>, acts: &'a [f64], span: &Span) -> SeqRef<'a> {
    match span.act {
        0 => x,
        at => SeqRef::new(span.input, &acts[at - elems(span.input)..at]),
    }
}

/// The last layer's output in a training step's `acts`, `x` for no layer.
fn last_output<'a>(spans: &[Span], x: SeqRef<'a>, acts: &'a [f64]) -> SeqRef<'a> {
    spans.last().map_or(x, |span| {
        SeqRef::new(span.output, &acts[span.act..][..elems(span.output)])
    })
}

/// The eval forward of `x` through `layers`: layer `i` writes its output
/// into `bufs[i % 2]`, reading layer `i - 1`'s from the other, and every
/// layer works in the one `slots`. Returns the last output.
fn eval_layers<'a>(
    layers: &mut [Layer],
    spans: &[Span],
    x: SeqRef<'a>,
    bufs: [&'a mut [f64]; 2],
    slots: &mut [f64],
) -> SeqRef<'a> {
    let [even, odd] = bufs;
    for (i, (layer, span)) in layers.iter_mut().zip(spans).enumerate() {
        let (src, dst) = if i % 2 == 0 {
            (&*odd, &mut *even)
        } else {
            (&*even, &mut *odd)
        };
        let input = match i {
            0 => x,
            _ => SeqRef::new(span.input, &src[..elems(span.input)]),
        };
        layer.forward_in(input, false, &mut dst[..elems(span.output)], slots);
    }
    match spans.len() {
        0 => x,
        n => {
            let last: &'a [f64] = if n % 2 == 1 { even } else { odd };
            SeqRef::new(spans[n - 1].output, &last[..elems(spans[n - 1].output)])
        }
    }
}

/// Writes `res` into `out` starting at `offset`, sample-major
/// (`out[offset + (b * T + t) * F + f]`), growing `out` if needed, with
/// `idx` as row-index scratch. Returns `(out_time, out_features)`.
fn scatter_samples(
    res: SeqRef<'_>,
    idx: &mut Vec<usize>,
    out: &mut Vec<f64>,
    offset: usize,
) -> (usize, usize) {
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
        kernels::scatter_rows_into(res.step(t), idx, MatMut::new(batch * t_out, f_out, dst));
    }
    (t_out, f_out)
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
        assert!(released.arena.values().is_empty() && released.scatter_idx.is_empty());
        assert!(released.plan.spans.is_empty());
        for m in [&mut kept, &mut released] {
            m.fit(&samples, &cfg).expect("fit");
        }
        assert_eq!(kept.weights(), released.weights());
        let inputs: Vec<Matrix> = samples.iter().map(|s| s.input.clone()).collect();
        assert_eq!(kept.predict(&inputs), released.predict(&inputs));
    }

    /// Every pass writes its span of the arena before it reads it, so what
    /// the previous layer or step left there is not in the bits: a stack of
    /// unequal widths, its whole arena — backward scratch, caches,
    /// activations, gradients — poisoned with NaN before each step, takes
    /// the same steps as an untouched twin.
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
        let inputs: Vec<Matrix> = samples[..8].iter().map(|s| s.input.clone()).collect();
        let x = Seq::from_samples(&inputs);
        let (mut twin, mut poisoned) = (model(), model());
        for m in [&mut twin, &mut poisoned] {
            m.fit(&samples, &cfg).expect("fit");
        }
        for _ in 0..2 {
            poisoned.arena.values().fill(f64::NAN);
            for m in [&mut twin, &mut poisoned] {
                m.train_batch(&x, &x, Loss::Mse, Some(5.0));
            }
        }
        assert!(twin.weights().iter().all(Matrix::is_finite));
        assert_eq!(twin.weights(), poisoned.weights());
    }

    /// An eval pass lies over the training step before it: `evaluate` and
    /// `predict_into`, at batch widths below and above the training
    /// batch's (the wider ones growing the arena past the training
    /// layout), between every two train steps leave the weights — Adam's
    /// moments and the dropout masks' stream included — bit for bit those
    /// of a twin that ran none of them.
    #[test]
    fn eval_passes_between_train_steps_leave_the_training_bits() {
        let samples: Vec<Sample> = toy_samples(96)
            .into_iter()
            .map(|s| Sample::autoencoding(s.input))
            .collect();
        let inputs: Vec<Matrix> = samples.iter().map(|s| s.input.clone()).collect();
        let model = || {
            Sequential::new(9)
                .with(Lstm::new(1, 6, true))
                .with(Dropout::new(0.2))
                .with(Lstm::new(6, 3, false))
                .with(crate::RepeatVector::new(6))
                .with(Lstm::new(3, 6, true))
                .with(Dense::new(6, 1, Activation::Linear))
        };
        let x = Seq::from_samples(&inputs[..8]);
        let (mut twin, mut overlaid) = (model(), model());
        let mut out = Vec::new();
        for width in [3, 96, 5, 70] {
            for m in [&mut twin, &mut overlaid] {
                m.train_batch(&x, &x, Loss::Mse, Some(5.0));
            }
            assert!(overlaid.evaluate(&samples[..width], Loss::Mse).is_finite());
            overlaid.predict_into(&inputs[..width], &mut out);
        }
        assert!(overlaid.arena.values().len() > overlaid.plan.train(&overlaid.layers, x.shape()));
        for m in [&mut twin, &mut overlaid] {
            m.train_batch(&x, &x, Loss::Mse, Some(5.0));
        }
        assert!(twin.weights().iter().all(Matrix::is_finite));
        assert_eq!(twin.weights(), overlaid.weights());
    }

    /// The arena grows into fresh zeroed memory and no pass reads a value
    /// before writing it, so a warm call fills nothing: the paper's
    /// autoencoder at its batch of 32 zero-fills one training layout on
    /// its first step, then nothing on a warm step, nor on a validation
    /// pass wider than the batch, which lies over the same arena. (The
    /// per-slot workspaces this arena replaced re-zeroed 72 583 `f64` a
    /// warm step, wherever two layers' backward slots differed in length.)
    #[test]
    fn a_warm_train_step_zero_fills_nothing() {
        let windows: Vec<Sample> = (0..53)
            .map(|i| {
                let xs: Vec<f64> = (0..24).map(|t| ((i + t) as f64 * 0.31).sin()).collect();
                Sample::autoencoding(Matrix::column_vector(&xs))
            })
            .collect();
        let inputs: Vec<Matrix> = windows[..32].iter().map(|s| s.input.clone()).collect();
        let x = Seq::from_samples(&inputs);
        let mut model = autoencoder_model(24, 7);
        model.train_batch(&x, &x, Loss::Mse, Some(5.0));
        assert_eq!(model.arena.zero_filled, model.plan.len());
        model.train_batch(&x, &x, Loss::Mse, Some(5.0));
        let before = model.arena.zero_filled;
        model.train_batch(&x, &x, Loss::Mse, Some(5.0));
        assert_eq!(
            model.arena.zero_filled - before,
            0,
            "a warm train step zero-filled"
        );
        model.evaluate(&windows, Loss::Mse);
        assert_eq!(
            model.arena.zero_filled - before,
            0,
            "a validation pass zero-filled"
        );
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
        let batch = model.forward(&x);
        assert_eq!(batch.as_slice(), &[preds[0][(0, 0)], preds[1][(0, 0)]]);
    }

    #[test]
    fn paper_architectures_have_expected_shapes() {
        let f = forecaster_model(50, 0);
        // LSTM(1->50): (51*200 + 200) ; Dense(50->10): 510 ; Dense(10->1): 11.
        assert_eq!(f.scalar_param_count(), 51 * 200 + 200 + 510 + 11);
        let mut ae = autoencoder_model(4, 0);
        let x = Seq::from_samples(&[Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4])]);
        assert_eq!(ae.forward(&x).shape(), (4, 1, 1));
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

//! Frozen inference snapshots of a [`Sequential`] model.
//!
//! Training mutates a model in place; serving wants a copy that stays put
//! while the source keeps training, and that pushes as many windows per
//! GEMM as the admission queue can batch. An [`InferenceModel`] is that
//! snapshot, and [`Precision`] picks at freeze time what it holds:
//!
//! - `F64`: a serving replica of the model — every layer's parameters, an
//!   empty arena, and none of the gradients, optimiser moments or
//!   dropout layers a trained model carries — run through the
//!   layers' own eval forward, [`Sequential::predict_seq_into`]. There is
//!   no second f64 forward: serving runs the code that trains the model
//!   and scores the study.
//! - `Int8`: [`QuantizedPanel`]s (the shared EVQ8 fold) and `f32` arenas for
//!   the layer kinds the scoring service serves — dense, LSTM and
//!   repeat-vector; dropout, the identity at inference, is dropped.
//!
//! [`InferenceModel::forward_batch_into`] takes windows sample-major on
//! either lane, stages them time-major, and runs **many windows per GEMM**:
//! one input-projection product per recurrent layer and one product per
//! dense layer for the whole batch. A per-worker clone copies nothing the
//! worker will not read.
//!
//! # Exactness contract
//!
//! An `F64` snapshot *is* the eval forward, and each output row of every
//! kernel depends only on its own input row, so **`forward_batch_into` is
//! bitwise-identical to per-window [`Sequential::predict`]**. Those bits are
//! pinned by `recorded_steps`, the golden fixture and the frozen-lanes
//! literals in `tests/proptests.rs`.
//!
//! The `Int8` lane is always approximate: weights carry at most half a
//! quantization step of error each (see [`quant`](evfad_tensor::quant)),
//! activations and accumulation are `f32`. The score-level bound (delta
//! under 0.05, at most 2 % of decisions flipped) is asserted by
//! `crates/anomaly/tests/inference_parity.rs`.

use crate::activation::Activation;
use crate::layer::Layer;
use crate::model::Sequential;
use crate::seq::Seq;
use crate::{NnError, NnResult};
use evfad_tensor::fastpath::{self, QuantizedPanel};
use evfad_tensor::{vmath, Matrix};

/// Numeric lane of a frozen snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// f64 activations and accumulation: the layers' own eval forward,
    /// bitwise.
    #[default]
    F64,
    /// int8 weights (shared EVQ8 fold) with f32 activations and f32
    /// accumulation; always approximate, always opt-in.
    Int8,
}

/// Resizes a scratch buffer to `len` zeros, keeping its capacity.
fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.resize(len, T::default());
}

/// Swaps the two outer axes of a `[outer][inner][feat]` buffer into
/// `[inner][outer][feat]`, converting each element: sample-major windows
/// into a time-major batch on the way in, a time-major arena back to
/// sample-major output on the way out.
fn restage<S: Copy, D>(
    src: &[S],
    dst: &mut [D],
    (outer, inner, feat): (usize, usize, usize),
    conv: impl Fn(S) -> D,
) {
    for o in 0..outer {
        for i in 0..inner {
            let s = &src[(o * inner + i) * feat..][..feat];
            let d = &mut dst[(i * outer + o) * feat..][..feat];
            for (d, &s) in d.iter_mut().zip(s) {
                *d = conv(s);
            }
        }
    }
}

/// A bias row in f32.
fn bias_row(b: &Matrix) -> Vec<f32> {
    b.as_slice().iter().map(|&v| v as f32).collect()
}

/// A dense layer's pointwise activation in f32.
fn act_f32(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Linear => x,
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => vmath::sigmoid1_f32(x),
        Activation::Tanh => vmath::tanh1_f32(x),
    }
}

/// A dense layer quantized for serving.
#[derive(Debug, Clone)]
struct DenseSnap {
    o_dim: usize,
    act: Activation,
    w: QuantizedPanel,
    b: Vec<f32>,
}

/// An LSTM layer quantized for serving: the training kernel `(I+H) × 4H`
/// split into its `W_x` and `W_h` halves, so the batched input projection
/// and the per-step recurrence each get a panel.
#[derive(Debug, Clone)]
struct LstmSnap {
    h_dim: usize,
    return_sequences: bool,
    wx: QuantizedPanel,
    wh: QuantizedPanel,
    b: Vec<f32>,
}

#[derive(Debug, Clone)]
enum InferLayer {
    Dense(DenseSnap),
    Lstm(LstmSnap),
    /// RepeatVector: broadcast a single collapsed step `n` times.
    Repeat(usize),
}

/// The int8 layers plus their reused buffers: the ping-pong activation
/// arenas, time-major `[t][row][feature]`, and the LSTMs' working memory.
#[derive(Debug, Clone)]
struct Net {
    layers: Vec<InferLayer>,
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
    scratch: Vec<f32>,
}

/// What a snapshot holds: one lane's state only.
#[derive(Debug, Clone)]
enum Snapshot {
    /// The serving replica and the time-major batch its forward reads.
    F64 {
        model: Box<Sequential>,
        input: Seq,
    },
    Int8(Net),
}

/// A frozen snapshot of a [`Sequential`] for batched scoring.
///
/// The snapshot holds no optimiser state or gradients and never mutates
/// its weights — only its arenas, which stay warm across calls (a
/// shape-stable caller allocates nothing after the first batch). Training,
/// `set_weights` or anything else done to the source model afterwards does
/// not reach it. A clone is an independent serving replica (the
/// multi-tenant scoring front end keeps one per worker thread).
///
/// # Examples
///
/// ```
/// use evfad_nn::infer::{InferenceModel, Precision};
/// use evfad_nn::{Activation, Dense, Lstm, Sequential};
/// use evfad_tensor::Matrix;
///
/// let mut model = Sequential::new(5)
///     .with(Lstm::new(1, 6, false))
///     .with(Dense::new(6, 1, Activation::Linear));
/// let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
/// // Three 4-step windows in one batched forward.
/// let windows = [0.1, 0.2, 0.3, 0.4, 0.0, 0.1, 0.0, 0.1, 0.9, 0.8, 0.7, 0.6];
/// let mut out = Vec::new();
/// let (steps, feat) = frozen.forward_batch_into(&windows, 3, &mut out);
/// assert_eq!((steps, feat), (1, 1));
/// assert_eq!(out.len(), 3);
/// // Bitwise-identical to the per-window exact path.
/// let exact = model.predict(&[Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4])]);
/// assert_eq!(out[0].to_bits(), exact[0][(0, 0)].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct InferenceModel {
    in_features: usize,
    snapshot: Snapshot,
}

impl InferenceModel {
    /// Freezes a built model into a snapshot at one precision.
    ///
    /// Dropout layers vanish (inference identity). `F64` keeps a replica of
    /// every other layer; `Int8` quantizes dense and LSTM layers and keeps
    /// repeat-vector ones.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the model has no layers that
    /// produce output (nothing to serve).
    pub fn freeze(model: &Sequential, precision: Precision) -> NnResult<Self> {
        let first_input = model.layers().iter().find_map(|layer| match layer {
            Layer::Dense(d) => Some(d.input_dim()),
            Layer::Lstm(l) => Some(l.input_dim()),
            Layer::Dropout(_) | Layer::RepeatVector(_) => None,
        });
        let Some(in_features) = first_input else {
            return Err(NnError::InvalidConfig(
                "cannot freeze a model with no parameterised layers".into(),
            ));
        };
        let snapshot = match precision {
            Precision::F64 => Snapshot::F64 {
                model: Box::new(model.serving_replica()),
                input: Seq::default(),
            },
            Precision::Int8 => Snapshot::Int8(Net::freeze(model)),
        };
        Ok(Self {
            in_features,
            snapshot,
        })
    }

    /// The numeric lane this snapshot serves with.
    pub fn precision(&self) -> Precision {
        match self.snapshot {
            Snapshot::F64 { .. } => Precision::F64,
            Snapshot::Int8(_) => Precision::Int8,
        }
    }

    /// Batched forward pass: `windows` holds `batch` samples, sample-major
    /// (`batch × steps × features`, each sample's steps contiguous) — the
    /// layout [`Sequential::predict_into`] produces. Writes the outputs
    /// sample-major into `out` (cleared first) and returns
    /// `(out_steps, out_features)` per sample. Each window's result is
    /// identical to a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` is not a positive multiple of
    /// `batch` times the model's input feature width.
    pub fn forward_batch_into(
        &mut self,
        windows: &[f64],
        batch: usize,
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        assert!(batch > 0, "forward_batch_into needs at least one window");
        let feat = self.in_features;
        assert!(
            !windows.is_empty() && windows.len().is_multiple_of(batch * feat),
            "window buffer of {} values is not a multiple of batch {batch} × features {feat}",
            windows.len(),
        );
        let shape = (batch, windows.len() / (batch * feat), feat);
        match &mut self.snapshot {
            Snapshot::F64 { model, input } => {
                input.reshape(shape.1, batch, feat);
                restage(windows, input.as_mut_slice(), shape, |v| v);
                out.clear();
                model.predict_seq_into(input, out, 0)
            }
            Snapshot::Int8(net) => net.forward(windows, shape, out),
        }
    }
}

impl Net {
    fn freeze(model: &Sequential) -> Self {
        let mut layers = Vec::new();
        for layer in model.layers() {
            layers.push(match layer {
                Layer::Dropout(_) => continue,
                Layer::RepeatVector(r) => InferLayer::Repeat(r.n()),
                Layer::Dense(d) => {
                    let p = d.params();
                    InferLayer::Dense(DenseSnap {
                        o_dim: d.output_dim(),
                        act: d.activation(),
                        w: QuantizedPanel::quantize(p[0].view()),
                        b: bias_row(p[1]),
                    })
                }
                Layer::Lstm(l) => {
                    let (p, i_dim) = (l.params(), l.input_dim());
                    InferLayer::Lstm(LstmSnap {
                        h_dim: l.hidden_dim(),
                        return_sequences: l.return_sequences(),
                        wx: QuantizedPanel::quantize(p[0].rows_view(0..i_dim)),
                        wh: QuantizedPanel::quantize(p[0].rows_view(i_dim..p[0].rows())),
                        b: bias_row(p[1]),
                    })
                }
            });
        }
        Self {
            layers,
            buf_a: Vec::new(),
            buf_b: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// `windows` is `batch × steps × feat`, sample-major.
    fn forward(
        &mut self,
        windows: &[f64],
        (batch, mut steps, mut feat): (usize, usize, usize),
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        let (mut cur, mut next) = (&mut self.buf_a, &mut self.buf_b);
        zeroed(cur, windows.len());
        restage(windows, cur, (batch, steps, feat), |v| v as f32);
        for layer in &self.layers {
            (steps, feat) = match layer {
                InferLayer::Dense(d) => {
                    d.forward(cur, steps * batch, next);
                    (steps, d.o_dim)
                }
                InferLayer::Lstm(l) => l.forward(cur, steps, batch, &mut self.scratch, next),
                InferLayer::Repeat(n) => {
                    assert_eq!(steps, 1, "RepeatVector input must be a single step");
                    next.clear();
                    for _ in 0..*n {
                        next.extend_from_slice(&cur[..batch * feat]);
                    }
                    (*n, feat)
                }
            };
            std::mem::swap(&mut cur, &mut next);
        }
        zeroed(out, batch * steps * feat);
        restage(cur, out, (steps, batch, feat), f64::from);
        (steps, feat)
    }
}

impl DenseSnap {
    /// One GEMM for every timestep of every window in the batch, then the
    /// training dense layer's `act(x + b)` per element.
    fn forward(&self, input: &[f32], rows: usize, out: &mut Vec<f32>) {
        zeroed(out, rows * self.o_dim);
        fastpath::matmul_q8_into(input, rows, &self.w, out);
        for row in out.chunks_exact_mut(self.o_dim) {
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v = act_f32(self.act, *v + b);
            }
        }
    }
}

impl LstmSnap {
    /// Batched input projection + per-step recurrence in the training
    /// LSTM's expression order — bias add, band-wise gate activation,
    /// in-place cell state, `(f·c) + (i·g)`; returns the output shape
    /// `(steps, features)`.
    fn forward(
        &self,
        input: &[f32],
        steps: usize,
        batch: usize,
        scratch: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) -> (usize, usize) {
        let h_dim = self.h_dim;
        let (bh, b4h) = (batch * h_dim, batch * 4 * h_dim);
        // Gate pre-activations for every step, the cell state (updated in
        // place), and the hidden states behind one zero block: step `t`
        // reads block `t` as `h_{t-1}` and writes block `t + 1`.
        zeroed(scratch, steps * b4h + bh + (steps + 1) * bh);
        let (pre, rest) = scratch.split_at_mut(steps * b4h);
        let (c, h) = rest.split_at_mut(bh);
        fastpath::matmul_q8_into(input, steps * batch, &self.wx, pre);
        for t in 0..steps {
            let (h_prev, h_t) = h[t * bh..(t + 2) * bh].split_at_mut(bh);
            let pre_t = &mut pre[t * b4h..(t + 1) * b4h];
            fastpath::matmul_q8_acc_into(h_prev, batch, &self.wh, pre_t);
            let rows = pre_t
                .chunks_exact_mut(4 * h_dim)
                .zip(c.chunks_exact_mut(h_dim))
                .zip(h_t.chunks_exact_mut(h_dim));
            for ((gates, c), h) in rows {
                for (v, &b) in gates.iter_mut().zip(&self.b) {
                    *v += b;
                }
                vmath::sigmoid_f32(&mut gates[..2 * h_dim]);
                vmath::tanh_f32(&mut gates[2 * h_dim..3 * h_dim]);
                vmath::sigmoid_f32(&mut gates[3 * h_dim..]);
                let (gi, rest) = gates.split_at(h_dim);
                let (gf, rest) = rest.split_at(h_dim);
                let (gg, go) = rest.split_at(h_dim);
                for (((c, &iv), &fv), &gv) in c.iter_mut().zip(gi).zip(gf).zip(gg) {
                    *c = (fv * *c) + (iv * gv);
                }
                h.copy_from_slice(c);
                vmath::tanh_f32(h);
                for (h, &ov) in h.iter_mut().zip(go) {
                    *h *= ov;
                }
            }
        }
        // Hand the next layer every step's hidden state, or only the last.
        let emitted = if self.return_sequences { steps } else { 1 };
        out.clear();
        out.extend_from_slice(&h[h.len() - emitted * bh..]);
        (emitted, h_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Dropout, Lstm, RepeatVector};

    fn window(seed: usize, steps: usize) -> Matrix {
        Matrix::from_fn(steps, 1, |t, _| {
            0.5 + 0.4 * ((seed * 7 + t * 3) as f64 * 0.37).sin()
        })
    }

    fn autoencoder() -> Sequential {
        Sequential::new(3)
            .with(Lstm::new(1, 8, true))
            .with(Dropout::new(0.2))
            .with(Lstm::new(8, 4, false))
            .with(RepeatVector::new(6))
            .with(Lstm::new(4, 4, true))
            .with(Dense::new(4, 1, Activation::Linear))
    }

    fn flat(samples: &[Matrix]) -> Vec<f64> {
        samples.iter().flat_map(|m| m.as_slice().to_vec()).collect()
    }

    #[test]
    fn f64_lane_matches_predict_bitwise_on_default_build() {
        let mut model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..5).map(|s| window(s, 6)).collect();
        let exact = model.predict(&samples);
        let mut out = Vec::new();
        let (steps, feat) = frozen.forward_batch_into(&flat(&samples), 5, &mut out);
        assert_eq!((steps, feat), (6, 1));
        let exact_flat = flat(&exact);
        assert_eq!(out.len(), exact_flat.len());
        for (a, b) in out.iter().zip(&exact_flat) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn batching_does_not_change_any_window() {
        let model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..7).map(|s| window(s + 11, 6)).collect();
        let mut batched = Vec::new();
        frozen.forward_batch_into(&flat(&samples), 7, &mut batched);
        for (s, sample) in samples.iter().enumerate() {
            let mut single = Vec::new();
            frozen.forward_batch_into(sample.as_slice(), 1, &mut single);
            let chunk = &batched[s * single.len()..(s + 1) * single.len()];
            for (a, b) in single.iter().zip(chunk) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn int8_lane_stays_close_to_exact() {
        let mut model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::Int8).unwrap();
        assert_eq!(frozen.precision(), Precision::Int8);
        let samples: Vec<Matrix> = (0..6).map(|s| window(s, 6)).collect();
        let exact = flat(&model.predict(&samples));
        let mut out = Vec::new();
        frozen.forward_batch_into(&flat(&samples), 6, &mut out);
        for (a, b) in out.iter().zip(&exact) {
            assert!(
                (a - b).abs() < 0.1,
                "int8 drifted too far from exact: {a} vs {b}"
            );
        }
    }

    #[test]
    fn freeze_rejects_parameterless_models() {
        let model = Sequential::new(1).with(Dropout::new(0.1));
        assert!(InferenceModel::freeze(&model, Precision::F64).is_err());
    }
}

//! Frozen, packed inference snapshots of a [`Sequential`] model.
//!
//! Training mutates a model in place and must stay bitwise-pinned; serving
//! wants the opposite trade — freeze the weights once, pack them for the
//! kernels' preferred layout, and push as many windows per GEMM as the
//! admission queue can batch. An [`InferenceModel`] is that snapshot:
//!
//! - [`Precision`] picks the numeric lane at freeze time, and the snapshot
//!   packs, quantizes and allocates scratch for **that lane only**: [`PackedB`]
//!   operands and `f64` arenas, or [`QuantizedPanel`]s (the shared EVQ8
//!   fold) and `f32` arenas. A per-worker clone copies nothing the worker
//!   will not read.
//! - [`InferenceModel::forward_batch_into`] runs **many windows per GEMM**:
//!   the batch shares one input-projection product per recurrent layer and
//!   one product per dense layer. Dropout, the identity at inference, is
//!   dropped at freeze time.
//! - Each layer kind has a single forward, generic over a private `Lane`
//!   (element type, packed operand, two GEMM entry points, activations), so
//!   both lanes run the same expression order — bias add, band-wise gate
//!   activation, in-place cell state, `(f·c) + (i·g)` — and differ only in
//!   what a `Lane` method does.
//!
//! # Exactness contract
//!
//! The `F64` lane's GEMMs go through the entry points of [`fastpath`],
//! which run the exact [`kernels`](evfad_tensor::kernels) over the frozen
//! operand; its activations are the training path's own — the [`vmath`]
//! slice kernels, whose result for an element does not depend on where in
//! a slice it sits — and each output row of every kernel depends only on
//! its own input row. So **`forward_batch_into` is bitwise-identical to
//! per-window [`Sequential::predict`]** (pinned by proptests and the
//! tier-1 scoring gate).
//!
//! The `Int8` lane is always approximate: weights carry at most half a
//! quantization step of error each (see [`quant`](evfad_tensor::quant)),
//! activations and accumulation are `f32`. The score-level bound (delta
//! under 0.05, at most 2 % of decisions flipped) is asserted by
//! `crates/anomaly/tests/inference_parity.rs`.

use crate::activation::Activation;
use crate::layer::Layer;
use crate::model::Sequential;
use crate::{NnError, NnResult};
use evfad_tensor::fastpath::{self, PackedB, QuantizedPanel};
use evfad_tensor::{vmath, MatMut, MatRef, Matrix};
use std::fmt::Debug;
use std::ops::{Add, Mul, Sub};

/// Numeric lane of a frozen snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// f64 activations and accumulation; bitwise-exact versus the
    /// training-path forward.
    #[default]
    F64,
    /// int8 weights (shared EVQ8 fold) with f32 activations and f32
    /// accumulation; always approximate, always opt-in.
    Int8,
}

/// What a numeric lane supplies to the layer forwards: its element type,
/// its packed right-hand operand, and the kernels over them.
trait Lane: Debug + Clone {
    type Elem: Copy
        + Default
        + Debug
        + Add<Output = Self::Elem>
        + Sub<Output = Self::Elem>
        + Mul<Output = Self::Elem>;
    type Packed: Debug + Clone;

    /// Packs a row-major `k × n` weight block.
    fn pack(w: MatRef<'_>) -> Self::Packed;
    /// `out = a · b`, `a` row-major `rows × k`.
    fn matmul_into(a: &[Self::Elem], rows: usize, b: &Self::Packed, out: &mut [Self::Elem]);
    /// `out += a · b`.
    fn matmul_acc_into(a: &[Self::Elem], rows: usize, b: &Self::Packed, out: &mut [Self::Elem]);
    /// In-place logistic sigmoid over a gate band.
    fn sigmoid(xs: &mut [Self::Elem]);
    /// In-place `tanh` over a gate band.
    fn tanh(xs: &mut [Self::Elem]);
    /// A dense layer's pointwise activation.
    fn act(act: Activation, x: Self::Elem) -> Self::Elem;
    fn from_f64(x: f64) -> Self::Elem;
    fn to_f64(x: Self::Elem) -> f64;
}

/// The exact lane: f64 throughout, [`PackedB`] operands.
#[derive(Debug, Clone)]
struct F64;

impl Lane for F64 {
    type Elem = f64;
    type Packed = PackedB;

    fn pack(w: MatRef<'_>) -> PackedB {
        PackedB::pack(w)
    }

    fn matmul_into(a: &[f64], rows: usize, b: &PackedB, out: &mut [f64]) {
        let out = MatMut::new(rows, b.n(), out);
        fastpath::matmul_into_blocked(MatRef::new(rows, b.k(), a), b, out);
    }

    fn matmul_acc_into(a: &[f64], rows: usize, b: &PackedB, out: &mut [f64]) {
        let out = MatMut::new(rows, b.n(), out);
        fastpath::matmul_acc_into_blocked(MatRef::new(rows, b.k(), a), b, out);
    }

    fn sigmoid(xs: &mut [f64]) {
        vmath::sigmoid_f64(xs);
    }

    fn tanh(xs: &mut [f64]) {
        vmath::tanh_f64(xs);
    }

    fn act(act: Activation, x: f64) -> f64 {
        act.apply(x)
    }

    fn from_f64(x: f64) -> f64 {
        x
    }

    fn to_f64(x: f64) -> f64 {
        x
    }
}

/// The int8 lane: [`QuantizedPanel`] weights, f32 activations and
/// accumulation, polynomial gate activations.
#[derive(Debug, Clone)]
struct Q8;

impl Lane for Q8 {
    type Elem = f32;
    type Packed = QuantizedPanel;

    fn pack(w: MatRef<'_>) -> QuantizedPanel {
        QuantizedPanel::quantize(w)
    }

    fn matmul_into(a: &[f32], rows: usize, b: &QuantizedPanel, out: &mut [f32]) {
        fastpath::matmul_q8_into(a, rows, b, out);
    }

    fn matmul_acc_into(a: &[f32], rows: usize, b: &QuantizedPanel, out: &mut [f32]) {
        fastpath::matmul_q8_acc_into(a, rows, b, out);
    }

    fn sigmoid(xs: &mut [f32]) {
        vmath::sigmoid_f32(xs);
    }

    fn tanh(xs: &mut [f32]) {
        vmath::tanh_f32(xs);
    }

    fn act(act: Activation, x: f32) -> f32 {
        match act {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => vmath::sigmoid1_f32(x),
            Activation::Tanh => vmath::tanh1_f32(x),
        }
    }

    fn from_f64(x: f64) -> f32 {
        x as f32
    }

    fn to_f64(x: f32) -> f64 {
        f64::from(x)
    }
}

/// Resizes a scratch buffer to `len` zeros, keeping its capacity.
fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.resize(len, T::default());
}

/// Adds a bias row to one row of pre-activations.
fn add_bias<T: Copy + Add<Output = T>>(row: &mut [T], bias: &[T]) {
    for (v, &b) in row.iter_mut().zip(bias) {
        *v = *v + b;
    }
}

/// Swaps the two outer axes of a `[outer][inner][feat]` buffer into
/// `[inner][outer][feat]`, converting each element: sample-major windows
/// into the time-major arena on the way in, the arena back to sample-major
/// output on the way out.
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

/// Converts a bias row to the lane's element type.
fn bias_row<L: Lane>(b: &Matrix) -> Vec<L::Elem> {
    b.as_slice().iter().map(|&v| L::from_f64(v)).collect()
}

/// Hands a recurrent layer's hidden states (blocks of `bh` behind the zero
/// initial state) to the next layer: every step, or only the last.
fn emit<T: Copy>(h: &[T], bh: usize, all_steps: bool, out: &mut Vec<T>) -> usize {
    let steps = if all_steps { h.len() / bh - 1 } else { 1 };
    out.clear();
    out.extend_from_slice(&h[h.len() - steps * bh..]);
    steps
}

/// A dense layer frozen for serving.
#[derive(Debug, Clone)]
struct DenseSnap<L: Lane> {
    o_dim: usize,
    act: Activation,
    w: L::Packed,
    b: Vec<L::Elem>,
}

/// One affine map of a recurrent layer, `x·W_x + h·W_h + b`: the training
/// kernel `(I+H) × n` split into its halves so the batched input projection
/// and the per-step recurrence each get a packed operand.
#[derive(Debug, Clone)]
struct Proj<L: Lane> {
    wx: L::Packed,
    wh: L::Packed,
    b: Vec<L::Elem>,
}

impl<L: Lane> Proj<L> {
    fn pack(w: &Matrix, b: &Matrix, i_dim: usize) -> Self {
        Self {
            wx: L::pack(w.rows_view(0..i_dim)),
            wh: L::pack(w.rows_view(i_dim..w.rows())),
            b: bias_row::<L>(b),
        }
    }
}

/// An LSTM layer frozen for serving.
#[derive(Debug, Clone)]
struct LstmSnap<L: Lane> {
    h_dim: usize,
    return_sequences: bool,
    gates: Proj<L>,
}

/// A GRU layer frozen for serving.
#[derive(Debug, Clone)]
struct GruSnap<L: Lane> {
    h_dim: usize,
    return_sequences: bool,
    gates: Proj<L>,
    cand: Proj<L>,
}

#[derive(Debug, Clone)]
enum InferLayer<L: Lane> {
    Dense(DenseSnap<L>),
    Lstm(LstmSnap<L>),
    Gru(GruSnap<L>),
    /// RepeatVector: broadcast a single collapsed step `n` times.
    Repeat(usize),
}

/// The layers of one lane plus its reused buffers: the ping-pong activation
/// arenas, time-major `[t][row][feature]`, and the recurrent layers'
/// working memory.
#[derive(Debug, Clone)]
struct Net<L: Lane> {
    layers: Vec<InferLayer<L>>,
    in_features: usize,
    out_features: usize,
    buf_a: Vec<L::Elem>,
    buf_b: Vec<L::Elem>,
    scratch: Vec<L::Elem>,
}

#[derive(Debug, Clone)]
enum LaneNet {
    F64(Net<F64>),
    Int8(Net<Q8>),
}

/// A frozen, packed snapshot of a [`Sequential`] for batched scoring.
///
/// The snapshot holds no optimiser state or training caches and never
/// mutates its weights — only its scratch buffers, which stay warm across
/// calls (a shape-stable caller allocates nothing after the first batch).
/// A clone is an independent serving replica (the multi-tenant scoring
/// front end keeps one per worker thread).
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
    net: LaneNet,
}

impl InferenceModel {
    /// Freezes a built model into a packed snapshot of one lane.
    ///
    /// Dropout layers vanish (inference identity); dense, LSTM, GRU, and
    /// repeat-vector layers are packed (`F64`) or quantized (`Int8`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the model has no layers that
    /// produce output (nothing to serve).
    pub fn freeze(model: &Sequential, precision: Precision) -> NnResult<Self> {
        let net = match precision {
            Precision::F64 => LaneNet::F64(Net::freeze(model)?),
            Precision::Int8 => LaneNet::Int8(Net::freeze(model)?),
        };
        Ok(Self { net })
    }

    /// The numeric lane this snapshot serves with.
    pub fn precision(&self) -> Precision {
        match self.net {
            LaneNet::F64(_) => Precision::F64,
            LaneNet::Int8(_) => Precision::Int8,
        }
    }

    /// Input feature width per timestep.
    pub fn input_features(&self) -> usize {
        match &self.net {
            LaneNet::F64(n) => n.in_features,
            LaneNet::Int8(n) => n.in_features,
        }
    }

    /// Output feature width per timestep.
    pub fn output_features(&self) -> usize {
        match &self.net {
            LaneNet::F64(n) => n.out_features,
            LaneNet::Int8(n) => n.out_features,
        }
    }

    /// Total packed int8 weight bytes the snapshot holds: zero for an
    /// `F64` snapshot, which quantizes nothing.
    pub fn quantized_bytes(&self) -> usize {
        let LaneNet::Int8(net) = &self.net else {
            return 0;
        };
        let proj = |p: &Proj<Q8>| p.wx.byte_size() + p.wh.byte_size();
        let layer = |l: &InferLayer<Q8>| match l {
            InferLayer::Dense(d) => d.w.byte_size(),
            InferLayer::Lstm(l) => proj(&l.gates),
            InferLayer::Gru(g) => proj(&g.gates) + proj(&g.cand),
            InferLayer::Repeat(_) => 0,
        };
        net.layers.iter().map(layer).sum()
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
    /// `batch * input_features()`.
    pub fn forward_batch_into(
        &mut self,
        windows: &[f64],
        batch: usize,
        out: &mut Vec<f64>,
    ) -> (usize, usize) {
        assert!(batch > 0, "forward_batch_into needs at least one window");
        let feat = self.input_features();
        assert!(
            !windows.is_empty() && windows.len().is_multiple_of(batch * feat),
            "window buffer of {} values is not a multiple of batch {batch} × features {feat}",
            windows.len(),
        );
        match &mut self.net {
            LaneNet::F64(n) => n.forward(windows, batch, out),
            LaneNet::Int8(n) => n.forward(windows, batch, out),
        }
    }
}

impl<L: Lane> Net<L> {
    fn freeze(model: &Sequential) -> NnResult<Self> {
        let mut layers = Vec::new();
        let mut in_features = None;
        let mut out_features = 0usize;
        for layer in model.layers() {
            let (i_dim, o_dim) = match layer {
                Layer::Dropout(_) => continue,
                Layer::RepeatVector(r) => {
                    layers.push(InferLayer::Repeat(r.n()));
                    continue;
                }
                Layer::Dense(d) => {
                    let p = d.params();
                    layers.push(InferLayer::Dense(DenseSnap {
                        o_dim: d.output_dim(),
                        act: d.activation(),
                        w: L::pack(p[0].view()),
                        b: bias_row::<L>(p[1]),
                    }));
                    (d.input_dim(), d.output_dim())
                }
                Layer::Lstm(l) => {
                    let p = l.params();
                    layers.push(InferLayer::Lstm(LstmSnap {
                        h_dim: l.hidden_dim(),
                        return_sequences: l.return_sequences(),
                        gates: Proj::pack(p[0], p[1], l.input_dim()),
                    }));
                    (l.input_dim(), l.hidden_dim())
                }
                Layer::Gru(g) => {
                    let p = g.params();
                    layers.push(InferLayer::Gru(GruSnap {
                        h_dim: g.hidden_dim(),
                        return_sequences: g.return_sequences(),
                        gates: Proj::pack(p[0], p[1], g.input_dim()),
                        cand: Proj::pack(p[2], p[3], g.input_dim()),
                    }));
                    (g.input_dim(), g.hidden_dim())
                }
            };
            in_features.get_or_insert(i_dim);
            out_features = o_dim;
        }
        let in_features = in_features.ok_or_else(|| {
            NnError::InvalidConfig("cannot freeze a model with no parameterised layers".into())
        })?;
        Ok(Self {
            layers,
            in_features,
            out_features,
            buf_a: Vec::new(),
            buf_b: Vec::new(),
            scratch: Vec::new(),
        })
    }

    fn forward(&mut self, windows: &[f64], batch: usize, out: &mut Vec<f64>) -> (usize, usize) {
        let mut feat = self.in_features;
        let mut steps = windows.len() / (batch * feat);
        let (mut cur, mut next) = (&mut self.buf_a, &mut self.buf_b);
        zeroed(cur, windows.len());
        restage(windows, cur, (batch, steps, feat), L::from_f64);
        for layer in &self.layers {
            (steps, feat) = match layer {
                InferLayer::Dense(d) => {
                    d.forward(cur, steps * batch, next);
                    (steps, d.o_dim)
                }
                InferLayer::Lstm(l) => l.forward(cur, steps, batch, &mut self.scratch, next),
                InferLayer::Gru(g) => g.forward(cur, steps, batch, &mut self.scratch, next),
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
        restage(cur, out, (steps, batch, feat), L::to_f64);
        (steps, feat)
    }
}

impl<L: Lane> DenseSnap<L> {
    /// One GEMM for every timestep of every window in the batch, then the
    /// training dense layer's `act(x + b)` per element.
    fn forward(&self, input: &[L::Elem], rows: usize, out: &mut Vec<L::Elem>) {
        zeroed(out, rows * self.o_dim);
        L::matmul_into(input, rows, &self.w, out);
        for row in out.chunks_exact_mut(self.o_dim) {
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v = L::act(self.act, *v + b);
            }
        }
    }
}

impl<L: Lane> LstmSnap<L> {
    /// Batched input projection + per-step recurrence, replaying the
    /// training LSTM's fused forward expression for expression; returns the
    /// output shape `(steps, features)`.
    fn forward(
        &self,
        input: &[L::Elem],
        steps: usize,
        batch: usize,
        scratch: &mut Vec<L::Elem>,
        out: &mut Vec<L::Elem>,
    ) -> (usize, usize) {
        let h_dim = self.h_dim;
        let (bh, b4h) = (batch * h_dim, batch * 4 * h_dim);
        // Gate pre-activations for every step, the cell state (updated in
        // place), and the hidden states behind one zero block: step `t`
        // reads block `t` as `h_{t-1}` and writes block `t + 1`.
        zeroed(scratch, steps * b4h + bh + (steps + 1) * bh);
        let (pre, rest) = scratch.split_at_mut(steps * b4h);
        let (c, h) = rest.split_at_mut(bh);
        L::matmul_into(input, steps * batch, &self.gates.wx, pre);
        for t in 0..steps {
            let (h_prev, h_t) = h[t * bh..(t + 2) * bh].split_at_mut(bh);
            let pre_t = &mut pre[t * b4h..(t + 1) * b4h];
            L::matmul_acc_into(h_prev, batch, &self.gates.wh, pre_t);
            let rows = pre_t
                .chunks_exact_mut(4 * h_dim)
                .zip(c.chunks_exact_mut(h_dim))
                .zip(h_t.chunks_exact_mut(h_dim));
            for ((gates, c), h) in rows {
                add_bias(gates, &self.gates.b);
                L::sigmoid(&mut gates[..2 * h_dim]);
                L::tanh(&mut gates[2 * h_dim..3 * h_dim]);
                L::sigmoid(&mut gates[3 * h_dim..]);
                let (gi, rest) = gates.split_at(h_dim);
                let (gf, rest) = rest.split_at(h_dim);
                let (gg, go) = rest.split_at(h_dim);
                for (((c, &iv), &fv), &gv) in c.iter_mut().zip(gi).zip(gf).zip(gg) {
                    *c = (fv * *c) + (iv * gv);
                }
                h.copy_from_slice(c);
                L::tanh(h);
                for (h, &ov) in h.iter_mut().zip(go) {
                    *h = *h * ov;
                }
            }
        }
        (emit(h, bh, self.return_sequences, out), h_dim)
    }
}

impl<L: Lane> GruSnap<L> {
    /// Batched projections + per-step recurrence, replaying the training
    /// GRU forward expression for expression.
    fn forward(
        &self,
        input: &[L::Elem],
        steps: usize,
        batch: usize,
        scratch: &mut Vec<L::Elem>,
        out: &mut Vec<L::Elem>,
    ) -> (usize, usize) {
        let h_dim = self.h_dim;
        let (bh, b2h) = (batch * h_dim, batch * 2 * h_dim);
        // Gate and candidate pre-activations for every step, `r ⊙ h_{t-1}`,
        // and the hidden states laid out as in the LSTM.
        zeroed(scratch, steps * (b2h + bh) + bh + (steps + 1) * bh);
        let (preg, rest) = scratch.split_at_mut(steps * b2h);
        let (cand, rest) = rest.split_at_mut(steps * bh);
        let (rh, h) = rest.split_at_mut(bh);
        L::matmul_into(input, steps * batch, &self.gates.wx, preg);
        L::matmul_into(input, steps * batch, &self.cand.wx, cand);
        let one = L::from_f64(1.0);
        for t in 0..steps {
            let (h_prev, h_t) = h[t * bh..(t + 2) * bh].split_at_mut(bh);
            let preg_t = &mut preg[t * b2h..(t + 1) * b2h];
            L::matmul_acc_into(h_prev, batch, &self.gates.wh, preg_t);
            let rows = preg_t
                .chunks_exact_mut(2 * h_dim)
                .zip(rh.chunks_exact_mut(h_dim))
                .zip(h_prev.chunks_exact(h_dim));
            for ((gates, rh), hp) in rows {
                add_bias(gates, &self.gates.b);
                L::sigmoid(gates);
                for ((rh, &rv), &hp) in rh.iter_mut().zip(&gates[h_dim..]).zip(hp) {
                    *rh = rv * hp;
                }
            }
            let cand_t = &mut cand[t * bh..(t + 1) * bh];
            L::matmul_acc_into(rh, batch, &self.cand.wh, cand_t);
            let rows = preg_t
                .chunks_exact(2 * h_dim)
                .zip(cand_t.chunks_exact_mut(h_dim))
                .zip(h_prev.chunks_exact(h_dim))
                .zip(h_t.chunks_exact_mut(h_dim));
            for (((gates, ct), hp), ht) in rows {
                add_bias(ct, &self.cand.b);
                L::tanh(ct);
                let it = gates[..h_dim].iter().zip(ct.iter()).zip(hp).zip(ht);
                for (((&z_v, &ht_v), &hp), ht) in it {
                    *ht = (hp * (one - z_v)) + (ht_v * z_v);
                }
            }
        }
        (emit(h, bh, self.return_sequences, out), h_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Dropout, Gru, Lstm, RepeatVector};

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
    fn gru_stack_matches_predict() {
        let mut model = Sequential::new(9)
            .with(Gru::new(1, 6, true))
            .with(Gru::new(6, 3, false))
            .with(Dense::new(3, 2, Activation::Tanh));
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).unwrap();
        let samples: Vec<Matrix> = (0..4).map(|s| window(s, 5)).collect();
        let exact = model.predict(&samples);
        let mut out = Vec::new();
        let (steps, feat) = frozen.forward_batch_into(&flat(&samples), 4, &mut out);
        assert_eq!((steps, feat), (1, 2));
        for (a, b) in out.iter().zip(flat(&exact).iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn int8_lane_stays_close_to_exact() {
        let mut model = autoencoder();
        let mut frozen = InferenceModel::freeze(&model, Precision::Int8).unwrap();
        assert_eq!(frozen.precision(), Precision::Int8);
        assert!(frozen.quantized_bytes() > 0);
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

    #[test]
    fn f64_snapshot_holds_no_int8_lane() {
        let frozen = InferenceModel::freeze(&autoencoder(), Precision::F64).unwrap();
        assert_eq!(frozen.precision(), Precision::F64);
        assert_eq!(frozen.quantized_bytes(), 0);
    }
}

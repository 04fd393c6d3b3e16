//! Update compression: 8-bit quantization and sparse top-k deltas.
//!
//! The paper's privacy/communication story is "only model parameters were
//! exchanged". This module cuts that exchange further — ~8x via 8-bit
//! uniform quantization against each tensor's own min/max range (the
//! standard communication-efficient-FL baseline), or more via sparse
//! top-k deltas against the round's broadcast global — with measured,
//! bounded round-trip error. [`CompressionMode`] selects the uplink
//! encoding in [`FederatedConfig`](crate::FederatedConfig); the binary
//! wire records live in [`wire`](crate::wire) (`EVQ8` / `EVSK`).
//!
//! # Non-finite values
//!
//! Quantization is NaN-tolerant by construction: non-finite values (NaN,
//! ±∞) are excluded from the min/max range fold and transmitted **verbatim**
//! as `(index, value)` side records, so a NaN-flood-corrupted update
//! round-trips exactly — the poison reaches the server unmodified and the
//! robust aggregators (not the codec) remain the defence. A finite tensor
//! pays nothing for this; a fully non-finite tensor degenerates to the
//! verbatim list (correctness over ratio under attack).

use evfad_tensor::quant::QuantRange;
use evfad_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Uplink encoding for client updates, selected by
/// [`FederatedConfig::compression`](crate::FederatedConfig::compression).
///
/// Whatever the mode, the server decodes the payload **before**
/// aggregation, so metering, faults, and aggregation all see the same
/// bytes that crossed the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CompressionMode {
    /// Full-precision binary wire format (`EVFD`); decode is bit-exact,
    /// so results are identical to an uncompressed run.
    #[default]
    None,
    /// 8-bit uniform quantization per tensor (`EVQ8`), ~8x smaller with
    /// round-trip error bounded by half a quantization step.
    Quant8,
    /// Sparse top-k delta against the round's broadcast global (`EVSK`):
    /// only the `k` largest-magnitude per-tensor coordinate changes are
    /// transmitted; the server reconstructs `global + delta`.
    TopKDelta {
        /// Coordinates kept per tensor (≥ 1).
        k: usize,
    },
}

impl std::fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressionMode::None => write!(f, "none"),
            CompressionMode::Quant8 => write!(f, "quant8"),
            CompressionMode::TopKDelta { k } => write!(f, "topk{k}"),
        }
    }
}

/// One weight tensor quantized to 8 bits.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Minimum *finite* value of the original tensor (0.0 when none).
    pub(crate) min: f64,
    /// Quantization step ((max - min) / 255 over finite values).
    pub(crate) step: f64,
    /// Row-major quantized codes (non-finite positions carry code 0).
    pub(crate) codes: Vec<u8>,
    /// Flat indices of non-finite values, strictly increasing.
    #[serde(default)]
    pub(crate) special_idx: Vec<u32>,
    /// The non-finite values themselves, aligned with `special_idx`.
    #[serde(default)]
    pub(crate) special_val: Vec<f64>,
}

impl QuantizedTensor {
    /// Quantizes a tensor: each finite value maps to the nearest of 256
    /// levels spanning the finite `[min, max]`; non-finite values are
    /// recorded verbatim (see the module docs) and never poison the range.
    ///
    /// The range fold and code math live in the shared
    /// [`evfad_tensor::quant::QuantRange`] helper — the same fold the int8
    /// inference lane uses — so the wire format and the scoring path can
    /// never diverge on rounding rules.
    pub fn quantize(m: &Matrix) -> Self {
        let mut out = Self::default();
        Self::quantize_into(m, &mut out);
        out
    }

    /// Quantizes `m` into `out`, reusing its code and special buffers —
    /// identical output to [`QuantizedTensor::quantize`] (which delegates
    /// here), but a warm caller pays zero allocations per tensor.
    pub fn quantize_into(m: &Matrix, out: &mut Self) {
        let range = QuantRange::from_values(m.as_slice());
        let Self {
            rows,
            cols,
            min,
            step,
            codes,
            special_idx,
            special_val,
        } = out;
        *rows = m.rows();
        *cols = m.cols();
        *min = range.min;
        *step = range.step;
        codes.clear();
        codes.resize(m.len(), 0);
        special_idx.clear();
        special_val.clear();
        range.encode_slice(m.as_slice(), codes, |i, v| {
            special_idx.push(i as u32);
            special_val.push(v);
        });
    }

    /// The shared-range view of this tensor's header fields.
    fn range(&self) -> QuantRange {
        QuantRange {
            min: self.min,
            step: self.step,
        }
    }

    /// Reconstructs the (lossy) tensor. Non-finite values come back
    /// bit-for-bit.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.dequantize_into(&mut out);
        out
    }

    /// Reconstructs the tensor into `out`, reusing its buffer when the
    /// shape already matches — identical output to
    /// [`QuantizedTensor::dequantize`] (which delegates here), but a warm
    /// caller pays zero allocations per tensor.
    pub fn dequantize_into(&self, out: &mut Matrix) {
        if out.shape() != (self.rows, self.cols) {
            *out = Matrix::zeros(self.rows, self.cols);
        }
        let range = self.range();
        let data = out.as_mut_slice();
        for (slot, &c) in data.iter_mut().zip(&self.codes) {
            *slot = range.decode(c);
        }
        for (&i, &v) in self.special_idx.iter().zip(&self.special_val) {
            data[i as usize] = v;
        }
    }

    /// Worst-case absolute reconstruction error over finite values (half a
    /// step; non-finite values are exact).
    pub fn max_error(&self) -> f64 {
        self.range().max_error()
    }

    /// Payload size in bytes — exactly the per-tensor record size of the
    /// `EVQ8` wire format (shape + range header, one byte per code, twelve
    /// per verbatim non-finite value).
    pub fn byte_size(&self) -> usize {
        4 + 4 + 8 + 8 + 4 + self.codes.len() + 12 * self.special_idx.len()
    }

    /// Number of non-finite values transmitted verbatim.
    pub fn special_count(&self) -> usize {
        self.special_idx.len()
    }
}

/// A whole model update quantized tensor-by-tensor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantizedUpdate {
    pub(crate) tensors: Vec<QuantizedTensor>,
}

impl QuantizedUpdate {
    /// Quantizes every tensor of a weight vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use evfad_federated::compression::QuantizedUpdate;
    /// use evfad_tensor::Matrix;
    ///
    /// let weights = vec![Matrix::from_fn(10, 10, |i, j| (i as f64 - j as f64) * 0.01)];
    /// let q = QuantizedUpdate::quantize(&weights);
    /// let restored = q.dequantize();
    /// assert_eq!(restored[0].shape(), (10, 10));
    /// assert!(q.byte_size() < 200);
    /// ```
    pub fn quantize(weights: &[Matrix]) -> Self {
        Self {
            tensors: weights.iter().map(QuantizedTensor::quantize).collect(),
        }
    }

    /// Quantizes every tensor into `out`, reusing its nested buffers —
    /// identical output to [`QuantizedUpdate::quantize`], but zero
    /// allocations once `out` has seen the model's shapes. This is the
    /// warm-round encode path: the engine, the socket client, and the
    /// scale engine hold one `QuantizedUpdate` scratch per worker and
    /// re-fill it every round.
    pub fn quantize_into(weights: &[Matrix], out: &mut Self) {
        out.tensors.resize_with(weights.len(), Default::default);
        for (m, t) in weights.iter().zip(&mut out.tensors) {
            QuantizedTensor::quantize_into(m, t);
        }
    }

    /// Reconstructs the weight vector.
    pub fn dequantize(&self) -> Vec<Matrix> {
        self.tensors
            .iter()
            .map(QuantizedTensor::dequantize)
            .collect()
    }

    /// Reconstructs the weight vector into `out`, reusing same-shaped
    /// buffers — identical output to [`QuantizedUpdate::dequantize`];
    /// zero allocations when `out` already holds matching shapes.
    pub fn dequantize_into(&self, out: &mut Vec<Matrix>) {
        out.truncate(self.tensors.len());
        for (i, t) in self.tensors.iter().enumerate() {
            match out.get_mut(i) {
                Some(m) => t.dequantize_into(m),
                None => out.push(t.dequantize()),
            }
        }
    }

    /// Total payload bytes (sum of per-tensor records, excluding the
    /// 10-byte blob header of [`wire::encode_quantized`]).
    ///
    /// [`wire::encode_quantized`]: crate::wire::encode_quantized
    pub fn byte_size(&self) -> usize {
        self.tensors.iter().map(QuantizedTensor::byte_size).sum()
    }

    /// Compression ratio versus shipping raw `f64` values.
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self.tensors.iter().map(|t| t.codes.len() * 8).sum();
        raw as f64 / self.byte_size() as f64
    }
}

/// One tensor's sparse delta: the changed coordinates only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseTensor {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Flat (row-major) indices of transmitted coordinates, strictly
    /// increasing.
    pub(crate) indices: Vec<u32>,
    /// Delta values, aligned with `indices`.
    pub(crate) values: Vec<f64>,
}

impl SparseTensor {
    /// Per-tensor `EVSK` record size in bytes.
    pub fn byte_size(&self) -> usize {
        4 + 4 + 4 + 12 * self.indices.len()
    }
}

/// A whole model update as sparse top-k deltas against a base (the round's
/// broadcast global weights).
///
/// Selection is deterministic: per tensor, the `k` largest-|delta|
/// coordinates win, ties broken by lower flat index; exact-zero deltas are
/// never transmitted (reconstruction is unchanged without them). A NaN or
/// ±∞ delta counts as infinitely large — corruption is the *most* important
/// thing to transmit faithfully, so poisoned coordinates always make the
/// cut and reach the aggregator unmodified.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseDelta {
    pub(crate) tensors: Vec<SparseTensor>,
}

impl SparseDelta {
    /// Builds the top-`k`-per-tensor delta `update - base`.
    ///
    /// # Panics
    ///
    /// Panics if `update` and `base` differ in tensor count or shapes —
    /// the simulation guarantees both come from the same architecture.
    pub fn top_k(update: &[Matrix], base: &[Matrix], k: usize) -> Self {
        let mut out = Self::default();
        let mut picked = Vec::new();
        Self::top_k_into(update, base, k, &mut picked, &mut out);
        out
    }

    /// Builds the top-`k` delta into `out`, reusing its index/value buffers
    /// and the caller's `picked` selection scratch — identical output to
    /// [`SparseDelta::top_k`] (which delegates here; the selection sorts
    /// are unstable but the comparators are total orders over distinct
    /// indices, so the result is the same), with zero allocations once the
    /// buffers have seen the model's density.
    ///
    /// # Panics
    ///
    /// Panics if `update` and `base` differ in tensor count or shapes.
    pub fn top_k_into(
        update: &[Matrix],
        base: &[Matrix],
        k: usize,
        picked: &mut Vec<(u32, f64)>,
        out: &mut Self,
    ) {
        assert_eq!(update.len(), base.len(), "sparse delta tensor count");
        out.tensors.resize_with(update.len(), Default::default);
        for ((u, b), t) in update.iter().zip(base).zip(&mut out.tensors) {
            assert_eq!(u.shape(), b.shape(), "sparse delta tensor shape");
            picked.clear();
            picked.extend(
                u.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .enumerate()
                    .filter_map(|(i, (&uv, &bv))| {
                        let d = uv - bv;
                        // `d != 0.0` keeps NaN (NaN != 0.0) and ±∞.
                        if d != 0.0 {
                            Some((i as u32, d))
                        } else {
                            None
                        }
                    }),
            );
            if picked.len() > k {
                let magnitude = |d: f64| if d.is_nan() { f64::INFINITY } else { d.abs() };
                picked.sort_unstable_by(|a, b| {
                    magnitude(b.1)
                        .partial_cmp(&magnitude(a.1))
                        .expect("magnitudes are never NaN")
                        .then(a.0.cmp(&b.0))
                });
                picked.truncate(k);
                picked.sort_unstable_by_key(|&(i, _)| i);
            }
            t.rows = u.rows();
            t.cols = u.cols();
            t.indices.clear();
            t.values.clear();
            t.indices.extend(picked.iter().map(|&(i, _)| i));
            t.values.extend(picked.iter().map(|&(_, v)| v));
        }
    }

    /// Reconstructs `base + delta`.
    ///
    /// # Panics
    ///
    /// Panics if `base` does not match the recorded shapes.
    pub fn apply(&self, base: &[Matrix]) -> Vec<Matrix> {
        let mut out = Vec::with_capacity(base.len());
        self.apply_into(base, &mut out);
        out
    }

    /// Reconstructs `base + delta` into `out`, reusing its matrices —
    /// identical output to [`SparseDelta::apply`] (which delegates here),
    /// but a warm caller whose `out` already holds the model's shapes pays
    /// a memcpy per tensor instead of a full base clone per update.
    ///
    /// # Panics
    ///
    /// Panics if `base` does not match the recorded shapes.
    pub fn apply_into(&self, base: &[Matrix], out: &mut Vec<Matrix>) {
        assert_eq!(self.tensors.len(), base.len(), "sparse apply tensor count");
        out.truncate(self.tensors.len());
        for (i, (t, b)) in self.tensors.iter().zip(base).enumerate() {
            assert_eq!((t.rows, t.cols), b.shape(), "sparse apply tensor shape");
            match out.get_mut(i) {
                Some(m) if m.shape() == b.shape() => {
                    m.as_mut_slice().copy_from_slice(b.as_slice());
                }
                Some(m) => *m = b.clone(),
                None => out.push(b.clone()),
            }
            let data = out[i].as_mut_slice();
            for (&idx, &v) in t.indices.iter().zip(&t.values) {
                data[idx as usize] += v;
            }
        }
    }

    /// Total transmitted coordinates across all tensors.
    pub fn nnz(&self) -> usize {
        self.tensors.iter().map(|t| t.indices.len()).sum()
    }

    /// Total payload bytes (sum of per-tensor records, excluding the
    /// 10-byte blob header of [`wire::encode_sparse`]).
    ///
    /// [`wire::encode_sparse`]: crate::wire::encode_sparse
    pub fn byte_size(&self) -> usize {
        self.tensors.iter().map(SparseTensor::byte_size).sum()
    }
}

/// Caller-owned scratch for the allocation-free encode path.
///
/// Holds the reusable compressed representations the `*_into` codec entry
/// points fill. One `CodecScratch` lives per round loop, socket client, or
/// scale-engine worker; after the first (cold) round every re-encode
/// reuses the buffers, so warm-round encoding performs zero codec
/// allocations — the comms bench gate pins this.
#[derive(Debug, Clone, Default)]
pub struct CodecScratch {
    /// Reused quantized representation (per-tensor code + special buffers).
    pub quant: QuantizedUpdate,
    /// Reused sparse top-k representation (per-tensor index/value buffers).
    pub sparse: SparseDelta,
    /// Reused top-k selection buffer.
    pub picked: Vec<(u32, f64)>,
}

impl CodecScratch {
    /// Encodes `weights` under `mode` into the scratch representation and
    /// returns the exact wire payload byte length (`encode_quantized` /
    /// `encode_sparse` produce exactly this many bytes — pinned by the
    /// wire tests). `global` is the delta base for
    /// [`CompressionMode::TopKDelta`]; [`CompressionMode::None`] is pure
    /// shape arithmetic and leaves the scratch untouched.
    pub fn encoded_len(
        &mut self,
        mode: CompressionMode,
        weights: &[Matrix],
        global: &[Matrix],
    ) -> usize {
        match mode {
            CompressionMode::None => crate::wire::encoded_size(weights),
            CompressionMode::Quant8 => {
                QuantizedUpdate::quantize_into(weights, &mut self.quant);
                crate::wire::quantized_encoded_size(&self.quant)
            }
            CompressionMode::TopKDelta { k } => {
                SparseDelta::top_k_into(weights, global, k, &mut self.picked, &mut self.sparse);
                crate::wire::sparse_encoded_size(&self.sparse)
            }
        }
    }

    /// Replaces `weights` with the server-side decode of the payload last
    /// encoded by [`CodecScratch::encoded_len`] under the same `mode`,
    /// reusing the existing matrix buffers. A no-op for
    /// [`CompressionMode::None`]: the `EVFD` round-trip is bitwise-exact,
    /// so the raw weights *are* the decoded payload.
    pub fn decode_into(&self, mode: CompressionMode, global: &[Matrix], weights: &mut Vec<Matrix>) {
        match mode {
            CompressionMode::None => {}
            CompressionMode::Quant8 => self.quant.dequantize_into(weights),
            CompressionMode::TopKDelta { .. } => self.sparse.apply_into(global, weights),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let m = Matrix::from_fn(20, 20, |i, j| ((i * 31 + j * 7) % 100) as f64 * 0.013 - 0.5);
        let q = QuantizedTensor::quantize(&m);
        let back = q.dequantize();
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= q.max_error() + 1e-12);
        }
    }

    #[test]
    fn constant_tensor_is_exact() {
        let m = Matrix::filled(5, 5, 3.25);
        let q = QuantizedTensor::quantize(&m);
        assert_eq!(q.dequantize(), m);
        assert_eq!(q.max_error(), 0.0);
    }

    #[test]
    fn extremes_are_exact() {
        let m = Matrix::from_rows(&[vec![-2.0, 0.1, 7.0]]);
        let back = QuantizedTensor::quantize(&m).dequantize();
        assert!((back[(0, 0)] + 2.0).abs() < 1e-12);
        assert!((back[(0, 2)] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn nan_values_round_trip_exactly() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN, -3.0, f64::NAN]]);
        let q = QuantizedTensor::quantize(&m);
        assert_eq!(q.special_count(), 2);
        // The range fold ignored the NaNs: finite values stay exact at the
        // extremes.
        let back = q.dequantize();
        assert!((back[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(back[(0, 1)].is_nan());
        assert!((back[(0, 2)] + 3.0).abs() < 1e-12);
        assert!(back[(0, 3)].is_nan());
    }

    #[test]
    fn nan_flood_round_trips_without_garbage() {
        let m = Matrix::filled(6, 5, f64::NAN);
        let q = QuantizedTensor::quantize(&m);
        assert_eq!(q.special_count(), 30);
        assert_eq!(q.max_error(), 0.0, "step must not be NaN-poisoned");
        let back = q.dequantize();
        assert!(back.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn infinities_round_trip_exactly() {
        let m = Matrix::from_rows(&[vec![f64::INFINITY, 0.5, f64::NEG_INFINITY]]);
        let back = QuantizedTensor::quantize(&m).dequantize();
        assert_eq!(back[(0, 0)], f64::INFINITY);
        assert!((back[(0, 1)] - 0.5).abs() < 1e-12);
        assert_eq!(back[(0, 2)], f64::NEG_INFINITY);
    }

    #[test]
    fn update_round_trip_preserves_shapes() {
        let weights = vec![Matrix::zeros(3, 4), Matrix::ones(1, 4), Matrix::identity(2)];
        let q = QuantizedUpdate::quantize(&weights);
        let back = q.dequantize();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].shape(), (3, 4));
        assert_eq!(back[2], Matrix::identity(2));
    }

    #[test]
    fn compression_ratio_near_eight() {
        let weights = vec![Matrix::from_fn(100, 100, |i, j| (i + j) as f64 * 0.001)];
        let q = QuantizedUpdate::quantize(&weights);
        let ratio = q.compression_ratio();
        assert!(ratio > 7.0 && ratio <= 8.0, "ratio {ratio}");
    }

    #[test]
    fn quantized_model_still_predicts_close() {
        use evfad_nn::{Activation, Dense, Lstm, Sequential};
        let mut model = Sequential::new(5)
            .with(Lstm::new(1, 8, false))
            .with(Dense::new(8, 1, Activation::Linear));
        let x = vec![Matrix::column_vector(&[0.2, 0.4, 0.1, 0.8])];
        let exact = model.predict(&x)[0][(0, 0)];
        let q = QuantizedUpdate::quantize(&model.weights());
        model.set_weights(&q.dequantize()).expect("same shapes");
        let approx = model.predict(&x)[0][(0, 0)];
        assert!(
            (exact - approx).abs() < 0.05,
            "quantization moved prediction too far: {exact} vs {approx}"
        );
    }

    #[test]
    fn serde_round_trip() {
        let weights = vec![Matrix::from_fn(4, 4, |i, j| (i * j) as f64 * 0.1)];
        let q = QuantizedUpdate::quantize(&weights);
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    fn base_and_update() -> (Vec<Matrix>, Vec<Matrix>) {
        let base = vec![
            Matrix::from_fn(4, 5, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1),
            Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.25]),
        ];
        let mut update = base.clone();
        // Perturb a scattered handful of coordinates with distinct
        // magnitudes so top-k selection is unambiguous.
        update[0].as_mut_slice()[3] += 0.9;
        update[0].as_mut_slice()[7] -= 0.5;
        update[0].as_mut_slice()[12] += 0.1;
        update[1].as_mut_slice()[1] += 2.0;
        (base, update)
    }

    #[test]
    fn top_k_keeps_the_largest_deltas() {
        let (base, update) = base_and_update();
        let d = SparseDelta::top_k(&update, &base, 2);
        // Tensor 0 has 3 changed coordinates; only the 2 largest survive.
        assert_eq!(d.tensors[0].indices, vec![3, 7]);
        assert_eq!(d.tensors[1].indices, vec![1]);
        assert_eq!(d.nnz(), 3);
    }

    #[test]
    fn apply_reconstructs_base_plus_delta() {
        let (base, update) = base_and_update();
        let d = SparseDelta::top_k(&update, &base, 16);
        // k large enough: every change transmitted, reconstruction exact.
        let back = d.apply(&base);
        for (a, b) in back.iter().zip(&update) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn unchanged_coordinates_cost_nothing() {
        let base = vec![Matrix::from_fn(10, 10, |i, j| (i + j) as f64)];
        let d = SparseDelta::top_k(&base, &base, 50);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.apply(&base), base);
    }

    #[test]
    fn nan_deltas_always_make_the_cut() {
        let base = vec![Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64)];
        let mut update = base.clone();
        for v in update[0].as_mut_slice().iter_mut() {
            *v += 100.0;
        }
        update[0].as_mut_slice()[4] = f64::NAN;
        let d = SparseDelta::top_k(&update, &base, 1);
        assert_eq!(d.tensors[0].indices, vec![4]);
        let back = d.apply(&base);
        assert!(back[0].as_slice()[4].is_nan());
    }

    #[test]
    fn top_k_selection_is_deterministic_under_ties() {
        let base = vec![Matrix::zeros(1, 6)];
        let mut update = base.clone();
        for v in update[0].as_mut_slice().iter_mut() {
            *v = 1.0; // all deltas tie
        }
        let d = SparseDelta::top_k(&update, &base, 3);
        assert_eq!(
            d.tensors[0].indices,
            vec![0, 1, 2],
            "lowest indices win ties"
        );
    }

    #[test]
    fn quantize_into_matches_quantize_and_reuses_buffers() {
        let first = vec![
            Matrix::from_fn(6, 7, |i, j| (i as f64) * 0.3 - (j as f64) * 0.11),
            Matrix::from_vec(1, 4, vec![1.0, f64::NAN, -2.0, f64::INFINITY]),
        ];
        let second = vec![
            Matrix::from_fn(6, 7, |i, j| (j as f64) * 0.2 - (i as f64) * 0.07),
            Matrix::from_vec(1, 4, vec![f64::NEG_INFINITY, 0.5, 0.25, -1.0]),
        ];
        // NaN specials defeat derived equality; the wire encoding stores
        // raw f64 bits, so byte equality is the stronger check anyway.
        let bytes = crate::wire::encode_quantized;
        let mut scratch = QuantizedUpdate::default();
        QuantizedUpdate::quantize_into(&first, &mut scratch);
        assert_eq!(bytes(&scratch), bytes(&QuantizedUpdate::quantize(&first)));
        let code_ptrs: Vec<*const u8> = scratch.tensors.iter().map(|t| t.codes.as_ptr()).collect();
        QuantizedUpdate::quantize_into(&second, &mut scratch);
        assert_eq!(bytes(&scratch), bytes(&QuantizedUpdate::quantize(&second)));
        // Warm re-encode of a same-shaped model keeps the buffers.
        for (t, &p) in scratch.tensors.iter().zip(&code_ptrs) {
            assert_eq!(t.codes.as_ptr(), p, "codes buffer was reallocated");
        }
    }

    #[test]
    fn quantize_into_bytes_equal_a_per_element_reference_on_the_lstm50_template() {
        use evfad_nn::{Activation, Dense, Lstm, Sequential};
        // What `quantize_into` did before the slice kernel: an in-order
        // scalar fold, then `QuantRange::encode` element by element.
        fn reference(m: &Matrix) -> QuantizedTensor {
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in m.as_slice().iter().filter(|v| v.is_finite()) {
                min = if v < min { v } else { min };
                max = if v > max { v } else { max };
            }
            if min > max {
                (min, max) = (0.0, 0.0);
            }
            let range = max - min;
            let step = if range > 0.0 { range / 255.0 } else { 0.0 };
            let mut t = QuantizedTensor {
                rows: m.rows(),
                cols: m.cols(),
                min,
                step,
                ..QuantizedTensor::default()
            };
            for (i, &v) in m.as_slice().iter().enumerate() {
                if v.is_finite() {
                    t.codes.push(t.range().encode(v));
                } else {
                    t.codes.push(0);
                    t.special_idx.push(i as u32);
                    t.special_val.push(v);
                }
            }
            t
        }
        // The paper's forecaster: LSTM(50) → Dense(10) → Dense(1).
        let clean = Sequential::new(42)
            .with(Lstm::new(1, 50, false))
            .with(Dense::new(50, 10, Activation::Relu))
            .with(Dense::new(10, 1, Activation::Linear))
            .weights();
        // The same update as a NaN-flood / sign-flip casualty would send it.
        let mut poisoned = clean.clone();
        for m in &mut poisoned {
            let data = m.as_mut_slice();
            let n = data.len();
            data[0] = -0.0;
            data[n / 2] = f64::NAN;
            data[n - 1] = f64::NEG_INFINITY;
        }
        let mut scratch = QuantizedUpdate::default();
        let mut buf = bytes::BytesMut::new();
        for weights in [clean, poisoned] {
            QuantizedUpdate::quantize_into(&weights, &mut scratch);
            crate::wire::encode_quantized_into(&mut buf, &scratch);
            let want = QuantizedUpdate {
                tensors: weights.iter().map(reference).collect(),
            };
            assert_eq!(buf[..], crate::wire::encode_quantized(&want)[..]);
        }
    }

    #[test]
    fn top_k_into_matches_top_k_and_reuses_buffers() {
        let (base, update) = base_and_update();
        let mut picked = Vec::new();
        let mut scratch = SparseDelta::default();
        for k in [1, 2, 3, 16] {
            SparseDelta::top_k_into(&update, &base, k, &mut picked, &mut scratch);
            assert_eq!(scratch, SparseDelta::top_k(&update, &base, k), "k = {k}");
        }
        // NaN floods and exact ties go through the same unstable sorts.
        let tie_base = vec![Matrix::zeros(1, 6)];
        let mut tie_update = tie_base.clone();
        for v in tie_update[0].as_mut_slice().iter_mut() {
            *v = 1.0;
        }
        tie_update[0].as_mut_slice()[4] = f64::NAN;
        SparseDelta::top_k_into(&tie_update, &tie_base, 3, &mut picked, &mut scratch);
        let fresh = SparseDelta::top_k(&tie_update, &tie_base, 3);
        assert_eq!(scratch.tensors[0].indices, fresh.tensors[0].indices);
        assert_eq!(
            scratch.tensors[0]
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fresh.tensors[0]
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn apply_into_matches_apply_without_fresh_clones() {
        let (base, update) = base_and_update();
        let d = SparseDelta::top_k(&update, &base, 16);
        let mut out = Vec::new();
        d.apply_into(&base, &mut out);
        assert_eq!(out, d.apply(&base));
        // Warm reuse: same shapes, zero matrix allocations.
        let before = evfad_tensor::alloc_stats();
        d.apply_into(&base, &mut out);
        let delta = evfad_tensor::alloc_stats().since(&before);
        assert_eq!(delta.matrices, 0, "warm apply_into allocated");
        assert_eq!(out, d.apply(&base));
    }

    #[test]
    fn compression_mode_serde_round_trips_and_defaults() {
        for mode in [
            CompressionMode::None,
            CompressionMode::Quant8,
            CompressionMode::TopKDelta { k: 32 },
        ] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: CompressionMode = serde_json::from_str(&json).unwrap();
            assert_eq!(mode, back);
        }
        assert_eq!(CompressionMode::default(), CompressionMode::None);
    }
}

//! Update compression: 8-bit quantization.
//!
//! The paper's privacy/communication story is "only model parameters were
//! exchanged". This module cuts that exchange further — ~8x via 8-bit
//! uniform quantization against each tensor's own min/max range (the
//! standard communication-efficient-FL baseline) — with measured, bounded
//! round-trip error. [`CompressionMode`] selects the uplink encoding in
//! [`FederatedConfig`](crate::FederatedConfig); the binary wire record
//! lives in [`wire`](crate::wire) (`EVQ8`). Either encoding is a function
//! of the update alone: nothing here reads the broadcast global.
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
}

impl std::fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressionMode::None => write!(f, "none"),
            CompressionMode::Quant8 => write!(f, "quant8"),
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
    fn dequantize_into(&self, out: &mut Matrix) {
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
    fn dequantize_into(&self, out: &mut Vec<Matrix>) {
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

/// Caller-owned scratch for the allocation-free encode path.
///
/// Holds the reusable quantized representation the `*_into` codec entry
/// points fill. One `CodecScratch` lives per round loop, socket client, or
/// scale-engine worker; after the first (cold) round every re-encode
/// reuses the buffers, so warm-round encoding performs zero codec
/// allocations (`tests/workspace_reuse.rs` pins this).
#[derive(Debug, Clone, Default)]
pub struct CodecScratch {
    /// Reused quantized representation (per-tensor code + special buffers).
    pub quant: QuantizedUpdate,
}

impl CodecScratch {
    /// Replaces `weights` with the server-side decode of the payload last
    /// quantized into [`CodecScratch::quant`] under the same `mode`,
    /// reusing the existing matrix buffers. A no-op for
    /// [`CompressionMode::None`]: the `EVFD` round-trip is bitwise-exact,
    /// so the raw weights *are* the decoded payload.
    pub fn decode_into(&self, mode: CompressionMode, weights: &mut Vec<Matrix>) {
        match mode {
            CompressionMode::None => {}
            CompressionMode::Quant8 => self.quant.dequantize_into(weights),
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
        // Shape arithmetic on the paper's model: the ≈8× Quant8 buys.
        assert_eq!(crate::wire::encoded_size(&clean), 87_426);
        assert_eq!(
            crate::wire::quantized_encoded_size(&QuantizedUpdate::quantize(&clean)),
            11_099
        );
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
    fn compression_mode_serde_round_trips_and_defaults() {
        for mode in [CompressionMode::None, CompressionMode::Quant8] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: CompressionMode = serde_json::from_str(&json).unwrap();
            assert_eq!(mode, back);
        }
        assert_eq!(CompressionMode::default(), CompressionMode::None);
    }
}

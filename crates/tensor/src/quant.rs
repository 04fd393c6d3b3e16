//! Shared EVQ8 range-quantization math.
//!
//! One implementation of the 8-bit uniform range fold, used by **both**
//! consumers in the workspace:
//!
//! - the federated uplink codec (`evfad_federated::compression`, wire tag
//!   `EVQ8`) — where byte-exact re-encode identity is a wire-format
//!   contract, and
//! - the int8 inference lane (`fastpath` / `evfad_nn::infer`) — where the
//!   same fold quantizes frozen layer weights for f32-accumulate scoring.
//!
//! Keeping the fold here (the lowest layer) means a change to the rounding
//! or range rules cannot silently diverge between the two: the codec's
//! re-encode identity test and the inference error-bound gates both pin
//! this exact code.
//!
//! # The fold
//!
//! Only **finite** values participate in the range: NaN and ±∞ are skipped
//! (callers transmit or handle them out of band). With no finite value at
//! all, the range degenerates to `[0, 0]`. The step is `(max - min) / 255`
//! (256 levels), or exactly `0.0` for a constant/empty tensor — in which
//! case every code is 0 and decode returns `min` exactly.
//!
//! # The slice kernel
//!
//! Both consumers encode whole slices, so the hot path is two slice-level
//! passes — [`QuantRange::from_values`] (lane-parallel fold) and
//! [`QuantRange::encode_slice`] (block-wise encode) — written so the
//! compiler vectorises them, and **bitwise-equal** to the per-element
//! definition [`QuantRange::encode`] (`tests/quant_kernel_proptests.rs`
//! pins this). Each 64-value block is coded in one branch-free pass that
//! multiplies by `1 / step`; a block with a NaN, ±∞ or a quotient within
//! 2^-30 of a rounding tie, and the ragged tail, take the exact divide.

/// Quantization range of one tensor: the minimum finite value and the
/// uniform step between the 256 levels.
///
/// # Examples
///
/// ```
/// use evfad_tensor::quant::QuantRange;
///
/// let r = QuantRange::from_values(&[-1.0, 0.5, 2.0, f64::NAN]);
/// assert_eq!(r.min, -1.0);
/// assert_eq!(r.step, 3.0 / 255.0);
/// // Extremes are exact.
/// assert_eq!(r.decode(r.encode(-1.0)), -1.0);
/// assert_eq!(r.decode(r.encode(2.0)), 2.0);
/// // Everything else is within half a step.
/// let v = 0.73;
/// assert!((r.decode(r.encode(v)) - v).abs() <= r.max_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantRange {
    /// Minimum finite value of the folded slice (`0.0` when none).
    pub min: f64,
    /// Uniform step between adjacent levels (`(max - min) / 255`, or `0.0`
    /// for a constant, empty, or fully non-finite slice).
    pub step: f64,
}

impl QuantRange {
    /// Folds a slice into its quantization range, skipping non-finite
    /// values. An empty or fully non-finite slice yields `{min: 0, step: 0}`.
    ///
    /// `min` goes to the wire bit for bit, so the one case where the
    /// extreme is not a unique bit pattern is pinned: a minimum of zero
    /// carries the sign of the **first** zero in the slice.
    pub fn from_values(values: &[f64]) -> Self {
        // Independent lanes, no branch: a non-finite value is replaced by
        // the fold's identity.
        let mut lo = [f64::INFINITY; LANES];
        let mut hi = [f64::NEG_INFINITY; LANES];
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                fold_finite(lo, hi, v);
            }
        }
        for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunks.remainder()) {
            fold_finite(lo, hi, v);
        }
        // The lanes hold no NaN, and a zero's sign is settled below.
        let mut min = lo.into_iter().fold(f64::INFINITY, f64::min);
        let mut max = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
        // No finite value at all: empty or fully non-finite slice.
        if min > max {
            min = 0.0;
            max = 0.0;
        }
        if min == 0.0 {
            // Lane order decided which of +0.0 / -0.0 survived; slice order
            // must. (`max` only feeds `max - min`, where its sign is moot.)
            min = values.iter().copied().find(|&v| v == 0.0).unwrap_or(min);
        }
        let range = max - min;
        let step = if range > 0.0 { range / 255.0 } else { 0.0 };
        Self { min, step }
    }

    /// Encodes a whole slice: `codes[i] = self.encode(values[i])` for every
    /// finite value, and for every NaN / ±∞ `codes[i] = 0` plus one
    /// `on_special(i, values[i])` call, in ascending `i`.
    ///
    /// This is the kernel behind both consumers (module docs); it is
    /// bitwise-equal to the per-element definition, which stays as
    /// [`QuantRange::encode`].
    ///
    /// # Panics
    ///
    /// When `values` and `codes` differ in length.
    pub fn encode_slice(
        &self,
        values: &[f64],
        codes: &mut [u8],
        mut on_special: impl FnMut(usize, f64),
    ) {
        assert_eq!(values.len(), codes.len(), "one code per value");
        // Only a normal `inv` stands in for the divide: a subnormal one has
        // lost bits; 0, ±∞ (a zero step) and NaN carry no quotient.
        let inv = 1.0 / self.step;
        let fast = inv.is_normal();
        let (blocks, tail) = values.as_chunks::<BLOCK>();
        let (out_blocks, out_tail) = codes.as_chunks_mut::<BLOCK>();
        for (b, (vals, out)) in blocks.iter().zip(out_blocks).enumerate() {
            if !(fast && encode_fast(vals, out, self.min, inv)) {
                self.encode_exact(vals, out, b * BLOCK, &mut on_special);
            }
        }
        self.encode_exact(tail, out_tail, blocks.len() * BLOCK, &mut on_special);
    }

    /// The definition over a run of `values` starting at flat index `base`
    /// (exact divide, or all 0 under a zero step), then code 0 and one
    /// `on_special` call per NaN / ±∞, ascending.
    fn encode_exact(
        &self,
        values: &[f64],
        codes: &mut [u8],
        base: usize,
        on_special: &mut impl FnMut(usize, f64),
    ) {
        if self.step == 0.0 {
            codes.fill(0);
        } else {
            for (c, &v) in codes.iter_mut().zip(values) {
                *c = level(((v - self.min) / self.step).round());
            }
        }
        for (i, (c, &v)) in codes.iter_mut().zip(values).enumerate() {
            if !v.is_finite() {
                *c = 0;
                on_special(base + i, v);
            }
        }
    }

    /// Encodes one finite value as the nearest of the 256 levels.
    ///
    /// Out-of-range values clamp to the extreme codes. With a zero step
    /// (constant/empty fold) every value maps to code 0. Callers are
    /// responsible for routing non-finite values around the codec (the
    /// wire format carries them verbatim as side records).
    pub fn encode(&self, v: f64) -> u8 {
        if self.step == 0.0 {
            0
        } else {
            ((v - self.min) / self.step).round().clamp(0.0, 255.0) as u8
        }
    }

    /// Decodes a level back to its representative value: `min + code·step`.
    pub fn decode(&self, code: u8) -> f64 {
        self.min + code as f64 * self.step
    }

    /// Worst-case absolute round-trip error over finite in-range values:
    /// half a step.
    pub fn max_error(&self) -> f64 {
        self.step / 2.0
    }
}

/// Independent accumulators of the range fold: four AVX-512 registers of
/// `f64` each for min and max, enough to hide the vector-min latency
/// (measured: 8 lanes 6 µs, 32 lanes 2 µs per 10 000 values).
const LANES: usize = 32;

/// Values per [`QuantRange::encode_slice`] block: long enough to amortise
/// the fallback test, short enough that one NaN costs 64 exact encodes.
const BLOCK: usize = 64;

/// 2^52, which rounds an `f64` in `[0, 255]` to an integer (ties to even).
const ROUND: f64 = 4_503_599_627_370_496.0;

/// One full block coded with a normal `inv = 1 / step` for the divide;
/// false, leaving codes the caller must overwrite, when the block holds a
/// NaN or ±∞, or a quotient within 2^-30 of a tie between two codes.
///
/// Otherwise every code is the divide's: from the same `v - min`, the
/// product is within `3·2^-53·|q|` of the divide's quotient, far below
/// 2^-30 on `[0, 256)`, and the two roundings differ only at ties.
#[inline(always)]
fn encode_fast(vals: &[f64; BLOCK], out: &mut [u8; BLOCK], min: f64, inv: f64) -> bool {
    const TIE_MARGIN: f64 = 0.5 - 1.0 / (1u64 << 30) as f64;
    let mut refused = false;
    for (c, &v) in out.iter_mut().zip(vals) {
        let q = clamp_code((v - min) * inv);
        let shifted = q + ROUND;
        refused |= !v.is_finite() | ((q - (shifted - ROUND)).abs() > TIE_MARGIN);
        *c = shifted.to_bits() as u8;
    }
    !refused
}

/// One step of the finite min/max fold. `a < lo ? a : lo` is the vector-min
/// instruction as is; `f64::min` would add a NaN fix-up `a` never needs.
#[inline(always)]
fn fold_finite(lo: &mut f64, hi: &mut f64, v: f64) {
    let (a, b) = if v.is_finite() {
        (v, v)
    } else {
        (f64::INFINITY, f64::NEG_INFINITY)
    };
    *lo = if a < *lo { a } else { *lo };
    *hi = if b > *hi { b } else { *hi };
}

/// `q.clamp(0.0, 255.0) as u8` for a rounded (integer, ±∞ or NaN) `q`, without
/// the saturating cast (which does not vectorise): the comparisons send
/// NaN and negatives to 0, and adding 2^52 to an integer in `0..=255`
/// leaves it, exactly, in the low mantissa byte.
#[inline(always)]
fn level(q: f64) -> u8 {
    (clamp_code(q) + ROUND).to_bits() as u8
}

#[inline(always)]
fn clamp_code(q: f64) -> f64 {
    let q = if q > 0.0 { q } else { 0.0 };
    if q < 255.0 {
        q
    } else {
        255.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice_degenerates_to_zero_range() {
        let r = QuantRange::from_values(&[]);
        assert_eq!(
            r,
            QuantRange {
                min: 0.0,
                step: 0.0
            }
        );
        assert_eq!(r.encode(123.0), 0);
        assert_eq!(r.decode(0), 0.0);
        assert_eq!(r.max_error(), 0.0);
    }

    #[test]
    fn fully_non_finite_slice_degenerates_to_zero_range() {
        let r = QuantRange::from_values(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(
            r,
            QuantRange {
                min: 0.0,
                step: 0.0
            }
        );
    }

    #[test]
    fn constant_slice_is_exact() {
        let r = QuantRange::from_values(&[3.25, 3.25, 3.25]);
        assert_eq!(r.step, 0.0);
        assert_eq!(r.decode(r.encode(3.25)), 3.25);
    }

    #[test]
    fn non_finite_values_do_not_poison_the_range() {
        let with = QuantRange::from_values(&[1.0, f64::NAN, -3.0, f64::INFINITY]);
        let without = QuantRange::from_values(&[1.0, -3.0]);
        assert_eq!(with, without);
    }

    #[test]
    fn zero_minimum_takes_the_sign_of_the_first_zero() {
        // Recorded from the scalar `min.min(v)` fold this one replaced
        // (x86-64, debug and release): its tie kept the accumulator, so
        // the first zero won. Pinned because `min` is wire bytes.
        let neg = (-0.0f64).to_bits();
        let min_bits = |v: &[f64]| QuantRange::from_values(v).min.to_bits();
        assert_eq!(min_bits(&[0.0, -0.0]), 0);
        assert_eq!(min_bits(&[-0.0, 0.0]), neg);
        assert_eq!(min_bits(&[1.0, 0.0, -0.0]), 0);
        assert_eq!(min_bits(&[1.0, -0.0, 0.0]), neg);
        assert_eq!(min_bits(&[f64::NAN, -0.0, 0.0, f64::INFINITY]), neg);
        assert_eq!(min_bits(&[f64::NAN, 0.0, -0.0, f64::INFINITY]), 0);
        // Across lanes: the zeros sit in different accumulators.
        for first in [0.0, -0.0] {
            let mut v = vec![0.5; 3 * LANES + 5];
            v[LANES + 3] = first;
            v[2] = 0.25;
            v[2 * LANES + 1] = -first;
            assert_eq!(min_bits(&v), first.to_bits());
        }
        // A zero maximum: only `max - min` sees it, the step is unmoved.
        let r = QuantRange::from_values(&[-1.0, 0.0, -0.0]);
        assert_eq!(r, QuantRange::from_values(&[-1.0, -0.0, 0.0]));
        assert_eq!((r.min, r.step), (-1.0, 1.0 / 255.0));
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let values: Vec<f64> = (0..100)
            .map(|i| (i * 37 % 100) as f64 * 0.013 - 0.5)
            .collect();
        let r = QuantRange::from_values(&values);
        for &v in &values {
            assert!((r.decode(r.encode(v)) - v).abs() <= r.max_error() + 1e-12);
        }
    }

    /// Range [0, 1]: this value's quotient is the 16.5 tie itself under the
    /// divide (code 17, half away from zero) and one ulp below it under
    /// `1 / step` (code 16). A full block of it must reach the fallback,
    /// with and without a NaN beside it.
    #[test]
    fn a_reciprocal_tie_is_recoded_by_the_exact_divide() {
        let v = 0.06470588235294117;
        let r = QuantRange::from_values(&[0.0, 1.0]);
        assert_eq!(r.encode(v), 17);
        let reciprocal = level((v * (1.0 / r.step)).round());
        assert_eq!(reciprocal, 16, "not a counterexample");
        for nan_at in [None, Some(5)] {
            let mut values = vec![v; BLOCK + 3];
            values[0] = 0.0;
            values[1] = 1.0;
            if let Some(i) = nan_at {
                values[i] = f64::NAN;
            }
            assert_eq!(QuantRange::from_values(&values), r);
            let mut codes = vec![0xAA; values.len()];
            let mut specials = Vec::new();
            r.encode_slice(&values, &mut codes, |i, _| specials.push(i));
            let want: Vec<u8> = (0..values.len())
                .map(|i| match i {
                    0 => 0,
                    1 => 255,
                    _ if nan_at == Some(i) => 0,
                    _ => 17,
                })
                .collect();
            assert_eq!(codes, want, "NaN at {nan_at:?}");
            assert_eq!(specials, Vec::from_iter(nan_at));
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_extreme_codes() {
        let r = QuantRange::from_values(&[0.0, 1.0]);
        assert_eq!(r.encode(-50.0), 0);
        assert_eq!(r.encode(50.0), 255);
    }
}

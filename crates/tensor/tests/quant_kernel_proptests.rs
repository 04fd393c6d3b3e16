//! Property-based gate for the slice-level EVQ8 kernel.
//!
//! `QuantRange::from_values` (lane-parallel fold) and
//! `QuantRange::encode_slice` (block-wise encode) are performance rewrites
//! of two scalar loops whose output goes to the wire bit for bit. The
//! contract is **bitwise identity** with those loops, kept here as the
//! reference: the in-order scalar fold, and per-element
//! `QuantRange::encode` plus a list of the non-finite positions. Every
//! family below is checked at full length and at prefixes cut around the
//! kernel's block and lane boundaries, the empty slice included.

use evfad_tensor::quant::QuantRange;
use proptest::prelude::*;

/// The scalar fold `from_values` replaced. Its `min.min(v)` / `max.max(v)`
/// are written as the comparisons they compiled to on x86-64 (a tie keeps
/// the accumulator), which is the only place the two could differ: which
/// of `+0.0` / `-0.0` a zero minimum is.
fn reference_fold(values: &[f64]) -> QuantRange {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
        }
    }
    if min > max {
        min = 0.0;
        max = 0.0;
    }
    let range = max - min;
    let step = if range > 0.0 { range / 255.0 } else { 0.0 };
    QuantRange { min, step }
}

/// `encode_slice` ≡ per-element `encode` + ascending specials, for `range`
/// over every boundary prefix of `values`.
fn check_encode(range: QuantRange, values: &[f64]) -> Result<(), TestCaseError> {
    for n in prefixes(values.len()) {
        let values = &values[..n];
        let mut want_codes = Vec::with_capacity(n);
        let mut want_specials = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if v.is_finite() {
                want_codes.push(range.encode(v));
            } else {
                want_codes.push(0);
                want_specials.push((i, v.to_bits()));
            }
        }
        // Poisoned, so a code the kernel never wrote shows.
        let mut codes = vec![0xAAu8; n];
        let mut specials = Vec::new();
        range.encode_slice(values, &mut codes, |i, v| specials.push((i, v.to_bits())));
        prop_assert_eq!(&codes, &want_codes, "codes, n = {}, {:?}", n, range);
        prop_assert_eq!(&specials, &want_specials, "specials, n = {}", n);
    }
    Ok(())
}

/// New fold ≡ reference fold (bitwise), then [`check_encode`] under it.
fn check(values: &[f64]) -> Result<(), TestCaseError> {
    for n in prefixes(values.len()) {
        let got = QuantRange::from_values(&values[..n]);
        let want = reference_fold(&values[..n]);
        prop_assert_eq!(got.min.to_bits(), want.min.to_bits(), "min, n = {}", n);
        prop_assert_eq!(got.step.to_bits(), want.step.to_bits(), "step, n = {}", n);
    }
    check_encode(QuantRange::from_values(values), values)
}

/// Lengths around the kernel's boundaries (32 fold lanes, 64-value encode
/// blocks) that fit in `len`, and `len` itself.
fn prefixes(len: usize) -> impl Iterator<Item = usize> {
    [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129]
        .into_iter()
        .filter(move |&n| n < len)
        .chain([len])
}

/// Up to four blocks and a ragged tail.
fn values_of(element: impl Strategy<Value = f64>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(element, 0..300)
}

fn special(pick: usize) -> f64 {
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN][pick % 4]
}

proptest! {
    #[test]
    fn random_values(values in values_of(-3.0f64..3.0)) {
        check(&values)?;
    }

    /// Values on the rounding boundary `min + (k + 0.5)·step` and one ulp
    /// either side of it: the quotient lands on, just under or just over
    /// `k + 0.5`, so the exact divide and half-away-from-zero rounding are
    /// what is compared. `k = 0` is over-weighted and `min` is often an
    /// exact zero, because the predecessor of 0.5 is the one quotient where
    /// `floor(x + 0.5)` and `round(x)` part ways.
    #[test]
    fn tie_heavy_values(
        min in (any::<bool>(), -10.0f64..10.0).prop_map(|(zero, m)| if zero { 0.0 } else { m }),
        span in 1e-3f64..100.0,
        ties in prop::collection::vec((0usize..300, 0u64..3), 0..300),
    ) {
        let step = (min + span - min) / 255.0;
        let mut values = vec![min, min + span];
        values.extend(ties.iter().map(|&(k, nudge)| {
            let k = if k < 255 { k } else { 0 };
            let tie = min + (k as f64 + 0.5) * step;
            f64::from_bits(tie.to_bits().wrapping_add(nudge).wrapping_sub(1))
        }));
        check(&values)?;
    }

    #[test]
    fn nan_floods(
        values in values_of((0usize..8, -1e3f64..1e3).prop_map(|(pick, v)| {
            if pick < 6 { f64::NAN } else { v }
        })),
    ) {
        check(&values)?;
    }

    /// Sparse specials: most blocks take the straight-line loop, the few
    /// holding a NaN or ±∞ take the per-element one.
    #[test]
    fn sparse_infinities_and_nans(
        values in values_of((0usize..120, -50.0f64..50.0).prop_map(|(pick, v)| {
            if pick < 4 { special(pick) } else { v }
        })),
    ) {
        check(&values)?;
    }

    /// Zeros of both signs as the minimum, the maximum, or interior.
    #[test]
    fn signed_zeros(
        values in values_of((0usize..6, -1.0f64..1.0).prop_map(|(pick, v)| match pick {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 => v.abs(),
            _ => v,
        })),
        nonnegative in any::<bool>(),
    ) {
        let values: Vec<f64> = if nonnegative {
            values.iter().map(|v| if *v < 0.0 { -v } else { *v }).collect()
        } else {
            values
        };
        check(&values)?;
    }

    #[test]
    fn subnormals(
        values in values_of((0u64..(1 << 52), any::<bool>()).prop_map(|(bits, neg)| {
            let v = f64::from_bits(bits);
            if neg { -v } else { v }
        })),
    ) {
        check(&values)?;
    }

    /// Spans at and beyond `f64::MAX`: `max - min` overflows to ∞ (so the
    /// step is ∞ and `v - min` can be too), or stays just finite.
    #[test]
    fn max_span(
        values in values_of((0usize..8, -1.0f64..1.0).prop_map(|(pick, v)| match pick {
            0 => f64::MAX,
            1 => -f64::MAX,
            2 => f64::MAX / 2.0,
            3 => -f64::MAX / 2.0,
            4 => v * f64::MAX,
            5 => special(v.to_bits() as usize),
            _ => v,
        })),
    ) {
        check(&values)?;
    }

    #[test]
    fn constant_tensors(
        value in -1e6f64..1e6,
        picks in prop::collection::vec(0usize..40, 0..300),
    ) {
        let values: Vec<f64> = picks
            .iter()
            .map(|&p| if p < 4 { special(p) } else { value })
            .collect();
        check(&values)?;
    }

    /// A range that was not folded from the slice it encodes — what the
    /// public fields allow: any bit pattern for `min`, `step` and values
    /// (NaN payloads, ∞, negative or subnormal steps, out-of-range values).
    #[test]
    fn foreign_ranges_and_arbitrary_bits(
        min in any::<u64>(),
        step in any::<u64>(),
        bits in prop::collection::vec(any::<u64>(), 0..300),
        exponent_mask in any::<bool>(),
    ) {
        // Raw bits are almost never special or small; the mask folds half
        // the cases into exponents near 1.0 so codes spread over 0..=255.
        let near_one = |b: u64| (b & 0x800F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000;
        let shape = |b: u64| f64::from_bits(if exponent_mask { near_one(b) } else { b });
        let values: Vec<f64> = bits.iter().map(|&b| shape(b)).collect();
        let min = shape(min);
        check_encode(QuantRange { min, step: f64::from_bits(step) }, &values)?;
        check_encode(QuantRange { min, step: shape(step) / 255.0 }, &values)?;
        check(&values)?;
    }
}

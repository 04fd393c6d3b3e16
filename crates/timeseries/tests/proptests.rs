//! Property-based tests for the time-series toolkit.

use evfad_timeseries::{impute, metrics, split, windows, MinMaxScaler, TimeSeriesError};
use proptest::prelude::*;

fn varied_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 2..200).prop_filter("needs range", |v| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max - min > 1e-6
    })
}

proptest! {
    /// transform maps the fitted data into [0, 1] and inverse restores it.
    #[test]
    fn scaler_round_trip(v in varied_series()) {
        let s = MinMaxScaler::fit(&v).unwrap();
        let t = s.transform(&v);
        prop_assert!(t.iter().all(|x| (-1e-12..=1.0 + 1e-12).contains(x)));
        let back = s.inverse_transform(&t);
        for (a, b) in v.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    /// A tight round-trip bound: `inverse_transform ∘ transform` restores
    /// every point to within 1e-12 relative error. The arithmetic is one
    /// subtraction, one division, one multiplication, one addition — the
    /// error budget is a handful of ulps, far below 1e-12.
    #[test]
    fn scaler_round_trip_is_tight(v in varied_series()) {
        let s = MinMaxScaler::fit(&v).unwrap();
        let back = s.inverse_transform(&s.transform(&v));
        for (a, b) in v.iter().zip(back.iter()) {
            prop_assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "round-trip drift: {a} -> {b}"
            );
        }
    }

    /// A constant (zero-range) series must be rejected cleanly — a
    /// descriptive error, never a panic, never NaN leaking out of a
    /// degenerate 0/0 scale.
    #[test]
    fn constant_series_errors_instead_of_nan(value in -1e6f64..1e6, len in 1usize..100) {
        let v = vec![value; len];
        match MinMaxScaler::fit(&v) {
            Err(TimeSeriesError::DegenerateRange { value: reported }) => {
                prop_assert!(reported.is_finite());
                prop_assert!((reported - value).abs() <= 1e-9 * value.abs().max(1.0));
            }
            other => prop_assert!(false, "expected DegenerateRange, got {other:?}"),
        }
    }

    /// The temporal split boundary leaves at least one point on each side.
    #[test]
    fn split_partitions(v in varied_series(), frac in 0.1f64..0.9) {
        let cut = split::boundary(v.len(), frac).unwrap();
        prop_assert!(cut >= 1);
        prop_assert!(cut < v.len());
    }

    /// Every sliding window is a verbatim slice of the source.
    #[test]
    fn windows_are_slices(v in prop::collection::vec(-10.0f64..10.0, 5..100), seq in 1usize..4) {
        for w in windows::sliding(&v, seq) {
            let start = w.target_index - seq;
            prop_assert_eq!(&w.input[..], &v[start..start + seq]);
            prop_assert_eq!(w.target, v[w.target_index]);
        }
    }

    /// Linear imputation never exceeds the range of its anchor points and
    /// leaves unmasked points untouched.
    #[test]
    fn linear_impute_bounded(
        v in prop::collection::vec(-100.0f64..100.0, 3..100),
        mask_seed in prop::collection::vec(0u8..10, 3..100),
    ) {
        let n = v.len().min(mask_seed.len());
        let v = &v[..n];
        let mask: Vec<bool> = mask_seed[..n].iter().map(|&m| m < 3).collect();
        if mask.iter().all(|&m| m) {
            return Ok(()); // fully masked: identity case tested elsewhere
        }
        let fixed = impute::linear(v, &mask).unwrap();
        let lo = v.iter().zip(&mask).filter(|(_, &m)| !m).map(|(x, _)| *x).fold(f64::INFINITY, f64::min);
        let hi = v.iter().zip(&mask).filter(|(_, &m)| !m).map(|(x, _)| *x).fold(f64::NEG_INFINITY, f64::max);
        for i in 0..n {
            if mask[i] {
                prop_assert!(fixed[i] >= lo - 1e-9 && fixed[i] <= hi + 1e-9);
            } else {
                prop_assert_eq!(fixed[i], v[i]);
            }
        }
    }

    /// R² of the actual series against itself is 1; MAE/RMSE are
    /// non-negative and RMSE >= MAE.
    #[test]
    fn metric_invariants(a in varied_series(), noise in prop::collection::vec(-5.0f64..5.0, 2..200)) {
        let n = a.len().min(noise.len());
        let a = &a[..n];
        let p: Vec<f64> = a.iter().zip(&noise[..n]).map(|(x, e)| x + e).collect();
        prop_assert!((metrics::r2(a, a).unwrap() - 1.0).abs() < 1e-12);
        let mae = metrics::mae(a, &p).unwrap();
        let rmse = metrics::rmse(a, &p).unwrap();
        prop_assert!(mae >= 0.0);
        prop_assert!(rmse >= mae - 1e-9);
        prop_assert!(metrics::r2(a, &p).unwrap() <= 1.0 + 1e-12);
    }

    /// sMAPE stays within [0, 200].
    #[test]
    fn smape_range(a in varied_series(), b in varied_series()) {
        let n = a.len().min(b.len());
        let s = metrics::smape(&a[..n], &b[..n]).unwrap();
        prop_assert!((0.0..=200.0 + 1e-9).contains(&s));
    }
}

//! Gap-filling strategies for flagged (anomalous/missing) points.
//!
//! The paper's `filter_anomalies` replaces attack-flagged segments by linear
//! interpolation between the surrounding non-anomalous points
//! ([`linear`]). The paper's future-work section calls for more advanced
//! reconstruction; [`seasonal_naive`] is provided as the ablation
//! alternative (benchmarked in `evfad-bench`).

use crate::error::TimeSeriesError;

fn check_mask(series: &[f64], mask: &[bool]) -> Result<(), TimeSeriesError> {
    if series.is_empty() {
        return Err(TimeSeriesError::EmptySeries);
    }
    if series.len() != mask.len() {
        return Err(TimeSeriesError::LengthMismatch {
            series: series.len(),
            other: mask.len(),
        });
    }
    Ok(())
}

/// Linearly interpolates every masked run between its nearest unmasked
/// neighbours.
///
/// Leading (trailing) masked runs are back-filled (forward-filled) with the
/// first (last) valid value. A fully masked series is returned unchanged —
/// there is no anchor to interpolate from.
///
/// # Errors
///
/// * [`TimeSeriesError::EmptySeries`] for an empty series;
/// * [`TimeSeriesError::LengthMismatch`] if `mask.len() != series.len()`.
///
/// # Examples
///
/// ```
/// use evfad_timeseries::impute::linear;
///
/// let series = [1.0, 100.0, 100.0, 4.0];
/// let mask = [false, true, true, false];
/// let fixed = linear(&series, &mask)?;
/// assert_eq!(fixed, vec![1.0, 2.0, 3.0, 4.0]);
/// # Ok::<(), evfad_timeseries::TimeSeriesError>(())
/// ```
pub fn linear(series: &[f64], mask: &[bool]) -> Result<Vec<f64>, TimeSeriesError> {
    check_mask(series, mask)?;
    let mut out = series.to_vec();
    let n = series.len();
    let mut i = 0;
    while i < n {
        if !mask[i] {
            i += 1;
            continue;
        }
        // Masked run [i, j).
        let mut j = i;
        while j < n && mask[j] {
            j += 1;
        }
        let left = i.checked_sub(1).filter(|&l| !mask[l]);
        let right = (j < n).then_some(j);
        match (left, right) {
            (Some(l), Some(r)) => {
                let span = (r - l) as f64;
                for (offset, slot) in out[i..j].iter_mut().enumerate() {
                    let frac = (i - l + offset) as f64 / span;
                    *slot = series[l] * (1.0 - frac) + series[r] * frac;
                }
            }
            (None, Some(r)) => {
                for slot in &mut out[i..j] {
                    *slot = series[r];
                }
            }
            (Some(l), None) => {
                for slot in &mut out[i..j] {
                    *slot = series[l];
                }
            }
            (None, None) => {} // fully masked: nothing to anchor on
        }
        i = j;
    }
    Ok(out)
}

/// Replaces each masked point with the value `period` steps earlier
/// (falling back to [`linear`] when no earlier unmasked value exists).
///
/// For hourly EV-charging data `period = 24` substitutes "same hour
/// yesterday", preserving the daily shape the paper's forecaster learns.
///
/// # Errors
///
/// Same conditions as [`linear`]; additionally `period` must be non-zero or
/// [`TimeSeriesError::InvalidFraction`] is returned.
pub fn seasonal_naive(
    series: &[f64],
    mask: &[bool],
    period: usize,
) -> Result<Vec<f64>, TimeSeriesError> {
    check_mask(series, mask)?;
    if period == 0 {
        return Err(TimeSeriesError::InvalidFraction(0.0));
    }
    let fallback = linear(series, mask)?;
    let mut out = series.to_vec();
    for i in 0..series.len() {
        if !mask[i] {
            continue;
        }
        // Walk back whole periods until an unmasked donor is found.
        let mut donor = None;
        let mut back = i;
        while back >= period {
            back -= period;
            if !mask[back] {
                donor = Some(out[back]);
                break;
            }
        }
        out[i] = donor.unwrap_or(fallback[i]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolates_interior_run() {
        let s = [0.0, 9.0, 9.0, 9.0, 4.0];
        let m = [false, true, true, true, false];
        assert_eq!(linear(&s, &m).unwrap(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_backfills_leading_run() {
        let s = [9.0, 9.0, 5.0, 6.0];
        let m = [true, true, false, false];
        assert_eq!(linear(&s, &m).unwrap(), vec![5.0, 5.0, 5.0, 6.0]);
    }

    #[test]
    fn linear_forward_fills_trailing_run() {
        let s = [1.0, 2.0, 9.0, 9.0];
        let m = [false, false, true, true];
        assert_eq!(linear(&s, &m).unwrap(), vec![1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn linear_fully_masked_is_identity() {
        let s = [7.0, 8.0];
        let m = [true, true];
        assert_eq!(linear(&s, &m).unwrap(), vec![7.0, 8.0]);
    }

    #[test]
    fn linear_no_mask_is_identity() {
        let s = [1.0, 2.0, 3.0];
        let m = [false, false, false];
        assert_eq!(linear(&s, &m).unwrap(), s.to_vec());
    }

    #[test]
    fn linear_multiple_separate_runs() {
        let s = [0.0, 9.0, 2.0, 9.0, 4.0];
        let m = [false, true, false, true, false];
        assert_eq!(linear(&s, &m).unwrap(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_rejects_length_mismatch() {
        assert!(matches!(
            linear(&[1.0, 2.0], &[true]),
            Err(TimeSeriesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn seasonal_uses_previous_period() {
        let s = [1.0, 2.0, 3.0, 9.0, 9.0, 9.0];
        let m = [false, false, false, true, true, true];
        let fixed = seasonal_naive(&s, &m, 3).unwrap();
        assert_eq!(fixed, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn seasonal_skips_masked_donor() {
        // Donor at i-3 is masked; walks back to i-6.
        let s = [1.0, 0.0, 0.0, 9.0, 0.0, 0.0, 9.0, 0.0, 0.0];
        let m = [false, false, false, true, false, false, true, false, false];
        let fixed = seasonal_naive(&s, &m, 3).unwrap();
        assert_eq!(fixed[6], 1.0); // donor i=3 masked -> i=0
    }

    #[test]
    fn seasonal_falls_back_to_linear_at_series_start() {
        let s = [9.0, 2.0, 3.0];
        let m = [true, false, false];
        let fixed = seasonal_naive(&s, &m, 24).unwrap();
        assert_eq!(fixed[0], 2.0); // back-filled by the linear fallback
    }

    #[test]
    fn seasonal_rejects_zero_period() {
        assert!(seasonal_naive(&[1.0], &[false], 0).is_err());
    }

    #[test]
    fn all_strategies_leave_unmasked_points_untouched() {
        let s: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let m: Vec<bool> = (0..50).map(|i| i % 7 == 3).collect();
        for fixed in [linear(&s, &m).unwrap(), seasonal_naive(&s, &m, 10).unwrap()] {
            for i in 0..50 {
                if !m[i] {
                    assert_eq!(fixed[i], s[i]);
                }
            }
        }
    }
}

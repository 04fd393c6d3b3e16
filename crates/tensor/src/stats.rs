//! Descriptive statistics used across the workspace.
//!
//! The anomaly detector thresholds reconstruction errors at the 98th
//! percentile of the training distribution (paper §II-B); [`percentile`]
//! implements the linear-interpolation quantile estimator (NumPy's default,
//! which the paper's Python implementation relies on).

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(evfad_tensor::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance. Returns `0.0` for slices shorter than 1.
fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Median via [`percentile`] at `p = 50`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median absolute deviation (MAD) about the median.
///
/// Used by the MAD-style anomaly rules referenced in the paper's related
/// work and exposed for the ablation detectors.
pub fn median_abs_deviation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Linear-interpolation percentile (NumPy `percentile` default method).
///
/// `p` is clamped to `[0, 100]`. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// use evfad_tensor::stats::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.0), 1.0);
/// assert_eq!(percentile(&v, 100.0), 4.0);
/// assert_eq!(percentile(&v, 50.0), 2.5);
/// ```
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum of a slice. Returns `f64::INFINITY` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice. Returns `f64::NEG_INFINITY` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_constant_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn std_dev_known() {
        // Population std of [2, 4, 4, 4, 5, 5, 7, 9] is 2.
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 25.0), 15.0);
        assert_eq!(percentile(&v, 75.0), 25.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [30.0, 10.0, 20.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let v = [1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), 1.0);
        assert_eq!(percentile(&v, 150.0), 2.0);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 98.0), 42.0);
    }

    #[test]
    fn percentile_98_matches_numpy() {
        // numpy.percentile(range(100), 98) == 97.02
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!((percentile(&v, 98.0) - 97.02).abs() < 1e-9);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mad_known() {
        // values [1,1,2,2,4,6,9]: median 2, deviations [1,1,0,0,2,4,7], MAD 1.
        let v = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(median_abs_deviation(&v), 1.0);
    }

    #[test]
    fn min_max_edges() {
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(min(&[2.0, -1.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0]), 2.0);
    }
}

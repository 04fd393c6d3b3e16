//! Temporal dataset splitting.

use crate::error::TimeSeriesError;

/// Index of the train/test boundary for a given fraction: the first
/// `boundary` points train, the rest test. The paper uses a *temporal*
/// split — the first 80 % of timestamps train, the final 20 % test — so no
/// shuffling happens, and aligned series (values, labels) split at the
/// same index. At least one point lands on each side.
///
/// # Errors
///
/// * [`TimeSeriesError::EmptySeries`] for `len == 0`;
/// * [`TimeSeriesError::InvalidFraction`] unless `0 < train_fraction < 1`.
///
/// # Examples
///
/// ```
/// assert_eq!(evfad_timeseries::split::boundary(10, 0.8)?, 8);
/// # Ok::<(), evfad_timeseries::TimeSeriesError>(())
/// ```
pub fn boundary(len: usize, train_fraction: f64) -> Result<usize, TimeSeriesError> {
    if len == 0 {
        return Err(TimeSeriesError::EmptySeries);
    }
    if !(train_fraction > 0.0 && train_fraction < 1.0) {
        return Err(TimeSeriesError::InvalidFraction(train_fraction));
    }
    Ok((((len as f64) * train_fraction).round() as usize).clamp(1, len - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighty_twenty_on_paper_size() {
        // 4,344 timestamps per client in the paper: 3,475 train, 869 test.
        assert_eq!(boundary(4344, 0.8).unwrap(), 3475);
    }

    #[test]
    fn tiny_series_always_keeps_one_test_point() {
        assert_eq!(boundary(2, 0.99).unwrap(), 1);
        assert_eq!(boundary(2, 0.01).unwrap(), 1);
    }

    #[test]
    fn rejects_empty_and_bad_fraction() {
        assert_eq!(boundary(0, 0.8), Err(TimeSeriesError::EmptySeries));
        assert_eq!(boundary(1, 0.0), Err(TimeSeriesError::InvalidFraction(0.0)));
        assert_eq!(boundary(1, 1.0), Err(TimeSeriesError::InvalidFraction(1.0)));
    }
}

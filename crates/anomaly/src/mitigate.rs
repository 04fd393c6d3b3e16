//! Anomaly mitigation: segment merging + interpolation.

use crate::error::AnomalyError;
use evfad_timeseries::impute;
use serde::{Deserialize, Serialize};

/// How flagged points are replaced.
///
/// The paper's `filter_anomalies` uses [`MitigationStrategy::Linear`];
/// seasonal-naive implements its future-work suggestion of "more
/// sophisticated reconstruction techniques".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MitigationStrategy {
    /// Linear interpolation between non-anomalous boundary points (paper).
    #[default]
    Linear,
    /// Same-hour-yesterday substitution (period 24).
    SeasonalNaive,
}

impl MitigationStrategy {
    /// Stable identifier for bench output.
    pub fn name(self) -> &'static str {
        match self {
            MitigationStrategy::Linear => "linear",
            MitigationStrategy::SeasonalNaive => "seasonal_naive",
        }
    }

    /// Applies the strategy to every `true` entry in `mask`.
    ///
    /// # Errors
    ///
    /// Propagates [`AnomalyError::LengthMismatch`] (as converted from the
    /// underlying imputation error) on inconsistent inputs.
    pub fn apply(self, series: &[f64], mask: &[bool]) -> Result<Vec<f64>, AnomalyError> {
        if series.len() != mask.len() {
            return Err(AnomalyError::LengthMismatch {
                series: series.len(),
                mask: mask.len(),
            });
        }
        let fixed = match self {
            MitigationStrategy::Linear => impute::linear(series, mask)?,
            MitigationStrategy::SeasonalNaive => impute::seasonal_naive(series, mask, 24)?,
        };
        Ok(fixed)
    }
}

/// Merges anomalous runs separated by gaps of at most `max_gap` normal
/// points into single segments, returning the widened mask.
///
/// This reproduces the paper's `filter_anomalies` behaviour of "allowing
/// for small gaps (≤ 2 timestamps) to maintain continuity": a brief return
/// to normal inside an attack window is treated as part of the attack, so
/// the interpolation spans the whole disturbance.
///
/// # Examples
///
/// ```
/// use evfad_anomaly::merge_segments;
///
/// let mask = [false, true, false, false, true, false];
/// // Gap of two normal points between the runs is bridged.
/// let merged = merge_segments(&mask, 2);
/// assert_eq!(merged, vec![false, true, true, true, true, false]);
/// // With max_gap = 1 the runs stay separate.
/// assert_eq!(merge_segments(&mask, 1), mask.to_vec());
/// ```
pub fn merge_segments(mask: &[bool], max_gap: usize) -> Vec<bool> {
    let mut out = mask.to_vec();
    let mut last_true: Option<usize> = None;
    for (i, &flag) in mask.iter().enumerate() {
        if flag {
            if let Some(prev) = last_true {
                let gap = i - prev - 1;
                if gap > 0 && gap <= max_gap {
                    for slot in out.iter_mut().take(i).skip(prev + 1) {
                        *slot = true;
                    }
                }
            }
            last_true = Some(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_bridges_small_gaps_only() {
        let mask = [true, false, true, false, false, false, true];
        let merged = merge_segments(&mask, 2);
        assert_eq!(
            merged,
            vec![true, true, true, false, false, false, true],
            "gap of 1 bridged, gap of 3 left alone"
        );
    }

    #[test]
    fn merge_zero_gap_is_identity() {
        let mask = [true, false, true];
        assert_eq!(merge_segments(&mask, 0), mask.to_vec());
    }

    #[test]
    fn merge_empty_and_all_true() {
        assert_eq!(merge_segments(&[], 2), Vec::<bool>::new());
        assert_eq!(merge_segments(&[true, true], 2), vec![true, true]);
        assert_eq!(merge_segments(&[false, false], 2), vec![false, false]);
    }

    #[test]
    fn merge_is_idempotent() {
        let mask = [
            true, false, false, true, false, true, false, false, false, true,
        ];
        let once = merge_segments(&mask, 2);
        let twice = merge_segments(&once, 2);
        assert_eq!(once, twice);
    }

    #[test]
    fn strategies_replace_only_masked() {
        let series = [1.0, 50.0, 3.0, 4.0, 60.0, 6.0];
        let mask = [false, true, false, false, true, false];
        for strat in [
            MitigationStrategy::Linear,
            MitigationStrategy::SeasonalNaive,
        ] {
            let fixed = strat.apply(&series, &mask).unwrap();
            assert_eq!(fixed.len(), series.len());
            for i in [0usize, 2, 3, 5] {
                assert_eq!(fixed[i], series[i], "{} modified clean point", strat.name());
            }
            assert_ne!(fixed[1], 50.0);
            assert_ne!(fixed[4], 60.0);
        }
    }

    #[test]
    fn linear_strategy_matches_impute() {
        let series = [0.0, 99.0, 2.0];
        let mask = [false, true, false];
        let fixed = MitigationStrategy::Linear.apply(&series, &mask).unwrap();
        assert_eq!(fixed, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(matches!(
            MitigationStrategy::Linear.apply(&[1.0], &[true, false]),
            Err(AnomalyError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn names() {
        assert_eq!(MitigationStrategy::Linear.name(), "linear");
        assert_eq!(MitigationStrategy::default(), MitigationStrategy::Linear);
    }
}

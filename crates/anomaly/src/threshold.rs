//! Anomaly-score thresholding rules.

use evfad_tensor::stats;
use serde::{Deserialize, Serialize};

/// Rule converting a training-score distribution into a decision boundary.
///
/// The paper thresholds at the 98th percentile of training reconstruction
/// MSE. Mean+k·std (MSD) and median+k·MAD rules appear in the related work
/// the paper builds on (\[4\]) and are provided for the threshold ablation.
///
/// # Examples
///
/// ```
/// use evfad_anomaly::ThresholdRule;
///
/// let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let t = ThresholdRule::Percentile(98.0).boundary(&scores);
/// assert!((t - 97.02).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdRule {
    /// Flag scores above the given percentile of training scores
    /// (paper default: 98).
    Percentile(f64),
    /// Flag scores above `mean + k * std` of training scores.
    MeanStd {
        /// Multiplier `k`.
        k: f64,
    },
    /// Flag scores above `median + k * MAD` of training scores.
    Mad {
        /// Multiplier `k`.
        k: f64,
    },
}

impl ThresholdRule {
    /// The paper's rule: the 98th percentile of training scores.
    pub fn paper() -> Self {
        ThresholdRule::Percentile(98.0)
    }

    /// Computes the decision boundary from training scores.
    ///
    /// Returns `f64::INFINITY` for an empty slice (nothing can be flagged).
    pub fn boundary(self, training_scores: &[f64]) -> f64 {
        if training_scores.is_empty() {
            return f64::INFINITY;
        }
        match self {
            ThresholdRule::Percentile(p) => stats::percentile(training_scores, p),
            ThresholdRule::MeanStd { k } => {
                stats::mean(training_scores) + k * stats::std_dev(training_scores)
            }
            ThresholdRule::Mad { k } => {
                stats::median(training_scores) + k * stats::median_abs_deviation(training_scores)
            }
        }
    }

    /// Stable identifier for bench output.
    pub fn name(self) -> &'static str {
        match self {
            ThresholdRule::Percentile(_) => "percentile",
            ThresholdRule::MeanStd { .. } => "mean_std",
            ThresholdRule::Mad { .. } => "mad",
        }
    }
}

impl Default for ThresholdRule {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_flags_about_two_percent() {
        let scores: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = ThresholdRule::paper().boundary(&scores);
        let flagged = scores.iter().filter(|&&s| s > t).count();
        assert!((15..=25).contains(&flagged), "flagged {flagged}");
    }

    #[test]
    fn mean_std_boundary() {
        let scores = [0.0, 2.0]; // mean 1, std 1
        let t = ThresholdRule::MeanStd { k: 3.0 }.boundary(&scores);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mad_boundary() {
        let scores = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]; // median 2, MAD 1
        let t = ThresholdRule::Mad { k: 3.0 }.boundary(&scores);
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_scores_flag_nothing() {
        assert_eq!(ThresholdRule::paper().boundary(&[]), f64::INFINITY);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ThresholdRule::default(), ThresholdRule::Percentile(98.0));
    }

    #[test]
    fn names() {
        assert_eq!(ThresholdRule::paper().name(), "percentile");
        assert_eq!(ThresholdRule::MeanStd { k: 1.0 }.name(), "mean_std");
        assert_eq!(ThresholdRule::Mad { k: 1.0 }.name(), "mad");
    }
}

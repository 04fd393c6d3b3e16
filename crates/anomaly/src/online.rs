//! Streaming anomaly detection.
//!
//! The batch [`AnomalyFilter`] scores a whole series
//! at once — the right tool for the paper's offline evaluation. A deployed
//! charging station instead sees one reading per hour and must decide
//! immediately. [`OnlineDetector`] wraps a fitted filter's autoencoder in a
//! ring buffer: each new reading completes one window, is scored by its
//! reconstruction error in that window, and is optionally replaced by an
//! imputed value before entering the buffer (so one spike does not poison
//! the context of subsequent decisions).

use crate::detector::{AnomalyFilter, FilterConfig};
use crate::error::AnomalyError;
use evfad_nn::TrainHistory;

/// A point decision from the streaming detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineDecision {
    /// Reconstruction-error score of the new point (its own window).
    pub score: f64,
    /// Whether the point was flagged.
    pub anomalous: bool,
    /// The value admitted into the context buffer (the raw value, or the
    /// imputed replacement when flagged and sanitising is enabled).
    pub admitted: f64,
}

/// Streaming wrapper around a fitted [`AnomalyFilter`].
///
/// # Examples
///
/// ```no_run
/// use evfad_anomaly::{FilterConfig, OnlineDetector};
///
/// let train: Vec<f64> = (0..400)
///     .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 24.0).sin())
///     .collect();
/// let mut detector = OnlineDetector::fit(FilterConfig::fast(24), &train, true)?;
/// for (i, &v) in train.iter().take(100).enumerate() {
///     let decision = detector.push(v);
///     if let Some(d) = decision {
///         assert!(d.score >= 0.0, "point {i}");
///     }
/// }
/// # Ok::<(), evfad_anomaly::AnomalyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    filter: AnomalyFilter,
    buffer: Vec<f64>,
    sanitize: bool,
    threshold: f64,
    seq_len: usize,
    /// Reusable window assembly buffer (context tail + the new reading).
    win_scratch: Vec<f64>,
    /// Reusable per-point score buffer filled by `score_into`.
    scores_scratch: Vec<f64>,
}

impl OnlineDetector {
    /// Trains a filter on `train` (normal data, already scaled) and wraps
    /// it for streaming. With `sanitize = true`, flagged readings are
    /// replaced in the context buffer by the previous admitted value.
    ///
    /// # Errors
    ///
    /// Propagates [`AnomalyFilter::fit`] failures.
    pub fn fit(config: FilterConfig, train: &[f64], sanitize: bool) -> Result<Self, AnomalyError> {
        let mut filter = AnomalyFilter::new(config);
        let _: TrainHistory = filter.fit(train)?;
        let threshold = filter.threshold().ok_or(AnomalyError::NotFitted)?;
        let seq_len = filter.config().seq_len;
        // Warm-start the buffer with the tail of the training data so the
        // first streamed reading already has context.
        let warm: Vec<f64> = train[train.len().saturating_sub(seq_len - 1)..].to_vec();
        Ok(Self {
            filter,
            buffer: warm,
            sanitize,
            threshold,
            seq_len,
            win_scratch: Vec::new(),
            scores_scratch: Vec::new(),
        })
    }

    /// Wraps an already-fitted filter (buffer starts empty; the first
    /// `seq_len - 1` readings only build context).
    ///
    /// # Errors
    ///
    /// [`AnomalyError::NotFitted`] if the filter has not been fitted.
    pub fn from_fitted(filter: AnomalyFilter, sanitize: bool) -> Result<Self, AnomalyError> {
        let threshold = filter.threshold().ok_or(AnomalyError::NotFitted)?;
        let seq_len = filter.config().seq_len;
        Ok(Self {
            filter,
            buffer: Vec::new(),
            sanitize,
            threshold,
            seq_len,
            win_scratch: Vec::new(),
            scores_scratch: Vec::new(),
        })
    }

    /// The decision threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of context points currently buffered.
    pub fn context_len(&self) -> usize {
        self.buffer.len()
    }

    /// Feeds one reading. Returns `None` while context is still filling
    /// (fewer than `seq_len - 1` buffered points), otherwise the decision.
    pub fn push(&mut self, value: f64) -> Option<OnlineDecision> {
        if self.buffer.len() < self.seq_len - 1 {
            self.buffer.push(value);
            return None;
        }
        // Score the window ending at this value. The window and score
        // buffers are reused across pushes, so a warm push makes zero
        // matrix allocations (the filter's staging batch and the model's
        // arena keep the one-window shape they were first given).
        self.win_scratch.clear();
        self.win_scratch
            .extend_from_slice(&self.buffer[self.buffer.len() - (self.seq_len - 1)..]);
        self.win_scratch.push(value);
        self.filter
            .score_into(&self.win_scratch, &mut self.scores_scratch)
            .expect("window length equals seq_len by construction");
        let score = self.scores_scratch[self.seq_len - 1];
        let anomalous = score > self.threshold;
        let admitted = if anomalous && self.sanitize {
            *self.buffer.last().expect("context is non-empty")
        } else {
            value
        };
        self.buffer.push(admitted);
        // Bound the buffer: only the last seq_len - 1 values matter.
        if self.buffer.len() > 4 * self.seq_len {
            let keep = self.buffer.len() - (self.seq_len - 1);
            self.buffer.drain(..keep);
        }
        Some(OnlineDecision {
            score,
            anomalous,
            admitted,
        })
    }

    /// Streams a whole slice, returning one decision per point that had
    /// full context.
    pub fn push_all(&mut self, values: &[f64]) -> Vec<OnlineDecision> {
        let mut out = Vec::new();
        self.push_all_into(values, &mut out);
        out
    }

    /// Streams a whole slice into a caller-owned decision buffer.
    ///
    /// `out` is cleared first and receives one decision per point that had
    /// full context, in input order. With an `out` whose capacity already
    /// covers `values.len()` and a warm detector, a call makes zero matrix
    /// allocations and never grows a vector — the streaming twin of the
    /// batch path's `score_into`.
    pub fn push_all_into(&mut self, values: &[f64], out: &mut Vec<OnlineDecision>) {
        out.clear();
        out.extend(values.iter().filter_map(|&v| self.push(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 12.0).sin())
            .collect()
    }

    fn fitted(sanitize: bool) -> OnlineDetector {
        OnlineDetector::fit(FilterConfig::fast(12), &sine(400), sanitize).expect("fit")
    }

    #[test]
    fn warm_started_detector_decides_immediately() {
        let mut d = fitted(false);
        assert_eq!(d.context_len(), 11);
        assert!(d.push(0.5).is_some());
    }

    #[test]
    fn cold_start_builds_context_first() {
        let mut filter = AnomalyFilter::new(FilterConfig::fast(12));
        filter.fit(&sine(400)).expect("fit");
        let mut d = OnlineDetector::from_fitted(filter, false).expect("wrap");
        let series = sine(30);
        let mut decisions = 0;
        for &v in &series {
            if d.push(v).is_some() {
                decisions += 1;
            }
        }
        assert_eq!(decisions, 30 - 11);
    }

    #[test]
    fn flags_streamed_spike() {
        let mut d = fitted(false);
        let mut spiked = sine(60);
        spiked[40] += 3.0;
        let decisions = d.push_all(&spiked);
        assert!(decisions[40].anomalous, "spike not flagged online");
        let normal_flags = decisions[..35].iter().filter(|x| x.anomalous).count();
        assert!(normal_flags <= 4, "too many online FPs: {normal_flags}");
    }

    #[test]
    fn sanitize_replaces_flagged_values_in_context() {
        let mut d = fitted(true);
        let mut spiked = sine(60);
        spiked[40] += 3.0;
        let decisions = d.push_all(&spiked);
        assert!(decisions[40].anomalous);
        assert!(
            decisions[40].admitted < 2.0,
            "spike leaked into the context buffer"
        );
    }

    #[test]
    fn sanitized_context_recovers_faster_after_spike() {
        let mut plain = fitted(false);
        let mut sanitized = fitted(true);
        let mut spiked = sine(80);
        for v in spiked.iter_mut().skip(40).take(3) {
            *v += 3.0;
        }
        let dp = plain.push_all(&spiked);
        let ds = sanitized.push_all(&spiked);
        // After the spike passes, the sanitised detector should flag no
        // more post-spike points than the plain one.
        let post = 46..60;
        let fp_plain = dp[post.clone()].iter().filter(|x| x.anomalous).count();
        let fp_sane = ds[post].iter().filter(|x| x.anomalous).count();
        assert!(fp_sane <= fp_plain, "sanitising made recovery worse");
    }

    #[test]
    fn buffer_stays_bounded() {
        let mut d = fitted(false);
        let _ = d.push_all(&sine(1000));
        assert!(d.context_len() <= 4 * 12);
    }

    #[test]
    fn unfitted_filter_rejected() {
        let filter = AnomalyFilter::new(FilterConfig::fast(12));
        assert!(matches!(
            OnlineDetector::from_fitted(filter, false),
            Err(AnomalyError::NotFitted)
        ));
    }
}

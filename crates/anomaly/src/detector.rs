//! The LSTM-autoencoder anomaly filter.

use crate::error::AnomalyError;
use crate::mitigate::{merge_segments, MitigationStrategy};
use crate::threshold::ThresholdRule;
use evfad_nn::{
    Activation, Adam, Dense, Dropout, Lstm, RepeatVector, Sample, Seq, Sequential, TrainConfig,
    TrainHistory,
};
use evfad_tensor::Matrix;
use evfad_timeseries::windows::WindowedSeries;
use serde::{Deserialize, Serialize};

/// Configuration of [`AnomalyFilter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Window length fed to the autoencoder (paper: 24 hours).
    pub seq_len: usize,
    /// Hidden sizes of the two encoder LSTMs (paper: 50 → 25; the decoder
    /// mirrors them 25 → 50).
    pub encoder_units: (usize, usize),
    /// Dropout rate after each encoder LSTM (paper: 0.2).
    pub dropout: f64,
    /// Threshold rule (paper: 98th percentile of training MSE).
    pub threshold: ThresholdRule,
    /// Maximum normal-point gap merged into an anomalous segment (paper: 2).
    pub max_gap: usize,
    /// Replacement strategy for flagged points (paper: linear).
    pub strategy: MitigationStrategy,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Early-stopping patience (paper: 10).
    pub patience: usize,
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Stride between training windows (1 = every window, larger = faster).
    pub train_stride: usize,
    /// Validation fraction used to drive early stopping.
    pub validation_split: f64,
    /// Seed for weight initialisation and shuffling.
    pub seed: u64,
}

impl FilterConfig {
    /// The paper's configuration (expensive: full-size autoencoder).
    pub fn paper(seed: u64) -> Self {
        Self {
            seq_len: 24,
            encoder_units: (50, 25),
            dropout: 0.2,
            threshold: ThresholdRule::paper(),
            max_gap: 2,
            strategy: MitigationStrategy::Linear,
            epochs: 30,
            patience: 10,
            batch_size: 32,
            learning_rate: 0.001,
            train_stride: 1,
            validation_split: 0.1,
            seed,
        }
    }

    /// A scaled-down configuration for tests and CI-speed benches.
    pub fn fast(seq_len: usize) -> Self {
        Self {
            seq_len,
            encoder_units: (10, 5),
            dropout: 0.1,
            threshold: ThresholdRule::paper(),
            max_gap: 2,
            strategy: MitigationStrategy::Linear,
            epochs: 10,
            patience: 5,
            batch_size: 32,
            learning_rate: 0.01,
            train_stride: 2,
            validation_split: 0.1,
            seed: 7,
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::paper(7)
    }
}

/// Result of scoring a series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Per-point reconstruction-error score.
    pub scores: Vec<f64>,
    /// `true` where the score exceeds the fitted boundary.
    pub flags: Vec<bool>,
    /// The decision boundary used.
    pub threshold: f64,
}

/// Windows scored per forward pass. Any value gives the same scores (batch
/// rows are independent); this one keeps the widest `(T·B) x 4H`
/// pre-activation block of the paper's autoencoder at L2 size (2.4 MB) and
/// a filter's scoring arena small enough for the study to score two
/// clients side by side.
const SCORE_CHUNK: usize = 64;

/// The paper's `EVChargingAnomalyFilter`: an LSTM autoencoder trained on
/// normal data, a percentile threshold on reconstruction error, and
/// gap-tolerant interpolation-based mitigation.
///
/// Expects inputs on a bounded scale — feed it `MinMaxScaler`-normalised
/// series, as the paper does.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct AnomalyFilter {
    config: FilterConfig,
    model: Option<Sequential>,
    threshold: Option<f64>,
    /// Reusable time-major staging batch, reshaped in place per chunk.
    win_buf: Seq,
    /// Reusable flat reconstruction buffer: window `w`'s reconstruction at
    /// in-window position `o` lives at `recon[w * seq_len + o]`.
    recon: Vec<f64>,
    /// Windows run through the autoencoder by every scoring pass so far.
    windows_scored: u64,
}

impl AnomalyFilter {
    /// Creates an unfitted filter.
    pub fn new(config: FilterConfig) -> Self {
        Self {
            config,
            model: None,
            threshold: None,
            win_buf: Seq::default(),
            recon: Vec::new(),
            windows_scored: 0,
        }
    }

    /// The filter's configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// The fitted decision boundary, if any.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Windows the autoencoder has scored since the filter was built: the
    /// fit's calibration pass and every scoring call after it, one per
    /// stride-1 window of each series.
    pub fn windows_scored(&self) -> u64 {
        self.windows_scored
    }

    /// Borrow of the fitted autoencoder, if any (e.g. for benchmarking or
    /// inspecting the model outside the filter).
    pub fn model(&self) -> Option<&Sequential> {
        self.model.as_ref()
    }

    /// Builds the autoencoder architecture from the configuration.
    fn build_model(&self) -> Sequential {
        let (e1, e2) = self.config.encoder_units;
        Sequential::new(self.config.seed)
            .with(Lstm::new(1, e1, true))
            .with(Dropout::new(self.config.dropout))
            .with(Lstm::new(e1, e2, false))
            .with(Dropout::new(self.config.dropout))
            .with(RepeatVector::new(self.config.seq_len))
            .with(Lstm::new(e2, e2, true))
            .with(Lstm::new(e2, e1, true))
            .with(Dense::new(e1, 1, Activation::Linear))
            .with_optimizer(Adam::new(self.config.learning_rate))
    }

    /// Trains the autoencoder on a (presumed normal) series and fixes the
    /// detection boundary from the training-score distribution.
    ///
    /// The fitted filter holds the weights, the optimizer state and the
    /// threshold, and nothing else. The model's arenas
    /// ([`Sequential::release_arenas`]) are released twice: once the
    /// training ends, so the calibration pass does not grow its scoring
    /// arenas on top of the training batch's BPTT caches, and once it is
    /// done, so a clone costs about four times the parameter bytes. The
    /// first `score` afterwards regrows only the scoring arenas.
    ///
    /// # Errors
    ///
    /// * [`AnomalyError::SeriesTooShort`] if `train` cannot form one window;
    /// * [`AnomalyError::Training`] if the underlying fit fails.
    pub fn fit(&mut self, train: &[f64]) -> Result<TrainHistory, AnomalyError> {
        if train.len() < self.config.seq_len + 1 {
            return Err(AnomalyError::SeriesTooShort {
                len: train.len(),
                needed: self.config.seq_len + 1,
            });
        }
        let samples: Vec<Sample> = train
            .windows(self.config.seq_len)
            .step_by(self.config.train_stride.max(1))
            .map(|w| Sample::autoencoding(Matrix::column_vector(w)))
            .collect();
        let mut model = self.build_model();
        let cfg = TrainConfig {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            validation_split: self.config.validation_split,
            patience: Some(self.config.patience),
            ..TrainConfig::default()
        };
        let history = model.fit(&samples, &cfg)?;
        model.release_arenas();
        self.model = Some(model);
        // The boundary is set on the distribution of *individual* estimates
        // (each point contributes its backward- and forward-window errors
        // separately). A point is flagged when its minimum — i.e. BOTH
        // estimates — exceeds the boundary. Fitting the percentile on the
        // min-statistic instead would bias detection near attacks, where
        // one estimate is contaminated and the clean one faces a threshold
        // calibrated for the minimum of two draws.
        let (_, train_estimates) = self.score_with_estimates(train)?;
        self.threshold = Some(self.config.threshold.boundary(&train_estimates));
        // Again, so the calibration pass's scoring arenas go too.
        self.model.as_mut().expect("set above").release_arenas();
        self.win_buf = Seq::default();
        self.recon = Vec::new();
        Ok(history)
    }

    /// Per-point reconstruction-error scores.
    ///
    /// Each point gets two canonical error estimates — its reconstruction
    /// at the **last** position of the window ending on it, and at the
    /// **first** position of the window starting on it — and the score is
    /// the smaller of the two (edges fall back to whichever exists).
    ///
    /// Taking a minimum makes the score robust to window contamination: a
    /// normal point adjacent to an attack spike still has one window on the
    /// clean side that reconstructs it well, while a genuinely anomalous
    /// point is badly reconstructed from both directions. Using exactly two
    /// fixed estimates (rather than all `seq_len` covering windows) keeps
    /// the score's sampling statistics identical for every point, so the
    /// 98th-percentile boundary fitted on training data transfers without
    /// bias — otherwise attack-adjacent points, whose clean-window count is
    /// reduced, score systematically higher and the false-positive rate
    /// blows far past the paper's 1.21 %.
    ///
    /// # Errors
    ///
    /// * [`AnomalyError::NotFitted`] before [`AnomalyFilter::fit`];
    /// * [`AnomalyError::SeriesTooShort`] if `series` cannot form a window.
    pub fn score(&mut self, series: &[f64]) -> Result<Vec<f64>, AnomalyError> {
        let mut scores = Vec::new();
        self.score_core(series, &mut scores, None)?;
        Ok(scores)
    }

    /// Like [`AnomalyFilter::score`] but writing the per-point scores into
    /// a caller-owned buffer (cleared and resized to `series.len()`), so a
    /// warm streaming caller — e.g.
    /// [`OnlineDetector`](crate::OnlineDetector) — allocates nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyFilter::score`].
    pub fn score_into(
        &mut self,
        series: &[f64],
        scores: &mut Vec<f64>,
    ) -> Result<(), AnomalyError> {
        self.score_core(series, scores, None)
    }

    /// Like [`AnomalyFilter::score`], additionally returning the flat list
    /// of individual (per-window) error estimates used for threshold
    /// calibration.
    fn score_with_estimates(
        &mut self,
        series: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), AnomalyError> {
        let mut best = Vec::new();
        let mut estimates = Vec::new();
        self.score_core(series, &mut best, Some(&mut estimates))?;
        Ok((best, estimates))
    }

    /// Runs the autoencoder over every stride-1 window of `series`,
    /// filling the flat `self.recon` buffer
    /// (`recon[w * seq_len + o]` = window `w`'s reconstruction at offset
    /// `o`). Returns the window count.
    ///
    /// Windows are staged straight out of the series: timestep `t` of a
    /// chunk of stride-1 windows is the contiguous slice
    /// `series[first + t..first + t + count]`
    /// ([`WindowedSeries::step`]), copied once into the reusable batch —
    /// bitwise identical to staging one column-vector `Matrix` per
    /// `series.windows(seq_len)` window through `Seq::from_samples`, without
    /// materialising either. Scored [`SCORE_CHUNK`] windows at a time,
    /// which bounds the model's activation arena on a year-long series.
    fn recon_into(&mut self, series: &[f64], seq_len: usize) -> Result<usize, AnomalyError> {
        let ws = WindowedSeries::new(series, seq_len).ok_or(AnomalyError::SeriesTooShort {
            len: series.len(),
            needed: seq_len,
        })?;
        if self.model.is_none() {
            return Err(AnomalyError::NotFitted);
        }
        let n_wins = ws.len();
        let mut first = 0usize;
        while first < n_wins {
            let count = (n_wins - first).min(SCORE_CHUNK);
            self.win_buf.reshape(seq_len, count, 1);
            for t in 0..seq_len {
                self.win_buf
                    .step_data_mut(t)
                    .copy_from_slice(ws.step(t, first, count));
            }
            let model = self.model.as_mut().expect("checked above");
            model.predict_seq_into(&self.win_buf, &mut self.recon, first * seq_len);
            first += count;
        }
        self.windows_scored += n_wins as u64;
        Ok(n_wins)
    }

    /// Shared scoring loop: fills `best` (cleared, one score per point)
    /// and, when requested, appends the raw per-window estimates.
    fn score_core(
        &mut self,
        series: &[f64],
        best: &mut Vec<f64>,
        mut estimates: Option<&mut Vec<f64>>,
    ) -> Result<(), AnomalyError> {
        let seq_len = self.config.seq_len;
        if series.len() < seq_len {
            return Err(AnomalyError::SeriesTooShort {
                len: series.len(),
                needed: seq_len,
            });
        }
        let n_wins = self.recon_into(series, seq_len)?;
        best.clear();
        best.resize(series.len(), f64::INFINITY);
        if let Some(est) = estimates.as_deref_mut() {
            est.clear();
            est.reserve(2 * n_wins);
        }
        for start in 0..n_wins {
            let r = &self.recon[start * seq_len..(start + 1) * seq_len];
            // Backward estimate: this window's last position scores point
            // `start + seq_len - 1`.
            let last_idx = start + seq_len - 1;
            let err_last = r[seq_len - 1] - series[last_idx];
            let sq_last = err_last * err_last;
            best[last_idx] = best[last_idx].min(sq_last);
            // Forward estimate: this window's first position scores `start`.
            let err_first = r[0] - series[start];
            let sq_first = err_first * err_first;
            best[start] = best[start].min(sq_first);
            if let Some(est) = estimates.as_deref_mut() {
                est.push(sq_last);
                est.push(sq_first);
            }
        }
        // Starts cover `0..=n - seq_len` and last positions `seq_len - 1..n`:
        // a series shorter than `2 * seq_len - 2` leaves the indices between
        // them unscored — for a single window, which is what
        // `OnlineDetector::push` scores, all but its two ends. Those take
        // the last window's reconstruction at their offset.
        for (idx, b) in best.iter_mut().enumerate() {
            if !b.is_finite() {
                let start = idx.min(series.len() - seq_len);
                let offset = idx - start;
                let err = self.recon[start * seq_len + offset] - series[idx];
                *b = err * err;
            }
        }
        Ok(())
    }

    /// Scores a series and applies the fitted threshold.
    ///
    /// # Panics
    ///
    /// Panics if called before [`AnomalyFilter::fit`] (use [`AnomalyFilter::try_detect`]
    /// for a fallible variant).
    pub fn detect(&mut self, series: &[f64]) -> Detection {
        self.try_detect(series)
            .expect("AnomalyFilter::detect on unfitted filter")
    }

    /// Fallible variant of [`AnomalyFilter::detect`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyFilter::score`].
    pub fn try_detect(&mut self, series: &[f64]) -> Result<Detection, AnomalyError> {
        let threshold = self.threshold.ok_or(AnomalyError::NotFitted)?;
        let scores = self.score(series)?;
        let flags = scores.iter().map(|&s| s > threshold).collect();
        Ok(Detection {
            scores,
            flags,
            threshold,
        })
    }

    /// The paper's `filter_anomalies`: merges flagged segments across gaps
    /// of ≤ `max_gap` normal points, then replaces them with the configured
    /// strategy (linear interpolation by default).
    ///
    /// # Errors
    ///
    /// [`AnomalyError::LengthMismatch`] if `flags` and `series` differ.
    pub fn filter_anomalies(
        &self,
        series: &[f64],
        flags: &[bool],
    ) -> Result<Vec<f64>, AnomalyError> {
        if series.len() != flags.len() {
            return Err(AnomalyError::LengthMismatch {
                series: series.len(),
                mask: flags.len(),
            });
        }
        let merged = merge_segments(flags, self.config.max_gap);
        self.config.strategy.apply(series, &merged)
    }

    /// Convenience: detect and mitigate in one call, returning the cleaned
    /// series and the detection.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyFilter::try_detect`].
    pub fn clean(&mut self, series: &[f64]) -> Result<(Vec<f64>, Detection), AnomalyError> {
        let detection = self.try_detect(series)?;
        let cleaned = self.filter_anomalies(series, &detection.flags)?;
        Ok((cleaned, detection))
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

    fn fitted_filter(train_len: usize) -> AnomalyFilter {
        let mut f = AnomalyFilter::new(FilterConfig::fast(12));
        f.fit(&sine(train_len)).expect("fit");
        f
    }

    #[test]
    fn unfitted_filter_errors() {
        let mut f = AnomalyFilter::new(FilterConfig::fast(12));
        assert_eq!(f.score(&sine(50)).unwrap_err(), AnomalyError::NotFitted);
        assert_eq!(
            f.try_detect(&sine(50)).unwrap_err(),
            AnomalyError::NotFitted
        );
    }

    #[test]
    fn fit_requires_enough_data() {
        let mut f = AnomalyFilter::new(FilterConfig::fast(12));
        assert!(matches!(
            f.fit(&sine(10)),
            Err(AnomalyError::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn flags_obvious_spike() {
        let mut f = fitted_filter(400);
        let mut attacked = sine(200);
        for v in attacked.iter_mut().skip(100).take(4) {
            *v += 3.0; // enormous relative to the 0.2..0.8 signal
        }
        let det = f.detect(&attacked);
        assert!(det.flags[100..104].iter().any(|&x| x), "spike missed");
        // The clean region ahead of the spike stays mostly unflagged.
        let early_fp = det.flags[..80].iter().filter(|&&x| x).count();
        assert!(early_fp < 8, "too many false positives: {early_fp}");
    }

    #[test]
    fn training_false_positive_rate_near_percentile() {
        let mut f = fitted_filter(400);
        let det = f.detect(&sine(400));
        // Threshold was the 98th percentile of these very scores.
        let frac = det.flags.iter().filter(|&&f| f).count() as f64 / det.flags.len() as f64;
        assert!(frac < 0.06, "training FPR too high: {frac}");
    }

    #[test]
    fn clean_removes_spike_mass() {
        let mut f = fitted_filter(400);
        let clean = sine(200);
        let mut attacked = clean.clone();
        for v in attacked.iter_mut().skip(60).take(5) {
            *v += 3.0;
        }
        let (filtered, det) = f.clean(&attacked).expect("clean");
        assert!(det.flags.contains(&true));
        let err_attacked: f64 = attacked
            .iter()
            .zip(&clean)
            .map(|(a, c)| (a - c).abs())
            .sum();
        let err_filtered: f64 = filtered
            .iter()
            .zip(&clean)
            .map(|(a, c)| (a - c).abs())
            .sum();
        assert!(
            err_filtered < err_attacked * 0.6,
            "filtering did not recover: {err_filtered} vs {err_attacked}"
        );
    }

    #[test]
    fn detect_deterministic_after_fit() {
        let mut f = fitted_filter(300);
        let series = sine(150);
        assert_eq!(f.detect(&series), f.detect(&series));
    }

    #[test]
    fn filter_anomalies_respects_gap_merging() {
        let f = fitted_filter(300);
        let series = vec![1.0, 9.0, 1.0, 9.0, 1.0];
        // Two flagged points with a one-point gap: the gap point is merged
        // and interpolated too.
        let flags = vec![false, true, false, true, false];
        let fixed = f.filter_anomalies(&series, &flags).expect("filter");
        assert_eq!(fixed[0], 1.0);
        assert_eq!(fixed[4], 1.0);
        assert!((fixed[2] - 1.0).abs() < 1e-9, "gap point interpolated");
    }

    #[test]
    fn filter_anomalies_length_check() {
        let f = fitted_filter(300);
        assert!(matches!(
            f.filter_anomalies(&[1.0, 2.0], &[true]),
            Err(AnomalyError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn paper_config_has_published_values() {
        let cfg = FilterConfig::paper(1);
        assert_eq!(cfg.seq_len, 24);
        assert_eq!(cfg.encoder_units, (50, 25));
        assert_eq!(cfg.dropout, 0.2);
        assert_eq!(cfg.max_gap, 2);
        assert_eq!(cfg.patience, 10);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.learning_rate, 0.001);
        assert_eq!(cfg.threshold, ThresholdRule::Percentile(98.0));
    }

    #[test]
    fn score_length_matches_series() {
        let mut f = fitted_filter(300);
        let series = sine(77);
        let scores = f.score(&series).expect("score");
        assert_eq!(scores.len(), 77);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn short_series_score_their_middle_from_the_last_window() {
        let mut f = fitted_filter(300);
        let seq_len = f.config().seq_len;
        let mut model = f.model().expect("fitted").clone();
        for n in [seq_len, seq_len + 3] {
            let series: Vec<f64> = sine(n).iter().map(|v| v * 1.1).collect();
            let scores = f.score(&series).expect("score");
            assert_eq!(scores.len(), n);
            assert!(scores.iter().all(|s| s.is_finite()));
            let windows: Vec<Matrix> = series.windows(seq_len).map(Matrix::column_vector).collect();
            let recon = model.predict(&windows);
            // Neither a window start nor a window's last position.
            let gap = n - seq_len + 1..seq_len - 1;
            assert_eq!(gap.len(), 2 * seq_len - 2 - n);
            let last = n - seq_len;
            for idx in gap {
                let err = recon[last][(idx - last, 0)] - series[idx];
                assert_eq!(scores[idx], err * err, "n = {n}, index {idx}");
            }
        }
    }
}

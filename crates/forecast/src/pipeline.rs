//! Per-client data preparation and raw-unit evaluation.

use crate::error::ForecastError;
use evfad_nn::{Sample, Sequential};
use evfad_tensor::Matrix;
use evfad_timeseries::{metrics, split, windows, MinMaxScaler};
use serde::{Deserialize, Serialize};

/// A client's series prepared for supervised learning.
///
/// Scaling follows the paper: a `MinMaxScaler` is fitted per client (on the
/// training portion, so attack spikes in the test period legitimately
/// exceed 1.0), sequences of `seq_len` are built over the full scaled
/// series, and windows are assigned to train/test by the temporal position
/// of their *target*.
#[derive(Debug, Clone)]
pub struct PreparedClient {
    /// Zone label (`"102"` …).
    pub label: String,
    /// Training windows (scaled).
    pub train: Vec<Sample>,
    /// Test windows (scaled).
    pub test: Vec<Sample>,
    /// Raw-unit actual values aligned with `test` (for metric computation).
    pub test_actual_raw: Vec<f64>,
    /// Timestamp index of each test target in the source series.
    pub test_indices: Vec<usize>,
    /// The per-client scaler (needed to invert predictions).
    pub scaler: MinMaxScaler,
    /// Index of the train/test boundary in the source series.
    pub boundary: usize,
}

impl PreparedClient {
    /// Prepares a raw series.
    ///
    /// # Errors
    ///
    /// * [`ForecastError::InsufficientData`] if fewer than
    ///   `seq_len + 2` points survive the split;
    /// * [`ForecastError::Preparation`] for scaling/splitting failures.
    pub fn prepare(
        label: impl Into<String>,
        series: &[f64],
        seq_len: usize,
        train_fraction: f64,
    ) -> Result<Self, ForecastError> {
        let label = label.into();
        if series.len() < seq_len + 2 {
            return Err(ForecastError::InsufficientData {
                client: label,
                len: series.len(),
            });
        }
        let boundary = split::boundary(series.len(), train_fraction)?;
        let scaler = MinMaxScaler::fit(&series[..boundary])?;
        let scaled = scaler.transform(series);
        let all_windows = windows::sliding(&scaled, seq_len);
        let mut train = Vec::new();
        let mut test = Vec::new();
        let mut test_actual_raw = Vec::new();
        let mut test_indices = Vec::new();
        for w in &all_windows {
            let sample = Sample::new(
                Matrix::column_vector(&w.input),
                Matrix::from_vec(1, 1, vec![w.target]),
            );
            if w.target_index < boundary {
                train.push(sample);
            } else {
                test.push(sample);
                test_actual_raw.push(series[w.target_index]);
                test_indices.push(w.target_index);
            }
        }
        if train.is_empty() || test.is_empty() {
            return Err(ForecastError::InsufficientData {
                client: label,
                len: series.len(),
            });
        }
        Ok(Self {
            label,
            train,
            test,
            test_actual_raw,
            test_indices,
            scaler,
            boundary,
        })
    }

    /// Runs `model` over the test windows and returns raw-unit predictions.
    fn predict_raw(&self, model: &mut Sequential) -> Vec<f64> {
        let inputs: Vec<Matrix> = self.test.iter().map(|s| s.input.clone()).collect();
        let scaled: Vec<f64> = model.predict(&inputs).iter().map(|m| m[(0, 0)]).collect();
        self.scaler.inverse_transform(&scaled)
    }

    /// Evaluates `model` on the test windows in raw units.
    ///
    /// # Errors
    ///
    /// Propagates metric errors (cannot occur for non-empty test sets).
    pub fn evaluate_raw(&self, model: &mut Sequential) -> Result<EvalOutcome, ForecastError> {
        let predicted = self.predict_raw(model);
        let report = metrics::report(&self.test_actual_raw, &predicted)?;
        Ok(EvalOutcome {
            predicted,
            mae: report.mae,
            rmse: report.rmse,
            r2: report.r2,
        })
    }
}

/// Raw-unit evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Raw-unit predictions aligned with the prepared test targets.
    pub predicted: Vec<f64>,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_nn::forecaster_model;

    fn daily_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 30.0 + 12.0 * (i as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect()
    }

    #[test]
    fn split_respects_boundary() {
        let series = daily_series(200);
        let p = PreparedClient::prepare("102", &series, 24, 0.8).expect("prepare");
        assert_eq!(p.boundary, 160);
        // Train targets strictly before the boundary, test at/after.
        assert_eq!(p.train.len(), 160 - 24);
        assert_eq!(p.test.len(), 40);
        assert!(p.test_indices.iter().all(|&i| i >= 160));
    }

    #[test]
    fn test_actual_aligns_with_indices() {
        let series = daily_series(150);
        let p = PreparedClient::prepare("x", &series, 12, 0.8).expect("prepare");
        for (raw, &idx) in p.test_actual_raw.iter().zip(&p.test_indices) {
            assert_eq!(*raw, series[idx]);
        }
    }

    #[test]
    fn scaler_fitted_on_train_only() {
        let mut series = daily_series(100);
        series[95] = 1e4; // spike only in test region
        let p = PreparedClient::prepare("x", &series, 12, 0.8).expect("prepare");
        let fitted_max = p.scaler.inverse_transform(&[1.0])[0];
        assert!(fitted_max < 100.0, "test spike leaked into scaler");
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(matches!(
            PreparedClient::prepare("x", &[1.0; 10], 24, 0.8),
            Err(ForecastError::InsufficientData { .. })
        ));
    }

    #[test]
    fn evaluate_raw_beats_trivial_after_training() {
        let series = daily_series(400);
        let p = PreparedClient::prepare("x", &series, 24, 0.8).expect("prepare");
        let mut model = forecaster_model(8, 3).with_optimizer(evfad_nn::Adam::new(0.01));
        let cfg = evfad_nn::TrainConfig {
            epochs: 12,
            ..evfad_nn::TrainConfig::default()
        };
        model.fit(&p.train, &cfg).expect("fit");
        let out = p.evaluate_raw(&mut model).expect("eval");
        // A clean sinusoid should be learnable to high R².
        assert!(out.r2 > 0.8, "r2 = {}", out.r2);
        assert_eq!(out.predicted.len(), p.test.len());
    }

    #[test]
    fn predictions_are_in_raw_units() {
        let series = daily_series(300);
        let p = PreparedClient::prepare("x", &series, 24, 0.8).expect("prepare");
        let mut model = forecaster_model(8, 3).with_optimizer(evfad_nn::Adam::new(0.01));
        let cfg = evfad_nn::TrainConfig {
            epochs: 10,
            ..evfad_nn::TrainConfig::default()
        };
        model.fit(&p.train, &cfg).expect("fit");
        let preds = p.predict_raw(&mut model);
        // Raw scale is ~18..42; scaled would be ~0..1.
        assert!(preds.iter().all(|&v| v > 5.0 && v < 60.0), "{preds:?}");
    }
}

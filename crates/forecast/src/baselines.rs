//! Classical baseline forecasters.
//!
//! The paper's introduction surveys the pre-deep-learning state of practice
//! (ARIMA-family statistical models and shallow learners). These baselines
//! put the LSTM's advantage in context and are compared in the `baselines`
//! section of the `ablate` bench:
//!
//! * [`NaiveForecaster`] — persistence: predict the last observed value;
//! * [`SeasonalNaiveForecaster`] — predict the value one period (24 h) ago;
//! * [`ArForecaster`] — an autoregressive model `y_t = w · y_{t-p..t} + b`
//!   fitted by ridge-regularised least squares (the AR core of ARIMA,
//!   solved exactly rather than iteratively).

use crate::error::ForecastError;
use evfad_tensor::solve::ridge_regression;
use evfad_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A model that predicts the next value from a lookback window.
pub trait BaselineForecaster {
    /// Predicts the value following `window` (chronological order).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `window` is shorter than their lookback.
    fn predict_next(&self, window: &[f64]) -> f64;

    /// Stable identifier for bench output.
    fn name(&self) -> &'static str;

    /// Predicts one step ahead for every sliding window of `series`,
    /// returning predictions aligned with
    /// [`windows::sliding`](evfad_timeseries::windows::sliding) targets.
    fn predict_series(&self, series: &[f64], seq_len: usize) -> Vec<f64> {
        evfad_timeseries::windows::sliding(series, seq_len)
            .iter()
            .map(|w| self.predict_next(&w.input))
            .collect()
    }
}

/// Persistence baseline: tomorrow looks like right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NaiveForecaster;

impl BaselineForecaster for NaiveForecaster {
    fn predict_next(&self, window: &[f64]) -> f64 {
        *window.last().expect("window must be non-empty")
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// Seasonal persistence: this hour looks like the same hour one period ago.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeasonalNaiveForecaster {
    /// Season length in steps (24 for hourly data with daily seasonality).
    pub period: usize,
}

impl Default for SeasonalNaiveForecaster {
    fn default() -> Self {
        Self { period: 24 }
    }
}

impl BaselineForecaster for SeasonalNaiveForecaster {
    fn predict_next(&self, window: &[f64]) -> f64 {
        assert!(
            window.len() >= self.period,
            "window shorter than the season"
        );
        window[window.len() - self.period]
    }

    fn name(&self) -> &'static str {
        "seasonal_naive"
    }
}

/// Autoregressive model of order `p`, fitted by ridge least squares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArForecaster {
    order: usize,
    /// Coefficients for lags `t-p .. t-1` (chronological), then intercept.
    coefficients: Vec<f64>,
}

impl ArForecaster {
    /// Fits an AR(`order`) model to `series` with ridge penalty `lambda`.
    ///
    /// # Errors
    ///
    /// [`ForecastError::Preparation`] if the series is too short or the
    /// normal equations cannot be solved.
    pub fn fit(series: &[f64], order: usize, lambda: f64) -> Result<Self, ForecastError> {
        if order == 0 || series.len() < order + 2 {
            return Err(ForecastError::Preparation(format!(
                "AR({order}) needs more than {} points",
                order + 1
            )));
        }
        let rows = series.len() - order;
        // Design matrix: [lags | 1], target: next value.
        let x = Matrix::from_fn(rows, order + 1, |i, j| {
            if j == order {
                1.0
            } else {
                series[i + j]
            }
        });
        let y = Matrix::from_fn(rows, 1, |i, _| series[i + order]);
        let w = ridge_regression(&x, &y, lambda)
            .map_err(|e| ForecastError::Preparation(e.to_string()))?;
        Ok(Self {
            order,
            coefficients: w.column(0),
        })
    }

    /// The model order `p`.
    pub fn order(&self) -> usize {
        self.order
    }
}

impl BaselineForecaster for ArForecaster {
    fn predict_next(&self, window: &[f64]) -> f64 {
        assert!(window.len() >= self.order, "window shorter than AR order");
        let lags = &window[window.len() - self.order..];
        let mut acc = self.coefficients[self.order]; // intercept
        for (w, x) in self.coefficients[..self.order].iter().zip(lags) {
            acc += w * x;
        }
        acc
    }

    fn name(&self) -> &'static str {
        "ar_ridge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_timeseries::metrics;

    fn daily(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 30.0 + 10.0 * (i as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect()
    }

    #[test]
    fn naive_repeats_last() {
        assert_eq!(NaiveForecaster.predict_next(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(NaiveForecaster.name(), "naive");
    }

    #[test]
    fn seasonal_naive_is_exact_on_pure_seasonality() {
        let series = daily(24 * 10);
        let model = SeasonalNaiveForecaster::default();
        let preds = model.predict_series(&series, 24);
        let actual: Vec<f64> = series[24..].to_vec();
        let r2 = metrics::r2(&actual, &preds).unwrap();
        assert!(r2 > 0.999, "r2 = {r2}");
    }

    #[test]
    fn ar_learns_an_ar2_process() {
        // y_t = 0.6 y_{t-1} - 0.2 y_{t-2} + 1, deterministic.
        let mut series = vec![1.0, 2.0];
        for t in 2..300 {
            let v = 0.6 * series[t - 1] - 0.2 * series[t - 2] + 1.0;
            series.push(v);
        }
        let model = ArForecaster::fit(&series[..250], 2, 1e-8).unwrap();
        // Coefficients: [w_{t-2}, w_{t-1}, intercept] in chronological order.
        let c = &model.coefficients;
        assert!((c[0] + 0.2).abs() < 1e-3, "{c:?}");
        assert!((c[1] - 0.6).abs() < 1e-3, "{c:?}");
        assert!((c[2] - 1.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn ar_beats_naive_on_seasonal_data() {
        let series = daily(24 * 20);
        let split = 24 * 16;
        let model = ArForecaster::fit(&series[..split], 24, 1e-6).unwrap();
        let tail = &series[split - 24..];
        let ar_preds = model.predict_series(tail, 24);
        let naive_preds = NaiveForecaster.predict_series(tail, 24);
        let actual: Vec<f64> = tail[24..].to_vec();
        let ar_mae = metrics::mae(&actual, &ar_preds).unwrap();
        let naive_mae = metrics::mae(&actual, &naive_preds).unwrap();
        assert!(ar_mae < naive_mae, "ar {ar_mae} vs naive {naive_mae}");
    }

    #[test]
    fn ar_rejects_degenerate_inputs() {
        assert!(ArForecaster::fit(&[1.0, 2.0], 5, 0.1).is_err());
        assert!(ArForecaster::fit(&daily(100), 0, 0.1).is_err());
    }

    #[test]
    fn predict_series_aligns_with_targets() {
        let series = daily(100);
        let preds = NaiveForecaster.predict_series(&series, 24);
        assert_eq!(preds.len(), 100 - 24);
        // Naive prediction for target index i is series[i - 1].
        assert_eq!(preds[0], series[23]);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn seasonal_panics_on_short_window() {
        let _ = SeasonalNaiveForecaster::default().predict_next(&[1.0; 10]);
    }
}

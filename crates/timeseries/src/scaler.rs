//! Min-max normalisation with sklearn semantics.

use crate::error::TimeSeriesError;
use serde::{Deserialize, Serialize};

/// Scales values to `[0, 1]` using the min/max observed at fit time.
///
/// The paper applies `MinMaxScaler` *independently per client* and re-fits
/// for each experimental scenario (clean / attacked / filtered), which this
/// type mirrors: construct one scaler per client per scenario.
///
/// Values outside the fitted range transform outside `[0, 1]` (sklearn
/// behaviour) — important because DDoS spikes in test data exceed the
/// training maximum.
///
/// # Examples
///
/// ```
/// use evfad_timeseries::MinMaxScaler;
///
/// let scaler = MinMaxScaler::fit(&[10.0, 20.0, 30.0])?;
/// let scaled = scaler.transform(&[15.0, 30.0]);
/// assert_eq!(scaled, vec![0.25, 1.0]);
/// let restored = scaler.inverse_transform(&scaled);
/// assert!((restored[0] - 15.0).abs() < 1e-12);
/// # Ok::<(), evfad_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    min: f64,
    max: f64,
}

impl MinMaxScaler {
    /// Fits the scaler to `values`.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::EmptySeries`] for an empty input;
    /// * [`TimeSeriesError::NonFiniteValue`] if any value is NaN/∞;
    /// * [`TimeSeriesError::DegenerateRange`] if the series is constant.
    pub fn fit(values: &[f64]) -> Result<Self, TimeSeriesError> {
        if values.is_empty() {
            return Err(TimeSeriesError::EmptySeries);
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(TimeSeriesError::NonFiniteValue { index });
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if min == max {
            return Err(TimeSeriesError::DegenerateRange { value: min });
        }
        Ok(Self { min, max })
    }

    /// Maps each value through `(v - min) / (max - min)`.
    pub fn transform(&self, values: &[f64]) -> Vec<f64> {
        let range = self.max - self.min;
        values.iter().map(|v| (v - self.min) / range).collect()
    }

    /// Inverse of [`MinMaxScaler::transform`].
    pub fn inverse_transform(&self, values: &[f64]) -> Vec<f64> {
        let range = self.max - self.min;
        values.iter().map(|v| v * range + self.min).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_maps_to_unit_interval() {
        let v = [5.0, 7.5, 10.0];
        let s = MinMaxScaler::fit(&v).unwrap();
        assert_eq!(s.transform(&v), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn out_of_range_values_exceed_unit_interval() {
        let s = MinMaxScaler::fit(&[0.0, 10.0]).unwrap();
        assert_eq!(s.transform(&[20.0, -10.0]), vec![2.0, -1.0]);
    }

    #[test]
    fn inverse_round_trips() {
        let v = [3.1, -2.7, 9.9, 0.0];
        let s = MinMaxScaler::fit(&v).unwrap();
        let back = s.inverse_transform(&s.transform(&v));
        for (a, b) in v.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(MinMaxScaler::fit(&[]), Err(TimeSeriesError::EmptySeries));
    }

    #[test]
    fn rejects_constant() {
        assert!(matches!(
            MinMaxScaler::fit(&[4.0, 4.0]),
            Err(TimeSeriesError::DegenerateRange { .. })
        ));
    }

    #[test]
    fn rejects_nan() {
        assert_eq!(
            MinMaxScaler::fit(&[1.0, f64::NAN]),
            Err(TimeSeriesError::NonFiniteValue { index: 1 })
        );
    }

    #[test]
    fn serde_round_trip() {
        let s = MinMaxScaler::fit(&[0.5, 2.5]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: MinMaxScaler = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}

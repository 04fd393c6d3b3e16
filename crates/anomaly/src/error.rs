//! Error type for the anomaly-detection pipeline.

use std::error::Error;
use std::fmt;

/// Errors surfaced by [`AnomalyFilter`](crate::AnomalyFilter).
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyError {
    /// The training series is too short to form one window.
    SeriesTooShort {
        /// Length of the provided series.
        len: usize,
        /// Window length required.
        needed: usize,
    },
    /// `detect`/`filter_anomalies` called before `fit`.
    NotFitted,
    /// Flag mask and series lengths differ.
    LengthMismatch {
        /// Series length.
        series: usize,
        /// Mask length.
        mask: usize,
    },
    /// Autoencoder training failed (propagated from the nn substrate).
    Training(String),
    /// A decision threshold is NaN: `score > NaN` is never true, so the
    /// tenant would silently never be flagged.
    NanThreshold,
}

impl fmt::Display for AnomalyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyError::SeriesTooShort { len, needed } => {
                write!(f, "series of {len} points cannot form a window of {needed}")
            }
            AnomalyError::NotFitted => write!(f, "filter must be fitted before use"),
            AnomalyError::LengthMismatch { series, mask } => {
                write!(
                    f,
                    "mask length {mask} does not match series length {series}"
                )
            }
            AnomalyError::Training(msg) => write!(f, "autoencoder training failed: {msg}"),
            AnomalyError::NanThreshold => write!(f, "decision threshold is NaN"),
        }
    }
}

impl Error for AnomalyError {}

impl From<evfad_nn::NnError> for AnomalyError {
    fn from(e: evfad_nn::NnError) -> Self {
        AnomalyError::Training(e.to_string())
    }
}

impl From<evfad_timeseries::TimeSeriesError> for AnomalyError {
    fn from(e: evfad_timeseries::TimeSeriesError) -> Self {
        AnomalyError::Training(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(AnomalyError::NotFitted.to_string().contains("fitted"));
        assert!(AnomalyError::SeriesTooShort { len: 3, needed: 24 }
            .to_string()
            .contains("24"));
        assert!(AnomalyError::LengthMismatch { series: 5, mask: 6 }
            .to_string()
            .contains('6'));
        assert!(AnomalyError::Training("x".into()).to_string().contains('x'));
        assert!(AnomalyError::NanThreshold.to_string().contains("NaN"));
    }

    #[test]
    fn converts_nn_error() {
        let e: AnomalyError = evfad_nn::NnError::EmptyDataset.into();
        assert!(matches!(e, AnomalyError::Training(_)));
    }
}

//! Time-series toolkit for the `evfad` workspace.
//!
//! Provides the data-preparation pipeline of the paper's §II-A plus the
//! evaluation metrics of §III-A:
//!
//! * [`MinMaxScaler`] — per-client 0..1 normalisation (sklearn semantics);
//! * [`windows`] — sliding-window sequence construction
//!   (`SEQUENCE_LENGTH = 24`);
//! * [`split`] — temporal 80/20 train/test split;
//! * [`impute`] — linear-interpolation (and alternative) gap filling used by
//!   the anomaly-mitigation stage;
//! * [`metrics`] — MAE, RMSE, R², MAPE, sMAPE.
//!
//! # Examples
//!
//! ```
//! use evfad_timeseries::{MinMaxScaler, split, windows};
//!
//! let series: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin() * 10.0 + 20.0).collect();
//! let (train, test) = split::temporal(&series, 0.8)?;
//! let scaler = MinMaxScaler::fit(train)?;
//! let train_scaled = scaler.transform(train);
//! let seqs = windows::sliding(&train_scaled, 24);
//! assert_eq!(seqs.len(), train_scaled.len() - 24);
//! assert_eq!(test.len(), 20);
//! # Ok::<(), evfad_timeseries::TimeSeriesError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod impute;
pub mod metrics;
mod scaler;
pub mod split;
pub mod windows;

pub use error::TimeSeriesError;
pub use scaler::MinMaxScaler;
pub use windows::{Window, WindowedSeries};

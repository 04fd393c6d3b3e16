//! LSTM-autoencoder anomaly detection and mitigation.
//!
//! Reimplements the paper's `EVChargingAnomalyFilter` (§II-B):
//!
//! * an LSTM autoencoder (encoder 50 → 25, decoder 25 → 50, dropout 0.2)
//!   trained **only on normal data** to learn baseline reconstruction;
//! * anomaly scoring by reconstruction MSE with the detection boundary at
//!   the **98th percentile** of training-set errors;
//! * `filter_anomalies`-style mitigation: consecutive anomalous segments are
//!   merged across gaps of ≤ 2 timestamps and replaced by linear
//!   interpolation between non-anomalous boundary points;
//! * detection metrics (precision / recall / F1 / false-positive rate /
//!   true-attacks-detected) for Table II.
//!
//! Alternative thresholds (mean + k·std, MAD) and a seasonal-naive
//! mitigation strategy are included for the ablation benches.
//!
//! # Examples
//!
//! ```no_run
//! use evfad_anomaly::{AnomalyFilter, FilterConfig};
//!
//! let train: Vec<f64> = (0..600).map(|i| 0.5 + 0.3 * (i as f64 * 0.26).sin()).collect();
//! let mut filter = AnomalyFilter::new(FilterConfig::fast(12));
//! filter.fit(&train)?;
//! let mut attacked = train.clone();
//! attacked[300] = 5.0;
//! let detection = filter.detect(&attacked);
//! let cleaned = filter.filter_anomalies(&attacked, &detection.flags)?;
//! assert_eq!(cleaned.len(), attacked.len());
//! # Ok::<(), evfad_anomaly::AnomalyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod error;
pub mod metrics;
pub mod mitigate;
pub mod online;
pub mod service;
pub mod threshold;

pub use detector::{AnomalyFilter, Detection, FilterConfig};
pub use error::AnomalyError;
pub use metrics::{DetectionReport, EpisodeReport};
pub use mitigate::{merge_segments, MitigationStrategy};
pub use online::{OnlineDecision, OnlineDetector};
pub use service::{ScoringService, TenantDecision, TenantVerdict};
pub use threshold::ThresholdRule;

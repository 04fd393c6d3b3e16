//! `evfad-core` — the facade crate for the EV-charging federated
//! anomaly-detection framework.
//!
//! This workspace is a from-scratch Rust reproduction of *"Federated
//! Anomaly Detection and Mitigation for EV Charging Forecasting Under
//! Cyberattacks"*: a federated LSTM demand forecaster with an integrated
//! LSTM-autoencoder anomaly filter, evaluated under simulated DDoS
//! data-integrity attacks.
//!
//! Most users want one of two entry points:
//!
//! * [`Framework`] — the high-level API: configure once, then run
//!   detection/mitigation and federated forecasting over the bundled
//!   synthetic Shenzhen dataset (or your own series);
//! * [`forecast::run_study`] — the paper's full four-scenario evaluation,
//!   producing a [`forecast::StudyReport`] from which every table and
//!   figure is printed.
//!
//! The substrates are re-exported as modules ([`nn`], [`tensor`],
//! [`timeseries`], [`data`], [`attack`], [`anomaly`], [`federated`],
//! [`forecast`]) for direct use.
//!
//! # Examples
//!
//! End-to-end quickstart on a small synthetic dataset:
//!
//! ```no_run
//! use evfad_core::{Framework, forecast::Scale};
//!
//! let framework = Framework::at_scale(Scale::Small, 42);
//! let report = framework.run_study()?;
//! println!("{}", report.table1());
//! println!("{}", report.headline_text());
//! # Ok::<(), evfad_core::forecast::ForecastError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Dense linear algebra substrate.
pub use evfad_tensor as tensor;

/// Neural-network substrate (LSTM, Dense, Adam, `Sequential`).
pub use evfad_nn as nn;

/// Time-series toolkit (scaling, windowing, imputation, metrics).
pub use evfad_timeseries as timeseries;

/// Synthetic Shenzhen EV-charging dataset generator.
pub use evfad_data as data;

/// DDoS traffic model and attack injection.
pub use evfad_attack as attack;

/// LSTM-autoencoder anomaly detection and mitigation.
pub use evfad_anomaly as anomaly;

/// Federated learning stack (FedAvg, robust aggregation, wire and sockets).
pub use evfad_federated as federated;

/// Forecasting models and the paper's experiment runner.
pub use evfad_forecast as forecast;

use evfad_forecast::{run_study, ForecastError, Scale, StudyConfig, StudyReport};

/// High-level entry point bundling the full pipeline behind one type.
///
/// Wraps a [`StudyConfig`]; construct via [`Framework::at_scale`] /
/// [`Framework::paper`] or from a custom config with [`Framework::new`],
/// then call [`Framework::run_study`].
#[derive(Debug, Clone)]
pub struct Framework {
    config: StudyConfig,
}

impl Framework {
    /// Wraps an explicit study configuration.
    pub fn new(config: StudyConfig) -> Self {
        Self { config }
    }

    /// A preset configuration at the given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        Self::new(StudyConfig::at_scale(scale, seed))
    }

    /// The paper's full protocol (4,344 points, LSTM(50), 5 × 10 epochs).
    pub fn paper(seed: u64) -> Self {
        Self::new(StudyConfig::paper(seed))
    }

    /// Borrow of the wrapped configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Mutable borrow of the wrapped configuration (for fine-tuning).
    pub fn config_mut(&mut self) -> &mut StudyConfig {
        &mut self.config
    }

    /// Runs the paper's complete four-scenario study.
    ///
    /// # Errors
    ///
    /// Propagates any preparation, filtering, or training failure from the
    /// underlying pipeline.
    pub fn run_study(&self) -> Result<StudyReport, ForecastError> {
        run_study(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framework_exposes_config() {
        let mut f = Framework::at_scale(Scale::Small, 7);
        assert_eq!(f.config().seed, 7);
        f.config_mut().seed = 8;
        assert_eq!(f.config().seed, 8);
    }

    #[test]
    fn paper_preset_is_paper_scale() {
        let f = Framework::paper(1);
        assert_eq!(f.config().dataset.timestamps, 4344);
        assert_eq!(f.config().lstm_units, 50);
    }

    #[test]
    fn reexports_are_wired() {
        // Spot-check that the facade modules expose the expected items.
        let _ = tensor::Matrix::zeros(1, 1);
        let _ = nn::Activation::Relu;
        let _ = timeseries::MinMaxScaler::fit(&[0.0, 1.0]).unwrap();
        let _ = data::Zone::Z102;
        let _ = attack::DdosConfig::default();
        let _ = anomaly::ThresholdRule::paper();
        let _ = federated::Aggregator::FedAvg;
        let _ = forecast::Scale::Small;
    }

    #[test]
    fn tiny_study_runs_through_facade() {
        let mut f = Framework::at_scale(Scale::Small, 3);
        let cfg = f.config_mut();
        cfg.dataset.timestamps = 360;
        cfg.lstm_units = 6;
        cfg.rounds = 1;
        cfg.epochs_per_round = 1;
        cfg.filter.encoder_units = (6, 3);
        cfg.filter.epochs = 2;
        cfg.filter.train_stride = 4;
        let report = f.run_study().expect("study");
        assert_eq!(report.scenarios.len(), 4);
    }
}

//! `evfad-core` — the facade crate for the EV-charging federated
//! anomaly-detection framework.
//!
//! This workspace is a from-scratch Rust reproduction of *"Federated
//! Anomaly Detection and Mitigation for EV Charging Forecasting Under
//! Cyberattacks"*: a federated LSTM demand forecaster with an integrated
//! LSTM-autoencoder anomaly filter, evaluated under simulated DDoS
//! data-integrity attacks.
//!
//! Most users want one entry point, [`forecast::run_study`]: the paper's
//! full four-scenario evaluation of a [`forecast::StudyConfig`], producing a
//! [`forecast::StudyReport`] from which every table and figure is printed.
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
//! use evfad_core::forecast::{run_study, Scale, StudyConfig};
//!
//! let report = run_study(&StudyConfig::at_scale(Scale::Small, 42))?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut cfg = forecast::StudyConfig::at_scale(forecast::Scale::Small, 3);
        cfg.dataset.timestamps = 360;
        cfg.lstm_units = 6;
        cfg.rounds = 1;
        cfg.epochs_per_round = 1;
        cfg.filter.encoder_units = (6, 3);
        cfg.filter.epochs = 2;
        cfg.filter.train_stride = 4;
        let report = forecast::run_study(&cfg).expect("study");
        assert_eq!(report.scenarios.len(), 4);
    }
}

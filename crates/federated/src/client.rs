//! Federated client: a local model plus a local dataset.

use crate::error::FederatedError;
use evfad_nn::{Loss, Sample, Sequential, TrainConfig};
use evfad_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A weight update produced by one round of local training.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LocalUpdate {
    /// Client identifier.
    pub client_id: String,
    /// The client's post-training weights.
    pub weights: Vec<Matrix>,
    /// Number of local training samples (FedAvg weighting).
    pub sample_count: usize,
    /// Final local training loss.
    pub train_loss: f64,
    /// Wall-clock time spent training.
    #[serde(skip, default)]
    pub duration: Duration,
    /// Simulated extra seconds the update spent in transit — straggler
    /// delay and retry backoff injected by the fault layer
    /// ([`crate::faults`]). Deterministic (unlike `duration`) and counted
    /// by [`FederatedOutcome::simulated_distributed_seconds`].
    ///
    /// [`FederatedOutcome::simulated_distributed_seconds`]:
    ///   crate::FederatedOutcome::simulated_distributed_seconds
    #[serde(default)]
    pub simulated_extra_seconds: f64,
}

/// One participant in the federation.
///
/// Holds the local dataset (which never leaves the client — only
/// [`LocalUpdate`]s do) and a local copy of the shared architecture.
///
/// # Examples
///
/// ```
/// use evfad_federated::FedClient;
/// use evfad_nn::{forecaster_model, Sample, TrainConfig};
/// use evfad_tensor::Matrix;
///
/// let samples: Vec<Sample> = (0..16)
///     .map(|i| Sample::new(
///         Matrix::column_vector(&[(i as f64).sin(), ((i + 1) as f64).sin()]),
///         Matrix::from_vec(1, 1, vec![((i + 2) as f64).sin()]),
///     ))
///     .collect();
/// let mut client = FedClient::new("zone-102", forecaster_model(4, 1), samples);
/// let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
/// let update = client.train_local(&cfg)?;
/// assert_eq!(update.sample_count, 16);
/// # Ok::<(), evfad_federated::FederatedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FedClient {
    id: String,
    model: Sequential,
    samples: Vec<Sample>,
}

impl FedClient {
    /// Creates a client with a local model copy and its private dataset.
    pub fn new(id: impl Into<String>, model: Sequential, samples: Vec<Sample>) -> Self {
        Self {
            id: id.into(),
            model,
            samples,
        }
    }

    /// Client identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of local samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Borrow of the local model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable borrow of the local model (used for personalised read-out).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Installs the global weights received from the server.
    ///
    /// # Errors
    ///
    /// [`FederatedError::IncompatibleUpdate`] if the shapes do not match.
    pub fn receive_global(&mut self, weights: &[Matrix]) -> Result<(), FederatedError> {
        self.model
            .set_weights(weights)
            .map_err(|_| FederatedError::IncompatibleUpdate {
                client: self.id.clone(),
            })
    }

    /// Runs local training and returns the resulting update.
    ///
    /// # Errors
    ///
    /// [`FederatedError::ClientTraining`] if the fit fails (e.g. an empty
    /// local dataset).
    pub fn train_local(&mut self, cfg: &TrainConfig) -> Result<LocalUpdate, FederatedError> {
        let start = Instant::now();
        let history =
            self.model
                .fit(&self.samples, cfg)
                .map_err(|e| FederatedError::ClientTraining {
                    client: self.id.clone(),
                    message: e.to_string(),
                })?;
        Ok(LocalUpdate {
            client_id: self.id.clone(),
            weights: self.model.weights(),
            sample_count: self.samples.len(),
            train_loss: history.final_train_loss().unwrap_or(f64::NAN),
            duration: start.elapsed(),
            simulated_extra_seconds: 0.0,
        })
    }

    /// Local-model loss on an arbitrary sample set.
    pub fn evaluate(&mut self, samples: &[Sample], loss: Loss) -> f64 {
        self.model.evaluate(samples, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_nn::forecaster_model;

    fn samples(n: usize, phase: f64) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = (0..4)
                    .map(|t| ((i + t) as f64 * 0.7 + phase).sin())
                    .collect();
                Sample::new(
                    Matrix::column_vector(&xs),
                    Matrix::from_vec(1, 1, vec![((i + 4) as f64 * 0.7 + phase).sin()]),
                )
            })
            .collect()
    }

    #[test]
    fn update_carries_metadata() {
        let mut c = FedClient::new("c1", forecaster_model(3, 1), samples(10, 0.0));
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let u = c.train_local(&cfg).expect("train");
        assert_eq!(u.client_id, "c1");
        assert_eq!(u.sample_count, 10);
        assert!(u.train_loss.is_finite());
        assert_eq!(u.weights.len(), c.model().weights().len());
    }

    #[test]
    fn receive_global_overwrites_weights() {
        let donor = forecaster_model(3, 99);
        let mut c = FedClient::new("c1", forecaster_model(3, 1), samples(8, 0.0));
        c.receive_global(&donor.weights()).expect("compatible");
        assert_eq!(c.model().weights(), donor.weights());
    }

    #[test]
    fn receive_global_rejects_incompatible() {
        let mut c = FedClient::new("c1", forecaster_model(3, 1), samples(8, 0.0));
        let err = c.receive_global(&[Matrix::zeros(1, 1)]).unwrap_err();
        assert!(matches!(err, FederatedError::IncompatibleUpdate { .. }));
    }

    #[test]
    fn empty_dataset_fails_training() {
        let mut c = FedClient::new("empty", forecaster_model(3, 1), Vec::new());
        let err = c.train_local(&TrainConfig::default()).unwrap_err();
        assert!(matches!(err, FederatedError::ClientTraining { .. }));
    }

    #[test]
    fn training_reduces_local_loss() {
        let data = samples(48, 0.3);
        let mut c = FedClient::new("c1", forecaster_model(6, 2), data.clone());
        let before = c.evaluate(&data, Loss::Mse);
        let cfg = TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        };
        c.train_local(&cfg).expect("train");
        let after = c.evaluate(&data, Loss::Mse);
        assert!(after < before, "before={before} after={after}");
    }
}

//! Server-side aggregation rules.

use crate::client::LocalUpdate;
use crate::error::FederatedError;
use crate::streaming::{StreamingAggregator, StreamingFedAvg};
use evfad_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Rule combining client updates into the next global model.
///
/// The paper uses sample-weighted Federated Averaging
/// ([`Aggregator::FedAvg`]). Krum hardens the server against poisoned
/// updates — relevant because the paper's threat model is an adversary
/// attacking the *data* path; a natural escalation (the `aggregation`
/// section of the `ablate` bench, exercised end-to-end by the chaos harness
/// in `tests/chaos.rs` via [`crate::faults`]) is an adversary compromising a
/// *client*. Coordinate-wise median and trimmed mean were retired on four
/// seeds' evidence from that section (`results/ablation_robust_aggregation_mid.txt`):
/// Krum was ahead of both in the sign-flip cell, and neither was ahead of
/// every other rule anywhere.
///
/// Krum tolerates non-finite updates (a NaN-flood attack must not panic the
/// server): a candidate whose score is non-finite is never selected, and
/// when no candidate has a finite score it returns
/// [`FederatedError::Aggregation`] rather than an arbitrary — possibly
/// poisoned — update. `FedAvg` deliberately propagates NaN — it is the
/// paper's baseline Krum is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Aggregator {
    /// Sample-count-weighted mean of client weights (McMahan et al.).
    #[default]
    FedAvg,
    /// Krum: select the single update minimising the summed squared
    /// distance to its `n - f - 2` nearest neighbours.
    Krum {
        /// Upper bound on the number of Byzantine clients `f`.
        byzantine: usize,
    },
}

impl Aggregator {
    /// Stable identifier for bench output.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::FedAvg => "fedavg",
            Aggregator::Krum { .. } => "krum",
        }
    }

    /// Combines updates into new global weights.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::NoClients`] for an empty update set;
    /// * [`FederatedError::Aggregation`] if shapes disagree, Krum lacks
    ///   clients (`n >= f + 3`), or no Krum candidate has a finite score.
    pub fn aggregate(self, updates: &[LocalUpdate]) -> Result<Vec<Matrix>, FederatedError> {
        if updates.is_empty() {
            return Err(FederatedError::NoClients);
        }
        let reference: Vec<(usize, usize)> = updates[0].weights.iter().map(Matrix::shape).collect();
        for u in updates {
            let shapes: Vec<(usize, usize)> = u.weights.iter().map(Matrix::shape).collect();
            if shapes != reference {
                return Err(FederatedError::Aggregation(format!(
                    "client {} has mismatched weight shapes",
                    u.client_id
                )));
            }
        }
        match self {
            Aggregator::FedAvg => {
                let total = updates.iter().map(|u| u.sample_count as f64).sum();
                let mut acc = StreamingFedAvg::new(total, updates.len());
                for u in updates {
                    acc.ingest(u)?;
                }
                acc.finish()
            }
            Aggregator::Krum { byzantine } => krum(updates, byzantine),
        }
    }
}

fn krum(updates: &[LocalUpdate], byzantine: usize) -> Result<Vec<Matrix>, FederatedError> {
    let n = updates.len();
    if n < byzantine + 3 {
        return Err(FederatedError::Aggregation(format!(
            "Krum needs at least f + 3 = {} clients, got {n}",
            byzantine + 3
        )));
    }
    let neighbours = n - byzantine - 2;
    let dist = |a: &LocalUpdate, b: &LocalUpdate| -> f64 {
        a.weights
            .iter()
            .zip(&b.weights)
            .map(|(x, y)| {
                x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f64>()
            })
            .sum()
    };
    // Only a candidate with a *finite* score may win. A NaN score means the
    // candidate is itself corrupted; an infinite score means its neighbour
    // distances overflowed. If no candidate qualifies the server must
    // refuse rather than fall back to an arbitrary update: the old code
    // left `best = 0` in that case and silently returned the first —
    // possibly poisoned — payload.
    let mut best: Option<(usize, f64)> = None;
    for i in 0..n {
        let mut distances: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| dist(&updates[i], &updates[j]))
            .collect();
        // Total ordering: distances to a NaN-corrupted update sort last,
        // past the honest neighbours, instead of panicking.
        distances.sort_by(f64::total_cmp);
        let score: f64 = distances.iter().take(neighbours).sum();
        if score.is_finite() && best.is_none_or(|(_, s)| score < s) {
            best = Some((i, score));
        }
    }
    match best {
        Some((i, _)) => Ok(updates[i].weights.clone()),
        None => Err(FederatedError::Aggregation(
            "no Krum candidate has a finite score; every update may be corrupted \
             (raise f or investigate the federation)"
                .to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn update(id: &str, value: f64, samples: usize) -> LocalUpdate {
        LocalUpdate {
            client_id: id.into(),
            weights: vec![
                Matrix::filled(2, 2, value),
                Matrix::filled(1, 2, value * 10.0),
            ],
            sample_count: samples,
            train_loss: 0.0,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn fedavg_weighted_by_samples() {
        let ups = [update("a", 0.0, 100), update("b", 1.0, 300)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 0.75).abs() < 1e-12);
        assert!((agg[1][(0, 1)] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn fedavg_equal_samples_is_plain_mean() {
        let ups = [update("a", 2.0, 50), update("b", 4.0, 50)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(1, 1)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fedavg_zero_samples_falls_back_to_uniform() {
        let ups = [update("a", 2.0, 0), update("b", 4.0, 0)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn krum_selects_inlier_against_byzantine() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.05, 10),
            update("c", 0.95, 10),
            update("evil", 500.0, 10),
        ];
        let agg = Aggregator::Krum { byzantine: 1 }.aggregate(&ups).unwrap();
        let v = agg[0][(0, 0)];
        assert!((0.9..=1.1).contains(&v), "krum picked {v}");
    }

    fn nan_update(id: &str) -> LocalUpdate {
        let mut u = update(id, 0.0, 10);
        for m in &mut u.weights {
            for v in m.as_mut_slice() {
                *v = f64::NAN;
            }
        }
        u
    }

    #[test]
    fn krum_with_no_finite_score_errors_instead_of_returning_first_update() {
        // Regression: every client NaN-flooded. Every pairwise distance is
        // NaN, so every candidate score is NaN and nothing may win. The old
        // code silently returned updates[0] — the poisoned payload itself.
        let ups = [
            nan_update("e1"),
            nan_update("e2"),
            nan_update("e3"),
            nan_update("e4"),
        ];
        match (Aggregator::Krum { byzantine: 1 }).aggregate(&ups) {
            Err(FederatedError::Aggregation(msg)) => {
                assert!(msg.contains("finite score"), "unexpected message: {msg}");
            }
            other => panic!("expected an aggregation error, got {other:?}"),
        }
    }

    #[test]
    fn krum_never_selects_a_nan_flooded_client() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.1, 10),
            update("c", 0.9, 10),
            nan_update("evil"),
        ];
        let agg = Aggregator::Krum { byzantine: 1 }.aggregate(&ups).unwrap();
        assert!(agg.iter().all(Matrix::is_finite));
        let v = agg[0][(0, 0)];
        assert!((0.8..=1.2).contains(&v), "krum picked {v}");
    }

    #[test]
    fn fedavg_propagates_nan_by_design() {
        let ups = [update("a", 1.0, 10), nan_update("evil")];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!(agg[0][(0, 0)].is_nan());
    }

    #[test]
    fn krum_needs_enough_clients() {
        let ups = [update("a", 1.0, 1), update("b", 1.0, 1)];
        assert!(Aggregator::Krum { byzantine: 1 }.aggregate(&ups).is_err());
    }

    #[test]
    fn empty_updates_rejected() {
        assert_eq!(
            Aggregator::FedAvg.aggregate(&[]),
            Err(FederatedError::NoClients)
        );
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut bad = update("bad", 1.0, 1);
        bad.weights[0] = Matrix::zeros(3, 3);
        let ups = [update("a", 1.0, 1), bad];
        assert!(matches!(
            Aggregator::FedAvg.aggregate(&ups),
            Err(FederatedError::Aggregation(_))
        ));
    }

    #[test]
    fn aggregate_preserves_shapes() {
        let ups = [update("a", 1.0, 5), update("b", 2.0, 5)];
        for agg in [Aggregator::FedAvg, Aggregator::Krum { byzantine: 0 }] {
            if let Ok(w) = agg.aggregate(&ups) {
                assert_eq!(w[0].shape(), (2, 2));
                assert_eq!(w[1].shape(), (1, 2));
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Aggregator::FedAvg.name(), "fedavg");
        assert_eq!(Aggregator::Krum { byzantine: 1 }.name(), "krum");
        assert_eq!(Aggregator::default(), Aggregator::FedAvg);
    }
}

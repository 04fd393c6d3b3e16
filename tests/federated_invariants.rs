//! Cross-crate integration tests of federated-learning invariants.

use evfad_core::data::{DatasetConfig, ShenzhenGenerator};
use evfad_core::federated::{Aggregator, FederatedConfig, FederatedSimulation, LocalUpdate};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::nn::Loss;
use evfad_core::tensor::Matrix;

fn prepared_clients(hours: usize, seed: u64) -> Vec<PreparedClient> {
    ShenzhenGenerator::new(DatasetConfig::small(hours, seed))
        .generate_all()
        .iter()
        .map(|c| PreparedClient::prepare(c.zone.label(), &c.demand, 24, 0.8).expect("prepare"))
        .collect()
}

#[test]
fn fedavg_global_is_convex_combination_of_client_weights() {
    let prepared = prepared_clients(360, 3);
    let cfg = FederatedConfig {
        rounds: 1,
        epochs_per_round: 1,
        parallel: false,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(build_forecaster(6, 0.01, 1), cfg);
    for p in &prepared {
        sim.add_client(p.label.clone(), p.train.clone());
    }
    let outcome = sim.run().expect("run");
    // Every coordinate of the global model lies within [min, max] of the
    // client weights at that coordinate.
    let client_weights: Vec<Vec<Matrix>> =
        sim.clients().iter().map(|c| c.model().weights()).collect();
    for (t, g) in outcome.global_weights.iter().enumerate() {
        for flat in 0..g.len() {
            let vals: Vec<f64> = client_weights
                .iter()
                .map(|w| w[t].as_slice()[flat])
                .collect();
            let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let v = g.as_slice()[flat];
            assert!(
                v >= lo - 1e-9 && v <= hi + 1e-9,
                "global weight {v} outside client hull [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn federated_training_beats_untrained_baseline_on_every_client() {
    let prepared = prepared_clients(720, 4);
    let cfg = FederatedConfig {
        rounds: 2,
        epochs_per_round: 3,
        parallel: false,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(build_forecaster(8, 0.01, 2), cfg);
    for p in &prepared {
        sim.add_client(p.label.clone(), p.train.clone());
    }
    sim.run().expect("run");
    for (i, p) in prepared.iter().enumerate() {
        let mut fresh = build_forecaster(8, 0.01, 2);
        let untrained = fresh.evaluate(&p.test, Loss::Mse);
        let trained = sim.clients_mut()[i]
            .model_mut()
            .evaluate(&p.test, Loss::Mse);
        assert!(
            trained < untrained,
            "client {}: trained {trained} vs untrained {untrained}",
            p.label
        );
    }
}

#[test]
fn robust_aggregators_survive_a_poisoned_update_but_fedavg_does_not() {
    let honest = |id: &str, v: f64| LocalUpdate {
        client_id: id.into(),
        weights: vec![Matrix::filled(4, 4, v)],
        sample_count: 100,
        train_loss: 0.0,
        duration: std::time::Duration::ZERO,
        simulated_extra_seconds: 0.0,
    };
    let mut updates = vec![
        honest("a", 1.0),
        honest("b", 1.1),
        honest("c", 0.9),
        honest("d", 1.05),
    ];
    updates.push(honest("evil", 1e6));

    let fedavg = Aggregator::FedAvg.aggregate(&updates).unwrap();
    assert!(
        fedavg[0][(0, 0)] > 1000.0,
        "FedAvg should absorb the poison"
    );

    let global = Aggregator::Krum { byzantine: 1 }
        .aggregate(&updates)
        .unwrap();
    let v = global[0][(0, 0)];
    assert!(
        (0.8..=1.2).contains(&v),
        "Krum failed to reject the poison: {v}"
    );
}

#[test]
fn one_round_zero_extra_epochs_reduces_to_plain_averaging() {
    // With identical initial weights and zero-difference training (no
    // local epochs possible — use 1 epoch on identical data), all clients
    // produce identical updates and FedAvg returns exactly those weights.
    let prepared = prepared_clients(360, 8);
    let shared = prepared[0].train.clone();
    let cfg = FederatedConfig {
        rounds: 1,
        epochs_per_round: 1,
        parallel: false,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(build_forecaster(5, 0.01, 4), cfg);
    sim.add_client("a", shared.clone());
    sim.add_client("b", shared.clone());
    sim.add_client("c", shared);
    let outcome = sim.run().expect("run");
    let wa = sim.clients()[0].model().weights();
    for (g, l) in outcome.global_weights.iter().zip(&wa) {
        for (x, y) in g.as_slice().iter().zip(l.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

#[test]
fn simulated_distributed_time_is_bounded_by_wall_clock_sum() {
    let prepared = prepared_clients(360, 5);
    let cfg = FederatedConfig {
        rounds: 2,
        epochs_per_round: 1,
        parallel: false,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(build_forecaster(6, 0.01, 9), cfg);
    for p in &prepared {
        sim.add_client(p.label.clone(), p.train.clone());
    }
    let outcome = sim.run().expect("run");
    let simulated = outcome.simulated_distributed_seconds();
    let serial_sum: f64 = outcome
        .rounds
        .iter()
        .flat_map(|r| r.client_seconds.iter())
        .sum();
    assert!(simulated > 0.0);
    assert!(
        simulated <= serial_sum + 1e-9,
        "{simulated} vs {serial_sum}"
    );
}

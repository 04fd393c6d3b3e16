//! Federated vs centralized, including the communication story.
//!
//! Reproduces the paper's architectural comparison (§III-D) on filtered
//! data and additionally quantifies what the paper only argues
//! qualitatively: the byte cost of exchanging model weights versus shipping
//! every client's raw data to a central server.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example federated_vs_centralized
//! ```

use evfad_core::data::{DatasetConfig, ShenzhenGenerator};
use evfad_core::federated::{wire, FederatedConfig, FederatedSimulation};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::nn::TrainConfig;
use evfad_core::tensor::Matrix;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clients = ShenzhenGenerator::new(DatasetConfig::small(1440, 11)).generate_all();
    let prepared: Vec<PreparedClient> = clients
        .iter()
        .map(|c| PreparedClient::prepare(c.zone.label(), &c.demand, 24, 0.8))
        .collect::<Result<_, _>>()?;

    // --- Federated: parallel clients, FedAvg, personalised read-out. ---
    let fed_cfg = FederatedConfig {
        rounds: 3,
        epochs_per_round: 3,
        parallel: true,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(build_forecaster(16, 0.005, 1), fed_cfg);
    for p in &prepared {
        sim.add_client(p.label.clone(), p.train.clone());
    }
    let started = Instant::now();
    let outcome = sim.run()?;
    let fed_time = started.elapsed();

    // --- Centralized: one model over the pooled windows, serial. ---
    let mut central = build_forecaster(16, 0.005, 2);
    let pooled: Vec<_> = prepared
        .iter()
        .flat_map(|p| p.train.iter().cloned())
        .collect();
    let started = Instant::now();
    central.fit(
        &pooled,
        &TrainConfig {
            epochs: 9,
            ..TrainConfig::default()
        },
    )?;
    let central_time = started.elapsed();

    println!(
        "{:<14} {:>10} {:>10} {:>8}",
        "client", "fed R2", "central R2", "winner"
    );
    for (i, p) in prepared.iter().enumerate() {
        let fed = p.evaluate_raw(sim.clients_mut()[i].model_mut())?;
        let cen = p.evaluate_raw(&mut central)?;
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>8}",
            p.label,
            fed.r2,
            cen.r2,
            if fed.r2 > cen.r2 { "fed" } else { "central" }
        );
    }
    println!(
        "\ntraining time: federated {:.2}s (parallel clients) vs centralized {:.2}s (pooled serial)",
        fed_time.as_secs_f64(),
        central_time.as_secs_f64()
    );

    // --- Communication cost. ---
    // Both priced in the same binary wire format; a series is one column
    // tensor.
    let weights_bytes = wire::encoded_size(&outcome.global_weights);
    let raw_bytes: usize = clients
        .iter()
        .map(|c| wire::encoded_size(&[Matrix::column_vector(&c.demand)]))
        .sum();
    println!(
        "\ncommunication: {} federated messages totalling {:.1} KiB \
         (one update = {:.1} KiB);\ncentralizing the raw season instead would ship {:.1} KiB \
         of private charging data.",
        outcome.traffic.messages,
        outcome.traffic.bytes as f64 / 1024.0,
        weights_bytes as f64 / 1024.0,
        raw_bytes as f64 / 1024.0
    );
    Ok(())
}

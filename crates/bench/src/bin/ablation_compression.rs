//! Ablation: uplink compression, communication cost beside accuracy.
//!
//! Runs the study's federation (global read-out) once per uplink encoding
//! on the clean and the filtered scenario and prints, per encoding, the
//! bytes a round uplinks and the R² the final global model reaches on each
//! zone's test split. EXPERIMENTS.md ("Top-k retired") keeps the same
//! table with the two rows of the sparse encoding it retired.

use evfad_bench::BenchOpts;
use evfad_core::data::ShenzhenGenerator;
use evfad_core::federated::{CompressionMode, FederatedConfig, FederatedSimulation};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::forecast::scenario::build_all;
use evfad_core::forecast::Scenario;

fn main() {
    let opts = BenchOpts::from_env();
    println!("{}", opts.banner("Ablation: update compression"));
    let cfg = opts.study_config();
    let clients = ShenzhenGenerator::new(cfg.dataset.clone()).generate_all();
    let scenarios = build_all(&clients, &cfg.attack, &cfg.filter, cfg.seed).expect("scenarios");

    for scenario in [Scenario::Clean, Scenario::Filtered] {
        let prepared: Vec<PreparedClient> = scenarios
            .iter()
            .map(|s| {
                PreparedClient::prepare(
                    s.label.clone(),
                    s.series(scenario),
                    cfg.seq_len,
                    cfg.train_fraction,
                )
                .expect("prepare")
            })
            .collect();
        println!("\nscenario = {}", scenario.label());
        println!(
            "{:<10} {:>15} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "mode", "uplink B/round", "ratio", "102 R2", "105 R2", "108 R2", "mean R2"
        );
        for mode in [CompressionMode::None, CompressionMode::Quant8] {
            let mut sim = FederatedSimulation::new(
                build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed),
                FederatedConfig {
                    rounds: cfg.rounds,
                    epochs_per_round: cfg.epochs_per_round,
                    batch_size: cfg.batch_size,
                    aggregator: cfg.aggregator,
                    compression: mode,
                    ..FederatedConfig::default()
                },
            );
            for p in &prepared {
                sim.add_client(p.label.clone(), p.train.clone());
            }
            let outcome = sim.run().expect("federation");
            let mut model = sim
                .model_with_weights(&outcome.global_weights)
                .expect("weights");
            let r2s: Vec<f64> = prepared
                .iter()
                .map(|p| p.evaluate_raw(&mut model).map(|e| e.r2).unwrap_or(f64::NAN))
                .collect();
            let last = outcome.rounds.last().expect("at least one round");
            println!(
                "{:<10} {:>15} {:>7.2} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                mode.to_string(),
                last.uplink_bytes,
                last.compression_ratio,
                r2s[0],
                r2s[1],
                r2s[2],
                r2s.iter().sum::<f64>() / r2s.len() as f64
            );
        }
    }
}

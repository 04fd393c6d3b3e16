//! Byzantine-robust aggregation under a poisoned client.
//!
//! The paper's threat model attacks the *data* plane; the natural
//! escalation is an adversary that compromises a *client* and submits a
//! poisoned weight update. This example shows plain FedAvg absorbing the
//! poison while coordinate-wise median and Krum shrug it off.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example robust_aggregation
//! ```

use evfad_core::data::{DatasetConfig, ShenzhenGenerator};
use evfad_core::federated::{Aggregator, LocalUpdate};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::nn::TrainConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clients = ShenzhenGenerator::new(DatasetConfig::small(960, 5)).generate_all();
    let prepared: Vec<PreparedClient> = clients
        .iter()
        .map(|c| PreparedClient::prepare(c.zone.label(), &c.demand, 24, 0.8))
        .collect::<Result<_, _>>()?;

    // Train four honest local models (the fourth gives Krum its n >= f+3).
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let mut updates: Vec<LocalUpdate> = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let mut model = build_forecaster(12, 0.005, 3);
        model.fit(&p.train, &cfg)?;
        updates.push(LocalUpdate {
            client_id: p.label.clone(),
            weights: model.weights(),
            sample_count: p.train.len(),
            train_loss: 0.0,
            duration: std::time::Duration::ZERO,
            simulated_extra_seconds: 0.0,
        });
        if i == 0 {
            // A twin of client 0 so the honest majority is 4 vs 1.
            let mut twin = updates[0].clone();
            twin.client_id = "102-twin".into();
            updates.push(twin);
        }
    }

    // The poisoned client: weights blown up by a large factor.
    let mut poison = updates[1].clone();
    poison.client_id = "compromised".into();
    for w in &mut poison.weights {
        *w = w.scale(50.0);
    }
    updates.push(poison);

    println!("{:<14} {:>14} {:>12}", "aggregator", "mean R2", "verdict");
    for agg in [
        Aggregator::FedAvg,
        Aggregator::Median,
        Aggregator::TrimmedMean { trim: 1 },
        Aggregator::Krum { byzantine: 1 },
    ] {
        let global = agg.aggregate(&updates)?;
        let mut model = build_forecaster(12, 0.005, 3);
        model.set_weights(&global)?;
        let mean_r2: f64 = prepared
            .iter()
            .map(|p| p.evaluate_raw(&mut model).map(|e| e.r2).unwrap_or(f64::NAN))
            .sum::<f64>()
            / prepared.len() as f64;
        println!(
            "{:<14} {:>14.4} {:>12}",
            agg.name(),
            mean_r2,
            if mean_r2 > 0.0 {
                "survives"
            } else {
                "poisoned"
            }
        );
    }
    Ok(())
}

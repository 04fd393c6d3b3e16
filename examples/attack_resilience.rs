//! Attack-vector deep dive for one charging zone, plus a weight-level
//! attack on the federation itself.
//!
//! The paper's detector targets sustained volume spikes; its future-work
//! section asks how it fares against subtler vectors. This example trains
//! one anomaly filter on zone 102 and confronts it with five attack types —
//! the paper's DDoS spikes plus false-data injection, temporal disruption,
//! ramp, and pulse attacks — reporting detection quality and how much of
//! the damage interpolation-based mitigation recovers.
//!
//! A second section moves the adversary *inside* the federation: a
//! compromised client ships corrupted model updates (sign-flipped weights)
//! through the fault-injection layer, and the aggregation rules face it
//! head-on: FedAvg and Krum, with the drift each shows under the poison.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example attack_resilience
//! ```

use evfad_core::anomaly::{AnomalyFilter, DetectionReport, FilterConfig};
use evfad_core::attack::vectors::{inject_vector, AttackVector};
use evfad_core::attack::{AttackOutcome, DdosConfig, DdosInjector};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::federated::{
    Aggregator, CompressionMode, Corruption, FaultKind, FaultPlan, FederatedConfig,
    FederatedSimulation, RoundSelector,
};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::timeseries::MinMaxScaler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let client = ShenzhenGenerator::new(DatasetConfig::small(1440, 42)).generate_zone(Zone::Z102);
    let clean = &client.demand;
    let boundary = (clean.len() as f64 * 0.8) as usize;

    // Train the filter once, on the clean training split (scaled).
    let scaler = MinMaxScaler::fit(&clean[..boundary])?;
    let mut filter = AnomalyFilter::new(FilterConfig::fast(24));
    filter.fit(&scaler.transform(&clean[..boundary]))?;
    println!(
        "Filter trained on {} normal hours; threshold = {:.6}\n",
        boundary,
        filter.threshold().unwrap_or(f64::NAN)
    );

    let ddos: AttackOutcome = DdosInjector::new(DdosConfig::default()).inject(clean, 7);
    let vectors: Vec<(String, AttackOutcome)> = vec![
        ("ddos_volume_spikes".to_string(), ddos),
        (
            AttackVector::FalseDataInjection { bias: 1.25 }
                .name()
                .to_string(),
            inject_vector(
                clean,
                AttackVector::FalseDataInjection { bias: 1.25 },
                0.15,
                8,
            ),
        ),
        (
            AttackVector::TemporalDisruption.name().to_string(),
            inject_vector(clean, AttackVector::TemporalDisruption, 0.15, 9),
        ),
        (
            AttackVector::Ramp { peak: 3.0 }.name().to_string(),
            inject_vector(clean, AttackVector::Ramp { peak: 3.0 }, 0.15, 10),
        ),
        (
            AttackVector::Pulse { magnitude: 3.0 }.name().to_string(),
            inject_vector(clean, AttackVector::Pulse { magnitude: 3.0 }, 0.15, 11),
        ),
    ];

    println!(
        "{:<24} {:>9} {:>7} {:>6} {:>7} {:>10}",
        "attack vector", "precision", "recall", "F1", "FPR%", "recovery%"
    );
    for (name, outcome) in &vectors {
        let detection = filter.try_detect(&scaler.transform(&outcome.series))?;
        let report = DetectionReport::from_flags(&outcome.labels, &detection.flags);
        let filtered = filter.filter_anomalies(&outcome.series, &detection.flags)?;
        // Damage = L1 distance to the clean series; recovery = share removed.
        let damage = |s: &[f64]| -> f64 { s.iter().zip(clean).map(|(a, c)| (a - c).abs()).sum() };
        let before = damage(&outcome.series);
        let after = damage(&filtered);
        let recovery = if before > 0.0 {
            (before - after) / before * 100.0
        } else {
            0.0
        };
        println!(
            "{:<24} {:>9.3} {:>7.3} {:>6.3} {:>7.2} {:>10.1}",
            name,
            report.precision(),
            report.recall(),
            report.f1(),
            report.false_positive_rate() * 100.0,
            recovery
        );
    }
    println!(
        "\nAs the paper anticipates (SIII-G), the reconstruction-error detector is strong on\n\
         volume spikes and ramps but weaker on distribution-preserving vectors like\n\
         temporal disruption and small-bias false-data injection."
    );

    weight_level_attack()?;
    comms_ablation()?;
    Ok(())
}

/// A compromised client sign-flips every update it ships. The fault layer
/// injects the corruption deterministically; each aggregation rule then
/// faces the identical poisoned round sequence.
fn weight_level_attack() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== Weight-level attack: one Byzantine client, FedAvg against Krum ==\n");
    let prepared: Vec<PreparedClient> = ShenzhenGenerator::new(DatasetConfig::small(480, 42))
        .generate_all()
        .iter()
        .map(|c| PreparedClient::prepare(c.zone.label(), &c.demand, 24, 0.8))
        .collect::<Result<_, _>>()?;
    let traitor = prepared[1].label.clone();
    let run = |aggregator: Aggregator, poisoned: bool| -> Result<_, Box<dyn std::error::Error>> {
        let faults = poisoned.then(|| {
            FaultPlan::new(7).with_rule(
                traitor.clone(),
                RoundSelector::Every,
                FaultKind::Corrupt {
                    corruption: Corruption::SignFlip,
                },
            )
        });
        let cfg = FederatedConfig {
            rounds: 2,
            epochs_per_round: 2,
            aggregator,
            faults,
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(build_forecaster(6, 0.01, 1), cfg);
        for p in &prepared {
            sim.add_client(p.label.clone(), p.train.clone());
        }
        let outcome = sim.run()?;
        let mut global = sim.model_with_weights(&outcome.global_weights)?;
        // Average MAE over the honest clients' test windows.
        let honest: Vec<f64> = prepared
            .iter()
            .filter(|p| p.label != traitor)
            .map(|p| p.evaluate_raw(&mut global).map(|e| e.mae))
            .collect::<Result<_, _>>()?;
        Ok(honest.iter().sum::<f64>() / honest.len() as f64)
    };
    println!(
        "{:<16} {:>12} {:>14} {:>10}",
        "aggregator", "clean MAE", "poisoned MAE", "drift%"
    );
    for (name, aggregator) in [
        ("fedavg", Aggregator::FedAvg),
        // Krum with f = 1 needs n >= f + 3 = 4 clients; with the paper's
        // 3 zones use f = 0, which still selects the update closest to
        // its peers and therefore shuns the sign-flipped outlier.
        ("krum", Aggregator::Krum { byzantine: 0 }),
    ] {
        let clean = run(aggregator, false)?;
        let poisoned = run(aggregator, true)?;
        println!(
            "{:<16} {:>12.3} {:>14.3} {:>10.1}",
            name,
            clean,
            poisoned,
            (poisoned - clean) / clean * 100.0
        );
    }
    Ok(())
}

/// Uplink-compression ablation: the same federation run under each
/// [`CompressionMode`], reporting wire traffic per round against the final
/// forecast quality. Quantization buys ~8x on the uplink for a negligible
/// accuracy cost.
fn comms_ablation() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== Comms ablation: uplink compression vs forecast quality ==\n");
    let prepared: Vec<PreparedClient> = ShenzhenGenerator::new(DatasetConfig::small(480, 42))
        .generate_all()
        .iter()
        .map(|c| PreparedClient::prepare(c.zone.label(), &c.demand, 24, 0.8))
        .collect::<Result<_, _>>()?;
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>10}",
        "mode", "uplink B/round", "downlink B/rnd", "ratio", "final MAE"
    );
    for mode in [CompressionMode::None, CompressionMode::Quant8] {
        let cfg = FederatedConfig {
            rounds: 3,
            epochs_per_round: 2,
            compression: mode,
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(build_forecaster(6, 0.01, 1), cfg);
        for p in &prepared {
            sim.add_client(p.label.clone(), p.train.clone());
        }
        let outcome = sim.run()?;
        let rounds = outcome.rounds.len() as f64;
        let uplink: usize = outcome.rounds.iter().map(|r| r.uplink_bytes).sum();
        let downlink: usize = outcome.rounds.iter().map(|r| r.downlink_bytes).sum();
        let ratio: f64 = outcome
            .rounds
            .iter()
            .map(|r| r.compression_ratio)
            .sum::<f64>()
            / rounds;
        let mut global = sim.model_with_weights(&outcome.global_weights)?;
        let maes: Vec<f64> = prepared
            .iter()
            .map(|p| p.evaluate_raw(&mut global).map(|e| e.mae))
            .collect::<Result<_, _>>()?;
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>7.2}x {:>10.3}",
            mode.to_string(),
            uplink as f64 / rounds,
            downlink as f64 / rounds,
            ratio,
            maes.iter().sum::<f64>() / maes.len() as f64
        );
    }
    println!(
        "\nEvery byte above is metered off the binary wire encoding itself — the loop\n\
         never touches JSON — so the traffic column is exactly what a deployment\n\
         of this protocol would put on the network."
    );
    Ok(())
}

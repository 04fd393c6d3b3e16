//! The ablations and extensions beyond the paper's tables (§III-G), one
//! named section each, run in the archive's order over one shared context:
//! the study config, the generated clients and their clean prepared splits,
//! built once. Each section prints under an `== name ==` line, so
//!
//! ```text
//! ablate --scale mid --seed 42 > results/ablations_mid_seed42.txt
//! ```
//!
//! regenerates the whole archive; `--only dropout,readout` runs a subset.
//! No section prints a timing column, so a rerun reproduces every byte.
//! A verdict line states its rule and whether the rows above it satisfy it.

use evfad_bench::{usage_error, BenchOpts};
use evfad_core::anomaly::{
    merge_segments, AnomalyFilter, Detection, DetectionReport, FilterConfig, MitigationStrategy,
    ThresholdRule,
};
use evfad_core::attack::vectors::{inject_vector, AttackVector};
use evfad_core::attack::{AttackOutcome, DdosConfig, DdosInjector};
use evfad_core::data::{ClientData, ShenzhenGenerator};
use evfad_core::federated::{
    Aggregator, CompressionMode, Corruption, FaultKind, FaultPlan, FederatedConfig,
    FederatedOutcome, FederatedSimulation, RoundSelector,
};
use evfad_core::forecast::baselines::{
    ArForecaster, BaselineForecaster, NaiveForecaster, SeasonalNaiveForecaster,
};
use evfad_core::forecast::experiment::{build_forecaster, ReadOut};
use evfad_core::forecast::pipeline::PreparedClient;
use evfad_core::forecast::scenario::build_all;
use evfad_core::forecast::{run_study, Architecture, Scenario, StudyConfig};
use evfad_core::nn::{Sequential, TrainConfig};
use evfad_core::timeseries::{metrics, MinMaxScaler};
use std::error::Error;

type Outcome = Result<(), Box<dyn Error>>;
type Section = fn(&Ctx) -> Outcome;

/// `(name, banner title, section)` in the archive's order.
const SECTIONS: [(&str, &str, Section); 8] = [
    ("baselines", "forecaster baselines", baselines),
    ("mitigation", "mitigation strategies", mitigation),
    ("threshold", "threshold rules", threshold),
    ("dropout", "client downtime", dropout),
    ("compression", "update compression", compression),
    ("aggregation", "robust aggregation", aggregation),
    ("attacks", "attack vectors", attacks),
    ("readout", "federated read-out", readout),
];

fn main() {
    let opts = BenchOpts::from_env(&["--only"]);
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
    if let Some(bad) = opts.only.iter().find(|n| !names.contains(&n.as_str())) {
        usage_error(&format!(
            "unknown section {bad:?} (expected {})",
            names.join(", ")
        ));
    }
    let ctx = Ctx::new(opts).unwrap_or_else(|e| {
        eprintln!("ablate: {e}");
        std::process::exit(1)
    });
    for (name, title, section) in SECTIONS {
        let only = &ctx.opts.only;
        if !only.is_empty() && !only.iter().any(|n| n == name) {
            continue;
        }
        println!("== {name} ==");
        println!("{}", ctx.opts.banner(&format!("Ablation: {title}")));
        if let Err(e) = section(&ctx) {
            eprintln!("ablate: section {name} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// What every section starts from.
struct Ctx {
    opts: BenchOpts,
    cfg: StudyConfig,
    clients: Vec<ClientData>,
    /// Each client's clean series, split and windowed as the study does.
    prepared: Vec<PreparedClient>,
}

impl Ctx {
    fn new(opts: BenchOpts) -> Result<Self, Box<dyn Error>> {
        let cfg = opts.study_config();
        let clients = ShenzhenGenerator::new(cfg.dataset.clone()).generate_all();
        let prepared = clients
            .iter()
            .map(|c| {
                PreparedClient::prepare(c.zone.label(), &c.demand, cfg.seq_len, cfg.train_fraction)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            opts,
            cfg,
            clients,
            prepared,
        })
    }

    fn train_config(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: self.cfg.batch_size,
            ..TrainConfig::default()
        }
    }

    /// Client `i`'s detector under `threshold`, fitted on its clean series
    /// as `scaler` maps it.
    fn filter(
        &self,
        i: usize,
        scaler: &MinMaxScaler,
        threshold: ThresholdRule,
    ) -> Result<AnomalyFilter, Box<dyn Error>> {
        let mut filter = AnomalyFilter::new(FilterConfig {
            threshold,
            seed: self.cfg.seed + i as u64,
            ..self.cfg.filter.clone()
        });
        filter.fit(&scaler.transform(&self.clients[i].demand))?;
        Ok(filter)
    }

    /// The study's DDoS injection on client `i` and what its detector
    /// flags, the scaler fitted on the attacked series.
    fn detect_ddos(
        &self,
        i: usize,
        threshold: ThresholdRule,
    ) -> Result<(AttackOutcome, Detection), Box<dyn Error>> {
        let attack = DdosInjector::new(self.cfg.attack.clone());
        let outcome = attack.inject(&self.clients[i].demand, self.cfg.seed + i as u64);
        let scaler = MinMaxScaler::fit(&outcome.series)?;
        let detection = self
            .filter(i, &scaler, threshold)?
            .try_detect(&scaler.transform(&outcome.series))?;
        Ok((outcome, detection))
    }

    /// The study's federation schedule: full participation, uncompressed,
    /// FedAvg unless the study says otherwise.
    fn federated_config(&self) -> FederatedConfig {
        let cfg = &self.cfg;
        FederatedConfig {
            rounds: cfg.rounds,
            epochs_per_round: cfg.epochs_per_round,
            batch_size: cfg.batch_size,
            aggregator: cfg.aggregator,
            sampling_seed: cfg.seed,
            ..FederatedConfig::default()
        }
    }

    /// One federation over `clients` under `config`, and its final global
    /// model.
    fn federate(
        &self,
        clients: &[PreparedClient],
        config: FederatedConfig,
    ) -> Result<(FederatedOutcome, Sequential), Box<dyn Error>> {
        let cfg = &self.cfg;
        let mut sim = FederatedSimulation::new(
            build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed),
            config,
        );
        for p in clients {
            sim.add_client(p.label.clone(), p.train.clone());
        }
        let outcome = sim.run()?;
        let global = sim.model_with_weights(&outcome.global_weights)?;
        Ok((outcome, global))
    }
}

/// `model`'s R² on each client's test split; NaN where it cannot be scored.
fn r2s(clients: &[PreparedClient], model: &mut Sequential) -> Vec<f64> {
    clients
        .iter()
        .map(|p| p.evaluate_raw(model).map(|e| e.r2).unwrap_or(f64::NAN))
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// LSTM vs classical baselines. The paper motivates LSTMs over the
/// statistical models of its introduction; each model is evaluated per zone
/// on clean data.
fn baselines(ctx: &Ctx) -> Outcome {
    let cfg = &ctx.cfg;
    println!(
        "{:<8} {:<16} {:>8} {:>8} {:>8}",
        "zone", "model", "MAE", "RMSE", "R2"
    );
    for (c, p) in ctx.clients.iter().zip(&ctx.prepared) {
        // Baselines predict on the raw series; align with the test targets.
        let tail = &c.demand[p.boundary - cfg.seq_len..];
        let actual = &tail[cfg.seq_len..];
        let ar = ArForecaster::fit(&c.demand[..p.boundary], cfg.seq_len, 1e-4)?;
        let mut rows = Vec::new();
        for (name, preds) in [
            ("naive", NaiveForecaster.predict_series(tail, cfg.seq_len)),
            (
                "seasonal_naive",
                SeasonalNaiveForecaster::default().predict_series(tail, cfg.seq_len),
            ),
            ("ar24_ridge", ar.predict_series(tail, cfg.seq_len)),
        ] {
            let rep = metrics::report(actual, &preds)?;
            rows.push((name, rep.mae, rep.rmse, rep.r2));
        }
        // Local LSTM trained like one federated client (no averaging),
        // same budget as the paper's local schedule.
        let mut model = build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed);
        model.fit(
            &p.train,
            &ctx.train_config(cfg.rounds * cfg.epochs_per_round),
        )?;
        let eval = p.evaluate_raw(&mut model)?;
        rows.push(("lstm_local", eval.mae, eval.rmse, eval.r2));
        for (name, mae, rmse, r2) in rows {
            println!(
                "{:<8} {name:<16} {mae:>8.4} {rmse:>8.4} {r2:>8.4}",
                c.zone.label()
            );
        }
    }
    Ok(())
}

/// Mitigation beyond the paper's "basic" linear interpolation: how much of
/// the attack damage each replacement strategy removes, per zone.
fn mitigation(ctx: &Ctx) -> Outcome {
    println!(
        "{:<8} {:<16} {:>12} {:>12} {:>10}",
        "zone", "strategy", "damage L1", "residual L1", "recovery%"
    );
    let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
    for (i, c) in ctx.clients.iter().enumerate() {
        let (outcome, detection) = ctx.detect_ddos(i, ctx.cfg.filter.threshold)?;
        let merged = merge_segments(&detection.flags, 2);
        let damage = l1(&outcome.series, &c.demand);
        for strategy in [
            MitigationStrategy::Linear,
            MitigationStrategy::SeasonalNaive,
        ] {
            let residual = l1(&strategy.apply(&outcome.series, &merged)?, &c.demand);
            println!(
                "{:<8} {:<16} {damage:>12.1} {residual:>12.1} {:>10.1}",
                c.zone.label(),
                strategy.name(),
                (damage - residual) / damage * 100.0
            );
        }
    }
    Ok(())
}

/// Threshold rules for the detector: the paper's 98th percentile beside
/// the mean+k·std and MAD rules of its related work, on identical attacked
/// series.
fn threshold(ctx: &Ctx) -> Outcome {
    println!(
        "{:<22} {:>10} {:>8} {:>7} {:>7}",
        "rule", "precision", "recall", "F1", "FPR%"
    );
    for rule in [
        ThresholdRule::Percentile(95.0),
        ThresholdRule::Percentile(98.0),
        ThresholdRule::Percentile(99.5),
        ThresholdRule::MeanStd { k: 3.0 },
        ThresholdRule::Mad { k: 6.0 },
    ] {
        let mut overall = DetectionReport::from_flags(&[], &[]);
        for i in 0..ctx.clients.len() {
            let (outcome, detection) = ctx.detect_ddos(i, rule)?;
            overall = overall.merged(DetectionReport::from_flags(
                &outcome.labels,
                &detection.flags,
            ));
        }
        let label = match rule {
            ThresholdRule::Percentile(p) => format!("percentile({p})"),
            ThresholdRule::MeanStd { k } => format!("mean+{k}std"),
            ThresholdRule::Mad { k } => format!("median+{k}mad"),
        };
        println!(
            "{label:<22} {:>10.3} {:>8.3} {:>7.3} {:>7.2}",
            overall.precision(),
            overall.recall(),
            overall.f1(),
            overall.false_positive_rate() * 100.0
        );
    }
    Ok(())
}

/// Federated resilience to client downtime (the paper's §III-F claim): the
/// federation runs with falling per-round participation and every client
/// is scored with the final global model.
fn dropout(ctx: &Ctx) -> Outcome {
    println!(
        "{:<15} {:>10} {:>10} {:>10} {:>10}",
        "participation", "102 R2", "105 R2", "108 R2", "mean R2"
    );
    let mut rows = Vec::new();
    for participation in [1.0, 0.67, 0.34] {
        let config = FederatedConfig {
            participation,
            ..ctx.federated_config()
        };
        let (_, mut global) = ctx.federate(&ctx.prepared, config)?;
        let r2s = r2s(&ctx.prepared, &mut global);
        println!(
            "{participation:<15.2} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            r2s[0],
            r2s[1],
            r2s[2],
            mean(&r2s)
        );
        rows.push((participation, r2s));
    }
    let zones: Vec<&str> = ctx.prepared.iter().map(|p| p.label.as_str()).collect();
    println!();
    for line in dropout_verdicts(&zones, &rows) {
        println!("{line}");
    }
    Ok(())
}

/// The dropout table's two claims, checked against its rows: `rows` are
/// `(participation, R² per zone)` in falling participation.
fn dropout_verdicts(zones: &[&str], rows: &[(f64, Vec<f64>)]) -> [String; 2] {
    let rise = rows
        .windows(2)
        .find(|w| mean(&w[1].1) > mean(&w[0].1))
        .map(|w| {
            let (hi, lo) = (&w[0], &w[1]);
            format!(
                "{:.2} reads {:.4} above {:.2}'s {:.4}",
                lo.0,
                mean(&lo.1),
                hi.0,
                mean(&hi.1)
            )
        });
    let unusable = rows
        .iter()
        .flat_map(|(p, r2s)| zones.iter().zip(r2s).map(move |(zone, &r2)| (p, zone, r2)))
        .find(|&(_, _, r2)| r2.is_nan() || r2 <= 0.0)
        .map(|(p, zone, r2)| format!("zone {zone} at {p:.2} reads {r2:.4}"));
    [
        verdict(
            "Graceful degradation (mean R2 never rises as participation falls)",
            rise,
        ),
        verdict(
            "Usable global models (every R2 cell finite and above 0)",
            unusable,
        ),
    ]
}

/// `rule: holds`, or `rule: does not hold: <counterexample>`.
fn verdict(rule: &str, counterexample: Option<String>) -> String {
    match counterexample {
        None => format!("{rule}: holds"),
        Some(why) => format!("{rule}: does not hold: {why}"),
    }
}

/// Uplink compression: the study's federation (global read-out) once per
/// encoding on the clean and the filtered scenario — the bytes a round
/// uplinks beside the R² the final global model reaches.
fn compression(ctx: &Ctx) -> Outcome {
    let cfg = &ctx.cfg;
    let scenarios = build_all(&ctx.clients, &cfg.attack, &cfg.filter, cfg.seed)?;
    for scenario in [Scenario::Clean, Scenario::Filtered] {
        let prepared = scenarios
            .iter()
            .map(|s| {
                PreparedClient::prepare(
                    s.label.clone(),
                    s.series(scenario),
                    cfg.seq_len,
                    cfg.train_fraction,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        println!("\nscenario = {}", scenario.label());
        println!(
            "{:<10} {:>15} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "mode", "uplink B/round", "ratio", "102 R2", "105 R2", "108 R2", "mean R2"
        );
        for mode in [CompressionMode::None, CompressionMode::Quant8] {
            let config = FederatedConfig {
                compression: mode,
                ..ctx.federated_config()
            };
            let (outcome, mut global) = ctx.federate(&prepared, config)?;
            let r2s = r2s(&prepared, &mut global);
            let last = outcome.rounds.last().ok_or("a federation without rounds")?;
            println!(
                "{:<10} {:>15} {:>7.2} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                mode.to_string(),
                last.uplink_bytes,
                last.compression_ratio,
                r2s[0],
                r2s[1],
                r2s[2],
                mean(&r2s)
            );
        }
    }
    Ok(())
}

/// Aggregation rules inside a federation with a compromised station: the
/// three zones' clean clients plus k ∈ {0, 1} compromised clients, each a
/// fourth client on zone 105's train split whose update is corrupted every
/// round. A cell is the mean R² of the final global model over the three
/// zones' test splits. Krum runs with f = k; where n < f + 3 the federation
/// refuses it before training and the cell reads `error`. Median and
/// trimmed mean left on this section's evidence over four seeds
/// (`results/ablation_robust_aggregation_mid.txt`).
fn aggregation(ctx: &Ctx) -> Outcome {
    let mut compromised = ctx.prepared[1].clone();
    compromised.label = "compromised".into();
    let mut clients = ctx.prepared.clone();
    clients.push(compromised);
    let cells = [
        ("clean k=0", None),
        ("sign_flip k=1", Some(Corruption::SignFlip)),
        ("scale50 k=1", Some(Corruption::Scale { factor: 50.0 })),
        ("nan_flood k=1", Some(Corruption::NanFlood)),
    ];
    print!("{:<16}", "rule");
    for (cell, _) in &cells {
        print!(" {cell:>14}");
    }
    println!();
    let mut errors = Vec::new();
    for (rule, krum) in [("fedavg", false), ("krum{f=k}", true)] {
        print!("{rule:<16}");
        for &(cell, corruption) in &cells {
            let k = usize::from(corruption.is_some());
            let config = FederatedConfig {
                aggregator: if krum {
                    Aggregator::Krum { byzantine: k }
                } else {
                    Aggregator::FedAvg
                },
                faults: corruption.map(|corruption| {
                    FaultPlan::new(ctx.cfg.seed).with_rule(
                        "compromised",
                        RoundSelector::Every,
                        FaultKind::Corrupt { corruption },
                    )
                }),
                ..ctx.federated_config()
            };
            match ctx.federate(&clients[..ctx.prepared.len() + k], config) {
                Ok((_, mut global)) => {
                    let r2 = mean(&r2s(&ctx.prepared, &mut global));
                    if r2.abs() < 1e4 {
                        print!(" {r2:>14.4}");
                    } else {
                        print!(" {r2:>14.3e}");
                    }
                }
                Err(e) => {
                    print!(" {:>14}", "error");
                    errors.push(format!("{rule} / {cell}: {e}"));
                }
            }
        }
        println!();
    }
    for e in errors {
        println!("{e}");
    }
    Ok(())
}

/// Detection across attack vectors: one filter per zone, trained on clean
/// data as in the paper, against the DDoS baseline and the four vectors
/// the paper defers to future work (§III-G).
fn attacks(ctx: &Ctx) -> Outcome {
    let cfg = &ctx.cfg;
    let mut fitted = Vec::new();
    for (i, c) in ctx.clients.iter().enumerate() {
        let scaler = MinMaxScaler::fit(&c.demand)?;
        let filter = ctx.filter(i, &scaler, cfg.filter.threshold)?;
        fitted.push((scaler, filter));
    }
    println!(
        "{:<22} {:>6} {:>10} {:>8} {:>7} {:>7}",
        "vector", "zone", "precision", "recall", "F1", "FPR%"
    );
    let row = |name: &str, zone: &str, r: &DetectionReport| {
        println!(
            "{name:<22} {zone:>6} {:>10.3} {:>8.3} {:>7.3} {:>7.2}",
            r.precision(),
            r.recall(),
            r.f1(),
            r.false_positive_rate() * 100.0
        );
    };
    // `None` is the paper's DDoS model at its default configuration.
    for (name, vector) in [
        ("ddos_volume_spikes", None),
        (
            "false_data_injection",
            Some(AttackVector::FalseDataInjection { bias: 1.25 }),
        ),
        (
            "temporal_disruption",
            Some(AttackVector::TemporalDisruption),
        ),
        ("ramp", Some(AttackVector::Ramp { peak: 3.0 })),
        ("pulse", Some(AttackVector::Pulse { magnitude: 3.0 })),
    ] {
        let mut overall = DetectionReport::from_flags(&[], &[]);
        for (i, (c, (scaler, filter))) in ctx.clients.iter().zip(&mut fitted).enumerate() {
            let seed = cfg.seed + i as u64;
            let outcome = match vector {
                None => DdosInjector::new(DdosConfig::default()).inject(&c.demand, seed),
                Some(v) => inject_vector(&c.demand, v, 0.15, seed),
            };
            let detection = filter.try_detect(&scaler.transform(&outcome.series))?;
            let report = DetectionReport::from_flags(&outcome.labels, &detection.flags);
            row(name, c.zone.label(), &report);
            overall = overall.merged(report);
        }
        row(name, "all", &overall);
    }
    Ok(())
}

/// Personalised (local) vs global federated read-out: the paper's
/// per-client numbers need each client scored with its locally trained
/// model after the final round (DESIGN.md §3); this is the gap to scoring
/// everyone with the final global aggregate.
fn readout(ctx: &Ctx) -> Outcome {
    for read_out in [ReadOut::Local, ReadOut::Global] {
        let report = run_study(&StudyConfig {
            read_out,
            ..ctx.cfg.clone()
        })?;
        println!("\nread_out = {read_out:?}");
        println!(
            "{:<8} {:>10} {:>10} {:>10}",
            "zone", "clean R2", "attacked", "filtered"
        );
        for p in &ctx.prepared {
            let r2 = |s| {
                report
                    .result(s, Architecture::Federated)
                    .and_then(|r| r.client(&p.label))
                    .map(|c| c.r2)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "{:<8} {:>10.4} {:>10.4} {:>10.4}",
                p.label,
                r2(Scenario::Clean),
                r2(Scenario::Attacked),
                r2(Scenario::Filtered)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZONES: [&str; 3] = ["102", "105", "108"];

    /// The rows of `results/ablations_mid_seed42.txt`'s dropout table.
    fn archived() -> Vec<(f64, Vec<f64>)> {
        vec![
            (1.0, vec![0.8654, 0.8769, 0.6055]),
            (0.67, vec![0.7947, 0.7732, 0.6523]),
            (0.34, vec![0.8886, 0.9346, 0.5169]),
        ]
    }

    #[test]
    fn dropout_verdict_does_not_hold_on_the_archived_rows() {
        let [smooth, usable] = dropout_verdicts(&ZONES, &archived());
        assert!(
            smooth.ends_with("does not hold: 0.34 reads 0.7800 above 0.67's 0.7401"),
            "{smooth}"
        );
        assert!(usable.ends_with(": holds"), "{usable}");
    }

    #[test]
    fn dropout_verdict_holds_on_a_monotone_table() {
        let mut rows = archived();
        rows[2].1 = vec![0.70, 0.72, 0.50];
        let [smooth, _] = dropout_verdicts(&ZONES, &rows);
        assert!(smooth.ends_with(": holds"), "{smooth}");
    }

    #[test]
    fn a_nan_cell_is_not_a_usable_model() {
        let mut rows = archived();
        rows[1].1[2] = f64::NAN;
        let [_, usable] = dropout_verdicts(&ZONES, &rows);
        assert!(
            usable.ends_with("does not hold: zone 108 at 0.67 reads NaN"),
            "{usable}"
        );
    }
}

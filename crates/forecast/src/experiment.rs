//! The study runner: regenerates every table and figure of the paper.

use crate::error::ForecastError;
use crate::pipeline::PreparedClient;
use crate::scenario::{client_seeds, fan_out, Architecture, Detected, Gate, Injected, Scenario};
use evfad_anomaly::{DetectionReport, FilterConfig};
use evfad_attack::{DdosConfig, DdosInjector};
use evfad_data::{ClientData, DatasetConfig, ShenzhenGenerator};
use evfad_federated::{Aggregator, FederatedConfig, FederatedSimulation};
use evfad_nn::{Activation, Adam, Dense, Lstm, Sequential, TrainConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Preset sizes for the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale smoke configuration (CI, tests).
    Small,
    /// Minutes-scale configuration with readable quality.
    Mid,
    /// The paper's full protocol (4,344 points, LSTM(50), 5 × 10 epochs).
    Paper,
}

impl Scale {
    /// Parses `"small" | "mid" | "paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "mid" => Some(Scale::Mid),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Which model each federated client is evaluated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReadOut {
    /// Each client keeps its final-round locally-trained model
    /// (personalised evaluation — matches the paper's per-client numbers).
    #[default]
    Local,
    /// Every client is evaluated with the final global aggregate.
    Global,
}

/// Full configuration of a study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// DDoS injection parameters.
    pub attack: DdosConfig,
    /// Anomaly-filter parameters.
    pub filter: FilterConfig,
    /// Forecast window length (paper: 24).
    pub seq_len: usize,
    /// LSTM hidden units (paper: 50).
    pub lstm_units: usize,
    /// Federated rounds (paper: 5).
    pub rounds: usize,
    /// Local epochs per round (paper: 10).
    pub epochs_per_round: usize,
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Train fraction of the temporal split (paper: 0.8).
    pub train_fraction: f64,
    /// Aggregation rule (paper: FedAvg).
    pub aggregator: Aggregator,
    /// Federated read-out mode.
    pub read_out: ReadOut,
    /// Train each federation's clients on parallel threads within a round
    /// (`FederatedConfig::parallel`). The study runs its detector fits and
    /// its trainings side by side on the worker pool either way.
    pub parallel: bool,
    /// Master seed.
    pub seed: u64,
}

impl StudyConfig {
    /// A preset configuration at the given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (timestamps, units, rounds, epochs, filter) = match scale {
            Scale::Small => {
                let mut f = FilterConfig::fast(24);
                f.encoder_units = (12, 6);
                f.epochs = 6;
                f.train_stride = 3;
                (720, 16, 2, 2, f)
            }
            Scale::Mid => {
                let mut f = FilterConfig::fast(24);
                f.encoder_units = (24, 12);
                f.epochs = 12;
                f.train_stride = 2;
                f.learning_rate = 0.005;
                (2160, 32, 3, 6, f)
            }
            Scale::Paper => (4344, 50, 5, 10, FilterConfig::paper(seed)),
        };
        Self {
            dataset: DatasetConfig {
                timestamps,
                seed: seed ^ 0xDA7A,
            },
            attack: DdosConfig::default(),
            filter,
            seq_len: 24,
            lstm_units: units,
            rounds,
            epochs_per_round: epochs,
            batch_size: 32,
            learning_rate: match scale {
                Scale::Paper => 0.001,
                Scale::Mid => 0.003,
                Scale::Small => 0.01,
            },
            train_fraction: 0.8,
            aggregator: Aggregator::FedAvg,
            read_out: ReadOut::Local,
            // Selects whether each federation trains a round's clients as
            // pool jobs or one after another, and nothing else; the study's
            // own fan-out does not consult it. The reported federated time
            // is the simulated distributed time (slowest client per round)
            // either way, and at most one job runs per pool thread either
            // way. Off because on two CPUs the study's own fan-out already
            // keeps both cores busy to within 0.1 s of the end: four
            // alternating `paper_run` pairs read 3.21 s with it set against
            // 3.23 s without (EXPERIMENTS.md). With more cores than study
            // jobs it shortens the critical path; decide it there.
            parallel: false,
            seed,
        }
    }

    /// The paper's full protocol.
    pub fn paper(seed: u64) -> Self {
        Self::at_scale(Scale::Paper, seed)
    }
}

/// Raw-unit forecast quality of one client under one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientMetrics {
    /// Zone label (`"102"` …).
    pub zone: String,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Outcome of one (scenario, architecture) cell of the paper's design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Data condition.
    pub scenario: Scenario,
    /// Learning architecture.
    pub architecture: Architecture,
    /// Per-client metrics in client order (102, 105, 108).
    pub per_client: Vec<ClientMetrics>,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
}

impl ScenarioResult {
    /// Metrics of the given zone, if present.
    pub fn client(&self, zone: &str) -> Option<&ClientMetrics> {
        self.per_client.iter().find(|c| c.zone == zone)
    }
}

/// Per-client detection quality (Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientDetection {
    /// Zone label.
    pub zone: String,
    /// Confusion-matrix summary.
    pub report: DetectionReport,
}

/// Prediction series for Fig. 2 (Client 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Fig2Data {
    /// Timestamp indices of the test targets.
    pub indices: Vec<usize>,
    /// Actual (clean-scenario) test values.
    pub actual: Vec<f64>,
    /// Federated predictions on clean data.
    pub clean_pred: Vec<f64>,
    /// Federated predictions on attacked data.
    pub attacked_pred: Vec<f64>,
    /// Federated predictions on filtered data.
    pub filtered_pred: Vec<f64>,
}

/// The headline numbers quoted in the paper's abstract.
#[derive(Debug, Clone, PartialEq)]
struct HeadlineNumbers {
    /// Federated-over-centralized R² improvement on filtered data,
    /// Client 1, in percent (paper: 15.2 %).
    pub r2_improvement_pct: f64,
    /// Fraction of attack-induced R² degradation recovered by filtering,
    /// Client 1, in percent (paper: 47.9 %).
    pub recovery_pct: f64,
    /// Overall detection precision across clients (paper: 0.913).
    pub overall_precision: f64,
    /// Overall false-positive rate in percent (paper: 1.21 %).
    pub fpr_pct: f64,
    /// Training-time reduction of federated vs centralized in percent
    /// (paper: 18.1 %).
    pub time_reduction_pct: f64,
}

/// Everything the paper's evaluation section reports, in one place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyReport {
    /// The four (scenario, architecture) results of §III-A.
    pub scenarios: Vec<ScenarioResult>,
    /// Per-client detection quality (Table II).
    pub detection: Vec<ClientDetection>,
    /// Pooled detection quality across clients.
    pub overall_detection: DetectionReport,
    /// Client 1 prediction series (Fig. 2).
    pub fig2: Fig2Data,
    /// Seed the study ran with.
    pub seed: u64,
}

/// Builds the paper's forecaster: `LSTM(units) → Dense(10, relu) → Dense(1)`.
pub fn build_forecaster(units: usize, learning_rate: f64, seed: u64) -> Sequential {
    Sequential::new(seed)
        .with(Lstm::new(1, units, false))
        .with(Dense::new(units, 10, Activation::Relu))
        .with(Dense::new(10, 1, Activation::Linear))
        .with_optimizer(Adam::new(learning_rate))
}

fn prepare_clients<'a>(
    clients: impl IntoIterator<Item = (&'a str, &'a [f64])>,
    cfg: &StudyConfig,
) -> Result<Vec<PreparedClient>, ForecastError> {
    clients
        .into_iter()
        .map(|(label, series)| {
            PreparedClient::prepare(label, series, cfg.seq_len, cfg.train_fraction)
        })
        .collect()
}

/// Trains the federated architecture on one scenario and evaluates each
/// client in raw units.
fn run_federated_scenario(
    prepared: &[PreparedClient],
    scenario: Scenario,
    cfg: &StudyConfig,
) -> Result<(ScenarioResult, Vec<Vec<f64>>), ForecastError> {
    let template = build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed);
    let fed_cfg = FederatedConfig {
        rounds: cfg.rounds,
        epochs_per_round: cfg.epochs_per_round,
        batch_size: cfg.batch_size,
        aggregator: cfg.aggregator,
        parallel: cfg.parallel,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(template, fed_cfg);
    for p in prepared {
        sim.add_client(p.label.clone(), p.train.clone());
    }
    let outcome = sim.run()?;
    let mut per_client = Vec::with_capacity(prepared.len());
    let mut predictions = Vec::with_capacity(prepared.len());
    for (i, p) in prepared.iter().enumerate() {
        let eval = match cfg.read_out {
            ReadOut::Local => {
                let model = sim.clients_mut()[i].model_mut();
                p.evaluate_raw(model)?
            }
            ReadOut::Global => {
                let mut model = sim.model_with_weights(&outcome.global_weights)?;
                p.evaluate_raw(&mut model)?
            }
        };
        per_client.push(ClientMetrics {
            zone: p.label.clone(),
            mae: eval.mae,
            rmse: eval.rmse,
            r2: eval.r2,
        });
        predictions.push(eval.predicted);
    }
    // Report the time the federation would take on distributed hardware
    // (slowest client per round); on a single-core host the raw wall clock
    // serialises the clients and hides the parallelism the paper measures.
    let train_seconds = outcome
        .total_duration
        .as_secs_f64()
        .min(outcome.simulated_distributed_seconds());
    Ok((
        ScenarioResult {
            scenario,
            architecture: Architecture::Federated,
            per_client,
            train_seconds,
        },
        predictions,
    ))
}

/// Trains the centralized architecture on the pooled (per-client-scaled)
/// data of one scenario and evaluates each client.
fn run_centralized_scenario(
    prepared: &[PreparedClient],
    scenario: Scenario,
    cfg: &StudyConfig,
) -> Result<ScenarioResult, ForecastError> {
    let mut model = build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed ^ 0xC3);
    let mut pooled = Vec::new();
    for p in prepared {
        pooled.extend(p.train.iter().cloned());
    }
    // Centralized step budget, derived from the paper's own timings: its
    // centralized run took 1.18x the federated wall clock (101.46 s vs
    // 85.95 s), i.e. ~1.2x one client's total optimizer steps — far below
    // the full `FEDERATED_ROUNDS x EPOCHS_PER_ROUND` schedule over 3x the
    // data, which would have tripled the wall clock. Pooled data has
    // `clients`-times the samples, so epochs divide by the client count.
    let total_epochs = (cfg.rounds * cfg.epochs_per_round) as f64;
    let central_epochs =
        ((total_epochs * 1.2 / prepared.len().max(1) as f64).round() as usize).max(1);
    let train_cfg = TrainConfig {
        epochs: central_epochs,
        batch_size: cfg.batch_size,
        ..TrainConfig::default()
    };
    let start = Instant::now();
    model.fit(&pooled, &train_cfg)?;
    let train_seconds = start.elapsed().as_secs_f64();
    let mut per_client = Vec::with_capacity(prepared.len());
    for p in prepared {
        let eval = p.evaluate_raw(&mut model)?;
        per_client.push(ClientMetrics {
            zone: p.label.clone(),
            mae: eval.mae,
            rmse: eval.rmse,
            r2: eval.r2,
        });
    }
    Ok(ScenarioResult {
        scenario,
        architecture: Architecture::Centralized,
        per_client,
        train_seconds,
    })
}

/// The study's trainings, in the order a serial study ran them.
const TRAININGS: [(Scenario, Architecture); 4] = [
    (Scenario::Clean, Architecture::Federated),
    (Scenario::Attacked, Architecture::Federated),
    (Scenario::Filtered, Architecture::Federated),
    (Scenario::Filtered, Architecture::Centralized),
];

/// Runs the complete four-scenario study (the whole of the paper's §III)
/// on the generated `cfg.dataset`; see [`run_study_on`].
///
/// # Errors
///
/// As [`run_study_on`].
pub fn run_study(cfg: &StudyConfig) -> Result<StudyReport, ForecastError> {
    run_study_on(
        &ShenzhenGenerator::new(cfg.dataset.clone()).generate_all(),
        cfg,
    )
}

/// Runs the complete four-scenario study on the given clients.
///
/// The attacks are injected first, once per client. Then the study is one
/// fan-out on the tensor worker pool, `parallel::threads()` jobs at a time
/// (in order on the calling thread when that is one), claimed in this
/// order: one detector per client (fit, detect, mitigate — three jobs for
/// the paper's zones), the clean and attacked federations, which need no
/// detector, and the filtered federation and the centralized baseline,
/// which need every one. Those last two wait for the detectors before they
/// prepare their data and before their `train_seconds` clock starts. They
/// are claimed after every detector, so what they wait on is running, and
/// a detector lets them go however it ends — on an error, which is then
/// the study's, or on a panic, which reaches the caller.
///
/// The report does not depend on the schedule: every field but the
/// wall-clock `train_seconds` is the same for every thread count.
///
/// # Errors
///
/// Propagates the preparation, filtering, or training failure a serial run
/// would have met first: detectors in client order, then each training's
/// preparation failure ahead of its training failure, in the order above.
pub fn run_study_on(
    clients: &[ClientData],
    cfg: &StudyConfig,
) -> Result<StudyReport, ForecastError> {
    let injector = DdosInjector::new(cfg.attack.clone());
    let (filters, injected): (Vec<FilterConfig>, Vec<Injected>) = clients
        .iter()
        .enumerate()
        .map(|(i, client)| {
            let (filter, attack_seed) = client_seeds(&cfg.filter, cfg.seed, i);
            (filter, Injected::new(client, &injector, attack_seed))
        })
        .unzip();
    let clean = prepare_clients(injected.iter().map(|c| (&c.label[..], &c.clean[..])), cfg);
    let attacked = prepare_clients(
        injected.iter().map(|c| (&c.label[..], &c.attacked[..])),
        cfg,
    );

    // Jobs `0..n` are the detectors, then one job per `TRAININGS` entry.
    let n = clients.len();
    let detectors = Gate::new(n);
    let detected: Vec<OnceLock<Detected>> = (0..n).map(|_| OnceLock::new()).collect();
    let filtered = OnceLock::new();
    let jobs = fan_out(n + TRAININGS.len(), |job| {
        if job < n {
            let _leave = detectors.leave_on_drop();
            let _ = detected[job].set(injected[job].detect(filters[job].clone())?);
            return Ok(None);
        }
        let (scenario, architecture) = TRAININGS[job - n];
        let prepared = match scenario {
            Scenario::Clean => &clean,
            Scenario::Attacked => &attacked,
            Scenario::Filtered => filtered.get_or_init(|| {
                detectors.wait();
                // A missing series means that detector failed, and its own
                // job, earlier in the order, reports why.
                let series: Option<Vec<_>> = injected
                    .iter()
                    .zip(&detected)
                    .map(|(c, d)| Some((c.label.as_str(), &d.get()?.filtered[..])))
                    .collect();
                series.map_or_else(
                    || Err(ForecastError::Anomaly("a detector failed".into())),
                    |series| prepare_clients(series, cfg),
                )
            }),
        };
        let prepared = prepared.as_ref().map_err(Clone::clone)?;
        match architecture {
            Architecture::Federated => run_federated_scenario(prepared, scenario, cfg).map(Some),
            Architecture::Centralized => {
                run_centralized_scenario(prepared, scenario, cfg).map(|r| Some((r, Vec::new())))
            }
        }
    });
    let trained = jobs.into_iter().collect::<Result<Vec<_>, _>>()?;

    let detection: Vec<ClientDetection> = injected
        .iter()
        .zip(detected)
        .map(|(c, d)| ClientDetection {
            zone: c.label.clone(),
            report: d.into_inner().expect("every detector succeeded").detection,
        })
        .collect();
    let overall_detection = detection
        .iter()
        .fold(DetectionReport::from_flags(&[], &[]), |acc, d| {
            acc.merged(d.report)
        });

    // Fig. 2 tracks Client 1 (zone 102) through the federated runs.
    let clean_client1 = clean?.swap_remove(0);
    let mut fig2 = Fig2Data {
        indices: clean_client1.test_indices,
        actual: clean_client1.test_actual_raw,
        ..Fig2Data::default()
    };
    let mut scenarios = Vec::with_capacity(TRAININGS.len());
    for (result, mut predictions) in trained.into_iter().flatten() {
        if result.architecture == Architecture::Federated {
            let client1 = predictions.swap_remove(0);
            match result.scenario {
                Scenario::Clean => fig2.clean_pred = client1,
                Scenario::Attacked => fig2.attacked_pred = client1,
                Scenario::Filtered => fig2.filtered_pred = client1,
            }
        }
        scenarios.push(result);
    }

    Ok(StudyReport {
        scenarios,
        detection,
        overall_detection,
        fig2,
        seed: cfg.seed,
    })
}

impl StudyReport {
    /// The (scenario, architecture) cell, if present.
    pub fn result(&self, scenario: Scenario, arch: Architecture) -> Option<&ScenarioResult> {
        self.scenarios
            .iter()
            .find(|r| r.scenario == scenario && r.architecture == arch)
    }

    /// Derived headline numbers (paper abstract).
    fn headline(&self) -> HeadlineNumbers {
        let get = |s, a| self.result(s, a);
        let clean = get(Scenario::Clean, Architecture::Federated);
        let attacked = get(Scenario::Attacked, Architecture::Federated);
        let filtered = get(Scenario::Filtered, Architecture::Federated);
        let central = get(Scenario::Filtered, Architecture::Centralized);
        let r2 = |r: Option<&ScenarioResult>| {
            r.and_then(|r| r.client("102"))
                .map(|c| c.r2)
                .unwrap_or(f64::NAN)
        };
        let (rc, ra, rf, rx) = (r2(clean), r2(attacked), r2(filtered), r2(central));
        let recovery_pct = if (rc - ra).abs() > 1e-9 {
            (rf - ra) / (rc - ra) * 100.0
        } else {
            f64::NAN
        };
        let time = |r: Option<&ScenarioResult>| r.map(|r| r.train_seconds).unwrap_or(f64::NAN);
        let (tf, tc) = (time(filtered), time(central));
        HeadlineNumbers {
            r2_improvement_pct: (rf - rx) / rx.abs() * 100.0,
            recovery_pct,
            overall_precision: self.overall_detection.precision(),
            fpr_pct: self.overall_detection.false_positive_rate() * 100.0,
            time_reduction_pct: (tc - tf) / tc * 100.0,
        }
    }

    /// Table I: complete performance comparison for Client 1.
    pub fn table1(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TABLE I: Complete performance comparison for Client 1."
        );
        let _ = writeln!(
            out,
            "{:<15} {:<13} {:>8} {:>8} {:>8} {:>9}",
            "Scenario", "Architecture", "MAE", "RMSE", "R2", "Time (s)"
        );
        for (scenario, arch) in [
            (Scenario::Clean, Architecture::Federated),
            (Scenario::Attacked, Architecture::Federated),
            (Scenario::Filtered, Architecture::Federated),
            (Scenario::Filtered, Architecture::Centralized),
        ] {
            if let Some(r) = self.result(scenario, arch) {
                if let Some(c) = r.client("102") {
                    let _ = writeln!(
                        out,
                        "{:<15} {:<13} {:>8.4} {:>8.4} {:>8.4} {:>9.2}",
                        scenario.label(),
                        arch.label(),
                        c.mae,
                        c.rmse,
                        c.r2,
                        r.train_seconds
                    );
                }
            }
        }
        out
    }

    /// Table II: client-specific anomaly-detection results.
    pub fn table2(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "TABLE II: Client-Specific Anomaly Detection Results");
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>8} {:>7}",
            "Client", "Precision", "Recall", "F1"
        );
        for (i, d) in self.detection.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<10} {:>10.3} {:>8.3} {:>7.3}",
                format!("{} ({})", i + 1, d.zone),
                d.report.precision(),
                d.report.recall(),
                d.report.f1()
            );
        }
        let _ = writeln!(
            out,
            "Overall precision {:.3}, recall {:.3}, F1 {:.3}, FPR {:.2}%",
            self.overall_detection.precision(),
            self.overall_detection.recall(),
            self.overall_detection.f1(),
            self.overall_detection.false_positive_rate() * 100.0
        );
        out
    }

    /// Table III: client-specific performance comparison for filtered data.
    pub fn table3(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TABLE III: Client-specific performance comparison for filtered data."
        );
        let _ = writeln!(
            out,
            "{:<16} {:<13} {:>8} {:>8} {:>8}",
            "Client (Zone)", "Architecture", "MAE", "RMSE", "R2"
        );
        for zone in ["102", "105", "108"] {
            for arch in [Architecture::Federated, Architecture::Centralized] {
                if let Some(c) = self
                    .result(Scenario::Filtered, arch)
                    .and_then(|r| r.client(zone))
                {
                    let client_no = match zone {
                        "102" => 1,
                        "105" => 2,
                        _ => 3,
                    };
                    let _ = writeln!(
                        out,
                        "{:<16} {:<13} {:>8.4} {:>8.4} {:>8.4}",
                        format!("Client {client_no} ({zone})"),
                        arch.label(),
                        c.mae,
                        c.rmse,
                        c.r2
                    );
                }
            }
        }
        out
    }

    /// Fig. 2: Client 1 scenario R² bars plus the prediction series
    /// (printed as aligned columns for plotting).
    pub fn fig2_text(&self, max_rows: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FIG 2: Anomaly-resilient federated LSTM, Client 1 (zone 102)"
        );
        let r2 = |s| {
            self.result(s, Architecture::Federated)
                .and_then(|r| r.client("102"))
                .map(|c| c.r2)
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "R2 bars: clean={:.4} attacked={:.4} filtered={:.4}",
            r2(Scenario::Clean),
            r2(Scenario::Attacked),
            r2(Scenario::Filtered)
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            "t", "actual", "clean", "attacked", "filtered"
        );
        let n = self.fig2.indices.len().min(max_rows);
        for i in 0..n {
            let _ = writeln!(
                out,
                "{:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                self.fig2.indices[i],
                self.fig2.actual[i],
                self.fig2.clean_pred.get(i).copied().unwrap_or(f64::NAN),
                self.fig2.attacked_pred.get(i).copied().unwrap_or(f64::NAN),
                self.fig2.filtered_pred.get(i).copied().unwrap_or(f64::NAN),
            );
        }
        out
    }

    /// Fig. 3: R² comparison of federated vs centralized on filtered data
    /// (bar-chart series, one pair per client).
    pub fn fig3_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FIG 3: R2, federated vs centralized LSTM on filtered data"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12}",
            "Client", "Federated", "Centralized"
        );
        for zone in ["102", "105", "108"] {
            let fed = self
                .result(Scenario::Filtered, Architecture::Federated)
                .and_then(|r| r.client(zone))
                .map(|c| c.r2)
                .unwrap_or(f64::NAN);
            let cen = self
                .result(Scenario::Filtered, Architecture::Centralized)
                .and_then(|r| r.client(zone))
                .map(|c| c.r2)
                .unwrap_or(f64::NAN);
            let _ = writeln!(out, "{:<10} {:>10.4} {:>12.4}", zone, fed, cen);
        }
        out
    }

    /// Headline block (paper abstract numbers).
    pub fn headline_text(&self) -> String {
        let h = self.headline();
        format!(
            "HEADLINE: R2 improvement (fed vs central, filtered) {:+.1}% | \
             attack-degradation recovery {:.1}% | overall precision {:.3} | \
             FPR {:.2}% | training-time reduction {:+.1}%",
            h.r2_improvement_pct,
            h.recovery_pct,
            h.overall_precision,
            h.fpr_pct,
            h.time_reduction_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("Mid"), Some(Scale::Mid));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn paper_config_uses_published_hyperparameters() {
        let cfg = StudyConfig::paper(1);
        assert_eq!(cfg.dataset.timestamps, 4344);
        assert_eq!(cfg.seq_len, 24);
        assert_eq!(cfg.lstm_units, 50);
        assert_eq!(cfg.rounds, 5);
        assert_eq!(cfg.epochs_per_round, 10);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.learning_rate, 0.001);
        assert_eq!(cfg.train_fraction, 0.8);
    }

    #[test]
    fn forecaster_matches_paper_architecture() {
        let m = build_forecaster(50, 0.001, 0);
        assert_eq!(m.layers().len(), 3);
        assert_eq!(m.scalar_param_count(), 51 * 200 + 200 + 510 + 11);
    }

    // The full end-to-end study is exercised by the integration tests and
    // bench binaries; here we check the report plumbing with a small run.
    #[test]
    fn small_study_produces_all_cells() {
        let mut cfg = StudyConfig::at_scale(Scale::Small, 11);
        // Shrink further for test speed.
        cfg.dataset.timestamps = 360;
        cfg.lstm_units = 6;
        cfg.rounds = 1;
        cfg.epochs_per_round = 1;
        cfg.filter.encoder_units = (6, 3);
        cfg.filter.epochs = 2;
        cfg.filter.train_stride = 4;
        let report = run_study(&cfg).expect("study");
        assert_eq!(report.scenarios.len(), 4);
        assert!(report
            .result(Scenario::Clean, Architecture::Federated)
            .is_some());
        assert!(report
            .result(Scenario::Filtered, Architecture::Centralized)
            .is_some());
        assert_eq!(report.detection.len(), 3);
        assert_eq!(report.fig2.actual.len(), report.fig2.clean_pred.len());

        let t1 = report.table1();
        assert!(t1.contains("Clean Data"));
        assert!(t1.contains("Centralized"));
        let t2 = report.table2();
        assert!(t2.contains("102") && t2.contains("FPR"));
        let t3 = report.table3();
        assert!(t3.contains("Client 3 (108)"));
        let f2 = report.fig2_text(5);
        assert!(f2.contains("R2 bars"));
        let f3 = report.fig3_text();
        assert!(f3.contains("Federated"));
        let h = report.headline_text();
        assert!(h.contains("precision"));

        // Report serialises (used by EXPERIMENTS.md tooling).
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("scenarios"));
    }
}

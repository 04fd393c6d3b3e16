//! The paper's experimental scenarios.

use crate::error::ForecastError;
use evfad_anomaly::{AnomalyFilter, DetectionReport, FilterConfig};
use evfad_attack::{AttackOutcome, DdosConfig, DdosInjector};
use evfad_data::ClientData;
use evfad_tensor::parallel;
use evfad_timeseries::MinMaxScaler;
use serde::{Deserialize, Serialize};

/// Data condition of an experiment (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Original, unmodified charging patterns.
    Clean,
    /// DDoS-like anomalies injected.
    Attacked,
    /// Attacks detected and mitigated through interpolation.
    Filtered,
}

impl Scenario {
    /// Paper-style label (`"Clean Data"` …).
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Clean => "Clean Data",
            Scenario::Attacked => "Attacked Data",
            Scenario::Filtered => "Filtered Data",
        }
    }
}

/// Learning architecture of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// Per-client models coordinated by FedAvg (paper §II-C2).
    Federated,
    /// One model trained on the pooled data (paper §II-C1).
    Centralized,
}

impl Architecture {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::Federated => "Federated",
            Architecture::Centralized => "Centralized",
        }
    }
}

/// All three data conditions for one client, plus detection ground truth
/// and quality.
#[derive(Debug, Clone)]
pub struct ClientScenarios {
    /// Zone label (`"102"` …).
    pub label: String,
    /// The clean series.
    pub clean: Vec<f64>,
    /// The attacked series.
    pub attacked: Vec<f64>,
    /// The filtered (detected + mitigated) series.
    pub filtered: Vec<f64>,
    /// Ground-truth attack labels.
    pub truth: Vec<bool>,
    /// Detector decisions on the attacked series.
    pub flags: Vec<bool>,
    /// Detection quality against ground truth.
    pub detection: DetectionReport,
}

impl ClientScenarios {
    /// The series for a given scenario.
    pub fn series(&self, scenario: Scenario) -> &[f64] {
        match scenario {
            Scenario::Clean => &self.clean,
            Scenario::Attacked => &self.attacked,
            Scenario::Filtered => &self.filtered,
        }
    }

    /// Builds the three scenarios for one client:
    ///
    /// 1. inject DDoS anomalies over the whole series;
    /// 2. train the anomaly filter on the (scaled) clean training split —
    ///    the paper trains "exclusively on normal (non-anomalous) data
    ///    segments";
    /// 3. detect on the (scaled) attacked series and mitigate.
    ///
    /// # Errors
    ///
    /// Propagates preparation/filter failures.
    pub fn build(
        client: &ClientData,
        injector: &DdosInjector,
        filter_config: FilterConfig,
        seed: u64,
    ) -> Result<Self, ForecastError> {
        let label = client.zone.label().to_string();
        let clean = client.demand.clone();
        let AttackOutcome {
            series: attacked,
            labels: truth,
            ..
        } = injector.inject(&clean, seed);

        // The paper scales each client's raw data per scenario (before the
        // train/test split) and trains the autoencoder "exclusively on
        // normal (non-anomalous) data segments" — ground truth its authors
        // had by construction, exactly as we do. So: scaler fitted on the
        // full attacked series (the observable data), autoencoder fitted on
        // the full clean series under that scaler.
        let scaler =
            MinMaxScaler::fit(&attacked).map_err(|e| ForecastError::Preparation(e.to_string()))?;
        let clean_scaled = scaler.transform(&clean);
        let attacked_scaled = scaler.transform(&attacked);

        let mut filter = AnomalyFilter::new(filter_config);
        filter
            .fit(&clean_scaled)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let detection = filter
            .try_detect(&attacked_scaled)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let filtered = filter
            .filter_anomalies(&attacked, &detection.flags)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let report = DetectionReport::from_flags(&truth, &detection.flags);
        Ok(Self {
            label,
            clean,
            attacked,
            filtered,
            truth,
            flags: detection.flags,
            detection: report,
        })
    }
}

/// Runs `job(0..count)` as independent jobs on the worker pool —
/// `parallel::threads()` at a time, on the calling thread alone when that
/// is one — and returns their results in index order.
pub(crate) fn fan_out<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    parallel::distribute(&mut slots, parallel::threads(), |i, slot| {
        *slot = Some(job(i));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("distribute visits every slot"))
        .collect()
}

/// Convenience: builds [`ClientScenarios`] for every client with derived
/// per-client seeds. Each client's detector is fitted on that client's
/// data alone, so the clients are built as independent jobs on the worker
/// pool; the result does not depend on how many run at once.
///
/// # Errors
///
/// Propagates the failure of the lowest-index client that failed.
pub fn build_all(
    clients: &[ClientData],
    attack: &DdosConfig,
    filter_config: &FilterConfig,
    seed: u64,
) -> Result<Vec<ClientScenarios>, ForecastError> {
    let injector = DdosInjector::new(attack.clone());
    fan_out(clients.len(), |i| {
        let mut cfg = filter_config.clone();
        cfg.seed = seed.wrapping_add(1000 + i as u64);
        ClientScenarios::build(&clients[i], &injector, cfg, seed.wrapping_add(i as u64))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_data::{DatasetConfig, ShenzhenGenerator};

    fn tiny_client() -> ClientData {
        ShenzhenGenerator::new(DatasetConfig::small(400, 3)).generate_zone(evfad_data::Zone::Z102)
    }

    #[test]
    fn labels() {
        assert_eq!(Scenario::Clean.label(), "Clean Data");
        assert_eq!(Scenario::Attacked.label(), "Attacked Data");
        assert_eq!(Scenario::Filtered.label(), "Filtered Data");
        assert_eq!(Architecture::Federated.label(), "Federated");
        assert_eq!(Architecture::Centralized.label(), "Centralized");
    }

    #[test]
    fn build_produces_consistent_lengths() {
        let client = tiny_client();
        let scen =
            ClientScenarios::build(&client, &DdosInjector::default(), FilterConfig::fast(12), 1)
                .expect("build");
        let n = client.demand.len();
        assert_eq!(scen.clean.len(), n);
        assert_eq!(scen.attacked.len(), n);
        assert_eq!(scen.filtered.len(), n);
        assert_eq!(scen.truth.len(), n);
        assert_eq!(scen.flags.len(), n);
        assert_eq!(scen.detection.total(), n);
    }

    #[test]
    fn filtering_reduces_attack_damage() {
        let client = tiny_client();
        let scen =
            ClientScenarios::build(&client, &DdosInjector::default(), FilterConfig::fast(12), 2)
                .expect("build");
        let damage = |series: &[f64]| -> f64 {
            series
                .iter()
                .zip(&scen.clean)
                .map(|(a, c)| (a - c).abs())
                .sum()
        };
        let before = damage(&scen.attacked);
        let after = damage(&scen.filtered);
        assert!(before > 0.0);
        assert!(
            after < before,
            "filtering made things worse: {after} vs {before}"
        );
    }

    #[test]
    fn scenario_accessor_returns_right_series() {
        let client = tiny_client();
        let scen =
            ClientScenarios::build(&client, &DdosInjector::default(), FilterConfig::fast(12), 3)
                .expect("build");
        assert_eq!(scen.series(Scenario::Clean), &scen.clean[..]);
        assert_eq!(scen.series(Scenario::Attacked), &scen.attacked[..]);
        assert_eq!(scen.series(Scenario::Filtered), &scen.filtered[..]);
    }

    #[test]
    fn build_all_gives_one_per_client() {
        let clients = ShenzhenGenerator::new(DatasetConfig::small(400, 5)).generate_all();
        let scens = build_all(
            &clients,
            &evfad_attack::DdosConfig::default(),
            &FilterConfig::fast(12),
            7,
        )
        .expect("build_all");
        assert_eq!(scens.len(), 3);
        assert_eq!(scens[0].label, "102");
        assert_eq!(scens[2].label, "108");
    }
}

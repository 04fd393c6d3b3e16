//! The paper's experimental scenarios.

use crate::counts::{ArenaCounts, DetectorCounts};
use crate::error::ForecastError;
use evfad_anomaly::{merge_segments, AnomalyFilter, DetectionReport, FilterConfig};
use evfad_attack::{AttackOutcome, DdosConfig, DdosInjector};
use evfad_data::ClientData;
use evfad_nn::TrainCounts;
use evfad_tensor::parallel;
use evfad_timeseries::MinMaxScaler;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    fn build(
        client: &ClientData,
        injector: &DdosInjector,
        filter_config: FilterConfig,
        seed: u64,
    ) -> Result<Self, ForecastError> {
        let injected = Injected::new(client, injector, seed);
        let detected = injected.detect(filter_config)?;
        Ok(Self {
            label: injected.label,
            clean: injected.clean,
            attacked: injected.attacked,
            filtered: detected.filtered,
            truth: injected.truth,
            flags: detected.flags,
            detection: detected.detection,
        })
    }
}

/// Step 1 of [`ClientScenarios::build`]: a client's clean and attacked
/// series, all the clean and attacked scenarios need.
pub(crate) struct Injected {
    pub(crate) label: String,
    pub(crate) clean: Vec<f64>,
    pub(crate) attacked: Vec<f64>,
    truth: Vec<bool>,
}

/// Steps 2–3 of [`ClientScenarios::build`]: what the client's detector adds.
pub(crate) struct Detected {
    pub(crate) filtered: Vec<f64>,
    flags: Vec<bool>,
    pub(crate) detection: DetectionReport,
    /// The autoencoder's optimizer steps and the windows they ran over.
    pub(crate) trained: TrainCounts,
    pub(crate) counts: DetectorCounts,
    /// The autoencoder's arena at its training batch.
    pub(crate) arena: ArenaCounts,
}

impl Injected {
    pub(crate) fn new(client: &ClientData, injector: &DdosInjector, seed: u64) -> Self {
        let clean = client.demand.clone();
        let AttackOutcome {
            series: attacked,
            labels: truth,
            ..
        } = injector.inject(&clean, seed);
        Self {
            label: client.zone.label().to_string(),
            clean,
            attacked,
            truth,
        }
    }

    pub(crate) fn detect(&self, filter_config: FilterConfig) -> Result<Detected, ForecastError> {
        // The paper scales each client's raw data per scenario (before the
        // train/test split) and trains the autoencoder "exclusively on
        // normal (non-anomalous) data segments" — ground truth its authors
        // had by construction, exactly as we do. So: scaler fitted on the
        // full attacked series (the observable data), autoencoder fitted on
        // the full clean series under that scaler.
        let scaler = MinMaxScaler::fit(&self.attacked)
            .map_err(|e| ForecastError::Preparation(e.to_string()))?;
        let clean_scaled = scaler.transform(&self.clean);
        let attacked_scaled = scaler.transform(&self.attacked);

        let mut filter = AnomalyFilter::new(filter_config);
        filter
            .fit(&clean_scaled)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let detection = filter
            .try_detect(&attacked_scaled)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let filtered = filter
            .filter_anomalies(&self.attacked, &detection.flags)
            .map_err(|e| ForecastError::Anomaly(e.to_string()))?;
        let model = filter.model().expect("fitted above");
        let config = filter.config();
        let replaced = merge_segments(&detection.flags, config.max_gap);
        let counts = DetectorCounts {
            windows_scored: filter.windows_scored(),
            flagged: detection.flags.iter().filter(|&&f| f).count(),
            interpolated: replaced.iter().filter(|&&m| m).count(),
            left: self
                .truth
                .iter()
                .zip(&replaced)
                .filter(|&(&t, &m)| t && !m)
                .count(),
        };
        Ok(Detected {
            filtered,
            detection: DetectionReport::from_flags(&self.truth, &detection.flags),
            flags: detection.flags,
            trained: model.train_counts(),
            counts,
            arena: ArenaCounts::of("autoencoder", model, config.seq_len, config.batch_size),
        })
    }
}

/// Client `i`'s filter configuration and attack seed under the study seed.
pub(crate) fn client_seeds(
    filter_config: &FilterConfig,
    seed: u64,
    i: usize,
) -> (FilterConfig, u64) {
    let mut cfg = filter_config.clone();
    cfg.seed = seed.wrapping_add(1000 + i as u64);
    (cfg, seed.wrapping_add(i as u64))
}

/// Runs `job(0..count)` on the worker pool and returns the results in index
/// order.
///
/// `min(parallel::threads(), count)` runners share one
/// `parallel::distribute`; each takes the next unclaimed index from a shared
/// cursor, runs it, and comes back for another until none is left. So at
/// most that many jobs are live at once, a runner that finishes early takes
/// the next job instead of idling, and at width one it is the plain loop
/// over `0..count` on the calling thread.
///
/// Claims happen in index order, which is what makes waiting safe: a job may
/// block until *lower-indexed* jobs are done (a [`Gate`]). Every one of
/// those was claimed before it, and a runner starts what it claims at once,
/// so each is running on another runner or finished, and the
/// lowest-indexed unfinished job waits on nobody. No width can deadlock. A
/// waiting job keeps its runner, so it still counts against the width.
///
/// A panic ends its runner and reaches the caller once the other runners
/// are done, as `distribute` re-raises it; the jobs still unclaimed then
/// are never run.
pub(crate) fn fan_out<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let mut runners = vec![(); parallel::threads().min(count)];
    let width = runners.len();
    parallel::distribute(&mut runners, width, |_, ()| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let result = job(i);
        *slot.lock().expect("a slot is only locked to store") = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is only locked to store")
                .expect("every job was claimed and ran")
        })
        .collect()
}

/// Opens once a fixed number of [`fan_out`] jobs have left it; a later job
/// waits on it for their outputs.
pub(crate) struct Gate {
    open_after: Mutex<usize>,
    opened: Condvar,
}

impl Gate {
    pub(crate) fn new(jobs: usize) -> Self {
        Self {
            open_after: Mutex::new(jobs),
            opened: Condvar::new(),
        }
    }

    /// Counts the calling job out when the guard drops: on its return, on
    /// its error and on its panic alike, so a waiter never outlives a
    /// failure.
    pub(crate) fn leave_on_drop(&self) -> Leave<'_> {
        Leave(self)
    }

    /// Blocks until every counted job has left.
    pub(crate) fn wait(&self) {
        let mut left = self.lock();
        while *left > 0 {
            left = self
                .opened
                .wait(left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The count is valid after every update, so a poisoned lock is taken
    /// as it is: `Leave::drop` runs during unwinding and must not panic.
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.open_after
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// See [`Gate::leave_on_drop`].
pub(crate) struct Leave<'a>(&'a Gate);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut left = self.0.lock();
        *left -= 1;
        if *left == 0 {
            self.0.opened.notify_all();
        }
    }
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
        let (cfg, attack_seed) = client_seeds(filter_config, seed, i);
        ClientScenarios::build(&clients[i], &injector, cfg, attack_seed)
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

    /// Job 0 panics while job 1 waits on it through a gate: the dispatch
    /// still returns, with job 0's panic, and never has more jobs live than
    /// runners.
    #[test]
    fn a_panicking_job_releases_its_waiter_at_every_width() {
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        const JOBS: usize = 5;
        for width in [1, 2, 3] {
            let gate = Gate::new(1);
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (job_1_waits, waiting) = std::sync::mpsc::channel();
            let waiting = Mutex::new(waiting);
            parallel::set_threads(width);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out(JOBS, |i| {
                    peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    let _live = Live(&live);
                    match i {
                        0 => {
                            let _leave = gate.leave_on_drop();
                            // Fail once job 1 is at the gate. At width 1 it
                            // runs after job 0, and with no idle pool thread
                            // (a one-CPU host) not beside it, hence the bound.
                            if width > 1 {
                                let waiting = waiting.lock().expect("one receiver");
                                let _ = waiting.recv_timeout(std::time::Duration::from_secs(2));
                            }
                            panic!("job 0 fails");
                        }
                        1 => {
                            job_1_waits.send(()).expect("job 0 holds the receiver");
                            gate.wait();
                        }
                        _ => {}
                    }
                })
            }));
            parallel::set_threads(0);
            let payload = outcome.expect_err("job 0's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"job 0 fails"),
                "width {width}"
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= width.min(JOBS), "{peak} jobs live at width {width}");
        }
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

//! Round orchestration: broadcast → parallel local training → fault
//! model → aggregate.

use crate::aggregate::Aggregator;
use crate::client::{FedClient, LocalUpdate};
use crate::compression::CompressionMode;
use crate::engine::{self, Admitted, PoolUpdate, RoundPool, TrafficTotals};
use crate::error::FederatedError;
use crate::faults::{FaultEvent, FaultPlan};
use crate::scheduler::Scheduler;
use evfad_nn::{Sample, Sequential, TrainConfig};
use evfad_tensor::{parallel, Matrix};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Schedule and behaviour of a federated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedConfig {
    /// Number of communication rounds (paper: 5).
    pub rounds: usize,
    /// Local epochs per round (paper: 10).
    pub epochs_per_round: usize,
    /// Local mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Aggregation rule (paper: FedAvg).
    pub aggregator: Aggregator,
    /// Train a round's clients as jobs on the tensor worker pool, at most
    /// `parallel::threads()` at a time (the distributed-hardware model;
    /// disable to train them one after another on the calling thread).
    /// Client fits are jobs on the same pool their kernels dispatch to, so
    /// concurrency never exceeds the pool's width, which the caller sets
    /// with `parallel::set_threads`. Results are bitwise identical at every
    /// width — see `evfad_tensor::parallel`.
    pub parallel: bool,
    /// Fraction of clients participating per round in `(0, 1]`. At least
    /// one client always participates. Models node downtime — the paper's
    /// §III-F resilience claim.
    pub participation: f64,
    /// Seed for the per-round participant sampling.
    pub sampling_seed: u64,
    /// Optional fault model applied on top of participant sampling:
    /// drop-outs, stragglers (with an optional server-side round timeout),
    /// update corruption, and transient upload failures with retry/backoff.
    /// `None` (the default) runs the fault-free protocol.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Uplink encoding for client updates (see [`CompressionMode`]).
    /// The server decodes the payload before aggregation, so metering,
    /// faults, and aggregation all see the same bytes. The default
    /// [`CompressionMode::None`] is bit-exact — results are identical to
    /// an uncompressed run.
    #[serde(default)]
    pub compression: CompressionMode,
}

impl FederatedConfig {
    /// Validates the schedule before any training starts.
    ///
    /// `run()` calls this with the registered client count; call it
    /// directly to fail fast when configs come from users or files.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InvalidConfig`] naming the offending field when a
    /// knob is out of range: zero `rounds`/`epochs_per_round`/`batch_size`,
    /// `participation` outside `(0, 1]` (NaN included), Krum with fewer
    /// than `f + 3` clients sampled a round, or an invalid [`FaultPlan`]
    /// (including a `min_participants` larger than the client count). Krum
    /// still checks its count when it aggregates, since drop-outs can starve
    /// a round.
    pub fn validate(&self, client_count: usize) -> Result<(), FederatedError> {
        let bad = |field: &str, message: String| FederatedError::InvalidConfig {
            field: field.to_string(),
            message,
        };
        if self.rounds == 0 {
            return Err(bad("rounds", "must be at least 1".to_string()));
        }
        if self.epochs_per_round == 0 {
            return Err(bad("epochs_per_round", "must be at least 1".to_string()));
        }
        if self.batch_size == 0 {
            return Err(bad("batch_size", "must be at least 1".to_string()));
        }
        if !(self.participation > 0.0 && self.participation <= 1.0) {
            return Err(bad(
                "participation",
                format!("must be in (0, 1], got {}", self.participation),
            ));
        }
        if let Aggregator::Krum { byzantine } = self.aggregator {
            let sampled =
                Scheduler::new(self.participation, self.sampling_seed).take_count(client_count);
            if sampled < byzantine + 3 {
                return Err(bad(
                    "aggregator",
                    format!(
                        "Krum with f = {byzantine} needs at least f + 3 = {} clients a round, \
                         but {sampled} of {client_count} are sampled",
                        byzantine + 3
                    ),
                ));
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
            if plan.min_participants > client_count {
                return Err(bad(
                    "faults.min_participants",
                    format!(
                        "requires {} surviving clients but only {client_count} are registered",
                        plan.min_participants
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl Default for FederatedConfig {
    fn default() -> Self {
        Self {
            rounds: 5,
            epochs_per_round: 10,
            batch_size: 32,
            aggregator: Aggregator::FedAvg,
            parallel: true,
            participation: 1.0,
            sampling_seed: 0,
            faults: None,
            compression: CompressionMode::None,
        }
    }
}

/// Statistics for one communication round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Zero-based round index.
    pub round: usize,
    /// Ids of the clients that participated this round.
    pub participants: Vec<String>,
    /// Final local training loss per participating client.
    pub client_losses: Vec<f64>,
    /// Per-client local-training seconds (client order). On truly
    /// distributed hardware a round lasts as long as its slowest client.
    pub client_seconds: Vec<f64>,
    /// Per-client *simulated* extra seconds (straggler delay plus retry
    /// backoff) injected by the fault model, aligned with
    /// [`RoundStats::participants`]. All zeros on a fault-free run.
    #[serde(default)]
    pub client_extra_seconds: Vec<f64>,
    /// Simulated seconds the server spent waiting for updates that then
    /// timed out (the round timeout, if any straggler exceeded it). Zero
    /// when nothing timed out.
    #[serde(default)]
    pub timeout_wait_seconds: f64,
    /// Fault events injected this round (drop-outs, delays, corruption,
    /// retries), in deterministic client order. Empty on a clean round.
    #[serde(default)]
    pub faults: Vec<FaultEvent>,
    /// Client→server bytes this round — the exact wire size of every
    /// uplink payload that crossed the channel, retries included.
    /// Deterministic: a pure function of configuration and seeds.
    #[serde(default)]
    pub uplink_bytes: usize,
    /// Server→client bytes this round: the once-per-round broadcast
    /// encoding, metered per receiving client. Zero in round 0 (clients
    /// start from the shared initialisation). Deterministic.
    #[serde(default)]
    pub downlink_bytes: usize,
    /// Client→server payloads this round: every upload that crossed the
    /// channel, wasted ones and retries included. Deterministic.
    #[serde(default)]
    pub uplink_messages: usize,
    /// Server→client payloads this round: one broadcast per registered
    /// client, none in round 0. Deterministic.
    #[serde(default)]
    pub downlink_messages: usize,
    /// Uplink compression ratio this round: full-precision wire bytes the
    /// same payloads would have cost, divided by [`RoundStats::uplink_bytes`].
    /// Exactly 1.0 under [`CompressionMode::None`] (and when nothing was
    /// uplinked). Deterministic.
    #[serde(default)]
    pub compression_ratio: f64,
    /// Wall-clock duration of the round (broadcast + training + aggregate)
    /// on *this* host.
    #[serde(skip, default)]
    pub duration: Duration,
}

/// Result of a completed federated run.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// The final aggregated global weights.
    pub global_weights: Vec<Matrix>,
    /// Total wall-clock training time.
    pub total_duration: Duration,
    /// Bytes/messages exchanged (client→server updates and
    /// server→client broadcasts).
    pub traffic: TrafficTotals,
}

impl FederatedOutcome {
    /// Training time the federation would take on truly distributed
    /// hardware: each round lasts as long as its slowest client —
    /// including simulated straggler delay and retry backoff, floored at
    /// the round-timeout wait when a straggler was cut off — and rounds
    /// run back to back. (On a single-core simulation host the wall clock
    /// in [`FederatedOutcome::total_duration`] serialises the clients and
    /// hides the parallelism the paper measures.)
    pub fn simulated_distributed_seconds(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| {
                let slowest = r
                    .client_seconds
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s + r.client_extra_seconds.get(i).copied().unwrap_or(0.0))
                    .fold(0.0_f64, f64::max);
                slowest.max(r.timeout_wait_seconds)
            })
            .sum()
    }

    /// All fault events across all rounds, in (round, client) order.
    pub fn fault_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.rounds.iter().flat_map(|r| r.faults.iter())
    }

    /// Deterministic fingerprint of the run: everything the protocol
    /// decides, nothing the wall clock does. Two runs of the same
    /// configuration (same seeds, same fault plan) produce digests that
    /// serialise to byte-identical JSON — the digest every row of the
    /// equivalence matrix (`tests/equivalence.rs`) compares.
    pub fn digest(&self) -> OutcomeDigest {
        OutcomeDigest {
            weights_checksum: format!(
                "{:016x}",
                crate::wire::weights_checksum(&self.global_weights)
            ),
            messages: self.traffic.messages,
            bytes: self.traffic.bytes,
            retries: self.traffic.retries,
            rounds: self
                .rounds
                .iter()
                .map(|r| RoundDigest {
                    round: r.round,
                    participants: r.participants.clone(),
                    client_losses: r.client_losses.clone(),
                    client_extra_seconds: r.client_extra_seconds.clone(),
                    timeout_wait_seconds: r.timeout_wait_seconds,
                    faults: r.faults.clone(),
                    uplink_bytes: r.uplink_bytes,
                    downlink_bytes: r.downlink_bytes,
                    compression_ratio: r.compression_ratio,
                })
                .collect(),
        }
    }
}

/// The deterministic slice of a [`FederatedOutcome`] — see
/// [`FederatedOutcome::digest`]. Wall-clock fields (`duration`,
/// `client_seconds`) are deliberately absent: they vary run to run, while
/// everything here is a pure function of configuration and seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeDigest {
    /// FNV-1a checksum of the binary-encoded final global weights
    /// (see [`crate::wire::weights_checksum`]), as 16 lowercase hex digits.
    pub weights_checksum: String,
    /// Total messages exchanged, retries included.
    pub messages: usize,
    /// Total serialised bytes exchanged.
    pub bytes: usize,
    /// Retry messages among `messages`.
    pub retries: usize,
    /// Per-round deterministic stats.
    pub rounds: Vec<RoundDigest>,
}

/// Per-round slice of an [`OutcomeDigest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundDigest {
    /// Zero-based round index.
    pub round: usize,
    /// Clients whose updates were aggregated.
    pub participants: Vec<String>,
    /// Final local losses, aligned with `participants`.
    pub client_losses: Vec<f64>,
    /// Simulated extra seconds (delay + backoff), aligned with
    /// `participants`.
    pub client_extra_seconds: Vec<f64>,
    /// Simulated server wait for timed-out stragglers.
    pub timeout_wait_seconds: f64,
    /// Fault events injected this round.
    pub faults: Vec<FaultEvent>,
    /// Client→server wire bytes this round, retries included.
    #[serde(default)]
    pub uplink_bytes: usize,
    /// Server→client broadcast wire bytes this round.
    #[serde(default)]
    pub downlink_bytes: usize,
    /// Full-precision bytes over actual uplink bytes (1.0 uncompressed).
    #[serde(default)]
    pub compression_ratio: f64,
}

/// Orchestrates FedAvg-style training over in-process clients.
///
/// The schedule follows the paper: each round the server broadcasts the
/// global weights, every client trains `EPOCHS_PER_ROUND` local epochs in
/// parallel, and the server aggregates the updates. After `run()` returns,
/// each client's model holds its **locally trained** weights from the final
/// round (the personalised read-out used for the paper's per-client
/// evaluation) while [`FederatedOutcome::global_weights`] holds the final
/// aggregate (the global read-out).
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct FederatedSimulation {
    template: Sequential,
    config: FederatedConfig,
    clients: Vec<FedClient>,
}

impl FederatedSimulation {
    /// Creates a simulation from a model template; every client gets an
    /// identical copy (identical initial weights, as in the paper).
    pub fn new(template: Sequential, config: FederatedConfig) -> Self {
        Self {
            template,
            config,
            clients: Vec::new(),
        }
    }

    /// Adds a client holding `samples` as its private dataset.
    pub fn add_client(&mut self, id: impl Into<String>, samples: Vec<Sample>) {
        let model = self.template.clone();
        self.clients.push(FedClient::new(id, model, samples));
    }

    /// The configured schedule.
    pub fn config(&self) -> &FederatedConfig {
        &self.config
    }

    /// Borrow of the clients (after `run()`, their models hold the
    /// final-round locally-trained weights).
    pub fn clients(&self) -> &[FedClient] {
        &self.clients
    }

    /// Mutable borrow of the clients.
    pub fn clients_mut(&mut self) -> &mut [FedClient] {
        &mut self.clients
    }

    /// Runs the full schedule.
    ///
    /// When [`FederatedConfig::faults`] is set the round degrades
    /// gracefully: dropped-out clients are skipped, stragglers past the
    /// round timeout are excluded from aggregation (their late upload is
    /// still metered), corrupted updates are aggregated as transmitted
    /// (Krum is the defence, not the server), and transient
    /// upload failures are retried with exponential backoff up to the
    /// plan's budget. The round aborts with
    /// [`FederatedError::InsufficientParticipants`] only when fewer than
    /// `min_participants` usable updates survive.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::NoClients`] when no client was added;
    /// * [`FederatedError::InvalidConfig`] from up-front validation
    ///   (see [`FederatedConfig::validate`]);
    /// * [`FederatedError::InsufficientParticipants`] when the fault model
    ///   starves a round;
    /// * client-training and aggregation errors are propagated.
    pub fn run(&mut self) -> Result<FederatedOutcome, FederatedError> {
        if self.clients.is_empty() {
            return Err(FederatedError::NoClients);
        }
        self.config.validate(self.clients.len())?;
        let global = self.template.weights();
        let mut pool = InProcessPool {
            clients: &mut self.clients,
            parallel: self.config.parallel,
            train_cfg: TrainConfig {
                epochs: self.config.epochs_per_round,
                batch_size: self.config.batch_size,
                ..TrainConfig::default()
            },
        };
        engine::run_rounds(&mut pool, &self.config, global)
    }

    /// Builds a fresh model carrying the given weights (e.g. the final
    /// global aggregate) for evaluation.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Aggregation`] if the weights do not fit the
    /// template architecture.
    pub fn model_with_weights(&self, weights: &[Matrix]) -> Result<Sequential, FederatedError> {
        let mut model = self.template.clone();
        model
            .set_weights(weights)
            .map_err(|e| FederatedError::Aggregation(e.to_string()))?;
        Ok(model)
    }
}

/// The in-process [`RoundPool`]: trains [`FedClient`]s as pool jobs.
/// Faults are left to the engine's fold (`faults_in_transit` = false).
struct InProcessPool<'a> {
    clients: &'a mut [FedClient],
    parallel: bool,
    train_cfg: TrainConfig,
}

impl RoundPool for InProcessPool<'_> {
    fn client_count(&self) -> usize {
        self.clients.len()
    }

    fn client_id(&self, ci: usize) -> &str {
        self.clients[ci].id()
    }

    fn broadcast(&mut self, global: &[Matrix]) -> Result<(), FederatedError> {
        for client in self.clients.iter_mut() {
            client.receive_global(global)?;
        }
        Ok(())
    }

    fn round_updates(
        &mut self,
        _round: usize,
        admitted: &[Admitted],
        _global: &[Matrix],
    ) -> Result<Vec<PoolUpdate>, FederatedError> {
        let cfg = &self.train_cfg;
        // Admission keeps the sampler's sorted order, so the selection is a
        // single merge-walk over the client list — no per-round hash set,
        // no filter scan.
        debug_assert!(admitted.windows(2).all(|w| w[0].index < w[1].index));
        let mut next = 0;
        let selected: Vec<&mut FedClient> = self
            .clients
            .iter_mut()
            .enumerate()
            .filter_map(|(i, client)| {
                if next < admitted.len() && admitted[next].index == i {
                    next += 1;
                    Some(client)
                } else {
                    None
                }
            })
            .collect();
        let updates: Result<Vec<LocalUpdate>, FederatedError> = if self.parallel {
            // One pool job per chunk of clients; every selected client
            // trains, and collecting in admission order returns the
            // lowest-index client's error, as the serial arm would.
            let mut slots: Vec<(&mut FedClient, Option<_>)> =
                selected.into_iter().map(|client| (client, None)).collect();
            parallel::distribute(&mut slots, parallel::threads(), |_, (client, result)| {
                *result = Some(client.train_local(cfg));
            });
            slots
                .into_iter()
                .map(|(_, result)| result.expect("distribute visits every slot"))
                .collect()
        } else {
            selected
                .into_iter()
                .map(|client| client.train_local(cfg))
                .collect()
        };
        let local = |update| PoolUpdate {
            update,
            received: None,
        };
        Ok(updates?.into_iter().map(local).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultOutcome};
    use evfad_nn::{forecaster_model, Loss};

    fn sine_samples(n: usize, phase: f64) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = (0..6)
                    .map(|t| ((i + t) as f64 * 0.5 + phase).sin())
                    .collect();
                Sample::new(
                    Matrix::column_vector(&xs),
                    Matrix::from_vec(1, 1, vec![((i + 6) as f64 * 0.5 + phase).sin()]),
                )
            })
            .collect()
    }

    fn small_sim(parallel: bool) -> FederatedSimulation {
        let cfg = FederatedConfig {
            rounds: 2,
            epochs_per_round: 2,
            batch_size: 16,
            parallel,
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(forecaster_model(4, 3), cfg);
        sim.add_client("z102", sine_samples(32, 0.0));
        sim.add_client("z105", sine_samples(32, 0.8));
        sim.add_client("z108", sine_samples(32, 1.6));
        sim
    }

    #[test]
    fn runs_all_rounds() {
        let mut sim = small_sim(false);
        let out = sim.run().expect("run");
        assert_eq!(out.rounds.len(), 2);
        assert_eq!(out.rounds[0].client_losses.len(), 3);
        assert!(out.global_weights.iter().all(Matrix::is_finite));
    }

    #[test]
    fn no_clients_is_an_error() {
        let mut sim = FederatedSimulation::new(forecaster_model(4, 3), FederatedConfig::default());
        assert_eq!(sim.run().unwrap_err(), FederatedError::NoClients);
    }

    #[test]
    fn both_arms_name_the_first_failing_client() {
        // Two clients with nothing to fit on: both arms name the first,
        // whichever pool job finishes first.
        let failing = |parallel: bool| {
            let mut sim = small_sim(parallel);
            sim.add_client("z109", Vec::new());
            sim.add_client("z110", Vec::new());
            sim.run().expect_err("an empty client cannot fit")
        };
        let serial = failing(false);
        assert!(
            matches!(&serial, FederatedError::ClientTraining { client, .. } if client == "z109"),
            "{serial:?}"
        );
        assert_eq!(serial, failing(true));
    }

    #[test]
    fn traffic_counts_updates_and_broadcasts() {
        let mut sim = small_sim(false);
        let out = sim.run().expect("run");
        // Round 0: 3 updates. Round 1: 3 broadcasts + 3 updates.
        assert_eq!(out.traffic.messages, 9);
        assert!(out.traffic.bytes > 0);
    }

    #[test]
    fn round_stats_account_every_byte() {
        let mut sim = small_sim(false);
        let out = sim.run().expect("run");
        let per_update = crate::wire::encoded_size(&out.global_weights);
        // Round 0: no broadcast, 3 uplinks. Round 1: 3 broadcasts + 3
        // uplinks, all full-precision payloads of identical shape.
        assert_eq!(out.rounds[0].downlink_bytes, 0);
        assert_eq!(out.rounds[0].uplink_bytes, 3 * per_update);
        assert_eq!(out.rounds[1].downlink_bytes, 3 * per_update);
        assert_eq!(out.rounds[1].uplink_bytes, 3 * per_update);
        // Per-round stats and run totals agree to the byte.
        let accounted: usize = out
            .rounds
            .iter()
            .map(|r| r.uplink_bytes + r.downlink_bytes)
            .sum();
        assert_eq!(accounted, out.traffic.bytes);
        for r in &out.rounds {
            assert_eq!(r.compression_ratio, 1.0, "None mode is ratio-1 exact");
        }
    }

    #[test]
    fn quant8_shrinks_the_uplink_about_8x() {
        let mut plain = small_sim(false);
        let plain_out = plain.run().expect("plain");
        let mut quant = small_sim(false);
        quant.config.compression = crate::compression::CompressionMode::Quant8;
        let quant_out = quant.run().expect("quant8");
        // The test model's tensors are tiny, so the fixed 28-byte
        // per-tensor quantized header eats into the 8x asymptotic ratio;
        // `compression::tests` pins 7.88x on the paper's LSTM(50).
        for (q, p) in quant_out.rounds.iter().zip(&plain_out.rounds) {
            assert!(
                q.compression_ratio > 3.0 && q.compression_ratio < 8.0,
                "round {} ratio {}",
                q.round,
                q.compression_ratio
            );
            assert!(q.uplink_bytes * 3 < p.uplink_bytes);
            // Downlink stays full precision — compression is uplink-only.
            assert_eq!(q.downlink_bytes, p.downlink_bytes);
        }
        // The aggregate sees dequantized (lossy) updates: close to the
        // plain run but not bitwise equal, and still finite.
        assert_ne!(quant_out.global_weights, plain_out.global_weights);
        assert!(quant_out.global_weights.iter().all(Matrix::is_finite));
    }

    #[test]
    fn compression_modes_preserve_message_counts() {
        // Compression changes payload *sizes*, never the protocol.
        let mut plain = small_sim(false);
        let plain_out = plain.run().expect("plain");
        let mut sim = small_sim(false);
        sim.config.compression = crate::compression::CompressionMode::Quant8;
        let out = sim.run().expect("compressed run");
        assert_eq!(out.traffic.messages, plain_out.traffic.messages);
        assert_eq!(out.traffic.retries, plain_out.traffic.retries);
        assert!(out.traffic.bytes < plain_out.traffic.bytes);
    }

    #[test]
    fn quant8_composes_with_nan_flood_corruption() {
        use crate::faults::{Corruption, FaultPlan, RoundSelector};
        let plan = FaultPlan::new(5).with_rule(
            "z105",
            RoundSelector::Every,
            FaultKind::Corrupt {
                corruption: Corruption::NanFlood,
            },
        );
        // The quantizer must carry the NaN payload faithfully: under
        // FedAvg the poison reaches and destroys the aggregate. One round
        // only — a second round refuses to broadcast the poisoned global
        // and surfaces as an aggregation error.
        let mut avg = small_sim(false);
        avg.config.rounds = 1;
        avg.config.compression = crate::compression::CompressionMode::Quant8;
        avg.config.faults = Some(plan.clone());
        let avg_out = avg.run().expect("no panic under NaN-flood + quant8");
        assert!(
            avg_out
                .global_weights
                .iter()
                .any(|m| m.as_slice().iter().any(|v| v.is_nan())),
            "quantization must not silently launder NaN poison"
        );
        // …while Krum contains it, exactly as uncompressed.
        let mut krum = small_sim(false);
        krum.config.aggregator = Aggregator::Krum { byzantine: 0 };
        krum.config.compression = crate::compression::CompressionMode::Quant8;
        krum.config.faults = Some(plan);
        let krum_out = krum.run().expect("krum run");
        assert!(krum_out.global_weights.iter().all(Matrix::is_finite));
    }

    #[test]
    fn identical_clients_keep_identical_weights() {
        // If every client holds the same data, local models stay in sync
        // and FedAvg equals each local model.
        let cfg = FederatedConfig {
            rounds: 2,
            epochs_per_round: 1,
            batch_size: 8,
            parallel: false,
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(forecaster_model(3, 5), cfg);
        sim.add_client("a", sine_samples(16, 0.0));
        sim.add_client("b", sine_samples(16, 0.0));
        let out = sim.run().expect("run");
        let wa = sim.clients()[0].model().weights();
        let wb = sim.clients()[1].model().weights();
        assert_eq!(wa, wb);
        for (g, l) in out.global_weights.iter().zip(&wa) {
            for (x, y) in g.as_slice().iter().zip(l.as_slice()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn federation_improves_over_initialisation() {
        let mut sim = small_sim(false);
        let test = sine_samples(32, 0.0);
        let mut init = forecaster_model(4, 3);
        let before = init.evaluate(&test, Loss::Mse);
        sim.run().expect("run");
        let after = sim.clients_mut()[0].evaluate(&test, Loss::Mse);
        assert!(after < before, "before={before} after={after}");
    }

    #[test]
    fn partial_participation_trains_a_subset() {
        let mut sim = small_sim(false);
        sim.config.participation = 0.34; // 1 of 3 clients per round
        let out = sim.run().expect("run");
        for r in &out.rounds {
            assert_eq!(r.participants.len(), 1);
            assert_eq!(r.client_losses.len(), 1);
        }
        // Different rounds may sample different clients.
        assert!(out.global_weights.iter().all(Matrix::is_finite));
    }

    #[test]
    fn round_records_allocate_exactly() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut partial = small_sim(false);
        partial.config.participation = 0.34;
        let mut dropping = small_sim(false);
        dropping.config.faults =
            Some(FaultPlan::new(3).with_rule("z105", RoundSelector::Every, FaultKind::DropOut));
        for mut sim in [small_sim(false), partial, dropping] {
            let out = sim.run().expect("run");
            for r in &out.rounds {
                assert_eq!(r.participants.capacity(), r.participants.len());
                assert_eq!(r.client_losses.capacity(), r.client_losses.len());
                assert_eq!(r.client_seconds.capacity(), r.client_seconds.len());
                assert_eq!(
                    r.client_extra_seconds.capacity(),
                    r.client_extra_seconds.len()
                );
            }
        }
    }

    #[test]
    fn full_participation_lists_everyone() {
        let mut sim = small_sim(false);
        let out = sim.run().expect("run");
        for r in &out.rounds {
            assert_eq!(r.participants.len(), 3);
        }
    }

    #[test]
    fn model_with_weights_round_trips() {
        let mut sim = small_sim(false);
        let out = sim.run().expect("run");
        let model = sim.model_with_weights(&out.global_weights).expect("fits");
        assert_eq!(model.weights(), out.global_weights);
        assert!(sim.model_with_weights(&[Matrix::zeros(1, 1)]).is_err());
    }

    #[test]
    fn invalid_participation_is_rejected_up_front() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let mut sim = small_sim(false);
            sim.config.participation = bad;
            match sim.run().unwrap_err() {
                FederatedError::InvalidConfig { field, .. } => {
                    assert_eq!(field, "participation", "for participation = {bad}");
                }
                other => panic!("expected InvalidConfig, got {other}"),
            }
        }
    }

    #[test]
    fn zero_schedule_knobs_are_rejected() {
        for (field, mutate) in [
            (
                "rounds",
                Box::new(|c: &mut FederatedConfig| c.rounds = 0) as Box<dyn Fn(&mut _)>,
            ),
            (
                "epochs_per_round",
                Box::new(|c: &mut FederatedConfig| c.epochs_per_round = 0),
            ),
            (
                "batch_size",
                Box::new(|c: &mut FederatedConfig| c.batch_size = 0),
            ),
        ] {
            let mut sim = small_sim(false);
            mutate(&mut sim.config);
            match sim.run().unwrap_err() {
                FederatedError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other}"),
            }
        }
    }

    #[test]
    fn min_participants_beyond_client_count_is_rejected() {
        let mut sim = small_sim(false);
        sim.config.faults = Some(crate::faults::FaultPlan::new(7).with_min_participants(4));
        assert!(matches!(
            sim.run().unwrap_err(),
            FederatedError::InvalidConfig { field, .. } if field == "faults.min_participants"
        ));
    }

    #[test]
    fn invalid_fault_plan_is_rejected_before_training() {
        let mut sim = small_sim(false);
        sim.config.faults = Some(crate::faults::FaultPlan::new(7).with_timeout(-1.0));
        assert!(matches!(
            sim.run().unwrap_err(),
            FederatedError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn dropped_client_is_excluded_and_logged() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut sim = small_sim(false);
        sim.config.faults =
            Some(FaultPlan::new(3).with_rule("z105", RoundSelector::Every, FaultKind::DropOut));
        let out = sim.run().expect("run");
        for r in &out.rounds {
            assert_eq!(r.participants, vec!["z102", "z108"]);
            assert_eq!(r.faults.len(), 1);
            assert_eq!(r.faults[0].client_id, "z105");
            assert_eq!(r.faults[0].outcome, FaultOutcome::Dropped);
        }
        assert_eq!(out.fault_events().count(), 2);
    }

    #[test]
    fn empty_fault_plan_matches_the_clean_run() {
        let mut clean = small_sim(false);
        let clean_out = clean.run().expect("clean");
        let mut nofaults = small_sim(false);
        nofaults.config.faults = Some(crate::faults::FaultPlan::new(99));
        let fault_out = nofaults.run().expect("empty plan");
        assert_eq!(clean_out.global_weights, fault_out.global_weights);
        assert_eq!(clean_out.traffic, fault_out.traffic);
        assert!(fault_out.fault_events().next().is_none());
    }

    #[test]
    fn starved_round_errors_cleanly() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut sim = small_sim(false);
        let mut plan = FaultPlan::new(1).with_min_participants(2);
        for id in ["z105", "z108"] {
            plan = plan.with_rule(id, RoundSelector::Every, FaultKind::DropOut);
        }
        sim.config.faults = Some(plan);
        assert_eq!(
            sim.run().unwrap_err(),
            FederatedError::InsufficientParticipants {
                round: 0,
                survivors: 1,
                required: 2,
            }
        );
    }

    #[test]
    fn straggler_delay_extends_simulated_time() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut clean = small_sim(false);
        let clean_out = clean.run().expect("clean");
        let mut slow = small_sim(false);
        slow.config.faults = Some(FaultPlan::new(5).with_rule(
            "z102",
            RoundSelector::Only { round: 1 },
            FaultKind::Straggler {
                delay_seconds: 100.0,
            },
        ));
        let out = slow.run().expect("straggler");
        // No timeout configured: the delayed update is still aggregated.
        assert_eq!(out.rounds[1].participants.len(), 3);
        assert_eq!(out.rounds[1].client_extra_seconds[0], 100.0);
        assert!(
            out.simulated_distributed_seconds() >= clean_out.simulated_distributed_seconds() + 99.0
        );
    }

    #[test]
    fn timed_out_straggler_is_metered_but_not_aggregated() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut clean = small_sim(false);
        let clean_out = clean.run().expect("clean");
        let mut sim = small_sim(false);
        sim.config.faults = Some(FaultPlan::new(5).with_timeout(10.0).with_rule(
            "z108",
            RoundSelector::Every,
            FaultKind::Straggler {
                delay_seconds: 50.0,
            },
        ));
        let out = sim.run().expect("timeout run");
        for r in &out.rounds {
            assert_eq!(r.participants, vec!["z102", "z105"]);
            assert_eq!(r.timeout_wait_seconds, 10.0);
            assert!(matches!(
                r.faults[0].outcome,
                FaultOutcome::TimedOut { delay_seconds, timeout_seconds }
                    if delay_seconds == 50.0 && timeout_seconds == 10.0
            ));
        }
        // The late upload still crossed the channel: same message count as
        // a clean run, fewer aggregated participants.
        assert_eq!(out.traffic.messages, clean_out.traffic.messages);
    }

    #[test]
    fn transient_retries_are_counted_in_traffic() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut clean = small_sim(false);
        let clean_out = clean.run().expect("clean");
        let mut sim = small_sim(false);
        sim.config.faults = Some(FaultPlan::new(5).with_retry(3, 0.5).with_rule(
            "z105",
            RoundSelector::Every,
            FaultKind::Transient { failures: 2 },
        ));
        let out = sim.run().expect("transient");
        // 2 extra sends per round × 2 rounds.
        assert_eq!(out.traffic.retries, 4);
        assert_eq!(out.traffic.messages, clean_out.traffic.messages + 4);
        assert_eq!(
            out.traffic.messages - out.traffic.retries,
            clean_out.traffic.messages
        );
        // Backoff 0.5 * (2^2 - 1) = 1.5 simulated seconds of extra wait.
        let r0 = &out.rounds[0];
        assert_eq!(r0.participants.len(), 3);
        assert_eq!(r0.client_extra_seconds[1], 1.5);
        assert!(matches!(
            r0.faults[0].outcome,
            FaultOutcome::Recovered { failed_attempts: 2, backoff_seconds } if backoff_seconds == 1.5
        ));
    }

    #[test]
    fn exhausted_retries_drop_the_update_but_meter_the_attempts() {
        use crate::faults::{FaultPlan, RoundSelector};
        let mut sim = small_sim(false);
        sim.config.faults = Some(FaultPlan::new(5).with_retry(1, 1.0).with_rule(
            "z105",
            RoundSelector::Only { round: 0 },
            FaultKind::Transient { failures: 5 },
        ));
        let out = sim.run().expect("exhausted");
        assert_eq!(out.rounds[0].participants, vec!["z102", "z108"]);
        assert!(matches!(
            out.rounds[0].faults[0].outcome,
            FaultOutcome::RetriesExhausted { failed_attempts: 2 }
        ));
        // budget 1 → initial + 1 retry metered.
        assert_eq!(out.traffic.retries, 1);
        assert_eq!(out.rounds[1].participants.len(), 3);
    }

    #[test]
    fn digest_is_reproducible_and_ignores_wall_clock() {
        use crate::faults::{FaultPlan, RoundSelector};
        let plan = FaultPlan::new(11)
            .with_retry(2, 1.0)
            .with_rule(
                "z105",
                RoundSelector::Probability { p: 0.5 },
                FaultKind::DropOut,
            )
            .with_rule(
                "z108",
                RoundSelector::Every,
                FaultKind::Transient { failures: 1 },
            );
        let run = |parallel: bool| {
            let mut sim = small_sim(parallel);
            sim.config.faults = Some(plan.clone());
            sim.run().expect("run").digest()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b);
        let ja = serde_json::to_vec(&a).expect("json");
        let jb = serde_json::to_vec(&b).expect("json");
        assert_eq!(ja, jb, "digest JSON must be byte-identical");
        assert_eq!(a.weights_checksum.len(), 16);
    }

    #[test]
    fn config_with_faults_serde_round_trips() {
        use crate::faults::{FaultPlan, RoundSelector};
        let cfg = FederatedConfig {
            faults: Some(FaultPlan::new(3).with_timeout(5.0).with_rule(
                "a",
                RoundSelector::From { round: 1 },
                FaultKind::Straggler { delay_seconds: 2.0 },
            )),
            ..FederatedConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: FederatedConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
        // A config written before `faults` and `compression` existed.
        let legacy: FederatedConfig = serde_json::from_str(
            r#"{"rounds":5,"epochs_per_round":10,"batch_size":32,"aggregator":"FedAvg",
                "parallel":true,"threads":0,"dp":null,"proximal_mu":0.0,
                "participation":1.0,"sampling_seed":0}"#,
        )
        .expect("legacy");
        assert_eq!(legacy, FederatedConfig::default());
    }
}

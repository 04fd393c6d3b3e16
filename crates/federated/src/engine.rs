//! The federated round protocol, written once for every driver.
//!
//! [`run_rounds`] (the in-process
//! [`FederatedSimulation`](crate::FederatedSimulation) and the TCP
//! [`SocketServer`](crate::SocketServer)) and
//! [`ScaleEngine::run`](crate::scale::ScaleEngine::run) call the same three
//! pieces each round:
//!
//! 1. [`admit`]: each sampled client, in sample order and before anyone
//!    trains, asks the [`FaultGate`]. A drop-out is counted (and logged);
//!    everyone else is admitted with the server's Keep/Waste verdict and
//!    routed to a [`Share`], whose update count and sample total size an
//!    accumulator before any payload exists.
//! 2. [`Fold::ingest`], per update in admission order: dispose of its fault,
//!    meter the payload at its exact wire length (encoding it here unless it
//!    crossed a real wire), and fold a kept update into its [`Accumulator`].
//! 3. [`Tally`]: the counters a fold keeps, which both [`RoundStats`] and
//!    [`ScaleRoundStats`](crate::scale::ScaleRoundStats) are built from. A
//!    run's [`TrafficTotals`] are its rounds' tallies plus their broadcasts.
//!
//! Only the source of updates differs. A [`RoundPool`] trains (in-process)
//! or collects (TCP) its admitted clients' updates; a socket client reports
//! its sample count with its update, so `run_rounds` sizes the accumulator
//! from the kept updates — FedAvg streams and Krum collects for its batch
//! rule. The scale engine synthesises its updates shard by shard, streams
//! FedAvg and logs nothing per client; its edge→root hop is
//! one more admission and fold, over the shard partials, under the edge
//! plan's gate. Because every protocol decision lives here, the socket
//! digest is the in-process digest by construction; the equivalence matrix
//! pins it anyway.

use crate::aggregate::Aggregator;
use crate::client::LocalUpdate;
use crate::compression::{CompressionMode, QuantizedUpdate};
use crate::error::FederatedError;
use crate::faults::{FaultEvent, FaultKind, FaultOutcome};
use crate::scheduler::Scheduler;
use crate::server::{Disposition, FaultGate};
use crate::simulation::{FederatedConfig, FederatedOutcome, RoundStats};
use crate::streaming::{bad_payload, StreamingAggregator, StreamingFedAvg};
use crate::wire;
use bytes::{Bytes, BytesMut};
use evfad_tensor::Matrix;
use std::time::Instant;

/// A client admitted to a round: its index in the update source, the fault
/// it acts out after training, and the server's verdict on its update.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admitted {
    pub(crate) index: usize,
    pub(crate) fault: Option<FaultKind>,
    pub(crate) disposition: Disposition,
}

impl Admitted {
    /// Whether the server aggregates this client's update.
    pub(crate) fn keeps(&self) -> bool {
        matches!(self.disposition, Disposition::Keep { .. })
    }
}

/// One accumulator's part of a round's admission.
#[derive(Debug, Clone, Default)]
pub(crate) struct Share {
    /// Admitted clients in sample order, kept and wasted alike: both upload.
    pub(crate) members: Vec<Admitted>,
    /// Members the server keeps: the accumulator's expected update count.
    pub(crate) kept: usize,
    /// Their routed sample counts, summed as f64 in member order — the
    /// total the batch FedAvg computes.
    pub(crate) samples: f64,
}

/// A round's admission: one [`Share`] per accumulator, and the drop-outs.
#[derive(Debug)]
pub(crate) struct Admission {
    pub(crate) shares: Vec<Share>,
    pub(crate) dropped: usize,
}

impl Admission {
    /// Updates the round will aggregate, over every share.
    pub(crate) fn kept(&self) -> usize {
        self.shares.iter().map(|share| share.kept).sum()
    }
}

/// The admission pre-pass over `sampled`, serially and in order, before any
/// client trains: fault decisions never depend on thread scheduling or
/// network arrival order. `route` writes a client's id into the buffer it
/// is given and returns the share its update folds into and the sample
/// count that share's FedAvg weighs it by. Drop-outs are logged into `log`
/// when one is given.
pub(crate) fn admit(
    gate: &FaultGate,
    round: usize,
    sampled: impl IntoIterator<Item = usize>,
    shares: usize,
    mut route: impl FnMut(usize, &mut String) -> (usize, usize),
    mut log: Option<&mut Vec<FaultEvent>>,
) -> Admission {
    let mut admission = Admission {
        shares: vec![Share::default(); shares],
        dropped: 0,
    };
    let mut id = String::new();
    for index in sampled {
        id.clear();
        let (share, samples) = route(index, &mut id);
        let Some((fault, disposition)) = gate.admit(round, &id) else {
            admission.dropped += 1;
            if let Some(log) = log.as_deref_mut() {
                log.push(FaultEvent {
                    round,
                    client_id: id.clone(),
                    fault: FaultKind::DropOut,
                    outcome: FaultOutcome::Dropped,
                });
            }
            continue;
        };
        let share = &mut admission.shares[share];
        let admitted = Admitted {
            index,
            fault,
            disposition,
        };
        if admitted.keeps() {
            share.kept += 1;
            share.samples += samples as f64;
        }
        share.members.push(admitted);
    }
    admission
}

/// Where a fold's kept updates go: FedAvg streams them, Krum collects them
/// for its batch rule.
pub(crate) struct Accumulator {
    rule: Aggregator,
    stream: Option<StreamingFedAvg>,
    /// The kept updates, as the server decoded them, when collecting.
    kept: Vec<LocalUpdate>,
    /// Largest streaming state seen after an ingest.
    pub(crate) peak_state: usize,
}

impl Accumulator {
    /// An accumulator for `expected` kept updates whose sample counts sum
    /// to `samples`.
    pub(crate) fn new(rule: Aggregator, expected: usize, samples: f64) -> Self {
        Self {
            rule,
            stream: (rule == Aggregator::FedAvg).then(|| StreamingFedAvg::new(samples, expected)),
            kept: Vec::new(),
            peak_state: 0,
        }
    }

    /// Folds one kept update. `quantized` is its `EVQ8` payload, when it
    /// has one: a stream folds the payload itself (bitwise
    /// decode-then-ingest), a collector decodes it into the update's
    /// weights once.
    fn ingest(
        &mut self,
        update: &mut LocalUpdate,
        quantized: Option<&[u8]>,
    ) -> Result<(), FederatedError> {
        match &mut self.stream {
            Some(stream) => {
                match quantized {
                    Some(payload) => {
                        stream.ingest_quantized(&update.client_id, update.sample_count, payload)?
                    }
                    None => stream.ingest(update)?,
                }
                self.peak_state = self.peak_state.max(stream.state_bytes());
            }
            None => {
                if let Some(payload) = quantized {
                    wire::quantized_view(payload)
                        .map_err(|e| bad_payload(&update.client_id, e))?
                        .weights_into(&mut update.weights);
                }
                self.kept.push(update.clone());
            }
        }
        Ok(())
    }

    /// The aggregate of everything folded.
    pub(crate) fn finish(self) -> Result<Vec<Matrix>, FederatedError> {
        match self.stream {
            Some(stream) => stream.finish(),
            None => self.rule.aggregate(&self.kept),
        }
    }
}

/// The counters a fold keeps; [`RoundStats`] and `ScaleRoundStats` are
/// built from them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Updates aggregated.
    pub(crate) kept: usize,
    /// Updates that crossed the channel but were discarded.
    pub(crate) wasted: usize,
    /// Uploads that crossed the channel, retries included: at least one
    /// per kept or wasted update.
    pub(crate) attempts: usize,
    /// Updates corrupted in flight (and aggregated as transmitted).
    pub(crate) corrupted: usize,
    /// Wire bytes that crossed the channel, retries included.
    pub(crate) bytes: usize,
    /// Full-precision bytes the same payloads would have cost.
    pub(crate) raw_bytes: usize,
    /// Simulated server wait for updates the round timeout cut off.
    pub(crate) timeout_wait_seconds: f64,
}

impl Tally {
    /// Adds another fold's counters to these.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        self.kept += other.kept;
        self.wasted += other.wasted;
        self.attempts += other.attempts;
        self.corrupted += other.corrupted;
        self.bytes += other.bytes;
        self.raw_bytes += other.raw_bytes;
        self.timeout_wait_seconds = self.timeout_wait_seconds.max(other.timeout_wait_seconds);
    }

    /// Full-precision bytes over actual bytes (1.0 when nothing crossed).
    fn compression_ratio(&self) -> f64 {
        if self.bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.bytes as f64
        }
    }
}

/// A run's traffic in both directions: client uploads and server
/// broadcasts, summed from each round's fold counters and broadcast size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficTotals {
    /// Number of payloads sent (including re-sends).
    pub messages: usize,
    /// Total payload bytes.
    pub bytes: usize,
    /// Payloads that were *re*-sends: retry attempts after a transient
    /// upload failure (see [`crate::faults::FaultKind::Transient`]). Each
    /// retry is also counted in `messages`/`bytes` — the payload crossed
    /// the channel — so `messages - retries` is the first-attempt count.
    pub retries: usize,
}

impl TrafficTotals {
    /// Adds one round: the uploads `uplink` tallied and a broadcast of
    /// `downlink_bytes` in total to `receivers` clients.
    pub(crate) fn add_round(&mut self, uplink: &Tally, receivers: usize, downlink_bytes: usize) {
        self.messages += uplink.attempts + receivers;
        self.retries += uplink.attempts - (uplink.kept + uplink.wasted);
        self.bytes += uplink.bytes + downlink_bytes;
    }
}

/// The per-update half of the protocol, over one accumulator.
pub(crate) struct Fold<'a> {
    gate: &'a FaultGate,
    mode: CompressionMode,
    /// `false` when the client already corrupted its own payload before
    /// encoding (the socket path): sign flip is not idempotent.
    apply_payload_faults: bool,
    /// `EVFD` bytes of the round's model: an upload at full precision.
    raw_len: usize,
    quant: QuantizedUpdate,
    payload: BytesMut,
    pub(crate) acc: Accumulator,
    pub(crate) tally: Tally,
}

impl<'a> Fold<'a> {
    pub(crate) fn new(
        gate: &'a FaultGate,
        mode: CompressionMode,
        apply_payload_faults: bool,
        raw_len: usize,
        acc: Accumulator,
    ) -> Self {
        Self {
            gate,
            mode,
            apply_payload_faults,
            raw_len,
            quant: QuantizedUpdate::default(),
            payload: BytesMut::new(),
            acc,
            tally: Tally::default(),
        }
    }

    /// Disposes of one update under its admitted fault, meters what crossed
    /// the channel, and folds the update if the server keeps it; returns
    /// whether it did. `received` is what already crossed a real wire for
    /// the update. Otherwise the update is encoded here under the round's
    /// compression, so metering and aggregation see the same bytes. Frame
    /// and envelope overhead is not metered on either path. `log` receives
    /// the fault event and, for a kept update, its per-client stats; a kept
    /// update's id moves into it.
    pub(crate) fn ingest(
        &mut self,
        update: &mut LocalUpdate,
        fault: Option<FaultKind>,
        received: Option<&Received>,
        mut log: Option<&mut RoundStats>,
    ) -> Result<bool, FederatedError> {
        let (disposition, outcome) = self.gate.dispose(fault, update, self.apply_payload_faults);
        let keep = matches!(disposition, Disposition::Keep { .. });
        match outcome {
            Some(FaultOutcome::TimedOut {
                timeout_seconds, ..
            }) => {
                self.tally.timeout_wait_seconds =
                    self.tally.timeout_wait_seconds.max(timeout_seconds)
            }
            Some(FaultOutcome::Corrupted) => self.tally.corrupted += 1,
            _ => {}
        }
        if let Some(log) = log.as_deref_mut() {
            if let (Some(fault), Some(outcome)) = (fault, outcome) {
                log.faults.push(FaultEvent {
                    round: log.round,
                    client_id: update.client_id.clone(),
                    fault,
                    outcome,
                });
            }
            if keep {
                log.client_losses.push(update.train_loss);
                log.client_seconds.push(update.duration.as_secs_f64());
                log.client_extra_seconds
                    .push(update.simulated_extra_seconds);
            }
        }
        let quant8 = self.mode == CompressionMode::Quant8;
        let len = match received {
            Some(Received::Decoded(len)) => *len,
            Some(Received::Quantized(payload)) => payload.len(),
            None if quant8 => {
                QuantizedUpdate::quantize_into(&update.weights, &mut self.quant);
                wire::encode_quantized_into(&mut self.payload, &self.quant);
                self.payload.len()
            }
            None => wire::encoded_size(&update.weights),
        };
        let attempts = disposition.attempts();
        self.tally.attempts += attempts;
        self.tally.bytes += len * attempts;
        self.tally.raw_bytes += self.raw_len * attempts;
        if !keep {
            self.tally.wasted += 1;
            return Ok(false);
        }
        let quantized = match received {
            Some(Received::Quantized(payload)) => Some(&payload[..]),
            Some(Received::Decoded(_)) => None,
            None => quant8.then_some(&self.payload[..]),
        };
        self.acc.ingest(update, quantized)?;
        if let Some(log) = log {
            log.participants.push(std::mem::take(&mut update.client_id));
        }
        self.tally.kept += 1;
        Ok(true)
    }
}

/// One trained update as delivered by a [`RoundPool`].
pub(crate) struct PoolUpdate {
    /// The update itself.
    pub(crate) update: LocalUpdate,
    /// What crossed a real wire for it (`None` in-process, where the fold
    /// encodes it).
    pub(crate) received: Option<Received>,
}

/// An uplink as received: an `EVFD` payload of this many bytes, decoded
/// into the update's weights, or an `EVQ8` one the fold reads as is.
pub(crate) enum Received {
    Decoded(usize),
    Quantized(Bytes),
}

/// Source of trained updates for [`run_rounds`] — the only part of the
/// in-process and TCP rounds that differs.
pub(crate) trait RoundPool {
    /// Number of registered clients (constant over the run).
    fn client_count(&self) -> usize;

    /// Stable id of client `ci` — the admission key the fault plan hashes.
    fn client_id(&self, ci: usize) -> &str;

    /// Delivers the new global model to every client; its `EVFD` size is
    /// counted once per client in the round's downlink. Called at the top
    /// of rounds `1..`, never before round 0 — clients start from the
    /// shared initialisation.
    fn broadcast(&mut self, global: &[Matrix]) -> Result<(), FederatedError>;

    /// Trains (or collects) the `admitted` clients' updates for one round
    /// and returns them **in `admitted` order**, wasted ones included: they
    /// upload too. A live pool forwards each admitted fault so its client
    /// can act it out; the in-process pool leaves them to the fold.
    fn round_updates(
        &mut self,
        round: usize,
        admitted: &[Admitted],
        global: &[Matrix],
    ) -> Result<Vec<PoolUpdate>, FederatedError>;

    /// Whether payload-visible faults (corruption) already happened in
    /// transit — the clients applied them before encoding, so the fold
    /// must not apply them again. `false` for in-process pools.
    fn faults_in_transit(&self) -> bool {
        false
    }

    /// Called once after the last round with the final global weights
    /// (e.g. to send `Done` over the wire). Default: nothing.
    fn finish(&mut self, _global: &[Matrix]) -> Result<(), FederatedError> {
        Ok(())
    }
}

/// Runs the full federated schedule over `pool`. The caller has already
/// validated `config`.
pub(crate) fn run_rounds<P: RoundPool>(
    pool: &mut P,
    config: &FederatedConfig,
    mut global: Vec<Matrix>,
) -> Result<FederatedOutcome, FederatedError> {
    let start = Instant::now();
    let gate = FaultGate::new(config.faults.clone());
    let scheduler = Scheduler::new(config.participation, config.sampling_seed);
    let in_fold = !pool.faults_in_transit();
    let mut rounds = Vec::with_capacity(config.rounds);
    let mut traffic = TrafficTotals::default();

    for round in 0..config.rounds {
        let round_start = Instant::now();
        let model_len = wire::encoded_size(&global);
        let (mut receivers, mut downlink_bytes) = (0, 0);
        if round > 0 {
            // A non-finite aggregate would fail the next round's training
            // on whichever client ran first; name the round that folded it.
            if !global.iter().all(Matrix::is_finite) {
                return Err(FederatedError::Aggregation(format!(
                    "round {} aggregated a non-finite global model; it is not broadcast",
                    round - 1
                )));
            }
            receivers = pool.client_count();
            downlink_bytes = model_len * receivers;
            pool.broadcast(&global)?;
        }
        let mut stats = RoundStats {
            round,
            downlink_bytes,
            downlink_messages: receivers,
            ..RoundStats::default()
        };
        let sampled = scheduler.sample(round, pool.client_count());
        // Sample counts come with the updates here, so none is routed.
        let route = |ci: usize, id: &mut String| {
            id.push_str(pool.client_id(ci));
            (0, 0)
        };
        let admission = admit(&gate, round, sampled, 1, route, Some(&mut stats.faults));
        let share = &admission.shares[0];
        // One entry per kept update: the round record allocates exactly.
        stats.participants.reserve_exact(share.kept);
        stats.client_losses.reserve_exact(share.kept);
        stats.client_seconds.reserve_exact(share.kept);
        stats.client_extra_seconds.reserve_exact(share.kept);
        let updates = pool.round_updates(round, &share.members, &global)?;
        debug_assert_eq!(updates.len(), share.members.len());
        gate.require(round, share.kept)?;
        let samples: f64 = updates
            .iter()
            .zip(&share.members)
            .filter(|(_, admitted)| admitted.keeps())
            .map(|(pooled, _)| pooled.update.sample_count as f64)
            .sum();
        let acc = Accumulator::new(config.aggregator, share.kept, samples);
        let mut fold = Fold::new(&gate, config.compression, in_fold, model_len, acc);
        for (mut pooled, admitted) in updates.into_iter().zip(&share.members) {
            let received = pooled.received.as_ref();
            fold.ingest(
                &mut pooled.update,
                admitted.fault,
                received,
                Some(&mut stats),
            )?;
        }
        global = fold.acc.finish()?;
        traffic.add_round(&fold.tally, receivers, downlink_bytes);
        stats.uplink_bytes = fold.tally.bytes;
        stats.uplink_messages = fold.tally.attempts;
        stats.compression_ratio = fold.tally.compression_ratio();
        stats.timeout_wait_seconds = fold.tally.timeout_wait_seconds;
        stats.duration = round_start.elapsed();
        rounds.push(stats);
    }

    pool.finish(&global)?;

    Ok(FederatedOutcome {
        rounds,
        global_weights: global,
        total_duration: start.elapsed(),
        traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn update(id: &str, count: usize, v: f64) -> LocalUpdate {
        LocalUpdate {
            client_id: id.to_string(),
            weights: vec![Matrix::from_vec(1, 3, vec![v, v * 2.0, v * -0.5])],
            sample_count: count,
            train_loss: 0.1,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    fn fold_all(
        mut acc: Accumulator,
        updates: &[LocalUpdate],
    ) -> Result<Vec<Matrix>, FederatedError> {
        for u in updates {
            acc.ingest(&mut u.clone(), None)?;
        }
        acc.finish()
    }

    #[test]
    fn exact_accumulator_collects_krum_for_its_batch_rule() {
        let kept = vec![
            update("a", 1, 1.0),
            update("b", 1, 2.0),
            update("c", 1, 3.0),
            update("d", 1, 4.0),
        ];
        let agg = Aggregator::Krum { byzantine: 1 };
        let acc = Accumulator::new(agg, kept.len(), 4.0);
        assert!(acc.stream.is_none());
        let via_fold = fold_all(acc, &kept).expect("batch route");
        let via_batch = agg.aggregate(&kept).expect("batch");
        assert_eq!(via_fold, via_batch);
    }

    #[test]
    fn an_accumulator_that_folded_nothing_is_no_clients() {
        for acc in [
            Accumulator::new(Aggregator::FedAvg, 0, 0.0),
            Accumulator::new(Aggregator::Krum { byzantine: 0 }, 0, 0.0),
        ] {
            assert!(matches!(acc.finish(), Err(FederatedError::NoClients)));
        }
    }
}

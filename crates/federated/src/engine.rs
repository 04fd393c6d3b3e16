//! The shared federated round loop, factored out of
//! [`FederatedSimulation`](crate::FederatedSimulation) so the in-process
//! and socket paths execute the *same* code for everything the digest
//! observes: participant sampling, fault admission and disposition,
//! metering, the `min_participants` floor, aggregation, and round stats.
//!
//! A [`RoundPool`] abstracts the one thing that differs — where the
//! trained updates come from. The in-process pool trains
//! [`FedClient`](crate::FedClient)s on local threads; the socket pool
//! (see [`socket`](crate::socket)) requests training over TCP and decodes
//! the uplinks it receives. Because every protocol decision lives here,
//! digest byte-identity between the two paths is a property of the code
//! shape, not a coincidence to re-verify per feature — the loopback
//! integration suite pins it anyway.
//!
//! The large-population path ([`crate::scale`]) deliberately does *not*
//! implement [`RoundPool`]: it replaces per-client training with
//! synthesis, folds shards on the
//! [`evfad_tensor::parallel`] pool in waves, and keeps counters instead
//! of per-client vectors — the O(clients) stats this loop builds are
//! exactly what it exists to avoid. The two paths share the scheduler,
//! fault gate, metering, and streaming rules instead.

use crate::client::LocalUpdate;
use crate::compression::CodecScratch;
use crate::error::FederatedError;
use crate::faults::{FaultEvent, FaultKind};
use crate::scheduler::Scheduler;
use crate::server::{self, Disposition, FaultGate};
use crate::simulation::{FederatedConfig, FederatedOutcome, RoundStats};
use crate::transport::MeteredChannel;
use crate::wire;
use bytes::BytesMut;
use evfad_tensor::Matrix;
use std::time::Instant;

/// One trained update as delivered by a [`RoundPool`].
pub(crate) struct PoolUpdate {
    /// The update itself. On the socket path the weights are already the
    /// server-side decode of the received payload.
    pub(crate) update: LocalUpdate,
    /// Exact uplink payload bytes this update cost on a real wire
    /// (`None` on the in-process path, where metering encodes locally).
    pub(crate) wire_len: Option<usize>,
}

impl PoolUpdate {
    /// An in-process update: no wire crossed, metering will encode.
    pub(crate) fn local(update: LocalUpdate) -> Self {
        Self {
            update,
            wire_len: None,
        }
    }
}

/// Source of trained updates for [`run_rounds`] — the only part of the
/// round loop that differs between the in-process simulation and the TCP
/// transport.
pub(crate) trait RoundPool {
    /// Number of registered clients (constant over the run).
    fn client_count(&self) -> usize;

    /// Stable id of client `ci` — the admission key the fault plan hashes.
    fn client_id(&self, ci: usize) -> &str;

    /// Delivers the new global model to every client. `encoded` is the
    /// EVFD broadcast payload; the engine has already metered it once per
    /// client. Called after each aggregation (i.e. at the top of rounds
    /// `1..`), never before round 0 — clients start from the shared
    /// initialisation.
    fn broadcast(&mut self, global: &[Matrix], encoded: &[u8]) -> Result<(), FederatedError>;

    /// Trains the `active` clients for one round and returns their
    /// updates **in `active` order** — the engine's fault disposition
    /// walks them positionally against `active_faults`. `active_faults`
    /// carries the admitted fault per client (a live pool forwards it so
    /// clients can act faults out; the in-process pool ignores it and
    /// lets the gate simulate them).
    fn round_updates(
        &mut self,
        round: usize,
        active: &[usize],
        active_faults: &[Option<FaultKind>],
        global: &[Matrix],
    ) -> Result<Vec<PoolUpdate>, FederatedError>;

    /// Whether payload-visible faults (corruption) already happened in
    /// transit — i.e. the clients applied them before encoding, so the
    /// gate must not apply them again. `false` for in-process pools.
    fn faults_in_transit(&self) -> bool {
        false
    }

    /// Called once after the last round with the final global weights
    /// (e.g. to send `Done` over the wire). Default: nothing.
    fn finish(&mut self, global: &[Matrix]) -> Result<(), FederatedError> {
        let _ = global;
        Ok(())
    }
}

/// Runs the full federated schedule over `pool`.
///
/// This is the loop previously inlined in `FederatedSimulation::run`,
/// verbatim in its decision structure: the golden digest fixture pins
/// that the extraction changed nothing. The caller has already validated
/// `config` and reset `channel`.
pub(crate) fn run_rounds<P: RoundPool>(
    pool: &mut P,
    config: &FederatedConfig,
    channel: &MeteredChannel,
    mut global: Vec<Matrix>,
) -> Result<FederatedOutcome, FederatedError> {
    let start = Instant::now();
    let gate = FaultGate::new(config.faults.clone());
    let scheduler = Scheduler::new(config.participation, config.sampling_seed);
    let mut rounds = Vec::with_capacity(config.rounds);
    let apply_payload_faults = !pool.faults_in_transit();

    // The broadcast is encoded once per round into this reusable buffer;
    // every client is metered by the same byte length. No JSON
    // serialisation happens anywhere in the round loop.
    let mut broadcast_buf = BytesMut::new();
    // One codec scratch for the whole run: after the first round every
    // uplink encode/decode reuses its buffers instead of allocating.
    let mut codec_scratch = CodecScratch::default();

    for round in 0..config.rounds {
        let round_start = Instant::now();
        // Broadcast: after round 0 every client starts from the global
        // model (round 0 starts from the shared initialisation).
        let mut downlink_bytes = 0usize;
        if round > 0 {
            wire::encode_weights_into(&mut broadcast_buf, &global);
            let broadcast_len = broadcast_buf.len();
            for _ in 0..pool.client_count() {
                channel.record_bytes(broadcast_len);
            }
            pool.broadcast(&global, &broadcast_buf)?;
            downlink_bytes = broadcast_len * pool.client_count();
        }
        // Sample this round's participants (all of them at the paper's
        // participation = 1.0).
        let participants = scheduler.sample(round, pool.client_count());
        // Consult the fault plan serially, in client order, *before*
        // training: fault decisions must never depend on thread
        // scheduling (or network arrival order). Dropped-out clients
        // never even train.
        let mut faults: Vec<FaultEvent> = Vec::new();
        let mut active: Vec<usize> = Vec::new();
        let mut active_faults: Vec<Option<FaultKind>> = Vec::new();
        for &ci in &participants {
            if let Some(fault) = gate.admit(round, pool.client_id(ci), &mut faults) {
                active.push(ci);
                active_faults.push(fault);
            }
        }
        // Local training (parallel threads in-process; remote clients
        // over TCP on the socket path).
        let updates = pool.round_updates(round, &active, &active_faults, &global)?;
        debug_assert_eq!(updates.len(), active.len(), "pool must fill the round");
        // Apply the fault model to each trained update, still in client
        // order.
        let mut kept: Vec<LocalUpdate> = Vec::new();
        let mut kept_attempts: Vec<usize> = Vec::new();
        let mut kept_wire: Vec<Option<usize>> = Vec::new();
        // Updates that crossed the channel but never reached aggregation
        // (timed-out stragglers; exhausted retries), with the number of
        // send attempts to meter.
        let mut wasted: Vec<(LocalUpdate, usize, Option<usize>)> = Vec::new();
        let mut timeout_wait_seconds = 0.0_f64;
        for (pooled, fault) in updates.into_iter().zip(active_faults) {
            let PoolUpdate {
                mut update,
                wire_len,
            } = pooled;
            match gate.dispose(
                round,
                fault,
                &mut update,
                &mut faults,
                &mut timeout_wait_seconds,
                apply_payload_faults,
            ) {
                Disposition::Keep { attempts } => {
                    kept.push(update);
                    kept_attempts.push(attempts);
                    kept_wire.push(wire_len);
                }
                Disposition::Waste { attempts } => wasted.push((update, attempts, wire_len)),
            }
        }
        // Uplink: encode each surviving update per the configured
        // compression mode, meter the exact wire byte length of the
        // payload that crossed the channel, and hand the server the
        // *decoded* payload — metering, faults, and aggregation all see
        // the same bytes. On the socket path the payload already crossed
        // a real wire: its decoded weights and actual byte length ride in
        // unchanged.
        let uplink = server::meter_uplinks(
            channel,
            config.compression,
            &mut kept,
            &kept_attempts,
            &kept_wire,
            &wasted,
            &mut codec_scratch,
        );
        let uplink_bytes = uplink.bytes;
        let compression_ratio = uplink.compression_ratio();
        // Graceful degradation: proceed iff enough updates survived.
        if kept.len() < gate.min_participants {
            return Err(FederatedError::InsufficientParticipants {
                round,
                survivors: kept.len(),
                required: gate.min_participants,
            });
        }
        global = server::aggregate_round(config.aggregator, &kept)?;
        rounds.push(RoundStats {
            round,
            participants: kept.iter().map(|u| u.client_id.clone()).collect(),
            client_losses: kept.iter().map(|u| u.train_loss).collect(),
            client_seconds: kept.iter().map(|u| u.duration.as_secs_f64()).collect(),
            client_extra_seconds: kept.iter().map(|u| u.simulated_extra_seconds).collect(),
            timeout_wait_seconds,
            faults,
            uplink_bytes,
            downlink_bytes,
            compression_ratio,
            duration: round_start.elapsed(),
        });
    }

    pool.finish(&global)?;

    Ok(FederatedOutcome {
        rounds,
        global_weights: global,
        total_duration: start.elapsed(),
        traffic: channel.totals(),
    })
}

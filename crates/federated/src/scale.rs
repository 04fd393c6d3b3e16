//! Hierarchical large-population federation: 10k–1M synthetic clients,
//! edge-tier streaming aggregation, O(model · workers) server memory.
//!
//! This engine runs the round protocol of `engine` — the
//! admission, fold and tally the in-process [`crate::FederatedSimulation`]
//! runs — over paper-style populations, with synthesis in place of
//! training: a [`ClientSpec`] (a zone profile of the data generator, a
//! sample count, a seed) yields each round's update deterministically
//! around the current global. What scale adds:
//!
//! * **Shards.** Admission routes each sampled client to one of `edges`
//!   contiguous shards, each an accumulator sized up front.
//! * **Waves.** Shard folds fan out over the [`evfad_tensor::parallel`]
//!   pool, [`ScaleConfig::threads`] at a time. A fold synthesises its
//!   members `LANES` at a time into reused buffers, and each update is
//!   disposed, metered and folded (Quant8 straight from its payload) before
//!   the next group overwrites it: nothing per client outlives its update.
//! * **The edge hop.** With `edges > 1` each shard's aggregate is a partial:
//!   one more admission and fold, over the shards with a partial, under the
//!   edge plan's gate (ids `"edge-{e}"`, its `min_participants` the root's
//!   floor), uncompressed. The root folds each wave's partials in edge
//!   order, so a run is **bitwise identical at every thread count**. With
//!   `edges: 1` the shard's aggregate is the next global.
//!
//! Live state is the root accumulator plus at most `min(threads, edges)`
//! shard accumulators — O(model · workers), against the batch path's
//! O(clients × model) ([`ScaleOutcome::peak_aggregation_bytes`],
//! [`ScaleOutcome::materialized_equivalent_bytes`]).
//! [`ScaleConfig::verify_streaming`] checks in-run that no accumulator grows
//! after its first ingest, and each round against the batch rule: bitwise
//! for flat FedAvg, ≤ 1e-9 relative with edges.

use crate::aggregate::Aggregator;
use crate::client::LocalUpdate;
use crate::compression::CompressionMode;
use crate::engine::{self, Accumulator, Admitted, Fold, Share, Tally};
use crate::error::FederatedError;
use crate::faults::{fnv1a, FaultPlan};
use crate::scheduler::Scheduler;
use crate::server::FaultGate;
use crate::transport::{MeteredChannel, TrafficTotals};
use crate::wire;
use evfad_data::{Zone, ZoneProfile};
use evfad_tensor::{parallel, Matrix};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Schedule and topology of a large-population run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Population size (the paper's federation, scaled: 10k–1M).
    pub clients: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// C-fraction of clients sampled per round, in `(0, 1]`.
    pub participation: f64,
    /// Edge aggregators between clients and the root. `1` = flat
    /// (every client streams straight into the root accumulator).
    pub edges: usize,
    /// Aggregation rule — must stream
    /// ([`Aggregator::supports_streaming`]): FedAvg or TrimmedMean.
    pub aggregator: Aggregator,
    /// Seed for sampling, update synthesis, and population derivation.
    pub seed: u64,
    /// Edge fan-out width: how many shard folds may run concurrently on
    /// the [`evfad_tensor::parallel`] worker pool. `1` = serial, `0` =
    /// inherit the process-wide pool width,
    /// [`evfad_tensor::parallel::threads`]. Results are bitwise identical
    /// for every setting, so the two defaults differ in speed only:
    /// [`ScaleConfig::default`] is `1` (serial, host-independent), a
    /// serialized config without the field reads as `0` (inherit).
    #[serde(default)]
    pub threads: usize,
    /// Client→edge uplink compression: each update is encoded for real,
    /// metered at its wire length and folded straight from the payload
    /// ([`crate::streaming::StreamingAggregator::ingest_quantized`]). The
    /// downlink and the edge→root hop stay full precision.
    #[serde(default)]
    pub compression: CompressionMode,
    /// Client-tier fault plan. Wildcard (`"*"`) probability rules express
    /// population-level drop-out/straggler/corruption rates.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Edge-tier fault plan, consulted with client ids `"edge-{e}"` on the
    /// edge→root hop: a dropped edge loses its whole shard for the round; a
    /// timed-out edge partial is metered but discarded.
    #[serde(default)]
    pub edge_faults: Option<FaultPlan>,
    /// Also keep every kept update and check each round against the batch
    /// aggregate: bitwise for flat FedAvg, ≤1e-9 relative otherwise. A
    /// correctness gate at O(clients × model) memory; ignored under an
    /// edge-tier fault plan (lost shards make the reference incomparable).
    #[serde(default)]
    pub verify_streaming: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            clients: 10_000,
            rounds: 5,
            participation: 0.1,
            edges: 16,
            aggregator: Aggregator::FedAvg,
            seed: 0,
            threads: 1,
            compression: CompressionMode::None,
            faults: None,
            edge_faults: None,
            verify_streaming: false,
        }
    }
}

impl ScaleConfig {
    /// Validates every knob before a run.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), FederatedError> {
        let bad = |field: &str, message: String| FederatedError::InvalidConfig {
            field: field.to_string(),
            message,
        };
        if self.clients == 0 {
            return Err(bad("clients", "must be at least 1".to_string()));
        }
        if self.rounds == 0 {
            return Err(bad("rounds", "must be at least 1".to_string()));
        }
        if !(self.participation > 0.0 && self.participation <= 1.0) {
            return Err(bad(
                "participation",
                format!("must be in (0, 1], got {}", self.participation),
            ));
        }
        if self.edges == 0 || self.edges > self.clients {
            return Err(bad(
                "edges",
                format!(
                    "need between 1 and {} (the population), got {}",
                    self.clients, self.edges
                ),
            ));
        }
        if !self.aggregator.supports_streaming() {
            return Err(bad(
                "aggregator",
                format!(
                    "{} cannot stream; the scale engine supports FedAvg and TrimmedMean",
                    self.aggregator.name()
                ),
            ));
        }
        if let Aggregator::TrimmedMean { trim } = self.aggregator {
            if self.edges > 1 && self.edges <= 2 * trim {
                return Err(bad(
                    "edges",
                    format!(
                        "trimmed mean with trim {trim} at the root needs more than {} \
                         edge partials, got {}",
                        2 * trim,
                        self.edges
                    ),
                ));
            }
        }
        for plan in self.faults.iter().chain(&self.edge_faults) {
            plan.validate()?;
        }
        Ok(())
    }

    /// The edge fan-out width a run will use: `threads` itself, or — when
    /// `threads == 0` — the process-wide [`parallel::threads`], the same
    /// knob `FederatedConfig.threads` installs at the start of a
    /// simulation run. The two therefore compose: a simulation configures
    /// the pool once and a scale run with `threads: 0` inherits it.
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            parallel::threads()
        } else {
            self.threads
        }
    }
}

/// A lightweight stand-in for a full federated client: everything the
/// protocol needs, nothing the model holds.
///
/// Specs are derived deterministically from the config seed and the data
/// generator's zone profiles — client `i` belongs to Shenzhen zone
/// `ALL[i % 3]`, carries a per-client dataset size, and synthesises
/// updates whose spread follows its zone's noise level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Population index (also the shard key).
    pub index: usize,
    /// The Shenzhen zone whose profile shapes this client's updates.
    pub zone: Zone,
    /// Local dataset size (FedAvg weighting), 24–127 hourly windows.
    pub sample_count: usize,
    /// Update spread around the global model, from the zone profile's
    /// noise level scaled by its demand base.
    pub amplitude: f64,
}

impl ClientSpec {
    fn derive(index: usize, seed: u64) -> Self {
        let zone = Zone::ALL[index % Zone::ALL.len()];
        let profile = ZoneProfile::shenzhen(zone);
        let h = fnv1a(&[seed, index as u64]);
        Self {
            index,
            zone,
            sample_count: 24 + (h % 104) as usize,
            amplitude: profile.noise_level * profile.base / 40.0,
        }
    }

    /// The client's federation id (`"c000042"`), the key the fault plan
    /// matches against.
    pub fn id(&self) -> String {
        let mut id = String::new();
        self.write_id(&mut id);
        id
    }

    /// [`ClientSpec::id`] into a reused buffer.
    fn write_id(&self, id: &mut String) {
        id.clear();
        write!(id, "c{:06}", self.index).expect("a String accepts every write");
    }
}

/// Per-round statistics of a scale run. Event-level fault telemetry is
/// deliberately summarised to counters: at 100k clients a `Vec<FaultEvent>`
/// per round would be exactly the O(clients) state this engine exists to
/// avoid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRoundStats {
    /// Zero-based round index.
    pub round: usize,
    /// Clients sampled by the scheduler.
    pub sampled: usize,
    /// Client updates folded into the final global (lost shards excluded).
    pub aggregated: usize,
    /// Sampled clients that dropped out before training.
    pub dropped: usize,
    /// Updates that crossed the channel but were discarded (timed-out
    /// stragglers, exhausted retries).
    pub wasted: usize,
    /// Updates corrupted in flight (and still aggregated — robustness is
    /// the aggregator's job).
    pub corrupted: usize,
    /// Edge partials the root aggregated.
    pub edges_kept: usize,
    /// Shards lost on the edge→root hop (edge drop-out/timeout).
    pub edges_lost: usize,
    /// Client→edge plus edge→root wire bytes, retries included.
    pub uplink_bytes: usize,
    /// Root→client broadcast bytes (zero in round 0).
    pub downlink_bytes: usize,
    /// Peak live aggregation state this round: the root accumulator plus
    /// one edge accumulator per concurrently active fold (at most
    /// `min(threads, edges)`).
    pub peak_state_bytes: usize,
    /// Wall-clock duration of the round on this host.
    #[serde(skip, default)]
    pub duration: Duration,
}

/// Result of a completed scale run.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Per-round statistics.
    pub rounds: Vec<ScaleRoundStats>,
    /// The final global weights.
    pub global_weights: Vec<Matrix>,
    /// Bytes/messages exchanged across both tiers.
    pub traffic: TrafficTotals,
    /// Peak live streaming-aggregation state across the run.
    /// O(model · workers), independent of the population.
    pub peak_aggregation_bytes: usize,
    /// What the batch path would have held at its worst round:
    /// `max_round(kept clients) × model bytes`. The streaming win is the
    /// ratio of this to [`ScaleOutcome::peak_aggregation_bytes`].
    pub materialized_equivalent_bytes: usize,
    /// One model's worth of f64 payload, for scale-free reporting.
    pub model_bytes: usize,
    /// Total wall-clock time.
    pub total_duration: Duration,
}

impl ScaleOutcome {
    /// FNV-1a checksum of the binary-encoded final global weights as 16
    /// lowercase hex digits — the determinism anchor for scale runs.
    pub fn weights_checksum(&self) -> String {
        format!("{:016x}", wire::weights_checksum(&self.global_weights))
    }
}

/// Clients [`ScaleEngine::synth_group`] synthesises per vector step. At 100k
/// clients 4 lanes measured 167 ms a round, 8 lanes 131 ms, 16 no better.
const LANES: usize = 8;

/// [`LANES`] xoshiro256** generators stepping in lockstep. State is
/// word-major, lane-minor, so a step is plain loops over `[u64; LANES]`
/// that LLVM vectorises; lane `l` yields exactly the stream of
/// `StdRng::seed_from_u64(seeds[l])` (SplitMix64 seeding included).
struct LaneRng {
    s: [[u64; LANES]; 4],
}

impl LaneRng {
    fn seed_from_u64(mut seeds: [u64; LANES]) -> Self {
        let mut s = [[0u64; LANES]; 4];
        for word in &mut s {
            for (w, sm) in word.iter_mut().zip(&mut seeds) {
                *sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (*sm ^ (*sm >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *w = z ^ (z >> 31);
            }
        }
        Self { s }
    }

    /// Every lane's next `gen::<f64>()`: its top 53 bits as a `[0, 1)` value.
    /// Inlined to keep the state in registers: 130 ms a 100k round, not 180.
    #[inline(always)]
    fn next_unit(&mut self) -> [f64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        std::array::from_fn(|l| {
            // `·5`, `·9` as shift-and-add: no 64-bit vector multiply needed.
            let x = (s1[l] << 2).wrapping_add(s1[l]).rotate_left(7);
            let r = (x << 3).wrapping_add(x);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
            (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        })
    }
}

/// The large-population engine. See the module docs for the topology.
///
/// # Examples
///
/// ```
/// use evfad_federated::scale::{ScaleConfig, ScaleEngine};
/// use evfad_tensor::Matrix;
///
/// let template = vec![Matrix::filled(4, 4, 0.1), Matrix::filled(1, 4, -0.2)];
/// let cfg = ScaleConfig { clients: 1_000, rounds: 2, edges: 4, ..ScaleConfig::default() };
/// let mut engine = ScaleEngine::new(template, cfg)?;
/// let out = engine.run()?;
/// assert_eq!(out.rounds.len(), 2);
/// assert_eq!(out.rounds[0].sampled, 100); // C = 0.1 of 1000
/// assert!(out.peak_aggregation_bytes < out.materialized_equivalent_bytes);
/// # Ok::<(), evfad_federated::FederatedError>(())
/// ```
#[derive(Debug)]
pub struct ScaleEngine {
    config: ScaleConfig,
    template: Vec<Matrix>,
    channel: MeteredChannel,
}

impl ScaleEngine {
    /// Builds the engine; client specs are derived on demand, never stored.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InvalidConfig`] (see [`ScaleConfig::validate`]),
    /// or [`FederatedError::Aggregation`] for an empty model template.
    pub fn new(template: Vec<Matrix>, config: ScaleConfig) -> Result<Self, FederatedError> {
        config.validate()?;
        if template.is_empty() {
            return Err(FederatedError::Aggregation(
                "scale engine needs a non-empty model template".to_string(),
            ));
        }
        Ok(Self {
            config,
            template,
            channel: MeteredChannel::new(),
        })
    }

    /// Client `index`'s spec, derived from the config seed (one FNV hash).
    pub fn spec(&self, index: usize) -> ClientSpec {
        ClientSpec::derive(index, self.config.seed)
    }

    /// The configured run.
    pub fn config(&self) -> &ScaleConfig {
        &self.config
    }

    /// Synthesises the round updates of `members` (at most [`LANES`]) into
    /// `out`, one reused buffer each: the current global model plus
    /// zone-scaled noise that damps as rounds progress, every client's drawn
    /// from its own `(seed, round, index)` generator, all stepping in
    /// lockstep — deterministic, thread-free. Every field and coefficient is
    /// overwritten: a corrupted or decoded update the last group left is gone.
    fn synth_group(
        &self,
        round: usize,
        global: &[Matrix],
        members: &[Admitted],
        out: &mut [LocalUpdate],
    ) {
        debug_assert!(!members.is_empty() && members.len() == out.len() && out.len() <= LANES);
        let damp = 1.0 / (1.0 + round as f64);
        let mut seeds = [0u64; LANES];
        let mut scale = [0.0f64; LANES];
        for l in 0..LANES {
            // Lanes past the group replay its last client and are dropped.
            let spec = self.spec(members[l.min(members.len() - 1)].index);
            seeds[l] = self.config.seed ^ fnv1a(&[0x5ca1e, round as u64, spec.index as u64]);
            scale[l] = spec.amplitude * damp;
            if let Some(update) = out.get_mut(l) {
                spec.write_id(&mut update.client_id);
                update.sample_count = spec.sample_count;
                update.train_loss = scale[l];
                update.simulated_extra_seconds = 0.0;
            }
        }
        let mut rng = LaneRng::seed_from_u64(seeds);
        let noisy = |g: f64, u: [f64; LANES]| -> [f64; LANES] {
            std::array::from_fn(|l| g + scale[l] * (u[l] - 0.5))
        };
        for (t, g) in global.iter().enumerate() {
            let (tiles, tail) = g.as_slice().split_at(g.len() / LANES * LANES);
            // A coefficient-major tile of LANES draws per lane, each lane's
            // run then copied out contiguously. Fixed-size on purpose: a
            // per-element scatter is slower than the serial code was, one
            // ragged-chunk loop covering the tail too 214 ms a round vs 129.
            for (c, gs) in tiles.chunks_exact(LANES).enumerate() {
                let mut tile = [[0.0f64; LANES]; LANES];
                for (row, &g) in tile.iter_mut().zip(gs) {
                    *row = noisy(g, rng.next_unit());
                }
                for (l, update) in out.iter_mut().enumerate() {
                    let run: [f64; LANES] = std::array::from_fn(|k| tile[k][l]);
                    update.weights[t].as_mut_slice()[c * LANES..][..LANES].copy_from_slice(&run);
                }
            }
            for (j, &g) in tail.iter().enumerate() {
                let v = noisy(g, rng.next_unit());
                for (update, v) in out.iter_mut().zip(v) {
                    update.weights[t].as_mut_slice()[tiles.len() + j] = v;
                }
            }
        }
    }

    /// One shard's fold — the unit of parallel work. Its members are
    /// synthesised [`LANES`] at a time into `group`, the fold's reused
    /// buffers, and handed to the fold in member order, so the fold, its
    /// tally and its first error are a pure function of the inputs on any
    /// thread; the join finishes it.
    fn fold_shard<'a>(
        &'a self,
        round: usize,
        global: &[Matrix],
        share: &Share,
        gate: &'a FaultGate,
        verify: bool,
        group: &mut Vec<LocalUpdate>,
    ) -> (Fold<'a>, Result<(), FederatedError>) {
        let cfg = &self.config;
        let acc = Accumulator::new(cfg.aggregator, share.kept, share.samples, true, verify);
        let mut fold = Fold::new(gate, &self.channel, cfg.compression, true, acc);
        group.resize_with(LANES, || LocalUpdate {
            weights: global.to_vec(),
            ..LocalUpdate::default()
        });
        for members in share.members.chunks(LANES) {
            let group = &mut group[..members.len()];
            self.synth_group(round, global, members, group);
            for (update, member) in group.iter_mut().zip(members) {
                if let Err(e) = fold.ingest(update, member.fault, None, None) {
                    return (fold, Err(e));
                }
            }
        }
        (fold, Ok(()))
    }

    /// Runs the full schedule.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::InvalidConfig`] from up-front validation;
    /// * [`FederatedError::InsufficientParticipants`] when faults starve a
    ///   round below the client plan's floor, or the edge hop below the
    ///   edge plan's;
    /// * [`FederatedError::Aggregation`] from the streaming rules (e.g. a
    ///   NaN-flooded coordinate exceeding trimmed mean's containment
    ///   budget) or a failed [`ScaleConfig::verify_streaming`] check.
    pub fn run(&mut self) -> Result<ScaleOutcome, FederatedError> {
        self.config.validate()?;
        self.channel.reset();
        let start = Instant::now();
        let cfg = &self.config;
        let gate = FaultGate::new(cfg.faults.clone());
        let edge_gate = FaultGate::new(cfg.edge_faults.clone());
        let scheduler = Scheduler::new(cfg.participation, cfg.seed);
        let mut global = self.template.clone();
        let model_bytes: usize = global.iter().map(|m| m.len() * 8).sum();
        let verify = cfg.verify_streaming && cfg.edge_faults.is_none();
        // At most this many shard folds, and so shard accumulators, are live
        // at once.
        let fanout = cfg.effective_threads().max(1).min(cfg.edges);
        // Per concurrent fold, its synthesis buffers for the whole run (made
        // per shard, they left the heap trimming and refaulting: +8 % a
        // `scale_plain` round) and the wave's result.
        let mut slots: Vec<(Vec<LocalUpdate>, Option<_>)> =
            (0..fanout).map(|_| (Vec::new(), None)).collect();
        let mut rounds: Vec<ScaleRoundStats> = Vec::with_capacity(cfg.rounds);
        let mut materialized_equivalent_bytes = 0;

        for round in 0..cfg.rounds {
            let round_start = Instant::now();
            let sampled = scheduler.sample(round, cfg.clients);
            let n = sampled.len();
            let downlink_bytes = match round {
                0 => 0,
                _ => engine::meter_broadcast(&self.channel, wire::encoded_size(&global), n),
            };
            // Shards are contiguous and balanced.
            let route = |ci: usize, id: &mut String| {
                let spec = self.spec(ci);
                spec.write_id(id);
                (ci * cfg.edges / cfg.clients, spec.sample_count)
            };
            let clients = engine::admit(&gate, round, sampled, cfg.edges, route, None);
            gate.require(round, clients.kept())?;
            let shards = &clients.shares;
            let partials = (0..cfg.edges).filter(|&e| shards[e].kept > 0);
            // The edge hop — its admission over the shards with a partial and
            // the root fold it sizes — precedes every shard fold. Per edge:
            // the fault it acts out, `None` when it dropped or has no partial.
            let mut hop = None;
            if cfg.edges > 1 {
                let route = |e: usize, id: &mut String| {
                    write!(id, "edge-{e}").expect("a String accepts every write");
                    (0, shards[e].samples as usize)
                };
                let edges = engine::admit(&edge_gate, round, partials.clone(), 1, route, None);
                edge_gate.require(round, edges.kept())?;
                let share = &edges.shares[0];
                let mut faults = vec![None; cfg.edges];
                for edge in &share.members {
                    faults[edge.index] = Some(edge.fault);
                }
                let acc = Accumulator::new(cfg.aggregator, share.kept, share.samples, true, false);
                let root = Fold::new(&edge_gate, &self.channel, CompressionMode::None, true, acc);
                hop = Some((faults, root));
            }

            // Fold the shards in waves of `fanout`, then hand each wave's
            // partials to the root in edge order.
            let mut tally = Tally::default();
            let (mut aggregated, mut peak_shard, mut flat) = (0, 0, None);
            let mut reference = Vec::new();
            for wave in (0..cfg.edges).step_by(fanout) {
                let slots = &mut slots[..fanout.min(cfg.edges - wave)];
                parallel::distribute(slots, fanout, |k, (group, fold)| {
                    let share = &shards[wave + k];
                    if !share.members.is_empty() {
                        *fold = Some(self.fold_shard(round, &global, share, &gate, verify, group));
                    }
                });
                for (e, (_, slot)) in (wave..).zip(slots.iter_mut()) {
                    let Some((mut fold, folded)) = slot.take() else {
                        continue;
                    };
                    tally.absorb(&fold.tally);
                    peak_shard = peak_shard.max(fold.acc.peak_state);
                    if verify && !fold.acc.state_stable {
                        return Err(FederatedError::Aggregation(format!(
                            "round {round}: edge {e} accumulator grew after its first \
                             ingest — the O(model · workers) bound is broken"
                        )));
                    }
                    folded?;
                    reference.append(&mut fold.acc.kept);
                    if shards[e].kept == 0 {
                        continue; // only wasted uploads: no partial
                    }
                    let weights = fold.acc.finish()?;
                    match &mut hop {
                        None => (aggregated, flat) = (shards[e].kept, Some(weights)),
                        Some((faults, root)) => {
                            let Some(fault) = faults[e] else { continue };
                            let mut partial = LocalUpdate {
                                client_id: format!("edge-{e}"),
                                weights,
                                sample_count: shards[e].samples as usize,
                                ..LocalUpdate::default()
                            };
                            if root.ingest(&mut partial, fault, None, None)? {
                                aggregated += shards[e].kept;
                            }
                        }
                    }
                }
            }

            let with_partial = partials.count();
            let (next_global, root_state, edges_kept, hop_bytes) = match hop {
                Some((_, root)) => {
                    let (state, t) = (root.acc.peak_state, root.tally);
                    (root.acc.finish()?, state, t.kept, t.bytes)
                }
                // The floor keeps a client, so the flat shard folded; were it
                // empty, its streaming rule would say just this.
                None => (flat.ok_or(FederatedError::NoClients)?, 0, 1, 0),
            };
            // Peak live state this round: the root accumulator plus one
            // shard accumulator per concurrently active fold — exact, since
            // waves are `fanout` wide and a chunk holds one shard at a time.
            let round_peak = root_state + fanout.min(with_partial.max(1)) * peak_shard;
            if verify {
                check_against_batch(cfg.aggregator, cfg.edges, &reference, &next_global, round)?;
            }
            global = next_global;
            materialized_equivalent_bytes =
                materialized_equivalent_bytes.max(clients.kept() * model_bytes);
            rounds.push(ScaleRoundStats {
                round,
                sampled: n,
                aggregated,
                dropped: clients.dropped,
                wasted: tally.wasted,
                corrupted: tally.corrupted,
                edges_kept,
                // Dropped out, or wasted at the root.
                edges_lost: with_partial - edges_kept,
                uplink_bytes: tally.bytes + hop_bytes,
                downlink_bytes,
                peak_state_bytes: round_peak,
                duration: round_start.elapsed(),
            });
        }

        Ok(ScaleOutcome {
            peak_aggregation_bytes: rounds.iter().map(|r| r.peak_state_bytes).max().unwrap_or(0),
            rounds,
            global_weights: global,
            traffic: self.channel.totals(),
            materialized_equivalent_bytes,
            model_bytes,
            total_duration: start.elapsed(),
        })
    }
}

/// The [`ScaleConfig::verify_streaming`] gate: the hierarchical streaming
/// result must match the flat batch aggregate over the same kept updates —
/// bitwise for flat FedAvg (same fold, same order), within 1e-9 relative
/// otherwise (reassociation across shards).
fn check_against_batch(
    aggregator: Aggregator,
    edges: usize,
    kept: &[LocalUpdate],
    streamed: &[Matrix],
    round: usize,
) -> Result<(), FederatedError> {
    let batch = aggregator.aggregate(kept)?;
    let exact = edges == 1 && matches!(aggregator, Aggregator::FedAvg);
    for (b, s) in batch.iter().zip(streamed) {
        for (x, y) in b.as_slice().iter().zip(s.as_slice()) {
            let ok = if exact {
                x.to_bits() == y.to_bits()
            } else {
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
            };
            if !ok {
                return Err(FederatedError::Aggregation(format!(
                    "round {round}: streaming result {y:e} diverged from batch {x:e} \
                     ({} check, {edges} edges)",
                    if exact { "bitwise" } else { "tolerance" }
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Corruption, FaultKind, RoundSelector};
    use crate::server::Disposition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn template() -> Vec<Matrix> {
        vec![
            Matrix::filled(3, 4, 0.25),
            Matrix::filled(4, 1, -0.5),
            Matrix::filled(1, 1, 1.0),
        ]
    }

    fn cfg(clients: usize, edges: usize) -> ScaleConfig {
        ScaleConfig {
            clients,
            rounds: 3,
            edges,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn flat_fedavg_is_bitwise_identical_to_batch() {
        let mut engine = ScaleEngine::new(
            template(),
            ScaleConfig {
                verify_streaming: true,
                ..cfg(500, 1)
            },
        )
        .expect("engine");
        // verify_streaming asserts bitwise equality inside run().
        let out = engine.run().expect("flat run must match batch bitwise");
        assert!(out.global_weights.iter().all(Matrix::is_finite));
    }

    #[test]
    fn hierarchical_fedavg_matches_batch_to_tolerance() {
        let mut engine = ScaleEngine::new(
            template(),
            ScaleConfig {
                verify_streaming: true,
                ..cfg(1_000, 8)
            },
        )
        .expect("engine");
        engine.run().expect("hierarchical run within tolerance");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut e = ScaleEngine::new(
                template(),
                ScaleConfig {
                    seed,
                    ..cfg(2_000, 4)
                },
            )
            .expect("engine");
            e.run().expect("run")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.weights_checksum(), b.weights_checksum());
        assert_eq!(a.traffic, b.traffic);
        // Compare through serde: `duration` is wall-clock and #[serde(skip)].
        assert_eq!(
            serde_json::to_string(&a.rounds).expect("serialize"),
            serde_json::to_string(&b.rounds).expect("serialize"),
        );
        assert_ne!(run(8).weights_checksum(), a.weights_checksum());
    }

    #[test]
    fn peak_memory_is_o_model_not_o_clients() {
        let small = {
            let mut e = ScaleEngine::new(template(), cfg(1_000, 4)).expect("engine");
            e.run().expect("run")
        };
        let large = {
            let mut e = ScaleEngine::new(template(), cfg(10_000, 4)).expect("engine");
            e.run().expect("run")
        };
        // 10x the population: materialised-equivalent memory grows ~10x,
        // live streaming state does not grow at all.
        assert_eq!(large.peak_aggregation_bytes, small.peak_aggregation_bytes);
        assert!(large.materialized_equivalent_bytes > 8 * small.materialized_equivalent_bytes);
        // FedAvg live state: root + one edge accumulator = 2 models.
        assert_eq!(large.peak_aggregation_bytes, 2 * large.model_bytes);
    }

    #[test]
    fn specs_follow_the_zone_profiles() {
        let engine = ScaleEngine::new(template(), cfg(999, 4)).expect("engine");
        let specs: Vec<ClientSpec> = (0..999).map(|i| engine.spec(i)).collect();
        assert_eq!(specs[0].zone, Zone::Z102);
        assert_eq!(specs[1].zone, Zone::Z105);
        assert_eq!(specs[2].zone, Zone::Z108);
        assert!(specs.iter().enumerate().all(|(i, s)| s.index == i));
        assert!(specs.iter().all(|s| (24..128).contains(&s.sample_count)));
        assert!(specs.iter().all(|s| s.amplitude > 0.0));
        assert_eq!(specs[41].id(), "c000041");
        // Derived, not stored: asking twice gives the same client.
        assert_eq!(engine.spec(41), specs[41]);
    }

    #[test]
    fn every_lane_replays_std_rng_bit_for_bit() {
        let mut seeder = StdRng::seed_from_u64(0x1a9e5);
        for _ in 0..4 {
            let mut seeds: [u64; LANES] = std::array::from_fn(|_| seeder.gen());
            seeds[2] = 0;
            seeds[5] = u64::MAX;
            let mut scalar = seeds.map(StdRng::seed_from_u64);
            let mut lanes = LaneRng::seed_from_u64(seeds);
            for draw in 0..4_096 {
                let units = lanes.next_unit();
                for (l, rng) in scalar.iter_mut().enumerate() {
                    let expected: f64 = rng.gen();
                    assert_eq!(
                        units[l].to_bits(),
                        expected.to_bits(),
                        "seed {:#x}, lane {l}, draw {draw}",
                        seeds[l]
                    );
                }
            }
        }
    }

    /// The definition of a synthesised update — the scalar routine
    /// `synth_group` replaced, kept as its oracle.
    fn synth_scalar(seed: u64, spec: &ClientSpec, round: usize, global: &[Matrix]) -> LocalUpdate {
        let key = fnv1a(&[0x5ca1e, round as u64, spec.index as u64]);
        let mut rng = StdRng::seed_from_u64(seed ^ key);
        let damp = 1.0 / (1.0 + round as f64);
        let weights = global
            .iter()
            .map(|g| {
                let mut m = g.clone();
                for v in m.as_mut_slice() {
                    *v += spec.amplitude * damp * (rng.gen::<f64>() - 0.5);
                }
                m
            })
            .collect();
        LocalUpdate {
            client_id: spec.id(),
            weights,
            sample_count: spec.sample_count,
            train_loss: spec.amplitude * damp,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn synth_group_equals_the_scalar_definition() {
        // Tail-only, tile-only and tile-plus-tail tensors, one long one.
        let global: Vec<Matrix> = [1usize, 7, 8, 9, 63, 64, 65, 10_000]
            .iter()
            .map(|&len| Matrix::from_vec(1, len, (0..len).map(|j| (j as f64).sin()).collect()))
            .collect();
        let config = ScaleConfig {
            seed: 0xfeed,
            ..cfg(5_000, 4)
        };
        let engine = ScaleEngine::new(global.clone(), config).expect("engine");
        let blank = LocalUpdate {
            weights: global.clone(),
            ..LocalUpdate::default()
        };
        let mut out = vec![blank; LANES];
        // Rounds 0 / 1 / 7 damp by exact powers of two; round 2 (a third)
        // is the one that notices `amplitude * damp` being reassociated.
        for round in [0usize, 1, 2, 7] {
            for size in 1..=LANES {
                // `first` walks the three zones; stride 2 mixes them
                // within a group.
                for first in 0..Zone::ALL.len() {
                    let members: Vec<Admitted> = (0..size)
                        .map(|k| Admitted {
                            index: 100 * size + first + 2 * k,
                            fault: None,
                            disposition: Disposition::Keep { attempts: 1 },
                        })
                        .collect();
                    engine.synth_group(round, &global, &members, &mut out[..size]);
                    for (l, &Admitted { index, .. }) in members.iter().enumerate() {
                        let expected = synth_scalar(0xfeed, &engine.spec(index), round, &global);
                        let at =
                            format!("round {round}, group of {size}, lane {l}, client {index}");
                        assert_eq!(out[l].client_id, expected.client_id, "{at}");
                        assert_eq!(out[l].sample_count, expected.sample_count, "{at}");
                        assert_eq!(out[l].train_loss.to_bits(), expected.train_loss.to_bits());
                        assert_eq!(out[l].duration, Duration::ZERO, "{at}");
                        assert_eq!(out[l].simulated_extra_seconds, 0.0, "{at}");
                        for (t, (got, want)) in
                            out[l].weights.iter().zip(&expected.weights).enumerate()
                        {
                            assert_eq!(got.shape(), want.shape(), "{at}, tensor {t}");
                            for (j, (x, y)) in
                                got.as_slice().iter().zip(want.as_slice()).enumerate()
                            {
                                assert_eq!(x.to_bits(), y.to_bits(), "{at}, tensor {t}[{j}]");
                            }
                        }
                    }
                    // What a fold leaves behind for the next group: a
                    // corrupted payload in one slot, every field stale
                    // (a straggler's delay among them) in another.
                    Corruption::NanFlood.apply(&mut out[0].weights);
                    out[size - 1] = LocalUpdate {
                        client_id: "stale".to_string(),
                        weights: global
                            .iter()
                            .map(|g| Matrix::filled(1, g.len(), 9.0))
                            .collect(),
                        sample_count: 1,
                        train_loss: 9.0,
                        duration: Duration::ZERO,
                        simulated_extra_seconds: 3.0,
                    };
                }
            }
        }
    }

    #[test]
    fn wildcard_dropout_thins_every_round() {
        let plan = FaultPlan::new(3).with_rule(
            "*",
            RoundSelector::Probability { p: 0.2 },
            FaultKind::DropOut,
        );
        let mut engine = ScaleEngine::new(
            template(),
            ScaleConfig {
                faults: Some(plan),
                ..cfg(5_000, 4)
            },
        )
        .expect("engine");
        let out = engine.run().expect("run");
        for r in &out.rounds {
            let rate = r.dropped as f64 / r.sampled as f64;
            assert!(
                (0.1..0.3).contains(&rate),
                "round {} drop rate {rate} far from the configured 0.2",
                r.round
            );
            assert_eq!(r.sampled, r.aggregated + r.dropped + r.wasted);
        }
    }

    #[test]
    fn edge_dropout_loses_the_shard() {
        let edge_plan =
            FaultPlan::new(1).with_rule("edge-2", RoundSelector::Every, FaultKind::DropOut);
        let clean = {
            let mut e = ScaleEngine::new(template(), cfg(4_000, 4)).expect("engine");
            e.run().expect("run")
        };
        let faulty = {
            let mut e = ScaleEngine::new(
                template(),
                ScaleConfig {
                    edge_faults: Some(edge_plan),
                    ..cfg(4_000, 4)
                },
            )
            .expect("engine");
            e.run().expect("run")
        };
        for (c, f) in clean.rounds.iter().zip(&faulty.rounds) {
            assert_eq!(f.edges_lost, 1);
            assert_eq!(f.edges_kept, 3);
            assert!(f.aggregated < c.aggregated);
        }
        assert_ne!(clean.weights_checksum(), faulty.weights_checksum());
    }

    #[test]
    fn trimmed_mean_contains_wildcard_nan_floods_at_scale() {
        // 1% of clients NaN-flood every round; per-shard trimmed mean with
        // budget to spare must keep the global finite.
        let plan = FaultPlan::new(9).with_rule(
            "*",
            RoundSelector::Probability { p: 0.01 },
            FaultKind::Corrupt {
                corruption: Corruption::NanFlood,
            },
        );
        let mut engine = ScaleEngine::new(
            template(),
            ScaleConfig {
                aggregator: Aggregator::TrimmedMean { trim: 20 },
                faults: Some(plan),
                edges: 1,
                rounds: 2,
                ..cfg(2_000, 1)
            },
        )
        .expect("engine");
        let out = engine.run().expect("contained");
        assert!(out.global_weights.iter().all(Matrix::is_finite));
        assert!(out.rounds.iter().all(|r| r.corrupted > 0));
    }

    #[test]
    fn traffic_accounts_both_tiers() {
        let mut engine = ScaleEngine::new(template(), cfg(1_000, 4)).expect("engine");
        let out = engine.run().expect("run");
        let model = template();
        let update_bytes = wire::encoded_size(&model);
        for r in &out.rounds {
            // kept client uplinks + 4 edge partials, no waste in a clean run.
            assert_eq!(r.uplink_bytes, (r.aggregated + r.edges_kept) * update_bytes);
            if r.round > 0 {
                assert_eq!(r.downlink_bytes, r.sampled * update_bytes);
            }
        }
        let accounted: usize = out
            .rounds
            .iter()
            .map(|r| r.uplink_bytes + r.downlink_bytes)
            .sum();
        assert_eq!(accounted, out.traffic.bytes);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let reject = |c: ScaleConfig, field: &str| match ScaleEngine::new(template(), c)
            .map(|_| ())
            .unwrap_err()
        {
            FederatedError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
            other => panic!("expected InvalidConfig for {field}, got {other}"),
        };
        reject(
            ScaleConfig {
                clients: 0,
                ..ScaleConfig::default()
            },
            "clients",
        );
        reject(
            ScaleConfig {
                rounds: 0,
                ..ScaleConfig::default()
            },
            "rounds",
        );
        reject(
            ScaleConfig {
                participation: 0.0,
                ..ScaleConfig::default()
            },
            "participation",
        );
        reject(
            ScaleConfig {
                edges: 0,
                ..ScaleConfig::default()
            },
            "edges",
        );
        reject(
            ScaleConfig {
                aggregator: Aggregator::Median,
                ..ScaleConfig::default()
            },
            "aggregator",
        );
        reject(
            ScaleConfig {
                aggregator: Aggregator::TrimmedMean { trim: 8 },
                edges: 16,
                ..ScaleConfig::default()
            },
            "edges",
        );
    }

    /// Zeroes the one legitimately thread-dependent stat so round stats
    /// can be compared across thread counts.
    fn stats_without_peak(rounds: &[ScaleRoundStats]) -> String {
        let stripped: Vec<ScaleRoundStats> = rounds
            .iter()
            .map(|r| ScaleRoundStats {
                peak_state_bytes: 0,
                ..r.clone()
            })
            .collect();
        serde_json::to_string(&stripped).expect("serialize")
    }

    #[test]
    fn parallel_fanout_is_bitwise_identical_to_serial() {
        let plan = FaultPlan::new(2)
            .with_rule(
                "*",
                RoundSelector::Probability { p: 0.15 },
                FaultKind::DropOut,
            )
            .with_rule(
                "*",
                RoundSelector::Probability { p: 0.05 },
                FaultKind::Transient { failures: 2 },
            );
        let run = |threads: usize| {
            let mut e = ScaleEngine::new(
                template(),
                ScaleConfig {
                    threads,
                    faults: Some(plan.clone()),
                    ..cfg(2_000, 8)
                },
            )
            .expect("engine");
            e.run().expect("run")
        };
        let serial = run(1);
        for threads in [2usize, 4, 8, 16] {
            let par = run(threads);
            assert_eq!(
                par.weights_checksum(),
                serial.weights_checksum(),
                "threads={threads}"
            );
            assert_eq!(par.traffic, serial.traffic, "threads={threads}");
            assert_eq!(
                stats_without_peak(&par.rounds),
                stats_without_peak(&serial.rounds),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn peak_state_grows_with_workers_not_population() {
        let run = |clients: usize, threads: usize| {
            let mut e = ScaleEngine::new(
                template(),
                ScaleConfig {
                    threads,
                    verify_streaming: true,
                    ..cfg(clients, 8)
                },
            )
            .expect("engine");
            e.run().expect("run")
        };
        // FedAvg: root + min(threads, edges) live edge accumulators.
        let serial = run(2_000, 1);
        assert_eq!(serial.peak_aggregation_bytes, 2 * serial.model_bytes);
        let par = run(2_000, 4);
        assert_eq!(par.peak_aggregation_bytes, 5 * par.model_bytes);
        // Population-invariant at a fixed worker count.
        let wide = run(8_000, 4);
        assert_eq!(wide.peak_aggregation_bytes, par.peak_aggregation_bytes);
    }

    #[test]
    fn edges_over_clients_message_is_exact() {
        let err = ScaleConfig {
            clients: 100,
            edges: 101,
            ..ScaleConfig::default()
        }
        .validate()
        .unwrap_err();
        match err {
            FederatedError::InvalidConfig { field, message } => {
                assert_eq!(field, "edges");
                assert_eq!(message, "need between 1 and 100 (the population), got 101");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn threads_zero_inherits_the_process_pool_width() {
        // Explicit widths stand alone…
        let explicit = ScaleConfig {
            threads: 5,
            ..ScaleConfig::default()
        };
        assert_eq!(explicit.effective_threads(), 5);
        // …while 0 composes with the process-wide knob that
        // `FederatedConfig.threads` installs at the start of a simulation
        // run (`parallel::set_threads`).
        parallel::set_threads(3);
        let inherited = ScaleConfig {
            threads: 0,
            ..ScaleConfig::default()
        }
        .effective_threads();
        parallel::set_threads(0);
        assert_eq!(inherited, 3);
    }

    #[test]
    fn compressed_uplink_is_deterministic_across_thread_counts() {
        // The fused Quant8 path end to end: encode per client, meter the
        // exact payload length, fold straight from the payload. Checksums,
        // traffic, and stats must be identical at every fan-out width.
        let run = |threads: usize, compression: CompressionMode| {
            let mut e = ScaleEngine::new(
                template(),
                ScaleConfig {
                    threads,
                    compression,
                    ..cfg(2_000, 8)
                },
            )
            .expect("engine");
            e.run().expect("run")
        };
        let serial = run(1, CompressionMode::Quant8);
        for threads in [2usize, 4] {
            let par = run(threads, CompressionMode::Quant8);
            assert_eq!(
                par.weights_checksum(),
                serial.weights_checksum(),
                "threads={threads}"
            );
            assert_eq!(par.traffic, serial.traffic, "threads={threads}");
            assert_eq!(
                stats_without_peak(&par.rounds),
                stats_without_peak(&serial.rounds),
                "threads={threads}"
            );
        }
        // Quantisation genuinely changes the fold (it is lossy) and
        // genuinely shrinks the uplink; the downlink stays full precision.
        let raw = run(1, CompressionMode::None);
        assert_ne!(serial.weights_checksum(), raw.weights_checksum());
        for (q, r) in serial.rounds.iter().zip(&raw.rounds) {
            assert!(q.uplink_bytes < r.uplink_bytes);
            assert_eq!(q.downlink_bytes, r.downlink_bytes);
        }
        // Peak aggregation state is unchanged: the fused fold never
        // materialises a decoded update.
        assert_eq!(serial.peak_aggregation_bytes, raw.peak_aggregation_bytes);
    }

    #[test]
    fn compressed_flat_fold_matches_batch_over_decoded_updates() {
        // verify_streaming under compression checks the fused streamed
        // fold against the batch aggregate over the server-side decodes
        // of the same payloads — bitwise for flat FedAvg.
        let mut e = ScaleEngine::new(
            template(),
            ScaleConfig {
                compression: CompressionMode::Quant8,
                verify_streaming: true,
                rounds: 2,
                ..cfg(400, 1)
            },
        )
        .expect("engine");
        e.run()
            .expect("fused fold must match the batch over decoded payloads bitwise");
    }

    #[test]
    fn compressed_waste_is_metered_at_encoded_length() {
        // Exhausted-transient uploads cross the channel at their real
        // (compressed) length, and the accounting identity still holds:
        // total traffic == Σ uplink + downlink.
        let plan = FaultPlan::new(5).with_rule(
            "*",
            RoundSelector::Probability { p: 0.1 },
            FaultKind::Transient { failures: 3 },
        );
        let mut e = ScaleEngine::new(
            template(),
            ScaleConfig {
                compression: CompressionMode::Quant8,
                faults: Some(plan),
                ..cfg(2_000, 4)
            },
        )
        .expect("engine");
        let out = e.run().expect("run");
        assert!(out.rounds.iter().any(|r| r.wasted > 0));
        let accounted: usize = out
            .rounds
            .iter()
            .map(|r| r.uplink_bytes + r.downlink_bytes)
            .sum();
        assert_eq!(accounted, out.traffic.bytes);
    }

    #[test]
    fn scale_config_serde_round_trips() {
        let cfg = ScaleConfig {
            faults: Some(FaultPlan::new(3).with_rule(
                "*",
                RoundSelector::Probability { p: 0.05 },
                FaultKind::DropOut,
            )),
            ..ScaleConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ScaleConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
        // Only the undefaulted fields: the rest read as their type's
        // default, which for `threads` is 0 (inherit), not `default()`'s 1.
        let bare: ScaleConfig = serde_json::from_str(
            r#"{"clients":10000,"rounds":5,"participation":0.1,"edges":16,
                "aggregator":"FedAvg","seed":0}"#,
        )
        .expect("bare");
        let expected = ScaleConfig {
            threads: 0,
            ..ScaleConfig::default()
        };
        assert_eq!(bare, expected);
    }
}

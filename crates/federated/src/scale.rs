//! Hierarchical large-population federation: 10k–1M lightweight clients,
//! parallel edge-tier streaming aggregation, O(model · workers) server
//! memory.
//!
//! The in-process [`crate::FederatedSimulation`] trains real models and
//! tops out at a few hundred clients. This engine scales the *protocol* —
//! scheduling, faults, traffic, aggregation — to paper-style populations
//! by replacing full clients with [`ClientSpec`]s: a zone profile drawn
//! from the data generator ([`evfad_data::ZoneProfile`]), a sample count,
//! and a seed, from which each round's update is synthesised
//! deterministically around the current global model.
//!
//! # Topology, parallelism, and memory
//!
//! Clients are partitioned into `edges` contiguous shards. Each round:
//!
//! 1. the [`Scheduler`] samples a C-fraction of the population;
//! 2. a pure fault pre-pass ([`crate::faults`] decisions are functions of
//!    `(seed, round, client)`) fixes every shard's surviving update count
//!    and sample total, sizing the streaming accumulators up front;
//! 3. each edge streams its shard through a
//!    [`crate::streaming::StreamingAggregator`] and forwards **one**
//!    partial update to the root — the edge→root hop runs through the
//!    same fault model, keyed by ids `"edge-0"`, `"edge-1"`, …;
//! 4. the root streams the edge partials into the next global model.
//!
//! Shard folds are mutually independent, so step 3 fans out across the
//! deterministic [`evfad_tensor::parallel`] worker pool in *waves* of
//! [`ScaleConfig::threads`] shards: each wave folds up to `threads`
//! shards concurrently (one task per shard), then the root ingests the
//! wave's partials in **strict edge-index order** before the next wave
//! starts. Only the root fold is order-sensitive, and its order never
//! depends on scheduling, so the result is **bitwise identical to the
//! serial run at every thread count** — the same guarantee the tensor
//! kernels pin.
//!
//! Live aggregation state is one root accumulator plus at most
//! `min(threads, edges)` concurrent edge accumulators (a finished fold's
//! partial replaces its accumulator, same footprint): O(model · workers),
//! independent of the population. The batch path would materialise every
//! kept update: O(clients × model). Both numbers are reported per run
//! ([`ScaleOutcome::peak_aggregation_bytes`] vs
//! [`ScaleOutcome::materialized_equivalent_bytes`]);
//! [`ScaleConfig::verify_streaming`] additionally asserts
//! in-run that no accumulator grows after its first ingest. Beside its
//! accumulator (the only state those two numbers count) an active fold
//! holds eight reused update buffers, which its kept clients are
//! synthesised into eight at a time; [`ClientSpec`]s are derived where
//! needed, never stored, so nothing the engine keeps grows with `clients`.
//!
//! With `edges: 1` and FedAvg the hierarchy degenerates to the flat
//! streaming fold, which is bitwise-identical to the batch rule
//! ([`ScaleConfig::verify_streaming`] asserts this inline). With more
//! edges, FedAvg remains exact up to floating-point reassociation: each
//! partial is the sample-weighted mean of its shard and the root weighs
//! partials by shard sample totals, so the composition is the overall
//! weighted mean.

use crate::aggregate::Aggregator;
use crate::client::LocalUpdate;
use crate::compression::{CodecScratch, CompressionMode};
use crate::error::FederatedError;
use crate::faults::{fnv1a, FaultEvent, FaultKind, FaultPlan};
use crate::scheduler::Scheduler;
use crate::server::{Disposition, FaultGate};
use crate::transport::{MeteredChannel, TrafficTotals};
use crate::wire;
use bytes::BytesMut;
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
    /// inherit the process-wide pool width (see
    /// [`ScaleConfig::effective_threads`]). Results are bitwise identical
    /// for every setting, so the two defaults differ in speed only:
    /// [`ScaleConfig::default`] is `1` (serial, host-independent), a
    /// serialized config without the field reads as `0` (inherit).
    #[serde(default)]
    pub threads: usize,
    /// Client→edge uplink compression. Each kept client's update is
    /// encoded for real (per-worker [`CodecScratch`], zero-alloc when
    /// warm), metered at its exact wire byte length, and folded into the
    /// edge accumulator **straight from the encoded payload** via the
    /// fused [`crate::streaming::StreamingAggregator::ingest_quantized`]
    /// path — no per-update `Vec<Matrix>` is ever materialised. The
    /// broadcast downlink and the edge→root hop stay full precision
    /// (partials are already one-model-per-edge; compressing them would
    /// compound quantisation error at the root). Results are identical at
    /// every thread count, like everything else in this engine.
    #[serde(default)]
    pub compression: CompressionMode,
    /// Client-tier fault plan. Wildcard (`"*"`) probability rules express
    /// population-level drop-out/straggler/corruption rates.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Edge-tier fault plan, consulted with client ids `"edge-{e}"` on the
    /// edge→root forward: a dropped edge loses its whole shard for the
    /// round; a timed-out edge partial is metered but discarded.
    #[serde(default)]
    pub edge_faults: Option<FaultPlan>,
    /// Also materialise every kept update and check the hierarchy against
    /// the batch aggregate each round: bitwise for flat FedAvg, ≤1e-9
    /// relative otherwise. Costs the O(clients × model) memory the
    /// streaming path avoids — a correctness gate, not a production mode.
    /// Ignored when an edge-tier fault plan is set (lost shards make the
    /// flat batch reference incomparable).
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
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(plan) = &self.edge_faults {
            plan.validate()?;
        }
        Ok(())
    }

    /// The edge fan-out width a run will use: `threads` itself, or — when
    /// `threads == 0` — the process-wide [`parallel::threads`], the same
    /// knob `FederatedConfig.threads` installs at the start of a
    /// simulation run. The two therefore compose: a simulation configures
    /// the pool once and a scale run with `threads: 0` inherits it.
    pub fn effective_threads(&self) -> usize {
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

/// How a shard's partial fares on the edge→root hop.
enum EdgeForward {
    /// Shard had no kept clients this round — nothing to forward.
    Empty,
    /// Edge dropped out: the partial never leaves, the shard is lost.
    Dropped,
    /// Partial crossed the channel `attempts` times but the root discards
    /// it (edge straggler past the timeout, exhausted retries).
    Waste { attempts: usize },
    /// Partial reaches the root (possibly corrupted/delayed in flight).
    Keep {
        fault: Option<FaultKind>,
        attempts: usize,
    },
}

/// What one edge-shard fold returns from the parallel fan-out: everything
/// the join needs, nothing that aliases the engine.
struct EdgeFold {
    /// The shard aggregate (pending the edge→root forward decision), or
    /// the first error the fold hit. Errors surface at the join in
    /// edge-index order, exactly where a serial run would report them.
    partial: Result<Vec<Matrix>, FederatedError>,
    /// Largest live accumulator state during this fold.
    peak_state: usize,
    /// Whether the accumulator held a constant size after its first
    /// ingest — the in-run half of the O(model · workers) bound, checked
    /// under [`ScaleConfig::verify_streaming`].
    state_stable: bool,
    /// Exact uplink payload bytes per kept update, in shard order — the
    /// real encoded length under [`ScaleConfig::compression`] (equal to
    /// the full-precision size when uncompressed). A pure function of the
    /// update, so the join's metering is thread-invariant.
    kept_payload_bytes: Vec<usize>,
    /// Kept updates, materialised only under `verify_streaming`.
    batch_reference: Vec<LocalUpdate>,
}

/// One kept client's pre-pass decision: index, fault to apply, upload attempts.
type Kept = (usize, Option<FaultKind>, usize);

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

/// A synthesis buffer shaped like `global`; [`ScaleEngine::synth_group`] fills it.
fn blank_update(global: &[Matrix]) -> LocalUpdate {
    LocalUpdate {
        client_id: String::new(),
        weights: global.to_vec(),
        sample_count: 0,
        train_loss: 0.0,
        duration: Duration::ZERO,
        simulated_extra_seconds: 0.0,
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

    /// The edge shard client `index` belongs to: contiguous, balanced.
    fn edge_of(&self, index: usize) -> usize {
        index * self.config.edges / self.config.clients
    }

    /// Synthesises the round updates of `plan`'s (at most [`LANES`]) clients
    /// into `out`, one reused buffer each: the current global model plus
    /// zone-scaled noise that damps as rounds progress, every client's drawn
    /// from its own `(seed, round, index)` generator, all stepping in
    /// lockstep — deterministic, thread-free. Every field and coefficient is
    /// overwritten: a corrupted update the last group left is gone.
    fn synth_group(&self, round: usize, global: &[Matrix], plan: &[Kept], out: &mut [LocalUpdate]) {
        debug_assert!(!plan.is_empty() && plan.len() == out.len() && plan.len() <= LANES);
        let damp = 1.0 / (1.0 + round as f64);
        let mut seeds = [0u64; LANES];
        let mut scale = [0.0f64; LANES];
        for l in 0..LANES {
            // Lanes past the group replay its last client and are dropped.
            let spec = self.spec(plan[l.min(plan.len() - 1)].0);
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

    /// Streams one shard's kept updates through a fresh accumulator and
    /// returns the shard aggregate plus the join's bookkeeping. Shared by
    /// the flat path (where the result *is* the next global) and the
    /// hierarchical path (where it becomes an edge partial).
    ///
    /// This is the unit of parallel work: it takes `&self` only, touches
    /// no channel or round state, and synthesises, disposes, and
    /// ingests in shard order — so a fold's output is a pure function of
    /// its inputs and identical on every thread. `plan` entries are the
    /// pure pre-pass decisions; `dispose` re-derives them identically
    /// while recording (discarded) side effects. Metering happens at the
    /// join, from the same plan.
    fn fold_shard(
        &self,
        round: usize,
        global: &[Matrix],
        plan: &[Kept],
        shard_total: f64,
        gate: &FaultGate,
        verify: bool,
    ) -> EdgeFold {
        let mut agg = self
            .config
            .aggregator
            .streaming(shard_total, plan.len())
            .expect("validated streamable");
        // Event/wait sinks: the scale engine keeps counters, not O(clients)
        // event telemetry, and reports wall-clock only.
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut timeout_wait = 0.0_f64;
        let mut fold = EdgeFold {
            partial: Ok(Vec::new()),
            peak_state: 0,
            state_stable: true,
            kept_payload_bytes: Vec::with_capacity(plan.len()),
            batch_reference: Vec::new(),
        };
        // Per-fold codec scratch: the first client of the shard warms the
        // buffers, every later encode in this fold reuses them. The
        // payload buffer holds the encoded uplink the fused ingest reads.
        let mode = self.config.compression;
        let raw_len = wire::encoded_size(global);
        let mut scratch = CodecScratch::default();
        let mut payload = BytesMut::new();
        let mut settled_state = 0usize;
        // Synthesis buffers, allocated once per fold: LANES plan entries are
        // synthesised in one pass, then disposed, encoded and ingested one
        // by one in plan order.
        let mut group = vec![blank_update(global); plan.len().min(LANES)];
        for (i, &(_, fault, _attempts)) in plan.iter().enumerate() {
            if i % LANES == 0 {
                let members = &plan[i..plan.len().min(i + LANES)];
                self.synth_group(round, global, members, &mut group[..members.len()]);
            }
            let update = &mut group[i % LANES];
            let disposed = gate.dispose(round, fault, update, &mut events, &mut timeout_wait, true);
            debug_assert!(matches!(disposed, Disposition::Keep { .. }));
            events.clear();
            // Uplink encode + fused edge fold. Quant8 builds the real
            // compressed payload (post-fault, so corruption crosses the
            // wire exactly as the protocol ships it) and streams it into
            // the accumulator without materialising a decode.
            let ingested = match mode {
                CompressionMode::None => {
                    fold.kept_payload_bytes.push(raw_len);
                    agg.ingest(update)
                }
                CompressionMode::Quant8 => {
                    crate::compression::QuantizedUpdate::quantize_into(
                        &update.weights,
                        &mut scratch.quant,
                    );
                    wire::encode_quantized_into(&mut payload, &scratch.quant);
                    fold.kept_payload_bytes.push(payload.len());
                    agg.ingest_quantized(&update.client_id, update.sample_count, &payload)
                }
            };
            if let Err(e) = ingested {
                fold.partial = Err(e);
                return fold;
            }
            let state = agg.state_bytes();
            if settled_state == 0 {
                settled_state = state;
            } else if state != settled_state {
                fold.state_stable = false;
            }
            fold.peak_state = fold.peak_state.max(state);
            if verify {
                // The batch reference must see what the aggregator saw:
                // the server-side decode of the encoded payload.
                scratch.decode_into(mode, &mut update.weights);
                fold.batch_reference.push(update.clone());
            }
        }
        fold.partial = agg.finish();
        fold
    }

    /// Runs the full schedule.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::InvalidConfig`] from up-front validation;
    /// * [`FederatedError::InsufficientParticipants`] when faults starve a
    ///   round below the plan's floor (or lose every shard);
    /// * [`FederatedError::Aggregation`] from the streaming rules (e.g. a
    ///   NaN-flooded coordinate exceeding trimmed mean's containment
    ///   budget) or a failed [`ScaleConfig::verify_streaming`] check.
    pub fn run(&mut self) -> Result<ScaleOutcome, FederatedError> {
        self.config.validate()?;
        self.channel.reset();
        let start = Instant::now();
        let cfg = self.config.clone();
        let gate = FaultGate::new(cfg.faults.clone());
        let edge_gate = FaultGate::new(cfg.edge_faults.clone());
        let scheduler = Scheduler::new(cfg.participation, cfg.seed);
        let n = cfg.clients;
        let mut global = self.template.clone();
        let update_bytes = wire::encoded_size(&global);
        let model_bytes: usize = global.iter().map(|m| m.len() * 8).sum();
        let verify = cfg.verify_streaming && cfg.edge_faults.is_none();
        // Wave width for the parallel fan-out: at most this many shard
        // folds (and thus live edge accumulators) exist at once.
        let fanout = cfg.effective_threads().max(1).min(cfg.edges);
        // Scratch for metering wasted uploads in the (serial) pre-pass;
        // the per-shard folds carry their own.
        let mut waste_scratch = CodecScratch::default();
        let mut waste_update = [blank_update(&global)];
        // One id buffer for every `fault_for` question of the run.
        let mut id = String::new();
        let mut rounds = Vec::with_capacity(cfg.rounds);
        let mut peak_aggregation_bytes = 0usize;
        let mut materialized_equivalent_bytes = 0usize;

        for round in 0..cfg.rounds {
            let round_start = Instant::now();
            let participants = scheduler.sample(round, n);
            let sampled = participants.len();
            let mut downlink_bytes = 0usize;
            if round > 0 {
                for _ in 0..sampled {
                    self.channel.record_bytes(update_bytes);
                }
                downlink_bytes = update_bytes * sampled;
            }

            // Pure fault pre-pass: shard membership, surviving counts, and
            // sample totals — everything the streaming constructors need —
            // before a single update is synthesised. `fault_for` is a pure
            // function of (seed, round, id), so the main pass below sees
            // the identical decisions.
            let mut shard_kept: Vec<Vec<Kept>> = vec![Vec::new(); cfg.edges];
            // Summed as f64 in kept order — the exact fold the batch
            // FedAvg performs over its updates.
            let mut shard_samples: Vec<f64> = vec![0.0; cfg.edges];
            let mut dropped = 0usize;
            let mut wasted = 0usize;
            let mut corrupted = 0usize;
            let mut uplink_bytes = 0usize;
            for &ci in &participants {
                let spec = self.spec(ci);
                spec.write_id(&mut id);
                let fault = gate.fault_for(round, &id);
                if matches!(fault, Some(FaultKind::DropOut)) {
                    dropped += 1;
                    continue;
                }
                if matches!(fault, Some(FaultKind::Corrupt { .. })) {
                    corrupted += 1;
                }
                match gate.decide(fault) {
                    Disposition::Keep { attempts } => {
                        let e = self.edge_of(ci);
                        shard_kept[e].push((ci, fault, attempts));
                        shard_samples[e] += spec.sample_count as f64;
                    }
                    Disposition::Waste { attempts } => {
                        // Discarded uploads still crossed the channel —
                        // at their real encoded length. A wasted client
                        // never reaches a fold, so its payload is the
                        // synthesised update (waste dispositions never
                        // mutate the payload).
                        wasted += 1;
                        let len = match cfg.compression {
                            CompressionMode::None => update_bytes,
                            mode => {
                                let member = [(ci, fault, attempts)];
                                self.synth_group(round, &global, &member, &mut waste_update);
                                waste_scratch.encoded_len(mode, &waste_update[0].weights)
                            }
                        };
                        self.channel.record_attempts_bytes(len, attempts);
                        uplink_bytes += len * attempts;
                    }
                }
            }
            let kept_total: usize = shard_kept.iter().map(Vec::len).sum();
            if kept_total < gate.min_participants {
                return Err(FederatedError::InsufficientParticipants {
                    round,
                    survivors: kept_total,
                    required: gate.min_participants,
                });
            }

            // Edge-tier pre-pass (pure): which partials will reach the
            // root. The flat topology has no forward hop — its single
            // shard's aggregate *is* the next global.
            let forwards: Option<Vec<EdgeForward>> = if cfg.edges == 1 {
                None
            } else {
                Some(
                    (0..cfg.edges)
                        .map(|e| {
                            if shard_kept[e].is_empty() {
                                return EdgeForward::Empty;
                            }
                            id.clear();
                            write!(id, "edge-{e}").expect("a String accepts every write");
                            let fault = edge_gate.fault_for(round, &id);
                            if matches!(fault, Some(FaultKind::DropOut)) {
                                return EdgeForward::Dropped;
                            }
                            match edge_gate.decide(fault) {
                                Disposition::Keep { attempts } => {
                                    EdgeForward::Keep { fault, attempts }
                                }
                                Disposition::Waste { attempts } => EdgeForward::Waste { attempts },
                            }
                        })
                        .collect(),
                )
            };
            let mut root = match &forwards {
                None => None,
                Some(forwards) => {
                    let root_expected = forwards
                        .iter()
                        .filter(|f| matches!(f, EdgeForward::Keep { .. }))
                        .count();
                    if root_expected == 0 {
                        return Err(FederatedError::InsufficientParticipants {
                            round,
                            survivors: 0,
                            required: gate.min_participants.max(1),
                        });
                    }
                    let root_total: f64 = forwards
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| matches!(f, EdgeForward::Keep { .. }))
                        .map(|(e, _)| shard_samples[e])
                        .sum();
                    Some(
                        cfg.aggregator
                            .streaming(root_total, root_expected)
                            .expect("validated streamable"),
                    )
                }
            };

            // Main pass: fold the shards in waves of `fanout` across the
            // worker pool, then join every wave at the root in strict
            // edge-index order. At most `fanout` edge accumulators are
            // live at once (a chunk holds one shard at a time), and the
            // root ingest order is a pure function of the edge index —
            // bitwise identical at every thread count.
            let mut aggregated = 0usize;
            let mut edges_kept = 0usize;
            let mut edges_lost = 0usize;
            let mut round_peak_edge = 0usize;
            let mut batch_reference: Vec<LocalUpdate> = Vec::new();
            let mut flat_global: Option<Vec<Matrix>> = None;
            let mut slots: Vec<Option<EdgeFold>> = Vec::with_capacity(fanout);
            let mut wave_start = 0usize;
            while wave_start < cfg.edges {
                let wave = fanout.min(cfg.edges - wave_start);
                slots.clear();
                slots.resize_with(wave, || None);
                parallel::distribute(&mut slots, wave, |k, slot| {
                    let e = wave_start + k;
                    // Empty hierarchical shards have nothing to fold; the
                    // flat shard always folds so an empty round surfaces
                    // the streaming rule's own error.
                    if shard_kept[e].is_empty() && cfg.edges > 1 {
                        return;
                    }
                    *slot = Some(self.fold_shard(
                        round,
                        &global,
                        &shard_kept[e],
                        shard_samples[e],
                        &gate,
                        verify,
                    ));
                });
                for (k, slot) in slots.iter_mut().enumerate() {
                    let e = wave_start + k;
                    let Some(fold) = slot.take() else {
                        continue; // empty shard
                    };
                    // Kept clients' uploads crossed the channel whatever
                    // the edge's fate — meter them from the fold's exact
                    // per-update encoded lengths, in shard order.
                    for (&(_, _, attempts), &len) in
                        shard_kept[e].iter().zip(&fold.kept_payload_bytes)
                    {
                        self.channel.record_attempts_bytes(len, attempts);
                        uplink_bytes += len * attempts;
                    }
                    round_peak_edge = round_peak_edge.max(fold.peak_state);
                    if verify && !fold.state_stable {
                        return Err(FederatedError::Aggregation(format!(
                            "round {round}: edge {e} accumulator grew after its first \
                             ingest — the O(model · workers) bound is broken"
                        )));
                    }
                    let partial_weights = fold.partial?;
                    if verify {
                        batch_reference.extend(fold.batch_reference);
                    }
                    match (&mut root, &forwards) {
                        (None, _) => {
                            // Flat: the shard aggregate is the next global.
                            aggregated += shard_kept[e].len();
                            edges_kept += 1;
                            flat_global = Some(partial_weights);
                        }
                        (Some(root), Some(forwards)) => match forwards[e] {
                            EdgeForward::Empty => unreachable!("empty shards leave no fold"),
                            EdgeForward::Dropped => edges_lost += 1,
                            EdgeForward::Waste { attempts } => {
                                edges_lost += 1;
                                self.channel.record_attempts_bytes(update_bytes, attempts);
                                uplink_bytes += update_bytes * attempts;
                            }
                            EdgeForward::Keep { fault, attempts } => {
                                let mut partial = LocalUpdate {
                                    client_id: format!("edge-{e}"),
                                    weights: partial_weights,
                                    sample_count: shard_samples[e] as usize,
                                    train_loss: 0.0,
                                    duration: Duration::ZERO,
                                    simulated_extra_seconds: 0.0,
                                };
                                let mut edge_events: Vec<FaultEvent> = Vec::new();
                                let mut edge_wait = 0.0f64;
                                edge_gate.dispose(
                                    round,
                                    fault,
                                    &mut partial,
                                    &mut edge_events,
                                    &mut edge_wait,
                                    true,
                                );
                                self.channel.record_attempts_bytes(update_bytes, attempts);
                                uplink_bytes += update_bytes * attempts;
                                root.ingest(&partial)?;
                                edges_kept += 1;
                                aggregated += shard_kept[e].len();
                            }
                        },
                        (Some(_), None) => unreachable!("root implies forwards"),
                    }
                }
                wave_start += wave;
            }

            // Peak live state this round: the root accumulator plus one
            // edge accumulator per concurrently active fold. `active` is
            // exact, not a bound: waves are `fanout` wide and a chunk
            // never holds more than one shard.
            let nonempty = shard_kept.iter().filter(|plan| !plan.is_empty()).count();
            let active = fanout.min(nonempty.max(1));
            let (next_global, root_state) = match root {
                None => (flat_global.expect("flat shard always folds"), 0),
                Some(root) => {
                    let state = root.state_bytes();
                    (root.finish()?, state)
                }
            };
            let round_peak = root_state + active * round_peak_edge;
            if verify {
                check_against_batch(
                    cfg.aggregator,
                    cfg.edges,
                    &batch_reference,
                    &next_global,
                    round,
                )?;
            }
            global = next_global;
            peak_aggregation_bytes = peak_aggregation_bytes.max(round_peak);
            materialized_equivalent_bytes =
                materialized_equivalent_bytes.max(kept_total * model_bytes);
            rounds.push(ScaleRoundStats {
                round,
                sampled,
                aggregated,
                dropped,
                wasted,
                corrupted,
                edges_kept,
                edges_lost,
                uplink_bytes,
                downlink_bytes,
                peak_state_bytes: round_peak,
                duration: round_start.elapsed(),
            });
        }

        Ok(ScaleOutcome {
            rounds,
            global_weights: global,
            traffic: self.channel.totals(),
            peak_aggregation_bytes,
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
    use crate::faults::{Corruption, RoundSelector};
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
        let mut out: Vec<LocalUpdate> = (0..LANES).map(|_| blank_update(&global)).collect();
        // Rounds 0 / 1 / 7 damp by exact powers of two; round 2 (a third)
        // is the one that notices `amplitude * damp` being reassociated.
        for round in [0usize, 1, 2, 7] {
            for size in 1..=LANES {
                // `first` walks the three zones; stride 2 mixes them
                // within a group.
                for first in 0..Zone::ALL.len() {
                    let plan: Vec<Kept> = (0..size)
                        .map(|k| (100 * size + first + 2 * k, None, 1))
                        .collect();
                    engine.synth_group(round, &global, &plan, &mut out[..size]);
                    for (l, &(index, ..)) in plan.iter().enumerate() {
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

//! The five workloads. Each drives the product through public functions
//! only, builds its inputs from the seed, and checks what comes back.

pub mod paper_run;
pub mod scale;
pub mod score_stream;
pub mod socket_fed;

use crate::trace::Tracer;
use evfad_core::tensor::{alloc_stats, AllocStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order a suite runs them.
pub const NAMES: [&str; 5] = [
    "paper_run",
    "socket_fed",
    "scale_plain",
    "scale_q8",
    "score_stream",
];

/// Every size a workload uses. Fixed here, never read from the
/// environment: two runs of one commit must do the same work.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Whether these are the full sizes (quality floors apply only then).
    pub full: bool,
    /// `paper_run`: hourly points per client.
    pub timestamps: usize,
    /// `paper_run`: federated rounds.
    pub rounds: usize,
    /// `paper_run`: local epochs per round.
    pub epochs_per_round: usize,
    /// `paper_run`: autoencoder epochs.
    pub filter_epochs: usize,
    /// `socket_fed`: rounds of one federation (one listener, one port).
    pub socket_rounds: usize,
    /// Scale workloads: simulated population.
    pub scale_clients: usize,
    /// Scale workloads: edge aggregators.
    pub scale_edges: usize,
    /// `scale_plain`: rounds of one engine run.
    pub plain_rounds: usize,
    /// `scale_q8`: rounds of one engine run.
    pub q8_rounds: usize,
    /// `score_stream`: tenants sharing the service.
    pub tenants: usize,
    /// `score_stream`: clean points that fit the filter and seed each
    /// tenant's context.
    pub context: usize,
    /// `score_stream`: attacked readings per tenant before they repeat.
    pub stream_len: usize,
}

impl Sizes {
    /// The sizes every reported number is measured at.
    pub fn full() -> Self {
        Self {
            full: true,
            timestamps: 1080,
            rounds: 2,
            epochs_per_round: 3,
            filter_epochs: 3,
            socket_rounds: 500,
            scale_clients: 100_000,
            scale_edges: 32,
            plain_rounds: 4,
            q8_rounds: 2,
            tenants: 32,
            context: 720,
            stream_len: 2160,
        }
    }

    /// Roughly a twentieth of the work, same code paths and checks: for a
    /// CI gate, never for a number.
    pub fn smoke() -> Self {
        Self {
            full: false,
            timestamps: 360,
            rounds: 1,
            epochs_per_round: 1,
            filter_epochs: 1,
            socket_rounds: 25,
            scale_clients: 5_000,
            scale_edges: 8,
            plain_rounds: 2,
            q8_rounds: 2,
            tenants: 8,
            context: 240,
            stream_len: 240,
        }
    }
}

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every completed unit (study, round, round, tick), ms.
    pub unit_ms: Vec<f64>,
    /// `(seconds since the pass began, work items completed so far)`,
    /// marked wherever the workload's loop comes round: after a study,
    /// a federation, an engine run, a tick. Work items are train steps,
    /// rounds, rounds, scored windows. The last mark is the pass's wall
    /// time and total work.
    pub marks: Vec<(f64, f64)>,
    /// Matrix buffers and bytes the product allocated inside the timed
    /// loop (`tensor::alloc_stats` delta; checks after it not counted).
    pub allocs: AllocStats,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or never completed.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Exact counts and derived numbers only this workload knows,
    /// keyed by per-layer metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Marks `work` more items done, `start` being when the pass began.
    pub fn mark(&mut self, start: Instant, work: f64) {
        let done = self.marks.last().map_or(0.0, |m| m.1);
        self.marks
            .push((start.elapsed().as_secs_f64(), done + work));
    }

    /// Adds what was allocated since `before` to the pass's count.
    pub fn count_allocs(&mut self, before: &AllocStats) {
        let delta = alloc_stats().since(before);
        self.allocs.matrices += delta.matrices;
        self.allocs.bytes += delta.bytes;
    }

    /// Wall time of the pass, seconds.
    pub fn wall_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.0)
    }

    /// Folds a later pass of the same workload into this one. Marks of
    /// the later pass continue where this one's stop.
    pub fn absorb(&mut self, later: Outcome) {
        let (t0, w0) = self.marks.last().copied().unwrap_or((0.0, 0.0));
        self.marks
            .extend(later.marks.iter().map(|(t, w)| (t0 + t, w0 + w)));
        self.unit_ms.extend(later.unit_ms);
        self.allocs.matrices += later.allocs.matrices;
        self.allocs.bytes += later.allocs.bytes;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.errors.extend(later.errors);
        self.layer.extend(later.layer);
    }
}

/// A workload whose set-up is done.
pub trait Workload {
    /// Runs units until `seconds` have passed (always at least one),
    /// recording spans when the tracer is on, then checks the outputs.
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome;

    /// Called once, after a traced run's passes and probes: adds the
    /// ledger rows that set this workload's unit (`unit_s`, seconds,
    /// untraced) against the probe and span rows already in `rows`, runs
    /// the checks only a traced run pays for, and returns those that
    /// failed.
    fn ledger(&mut self, _unit_s: f64, _rows: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
        Vec::new()
    }
}

/// Sets a workload up: inputs from the seed, models, a warm-up pass.
/// `None` for an unknown name.
pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_run" => Box::new(paper_run::PaperRun::setup(seed, sizes)),
        "socket_fed" => Box::new(socket_fed::SocketFed::setup(seed, sizes)),
        "scale_plain" => Box::new(scale::Scale::setup(seed, sizes, false)),
        "scale_q8" => Box::new(scale::Scale::setup(seed, sizes, true)),
        "score_stream" => Box::new(score_stream::ScoreStream::setup(seed, sizes)),
        _ => return None,
    })
}

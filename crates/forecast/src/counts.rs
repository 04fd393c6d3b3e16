//! What one study run did, counted rather than timed.
//!
//! Every row here is a function of the configuration and the seed: the
//! same at every thread count and on every host, so two trees' tables can
//! be diffed where their clocks cannot. [`run_study_counted`] returns one
//! beside the report; `full_study --counts` prints it.
//!
//! [`run_study_counted`]: crate::experiment::run_study_counted

use crate::scenario::{Architecture, Scenario};
use evfad_federated::RoundStats;
use evfad_nn::{ArenaPlan, Layer, Sequential, TrainCounts};
use evfad_tensor::AllocStats;
use std::fmt::Write as _;

/// One study job's training: which job, and its optimizer steps and the
/// windows they ran over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobCounts {
    pub(crate) job: String,
    pub(crate) trained: TrainCounts,
}

/// What one client's detector scored and replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DetectorCounts {
    /// Windows the autoencoder scored: the calibration pass over the clean
    /// series and the detection pass over the attacked one.
    pub(crate) windows_scored: u64,
    /// Points over the threshold.
    pub(crate) flagged: usize,
    /// Points the mitigation replaced: the flagged ones and the gaps
    /// merged between them.
    pub(crate) interpolated: usize,
}

/// One model kind's arena at the batch it trains with, by layer and by
/// lifetime (`Sequential::arena_plan`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArenaCounts {
    kind: &'static str,
    batch: usize,
    layers: Vec<&'static str>,
    plan: ArenaPlan,
}

impl ArenaCounts {
    /// `model`'s plan for batches of `batch` windows of `steps` values.
    pub(crate) fn of(kind: &'static str, model: &Sequential, steps: usize, batch: usize) -> Self {
        Self {
            kind,
            batch,
            layers: model.layers().iter().map(layer_kind).collect(),
            plan: model.arena_plan(steps, batch, 1),
        }
    }
}

/// The deterministic counts of one study run; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCounts {
    pub(crate) jobs: Vec<JobCounts>,
    pub(crate) detectors: Vec<(String, DetectorCounts)>,
    /// Each federation's round records; the table reads their traffic.
    pub(crate) federations: Vec<(Scenario, Vec<RoundStats>)>,
    pub(crate) matrices: AllocStats,
    pub(crate) arenas: Vec<ArenaCounts>,
}

/// `"Clean Data / Federated"`: a training job's name.
pub(crate) fn training_job(scenario: Scenario, architecture: Architecture) -> String {
    format!("{} / {}", scenario.label(), architecture.label())
}

fn layer_kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Dense(_) => "Dense",
        Layer::Lstm(_) => "LSTM",
        Layer::Dropout(_) => "Dropout",
        Layer::RepeatVector(_) => "RepeatVector",
    }
}

impl StudyCounts {
    /// The counts as one plain-text table, with no clock in it.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "COUNTS: per study job (optimizer steps, windows trained on)"
        );
        let _ = writeln!(out, "{:<28} {:>10} {:>12}", "Job", "Steps", "Samples");
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12}",
                j.job, j.trained.steps, j.trained.samples
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "COUNTS: per detector");
        let _ = writeln!(
            out,
            "{:<10} {:>15} {:>9} {:>13}",
            "Client", "Windows scored", "Flagged", "Interpolated"
        );
        for (zone, d) in &self.detectors {
            let _ = writeln!(
                out,
                "{:<10} {:>15} {:>9} {:>13}",
                zone, d.windows_scored, d.flagged, d.interpolated
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "COUNTS: traffic per round, per federation");
        let _ = writeln!(
            out,
            "{:<28} {:>5} {:>12} {:>9} {:>14} {:>11}",
            "Federation", "Round", "Uplink B", "Up msgs", "Downlink B", "Down msgs"
        );
        for (scenario, rounds) in &self.federations {
            for r in rounds {
                let _ = writeln!(
                    out,
                    "{:<28} {:>5} {:>12} {:>9} {:>14} {:>11}",
                    training_job(*scenario, Architecture::Federated),
                    r.round,
                    r.uplink_bytes,
                    r.uplink_messages,
                    r.downlink_bytes,
                    r.downlink_messages
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "COUNTS: Matrix allocations per run: {} ({} bytes)",
            self.matrices.matrices, self.matrices.bytes
        );
        for a in &self.arenas {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "COUNTS: {} arena bytes by lifetime at batch {}: training step {}, eval pass {}",
                a.kind, a.batch, a.plan.training, a.plan.eval
            );
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>15} {:>17} {:>10}",
                "Layer", "Output", "Training cache", "Backward scratch", "Eval"
            );
            for (layer, bytes) in a.layers.iter().zip(&a.plan.layers) {
                let _ = writeln!(
                    out,
                    "{:<14} {:>10} {:>15} {:>17} {:>10}",
                    layer, bytes.output, bytes.training_cache, bytes.backward_scratch, bytes.eval
                );
            }
        }
        out
    }
}

//! `scale_plain` and `scale_q8`: `ScaleEngine::run` over 100 000 simulated
//! clients, 32 edges, a tenth of them sampled each round, FedAvg, one
//! thread. No training: scheduler, fault gate, update synthesis and the
//! streaming aggregator at population scale.
//!
//! The two differ in one field. `scale_plain` folds dense updates through
//! `StreamingFedAvg::ingest`; `scale_q8` quantises and encodes every
//! update and folds it through the fused `ingest_quantized`. A codec gain
//! must show on `scale_q8` and leave `scale_plain` flat, and an `ingest`
//! gain the reverse.

use super::{Outcome, Sizes, Workload};
use crate::host;
use crate::stats;
use crate::trace::Tracer;
use evfad_core::federated::compression::QuantizedUpdate;
use evfad_core::federated::scale::{ScaleConfig, ScaleEngine, ScaleOutcome};
use evfad_core::federated::{wire, CompressionMode, Scheduler};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::tensor::{alloc_stats, Matrix};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Scale {
    engine: ScaleEngine,
    template: Vec<Matrix>,
    /// Checksum of the first run of this process; every later run of the
    /// same configuration must land on it.
    checksum: Option<String>,
}

fn config(seed: u64, sizes: &Sizes, q8: bool, clients: usize, threads: usize) -> ScaleConfig {
    ScaleConfig {
        clients,
        rounds: if q8 {
            sizes.q8_rounds
        } else {
            sizes.plain_rounds
        },
        participation: 0.1,
        edges: sizes.scale_edges,
        seed,
        threads,
        compression: if q8 {
            CompressionMode::Quant8
        } else {
            CompressionMode::None
        },
        ..ScaleConfig::default()
    }
}

fn engine(template: &[Matrix], config: ScaleConfig) -> ScaleEngine {
    ScaleEngine::new(template.to_vec(), config).expect("the benchmark's scale config is valid")
}

impl Scale {
    /// Builds the model template, derives the population, and runs one
    /// round over it to warm the fold and codec paths. The warm round
    /// also makes set-up as long as a unit: without it set-up is 30 ms of
    /// allocation, and its median drifted 28 % between sets of ten runs.
    pub fn setup(seed: u64, sizes: &Sizes, q8: bool) -> Self {
        let template = build_forecaster(50, 0.003, seed).weights();
        let mut warm = config(seed, sizes, q8, sizes.scale_clients, 1);
        warm.rounds = 1;
        // A failure here repeats in the measured runs and is counted there.
        let _ = engine(&template, warm).run();
        Self {
            engine: engine(&template, config(seed, sizes, q8, sizes.scale_clients, 1)),
            template,
            checksum: None,
        }
    }

    /// Uplink bytes a fault-free round must meter: every aggregated
    /// client's payload plus one full-precision partial per edge.
    fn expected_uplink(&self, aggregated: usize, edges_kept: usize) -> usize {
        let raw = wire::encoded_size(&self.template);
        let per_client = match self.engine.config().compression {
            // With finite weights a Quant8 payload's size depends on
            // shapes alone.
            CompressionMode::Quant8 => {
                wire::quantized_encoded_size(&QuantizedUpdate::quantize(&self.template))
            }
            _ => raw,
        };
        aggregated * per_client + edges_kept * raw
    }

    fn check(&mut self, outcome: &ScaleOutcome, out: &mut Outcome) {
        let checksum = outcome.weights_checksum();
        match &self.checksum {
            None => self.checksum = Some(checksum),
            Some(first) if *first != checksum => out.fail(format!(
                "weights checksum {checksum} differs from the first run's {first}"
            )),
            Some(_) => {}
        }
        if outcome.peak_aggregation_bytes != 2 * outcome.model_bytes {
            out.fail(format!(
                "peak aggregation state {} is not two models of {} bytes",
                outcome.peak_aggregation_bytes, outcome.model_bytes
            ));
        }
        for r in &outcome.rounds {
            let expected = self.expected_uplink(r.aggregated, r.edges_kept);
            if r.uplink_bytes != expected {
                out.fail(format!(
                    "round {} metered {} uplink bytes, arithmetic says {expected}",
                    r.round, r.uplink_bytes
                ));
            }
        }
    }
}

impl Workload for Scale {
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let allocs = alloc_stats();
        let start = Instant::now();
        let mut runs = Vec::new();
        loop {
            tracer.enter("federated.scale_outside_rounds");
            let run = self.engine.run();
            if let Ok(outcome) = &run {
                // Rounds as the engine times them, laid at the end of the
                // run span; what is left is work outside any round.
                let rounds: f64 = outcome
                    .rounds
                    .iter()
                    .map(|r| r.duration.as_secs_f64())
                    .sum();
                let end = tracer.now();
                tracer.record("federated.scale_rounds", end - rounds, end);
            }
            tracer.exit();
            out.mark(start, run.as_ref().map_or(0.0, |r| r.rounds.len() as f64));
            runs.push(run);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        out.count_allocs(&allocs);

        let cfg = self.engine.config();
        let sampled_per_run = (cfg.rounds
            * Scheduler::new(cfg.participation, cfg.seed).take_count(cfg.clients))
            as u64;
        for run in &runs {
            match run {
                Ok(outcome) => {
                    for r in &outcome.rounds {
                        out.attempted += r.sampled as u64;
                        out.failed += (r.sampled - r.aggregated) as u64;
                        out.unit_ms.push(r.duration.as_secs_f64() * 1e3);
                    }
                    self.check(outcome, &mut out);
                    let rounds = outcome.rounds.len() as f64;
                    let uplink: usize = outcome.rounds.iter().map(|r| r.uplink_bytes).sum();
                    out.layer.insert(
                        "federated.uplink_mb_per_round",
                        uplink as f64 / rounds / 1e6,
                    );
                    out.layer.insert(
                        "federated.peak_state_bytes",
                        outcome.peak_aggregation_bytes as f64,
                    );
                }
                Err(e) => {
                    out.attempted += sampled_per_run;
                    out.failed += sampled_per_run;
                    out.fail(format!("scale run failed: {e}"));
                }
            }
        }

        out
    }
    fn ledger(&mut self, unit_s: f64, rows: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
        let row =
            |rows: &BTreeMap<&'static str, f64>, key: &str| rows.get(key).copied().unwrap_or(0.0);
        let cfg = self.engine.config().clone();

        // Everything the public primitives do not explain — update
        // synthesis, the fault gate, metering: a round minus one sample
        // and one fold (and, under Quant8, one encode) per sampled client.
        let model_mb = row(rows, "federated.model_mb");
        let per_update = match cfg.compression {
            CompressionMode::Quant8 => {
                model_mb / row(rows, "federated.q8_encode_mb_s")
                    + model_mb / row(rows, "federated.ingest_q8_mb_s")
            }
            _ => model_mb / row(rows, "federated.ingest_mb_s"),
        };
        let sampled = Scheduler::new(cfg.participation, cfg.seed).take_count(cfg.clients);
        let explained =
            sampled as f64 * per_update + row(rows, "federated.scheduler_sample_us") / 1e6;
        rows.insert(
            "federated.scale_unaccounted_share",
            1.0 - explained / unit_s,
        );

        // A second engine at two threads must land on the same checksum;
        // on a host with two CPUs its speed-up is a measurement, not
        // scheduler noise.
        let parallel = engine(&self.template, ScaleConfig { threads: 2, ..cfg }).run();
        match (parallel, &self.checksum) {
            (Ok(p), Some(serial)) if p.weights_checksum() == *serial => {
                if host::cpus() >= 2 {
                    let round_s: Vec<f64> =
                        p.rounds.iter().map(|r| r.duration.as_secs_f64()).collect();
                    rows.insert(
                        "federated.parallel_speedup_t2",
                        unit_s / stats::median(&stats::sorted(round_s)),
                    );
                }
                Vec::new()
            }
            (Ok(p), _) => vec![format!(
                "threads: 2 checksum {} differs from threads: 1",
                p.weights_checksum()
            )],
            (Err(e), _) => vec![format!("threads: 2 run failed: {e}")],
        }
    }
}

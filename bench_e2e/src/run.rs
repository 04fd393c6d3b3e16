//! One run of one workload: set up (several times), measure, check,
//! print one JSON line. This is the unit the driver's contract speaks of
//! and the child process a suite spawns for every rep.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Outcome, Sizes, Workload};
use crate::{host, probes, stats};
use evfad_core::tensor::parallel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run. The reported `setup_s` is their median; the last
/// instance is the one measured.
const SETUPS: usize = 5;

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Where run artefacts (trace files, suite sets) go: under cargo's target
/// directory, which the checkout ignores.
pub fn artefact_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("bench_e2e")
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    }
}

/// Sets the workload up `SETUPS` times, dropping each instance before
/// the next so peak memory is one instance's. Returns the last instance
/// and the median set-up time.
fn set_up(args: &RunArgs, sizes: &Sizes) -> Option<(Box<dyn Workload>, f64)> {
    // Only an end-to-end run at full size reports `setup_s`.
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(setups);
    let mut instance = None;
    for _ in 0..setups {
        drop(instance.take());
        let start = Instant::now();
        instance = Some(workloads::setup(&args.workload, args.seed, sizes)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Some((instance?, stats::median(&stats::sorted(times))))
}

fn line(outcomes: &[&Outcome], defs: &[Metric], values: &BTreeMap<&str, f64>) -> RunLine {
    let mut correct = outcomes.iter().all(|o| o.errors.is_empty());
    let metrics = defs
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                eprintln!("bench_e2e: {} is not finite", m.name);
                correct = false;
            }
            let entry = MetricValue {
                value: if value.is_finite() { value } else { 0.0 },
                unit: m.unit.to_string(),
            };
            (m.name.to_string(), entry)
        })
        .collect();
    RunLine {
        correct,
        attempted: outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        metrics,
    }
}

fn report_errors(outcome: &Outcome) {
    for e in &outcome.errors {
        eprintln!("bench_e2e: check failed: {e}");
    }
}

/// Stretches a run is cut into; `unit_p50_ms` and `work_per_s` report
/// the calmest one (see `stats::stretch_medians`).
const STRETCHES: usize = 10;

/// Median unit latency in the calmest stretch of a pass, ms.
fn calmest_unit_ms(outcome: &Outcome) -> f64 {
    stats::lowest(&stats::stretch_medians(&outcome.unit_ms, STRETCHES))
}

/// The end-to-end pass: tracing off, every end-to-end metric.
fn end_to_end(args: &RunArgs, mut workload: Box<dyn Workload>, setup_s: f64) -> RunLine {
    let outcome = workload.measure(args.seconds, &mut Tracer::off());
    report_errors(&outcome);
    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mb", host::peak_rss_mb());
    if !outcome.unit_ms.is_empty() {
        values.insert("unit_p50_ms", calmest_unit_ms(&outcome));
        let rates = stats::stretch_rates(&outcome.marks, STRETCHES);
        values.insert("work_per_s", stats::highest(&rates));
    }
    let mut line = line(&[&outcome], &END_TO_END, &values);
    // A run that completed no unit has no timing to report; zeros would
    // read as an impossibly fast system.
    line.correct &= !outcome.unit_ms.is_empty();
    line
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    traced_wall_s: f64,
    units: usize,
    spans: Vec<Span>,
}

/// The traced pass. Untraced and traced stretches of a quarter of the
/// time each alternate until the time is used up (one of each at least),
/// so a slow phase of the host falls on both sides of `trace.overhead`;
/// then every probe runs. Prints every per-layer metric; a stage that
/// does not run on this workload reads 0.
fn traced(args: &RunArgs, mut workload: Box<dyn Workload>) -> RunLine {
    let gemm_before = host::gemm_gflops();
    let workload_name: &'static str = workloads::NAMES
        .iter()
        .find(|n| **n == args.workload)
        .expect("set-up accepted the name");
    let mut tracer = Tracer::on(workload_name);
    let (mut untraced, mut traced) = (Outcome::default(), Outcome::default());
    let started = Instant::now();
    loop {
        untraced.absorb(workload.measure(args.seconds / 4.0, &mut Tracer::off()));
        traced.absorb(workload.measure(args.seconds / 4.0, &mut tracer));
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut values: BTreeMap<&'static str, f64> = probes::run_all(args.seed);
    values.insert("host.cpus", host::cpus() as f64);
    values.insert("host.memcpy_gbs", host::memcpy_gbs());
    let gemm_after = host::gemm_gflops();
    values.insert("host.gemm_gflops", gemm_before);
    values.insert("host.drift", gemm_after / gemm_before);
    values.insert(
        "tensor.gemm_pct_of_host",
        100.0 * values["tensor.gemm_fwd_gflops"] / gemm_before,
    );

    // Exact counts and derived numbers the workload knows.
    values.extend(
        untraced
            .layer
            .iter()
            .chain(&traced.layer)
            .map(|(k, v)| (*k, *v)),
    );

    // Span self times, per unit.
    let units = traced.unit_ms.len().max(1) as f64;
    let self_times = tracer.self_times();
    for m in &PER_LAYER {
        if let Some(span) = m.name.strip_suffix("_s") {
            if let Some(seconds) = self_times.get(span) {
                values.insert(m.name, seconds / units);
            }
        }
    }
    values.insert(
        "tensor.matrix_allocs",
        traced.allocs.matrices as f64 / units,
    );
    values.insert(
        "tensor.matrix_alloc_mb",
        traced.allocs.bytes as f64 / 1e6 / units,
    );
    values.insert("trace.units", units);
    values.insert("trace.spans", tracer.spans().len() as f64);
    values.insert(
        "trace.unaccounted_share",
        1.0 - tracer.covered() / traced.wall_s().max(f64::MIN_POSITIVE),
    );
    if !untraced.unit_ms.is_empty() && !traced.unit_ms.is_empty() {
        // Both sides at their calmest, so a burst that fell on one side
        // does not read as tracing overhead.
        let (off, on) = (calmest_unit_ms(&untraced), calmest_unit_ms(&traced));
        values.insert("trace.overhead", on / off - 1.0);
        traced
            .errors
            .extend(workload.ledger(off / 1e3, &mut values));
        // The whole-pass median and tail, bursts and all: what a caller
        // on this host saw.
        let units = stats::sorted(untraced.unit_ms.clone());
        values.insert("trace.untraced_unit_p50_ms", stats::median(&units));
        // A tail is reported only where ten samples lie beyond it.
        if stats::supported_tail(units.len()).is_some_and(|p| p >= 0.95) {
            values.insert(
                "trace.untraced_unit_p95_ms",
                stats::percentile(&units, 0.95),
            );
        }
    }

    report_errors(&untraced);
    report_errors(&traced);

    let dir = artefact_dir();
    let path = dir.join(format!("trace-{}.json", args.workload));
    let file = TraceFile {
        workload: args.workload.clone(),
        seed: args.seed,
        traced_wall_s: traced.wall_s(),
        units: traced.unit_ms.len(),
        spans: tracer.spans().to_vec(),
    };
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&file).expect("spans serialise"),
        )
    });
    match written {
        Ok(()) => eprintln!(
            "bench_e2e: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("bench_e2e: could not write {}: {e}", path.display()),
    }

    let mut line = line(&[&untraced, &traced], &PER_LAYER, &values);
    line.correct &= !traced.unit_ms.is_empty();
    line
}

/// Runs one workload once and prints its result line. Returns whether
/// the run was correct.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    // One core per load thread. Left at its default the tensor worker
    // pool splits every GEMM of these shapes across all CPUs, and on a
    // shared two-CPU host a run then measures how fast a sleeping worker
    // is woken — 15–24 s for one study, against 15–16 s serial. Thread
    // scaling has its own ledger rows; the workloads do not depend on it.
    parallel::set_serial_flop_threshold(usize::MAX);
    let sizes = sizes(args.smoke);
    let (workload, setup_s) = set_up(args, &sizes).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    let line = if args.trace {
        traced(args, workload)
    } else {
        end_to_end(args, workload, setup_s)
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("a result line serialises")
    );
    Ok(line.correct)
}

//! Every metric the benchmark prints: name, unit, direction, bound.
//! `BENCHMARK.json` at the repository root lists the same, and a test
//! keeps the two from drifting apart.

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload prints every one:
///
/// * `unit_p50_ms` — median latency of the workload's unit — one study
///   (`paper_run`), one federated round (`socket_fed`, `scale_*`), one
///   submit-and-flush tick (`score_stream`) — in the calmest of ten
///   consecutive stretches of the run (`stats::stretch_medians`);
/// * `work_per_s` — train steps, rounds, rounds or scored windows per
///   second of wall time, set-up of each federation or engine run
///   included, in the best of ten equal stretches of the run
///   (`stats::stretch_rates`);
/// * `setup_s` — input generation, model build, filter fit, population
///   derivation and the warm-up pass, median of five set-ups;
/// * `peak_rss_mb` — `VmHWM` of the run's own process.
///
/// The calmest stretch, not the whole run: on a shared host a neighbour's
/// burst of a few seconds adds half again to every unit inside it, and
/// how much of a 10 s run the bursts take is the host's business. The
/// whole-run median and p95 are ledger rows (`trace.untraced_unit_*`).
///
/// The three timing bounds are the widest the driver allows. On the
/// shared two-CPU host this was written on, ten runs of one commit spread
/// 3–8 % in a calm stretch and 10–27 % when the neighbours were busy, and
/// medians of two such sets sat up to 19 % apart (README, "Measured
/// spread"): a tighter bound would call the host's mood a regression.
pub const END_TO_END: [Metric; 4] = [
    e2e("unit_p50_ms", "ms", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// The ledger under the end-to-end rows. Span rows (`*_s`) are self
/// time per unit and are zero on a workload where the stage does not
/// run; probe rows are measured in every traced run.
pub const PER_LAYER: [Metric; 66] = [
    // Host context.
    layer("host.cpus", "count", "higher"),
    layer("host.gemm_gflops", "GFLOP/s", "higher"),
    layer("host.memcpy_gbs", "GB/s", "higher"),
    layer("host.drift", "ratio", "higher"),
    // tensor: probes on the LSTM gate GEMM (32×50 · 50×200).
    layer("tensor.gemm_fwd_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm_bwd_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm_pct_of_host", "%", "higher"),
    layer("tensor.fastpath_gflops", "GFLOP/s", "higher"),
    layer("tensor.pool_gain_t2", "ratio", "higher"),
    layer("tensor.matrix_allocs", "count", "lower"),
    layer("tensor.matrix_alloc_mb", "MB", "lower"),
    // nn: probes at B=32, T=24.
    layer("nn.forecaster_step_ms", "ms", "lower"),
    layer("nn.autoencoder_step_ms", "ms", "lower"),
    layer("nn.train_steps", "count", "lower"),
    layer("nn.predict_windows_per_s", "1/s", "higher"),
    layer("nn.infer_windows_per_s_b32", "1/s", "higher"),
    layer("nn.infer_windows_per_s_b1", "1/s", "higher"),
    layer("nn.infer_batch_gain", "ratio", "higher"),
    // paper_run stage spans.
    layer("data.generate_s", "s", "lower"),
    layer("attack.inject_s", "s", "lower"),
    layer("timeseries.scale_s", "s", "lower"),
    layer("anomaly.fit_s", "s", "lower"),
    layer("anomaly.detect_s", "s", "lower"),
    layer("anomaly.detect_windows_per_s", "1/s", "higher"),
    layer("anomaly.mitigate_s", "s", "lower"),
    layer("forecast.prepare_s", "s", "lower"),
    layer("forecast.evaluate_s", "s", "lower"),
    layer("federated.client_fit_s", "s", "lower"),
    layer("federated.round_overhead_s", "s", "lower"),
    layer("federated.central_fit_s", "s", "lower"),
    layer("forecast.filtered_r2", "r2", "higher"),
    layer("anomaly.detect_f1", "f1", "higher"),
    // score_stream spans and counts.
    layer("anomaly.submit_s", "s", "lower"),
    layer("anomaly.flush_s", "s", "lower"),
    layer("anomaly.service_overhead_share", "share", "lower"),
    layer("anomaly.decisions", "count", "higher"),
    layer("anomaly.flagged", "count", "lower"),
    layer("anomaly.quarantined", "count", "lower"),
    // socket_fed spans, probes and counts.
    layer("federated.socket_bind_s", "s", "lower"),
    layer("federated.socket_handshake_s", "s", "lower"),
    layer("federated.socket_rounds_s", "s", "lower"),
    layer("federated.socket_join_s", "s", "lower"),
    layer("federated.wire_encode_mb_s", "MB/s", "higher"),
    layer("federated.wire_decode_mb_s", "MB/s", "higher"),
    layer("federated.msg_codec_us", "us", "lower"),
    layer("federated.frame_roundtrip_us", "us", "lower"),
    layer("federated.socket_vs_inproc", "ratio", "lower"),
    layer("federated.messages", "count", "lower"),
    layer("federated.bytes", "bytes", "lower"),
    layer("federated.retries", "count", "lower"),
    layer("federated.uplink_mb_per_round", "MB", "lower"),
    // scale spans, probes and counts.
    layer("federated.scale_rounds_s", "s", "lower"),
    layer("federated.scale_outside_rounds_s", "s", "lower"),
    layer("federated.scheduler_sample_us", "us", "lower"),
    layer("federated.ingest_mb_s", "MB/s", "higher"),
    layer("federated.q8_encode_mb_s", "MB/s", "higher"),
    layer("federated.ingest_q8_mb_s", "MB/s", "higher"),
    layer("federated.scale_unaccounted_share", "share", "lower"),
    layer("federated.peak_state_bytes", "bytes", "lower"),
    layer("federated.parallel_speedup_t2", "ratio", "higher"),
    // The trace itself.
    layer("trace.units", "count", "higher"),
    layer("trace.spans", "count", "lower"),
    layer("trace.unaccounted_share", "share", "lower"),
    layer("trace.overhead", "share", "lower"),
    layer("trace.untraced_unit_p50_ms", "ms", "lower"),
    layer("trace.untraced_unit_p95_ms", "ms", "lower"),
];

/// `1.0` when larger is worse, `-1.0` when smaller is.
pub fn worse_sign(metric: &Metric) -> f64 {
    if metric.better == "lower" {
        1.0
    } else {
        -1.0
    }
}

//! Gates every wire codec byte-exactly, races the fused decode-into-fold
//! against the materializing decode, and emits `BENCH_comms.json`.
//!
//! Two sections:
//!
//! * `codec` — decode gates, checked before anything is timed: EVFD
//!   (full-precision weights) must round-trip **bitwise**; EVQ8 (8-bit
//!   quantized) must re-encode to the identical payload with dequantization
//!   error bounded by half a quantization step; EVSK (top-k sparse delta)
//!   must re-encode identically and reconstruct the same update. The O(1)
//!   `*_encoded_size` arithmetic must equal the real payload length — that
//!   equality is what lets the round loop meter without serialising.
//!   Reported per mode as wire bytes per update on the paper's forecaster,
//!   with the Quant8 ratio gated at ≈8x.
//! * `fastpath` — fused `ingest_quantized` / `ingest_topk` against
//!   decode-then-`ingest`, gated bitwise-identical, with throughput floors
//!   in full runs, plus the zero-matrix-allocation warm codec round.
//!
//! Usage: `cargo run --release --bin bench_comms [output-path] [--smoke]`
//!
//! `--smoke` runs a tiny model with few repetitions and skips the JSON
//! dump — the CI gate that the codecs and the fused fold stay honest.

use evfad_bench::median;
use evfad_core::federated::compression::{QuantizedUpdate, SparseDelta};
use evfad_core::federated::wire;
use evfad_core::federated::{Aggregator, CodecScratch, LocalUpdate};
use evfad_core::nn::forecaster_model;
use evfad_core::tensor::{alloc_stats, Matrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Paper-shaped model weights, perturbed so no tensor is degenerate-range.
fn model_weights(lstm_units: usize) -> Vec<Matrix> {
    forecaster_model(lstm_units, 42)
        .weights()
        .iter()
        .map(|m| {
            let vals: Vec<f64> = m
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, v)| v + 0.01 * ((i as f64) * 0.37).sin())
                .collect();
            Matrix::from_vec(m.rows(), m.cols(), vals)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Section 1: codec gates.
// ---------------------------------------------------------------------------

struct CodecResult {
    mode: &'static str,
    payload_bytes: usize,
    ratio_vs_full: f64,
    max_error: f64,
    exact: bool,
}

fn gate_codecs(weights: &[Matrix], global: &[Matrix], k: usize, full: bool) -> Vec<CodecResult> {
    let raw = wire::encode_weights(weights);
    assert_eq!(
        raw.len(),
        wire::encoded_size(weights),
        "EVFD size arithmetic diverged from the real payload"
    );
    let decoded = wire::decode_weights(&raw).expect("EVFD decode");
    assert_eq!(decoded, *weights, "EVFD round trip must be bitwise");
    let none = CodecResult {
        mode: "none",
        payload_bytes: raw.len(),
        ratio_vs_full: 1.0,
        max_error: 0.0,
        exact: true,
    };

    let q = QuantizedUpdate::quantize(weights);
    let qp = wire::encode_quantized(&q);
    assert_eq!(
        qp.len(),
        wire::quantized_encoded_size(&q),
        "EVQ8 size arithmetic diverged from the real payload"
    );
    let qd = wire::decode_quantized(&qp).expect("EVQ8 decode");
    assert_eq!(
        wire::encode_quantized(&qd),
        qp,
        "EVQ8 decode → re-encode must be the identity on payloads"
    );
    let restored = qd.dequantize();
    let mut max_error = 0.0f64;
    for (r, w) in restored.iter().zip(weights) {
        for (a, b) in r.as_slice().iter().zip(w.as_slice()) {
            max_error = max_error.max((a - b).abs());
        }
    }
    let max_half_step = weights
        .iter()
        .map(|m| {
            let (lo, hi) = m
                .as_slice()
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(*v), h.max(*v)));
            (hi - lo) / 255.0 / 2.0
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_error <= max_half_step + 1e-12,
        "EVQ8 error {max_error} exceeds half a quantization step {max_half_step}"
    );
    let q_ratio = raw.len() as f64 / qp.len() as f64;
    if full {
        assert!(
            q_ratio > 7.0 && q_ratio < 8.0,
            "Quant8 ratio {q_ratio} strayed from ≈8x on paper-shaped tensors"
        );
    }
    let quant = CodecResult {
        mode: "quant8",
        payload_bytes: qp.len(),
        ratio_vs_full: q_ratio,
        max_error,
        exact: false,
    };

    let d = SparseDelta::top_k(weights, global, k);
    let sp = wire::encode_sparse(&d);
    assert_eq!(
        sp.len(),
        wire::sparse_encoded_size(&d),
        "EVSK size arithmetic diverged from the real payload"
    );
    let sd = wire::decode_sparse(&sp).expect("EVSK decode");
    assert_eq!(
        wire::encode_sparse(&sd),
        sp,
        "EVSK decode → re-encode must be the identity on payloads"
    );
    assert_eq!(
        sd.apply(global),
        d.apply(global),
        "EVSK decoded delta must reconstruct the same update"
    );
    assert!(sp.len() < raw.len(), "top-k must shrink the payload");
    let sparse = CodecResult {
        mode: "topk",
        payload_bytes: sp.len(),
        ratio_vs_full: raw.len() as f64 / sp.len() as f64,
        max_error: 0.0,
        exact: false,
    };

    vec![none, quant, sparse]
}

// ---------------------------------------------------------------------------
// Section 2: allocation-free compressed-uplink fast path.
// ---------------------------------------------------------------------------

struct FastpathResult {
    mode: &'static str,
    payload_bytes: usize,
    fused_mb_s: f64,
    materialized_mb_s: f64,
    speedup: f64,
    encode_mb_s: f64,
}

/// Per-client weights: the shared model nudged by a client-specific signal
/// so every payload is distinct but deterministically reproducible.
fn client_weights(weights: &[Matrix], c: usize) -> Vec<Matrix> {
    weights
        .iter()
        .map(|m| {
            let vals: Vec<f64> = m
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, v)| v + 1e-3 * (((i + 31 * c) as f64) * 0.61).cos())
                .collect();
            Matrix::from_vec(m.rows(), m.cols(), vals)
        })
        .collect()
}

/// Median-of-reps throughput for `pass`, in MB/s of `bytes_per_pass` input.
fn mb_per_s<T>(
    bytes_per_pass: usize,
    inner: usize,
    reps: usize,
    mut pass: impl FnMut() -> T,
) -> f64 {
    black_box(pass()); // warm caches and buffers before timing
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            black_box(pass());
        }
        times.push(start.elapsed().as_secs_f64());
    }
    (bytes_per_pass * inner) as f64 / median(times) / 1e6
}

/// One full warm codec round: scratch-encode both compressed formats and
/// decode both straight back into an existing weight set. After the cold
/// round has grown every buffer, repeats of this must allocate **zero**
/// matrix buffers — that is the fast path's contract.
fn codec_round(
    weights: &[Matrix],
    global: &[Matrix],
    k: usize,
    scratch: &mut CodecScratch,
    qbuf: &mut wire::BytesMut,
    sbuf: &mut wire::BytesMut,
    decoded: &mut Vec<Matrix>,
) -> usize {
    QuantizedUpdate::quantize_into(weights, &mut scratch.quant);
    wire::encode_quantized_into(qbuf, &scratch.quant);
    scratch.quant.dequantize_into(decoded);
    SparseDelta::top_k_into(weights, global, k, &mut scratch.picked, &mut scratch.sparse);
    wire::encode_sparse_into(sbuf, &scratch.sparse);
    scratch.sparse.apply_into(global, decoded);
    qbuf.len() + sbuf.len()
}

fn assert_warm_rounds_alloc_free(weights: &[Matrix], global: &[Matrix], k: usize) {
    let mut scratch = CodecScratch::default();
    let mut qbuf = wire::BytesMut::new();
    let mut sbuf = wire::BytesMut::new();
    let mut decoded = global.to_vec();
    // Cold round: scratch tensors, frame buffers, and the decode target
    // all take their final shapes here.
    codec_round(
        weights,
        global,
        k,
        &mut scratch,
        &mut qbuf,
        &mut sbuf,
        &mut decoded,
    );
    let before = alloc_stats();
    let mut touched = 0usize;
    for _ in 0..3 {
        touched += codec_round(
            weights,
            global,
            k,
            &mut scratch,
            &mut qbuf,
            &mut sbuf,
            &mut decoded,
        );
    }
    black_box(touched);
    let delta = alloc_stats().since(&before);
    assert_eq!(
        delta.matrices, 0,
        "warm codec rounds allocated {} matrix buffers — the scratch-reuse fast path regressed",
        delta.matrices
    );
}

/// Races the fused decode-into-fold (`ingest_quantized` / `ingest_topk`)
/// against the materializing path (decode the payload, reconstruct the full
/// `Vec<Matrix>`, then `ingest`). Gated bitwise-identical always; the
/// throughput floor (fused ≥ 1.5× materializing) is enforced in full runs.
fn race_fastpath(
    weights: &[Matrix],
    global: &[Matrix],
    clients: usize,
    k: usize,
    reps: usize,
    inner: usize,
    full: bool,
) -> Vec<FastpathResult> {
    let ids: Vec<String> = (0..clients).map(|c| format!("client-{c}")).collect();
    let per_client: Vec<Vec<Matrix>> = (0..clients).map(|c| client_weights(weights, c)).collect();
    let raw_bytes = clients * wire::encoded_size(weights);
    let total = (100 * clients) as f64;
    let update = |id: &str, weights: Vec<Matrix>| LocalUpdate {
        client_id: id.to_string(),
        weights,
        sample_count: 100,
        train_loss: 0.0,
        duration: Duration::ZERO,
        simulated_extra_seconds: 0.0,
    };

    // --- Quant8 ---
    let q_payloads: Vec<Vec<u8>> = per_client
        .iter()
        .map(|w| wire::encode_quantized(&QuantizedUpdate::quantize(w)).to_vec())
        .collect();
    let q_bytes: usize = q_payloads.iter().map(Vec::len).sum();
    let fused_quant = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&q_payloads) {
            agg.ingest_quantized(id, 100, p).expect("fused ingest");
        }
        agg.finish().expect("finish")
    };
    let materialized_quant = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&q_payloads) {
            let decoded = wire::decode_quantized(p).expect("EVQ8 decode").dequantize();
            agg.ingest(&update(id, decoded)).expect("ingest");
        }
        agg.finish().expect("finish")
    };
    assert_eq!(
        wire::encode_weights(&fused_quant()),
        wire::encode_weights(&materialized_quant()),
        "fused quantized fold diverged from decode-then-ingest"
    );
    let fused_mb_s = mb_per_s(q_bytes, inner, reps, fused_quant);
    let materialized_mb_s = mb_per_s(q_bytes, inner, reps, materialized_quant);
    let encode_mb_s = {
        let mut scratch = CodecScratch::default();
        let mut buf = wire::BytesMut::new();
        mb_per_s(raw_bytes, inner, reps, move || {
            let mut len = 0usize;
            for w in &per_client {
                QuantizedUpdate::quantize_into(w, &mut scratch.quant);
                wire::encode_quantized_into(&mut buf, &scratch.quant);
                len += buf.len();
            }
            len
        })
    };
    let quant = FastpathResult {
        mode: "quant8",
        payload_bytes: q_bytes / clients,
        fused_mb_s,
        materialized_mb_s,
        speedup: fused_mb_s / materialized_mb_s,
        encode_mb_s,
    };

    // --- TopKDelta ---
    let per_client: Vec<Vec<Matrix>> = (0..clients).map(|c| client_weights(weights, c)).collect();
    let s_payloads: Vec<Vec<u8>> = per_client
        .iter()
        .map(|w| wire::encode_sparse(&SparseDelta::top_k(w, global, k)).to_vec())
        .collect();
    let s_bytes: usize = s_payloads.iter().map(Vec::len).sum();
    let fused_topk = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&s_payloads) {
            agg.ingest_topk(id, 100, global, p).expect("fused ingest");
        }
        agg.finish().expect("finish")
    };
    let materialized_topk = || {
        let mut agg = Aggregator::FedAvg
            .streaming(total, clients)
            .expect("FedAvg streams");
        for (id, p) in ids.iter().zip(&s_payloads) {
            let decoded = wire::decode_sparse(p).expect("EVSK decode").apply(global);
            agg.ingest(&update(id, decoded)).expect("ingest");
        }
        agg.finish().expect("finish")
    };
    assert_eq!(
        wire::encode_weights(&fused_topk()),
        wire::encode_weights(&materialized_topk()),
        "fused top-k fold diverged from decode-then-ingest"
    );
    let fused_mb_s = mb_per_s(s_bytes, inner, reps, fused_topk);
    let materialized_mb_s = mb_per_s(s_bytes, inner, reps, materialized_topk);
    let encode_mb_s = {
        let mut scratch = CodecScratch::default();
        let mut buf = wire::BytesMut::new();
        mb_per_s(raw_bytes, inner, reps, move || {
            let mut len = 0usize;
            for w in &per_client {
                SparseDelta::top_k_into(w, global, k, &mut scratch.picked, &mut scratch.sparse);
                wire::encode_sparse_into(&mut buf, &scratch.sparse);
                len += buf.len();
            }
            len
        })
    };
    let topk = FastpathResult {
        mode: "topk",
        payload_bytes: s_bytes / clients,
        fused_mb_s,
        materialized_mb_s,
        speedup: fused_mb_s / materialized_mb_s,
        encode_mb_s,
    };

    // Floors: quant8 carries the headline ≥1.5x decode-path claim (the
    // materializing path pays a full decode pass plus a fresh model
    // allocation per update that the fused fold skips entirely). Top-k's
    // dominant cost — the dense base fold — is shared by both paths, so
    // its ceiling is structurally near parity; it is gated at no material
    // regression (0.9, leaving headroom for timer noise around 1.0x).
    let results = vec![quant, topk];
    if full {
        for (r, floor) in results.iter().zip([1.5, 0.9]) {
            assert!(
                r.speedup >= floor,
                "fused {} decode+ingest came in at {:.2}x the materializing path — below the {floor}x floor",
                r.mode,
                r.speedup
            );
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_comms.json".to_string());

    // Paper federation: 3 zones, LSTM(50) forecaster.
    let (lstm_units, clients, k, reps) = if smoke {
        (8, 3, 32, 3)
    } else {
        (50, 3, 512, 21)
    };

    println!(
        "comms bench: {} (LSTM({lstm_units}), {clients} clients, reps={reps})",
        if smoke { "smoke" } else { "full" }
    );

    let weights = model_weights(lstm_units);
    let global = forecaster_model(lstm_units, 42).weights();

    let codecs = gate_codecs(&weights, &global, k, !smoke);
    for c in &codecs {
        println!(
            "codec {:<8} payload {:>8} B  ratio {:>5.2}x  max_error {:.3e}  exact={}",
            c.mode, c.payload_bytes, c.ratio_vs_full, c.max_error, c.exact
        );
    }

    assert_warm_rounds_alloc_free(&weights, &global, k);
    println!("fastpath          warm codec rounds: 0 matrix allocations");
    let inner = if smoke { 2 } else { 8 };
    let fastpath = race_fastpath(&weights, &global, clients, k, reps, inner, !smoke);
    for f in &fastpath {
        println!(
            "fastpath {:<8} fused {:>8.1} MB/s   materialized {:>8.1} MB/s   speedup {:>4.2}x   encode {:>8.1} MB/s",
            f.mode, f.fused_mb_s, f.materialized_mb_s, f.speedup, f.encode_mb_s
        );
    }

    if smoke {
        println!("smoke ok: codecs byte-exact, fused fold bitwise, warm rounds allocation-free");
        return;
    }

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let codec_entries: Vec<String> = codecs
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"payload_bytes\": {},\n",
                    "      \"ratio_vs_full\": {:.2},\n",
                    "      \"max_error\": {:.6e},\n",
                    "      \"exact\": {}\n",
                    "    }}"
                ),
                c.mode, c.payload_bytes, c.ratio_vs_full, c.max_error, c.exact
            )
        })
        .collect();
    let fastpath_entries: Vec<String> = fastpath
        .iter()
        .map(|f| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"mode\": \"{}\",\n",
                    "        \"payload_bytes\": {},\n",
                    "        \"fused_decode_ingest_mb_s\": {:.1},\n",
                    "        \"materialized_decode_ingest_mb_s\": {:.1},\n",
                    "        \"decode_speedup\": {:.2},\n",
                    "        \"encode_mb_s\": {:.1}\n",
                    "      }}"
                ),
                f.mode,
                f.payload_bytes,
                f.fused_mb_s,
                f.materialized_mb_s,
                f.speedup,
                f.encode_mb_s
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"comms\",\n",
            "  \"schema\": 3,\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"model\": \"forecaster LSTM({})\",\n",
            "  \"clients\": {},\n",
            "  \"codec\": [\n{}\n  ],\n",
            "  \"fastpath\": {{\n",
            "    \"warm_round_matrix_allocs\": 0,\n",
            "    \"modes\": [\n{}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        host_cpus,
        reps,
        lstm_units,
        clients,
        codec_entries.join(",\n"),
        fastpath_entries.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}

//! Serving-throughput bench: windows/sec of the scalar-exact scoring path
//! against the frozen inference snapshot's blocked-f64 and int8 lanes, and
//! emits `BENCH_inference.json`.
//!
//! The scalar-exact baseline is the production per-window path — one
//! `AnomalyFilter::score_into` call per streamed window, exactly what
//! `OnlineDetector::push` does. The fast lanes score the same windows
//! through `InferenceModel::forward_batch_into`: weights packed once,
//! many windows per GEMM, optionally int8 weights with f32 accumulation.
//! Multi-thread rows split the batch into contiguous chunks served by
//! per-worker snapshot clones on the deterministic
//! `evfad_tensor::parallel` pool — chunking cannot change any window's
//! bits, so thread count is a pure throughput knob.
//!
//! Accuracy is gated, not hoped for: every run measures the max absolute
//! score delta and the decision-flip rate of each fast lane against the
//! exact scores (threshold = the filter's fitted boundary on the paper
//! generator's data) and asserts the documented bounds — the blocked-f64
//! lane must be **bitwise identical** (zero delta, zero flips); the int8
//! lane must stay within 0.05 with at most 2 % flips.
//!
//! Usage: `cargo run --release --bin bench_inference [output-path] [--smoke]`
//!
//! `--smoke` runs a tiny model with few repetitions and skips the JSON
//! dump — the CI gate for the exactness/accuracy contract above. Full
//! mode additionally gates the single-thread speedups over scalar-exact
//! on the paper's LSTM(50) autoencoder: blocked-f64 ≥ 0.9× (no material
//! regression), int8 ≥ 1.2× windows/sec. All three paths share one σ/tanh,
//! so what the floors measure is batching — many windows per GEMM and per
//! activation pass against one window at a time — and they sit under the
//! lowest of the readings listed in EXPERIMENTS.md, which span 1.01–1.97×
//! and 1.34–2.65× on a shared two-CPU host.

use evfad_bench::median;
use evfad_core::anomaly::{AnomalyFilter, FilterConfig};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::nn::infer::{InferenceModel, Precision};
use evfad_core::tensor::parallel;
use evfad_core::timeseries::MinMaxScaler;
use std::time::Instant;

/// One worker's contiguous slice of the window batch.
struct Worker {
    model: InferenceModel,
    input: Vec<f64>,
    recon: Vec<f64>,
    rows: usize,
    out_shape: (usize, usize),
}

/// Splits `windows` (flat, `n_wins × seq_len`) into balanced contiguous
/// per-worker chunks — the same split `parallel::distribute` uses.
fn make_workers(
    prototype: &InferenceModel,
    windows: &[f64],
    n_wins: usize,
    seq_len: usize,
    threads: usize,
) -> Vec<Worker> {
    let chunks = threads.min(n_wins).max(1);
    let base = n_wins / chunks;
    let extra = n_wins % chunks;
    let mut start = 0usize;
    (0..chunks)
        .map(|c| {
            let rows = base + usize::from(c < extra);
            let input = windows[start * seq_len..(start + rows) * seq_len].to_vec();
            start += rows;
            Worker {
                model: prototype.clone(),
                input,
                recon: Vec::new(),
                rows,
                out_shape: (0, 0),
            }
        })
        .collect()
}

/// One batched pass over all workers; returns per-window scores
/// (squared reconstruction error at the window's last point).
fn score_batched(workers: &mut [Worker], values_last: &[f64], scores: &mut Vec<f64>) {
    let chunks = workers.len();
    parallel::distribute(workers, chunks, |_, w| {
        if w.rows > 0 {
            w.out_shape = w.model.forward_batch_into(&w.input, w.rows, &mut w.recon);
        }
    });
    scores.clear();
    let mut row = 0usize;
    for w in workers.iter() {
        let (os, of) = w.out_shape;
        for local in 0..w.rows {
            let err = w.recon[local * os * of + (os - 1) * of] - values_last[row];
            scores.push(err * err);
            row += 1;
        }
    }
}

struct LaneRow {
    mode: &'static str,
    threads: usize,
    windows_per_sec: f64,
    max_score_delta: f64,
    flip_rate: f64,
}

struct Accuracy {
    max_delta: f64,
    flip_rate: f64,
}

fn accuracy(exact: &[f64], fast: &[f64], threshold: f64) -> Accuracy {
    let mut max_delta = 0.0f64;
    let mut flips = 0usize;
    for (e, f) in exact.iter().zip(fast) {
        max_delta = max_delta.max((e - f).abs());
        if (e > &threshold) != (f > &threshold) {
            flips += 1;
        }
    }
    Accuracy {
        max_delta,
        flip_rate: flips as f64 / exact.len() as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_inference.json".to_string());

    // Paper generator data, scaled 0..1 as the paper's pipeline does.
    let (seq_len, units, train_len, eval_len, reps, thread_counts): (
        usize,
        (usize, usize),
        usize,
        usize,
        usize,
        &[usize],
    ) = if smoke {
        (8, (6, 3), 160, 80, 2, &[1, 2])
    } else {
        (24, (50, 25), 600, 560, 9, &[1, 2, 4])
    };
    let data = ShenzhenGenerator::new(DatasetConfig::small(train_len + eval_len, 2022))
        .generate_zone(Zone::Z102);
    let scaler = MinMaxScaler::fit(&data.demand[..train_len]).expect("non-degenerate demand");
    let scaled = scaler.transform(&data.demand);
    let (train, eval) = scaled.split_at(train_len);

    // Quick fit: one epoch at a wide stride — the bench needs real fitted
    // weights and a real threshold, not a converged model.
    let config = FilterConfig {
        seq_len,
        encoder_units: units,
        epochs: 1,
        train_stride: 4,
        ..FilterConfig::paper(7)
    };
    println!(
        "inference bench: {} (seq_len={seq_len}, units={units:?}, reps={reps})",
        if smoke { "smoke" } else { "full" }
    );
    let fit_start = Instant::now();
    let mut filter = AnomalyFilter::new(config);
    filter.fit(train).expect("fit");
    let threshold = filter.threshold().expect("fitted");
    println!(
        "fitted in {:.1} s, threshold {threshold:.6}",
        fit_start.elapsed().as_secs_f64()
    );

    // Every stride-1 window of the eval slice, flat row-major, plus each
    // window's last value (the scored reading).
    let n_wins = eval.len() - seq_len + 1;
    let mut windows = Vec::with_capacity(n_wins * seq_len);
    let mut last = Vec::with_capacity(n_wins);
    for w in 0..n_wins {
        windows.extend_from_slice(&eval[w..w + seq_len]);
        last.push(eval[w + seq_len - 1]);
    }

    // Scalar-exact baseline: one score_into call per window, timed warm.
    let mut exact = vec![0.0f64; n_wins];
    let mut scratch = Vec::new();
    for (w, e) in exact.iter_mut().enumerate() {
        filter
            .score_into(&windows[w * seq_len..(w + 1) * seq_len], &mut scratch)
            .expect("score");
        *e = scratch[seq_len - 1];
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for w in 0..n_wins {
            filter
                .score_into(&windows[w * seq_len..(w + 1) * seq_len], &mut scratch)
                .expect("score");
        }
        samples.push(start.elapsed().as_secs_f64());
    }
    let exact_wps = n_wins as f64 / median(samples);
    let mut rows = vec![LaneRow {
        mode: "scalar_exact",
        threads: 1,
        windows_per_sec: exact_wps,
        max_score_delta: 0.0,
        flip_rate: 0.0,
    }];

    // Fast lanes: blocked-f64 and int8, each at every thread count.
    let model = filter.model().expect("fitted");
    for (mode, precision) in [("blocked_f64", Precision::F64), ("int8", Precision::Int8)] {
        let prototype = InferenceModel::freeze(model, precision).expect("freeze");
        for &threads in thread_counts {
            parallel::set_threads(threads);
            let mut workers = make_workers(&prototype, &windows, n_wins, seq_len, threads);
            let mut scores = Vec::with_capacity(n_wins);
            score_batched(&mut workers, &last, &mut scores); // warm every arena
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                score_batched(&mut workers, &last, &mut scores);
                samples.push(start.elapsed().as_secs_f64());
            }
            let acc = accuracy(&exact, &scores, threshold);
            rows.push(LaneRow {
                mode,
                threads,
                windows_per_sec: n_wins as f64 / median(samples),
                max_score_delta: acc.max_delta,
                flip_rate: acc.flip_rate,
            });
        }
    }
    parallel::set_threads(1);

    for r in &rows {
        println!(
            "{:<12} threads={}  {:>10.0} windows/s  speedup {:>5.2}x  max|Δscore| {:.3e}  flips {:.3}%",
            r.mode,
            r.threads,
            r.windows_per_sec,
            r.windows_per_sec / exact_wps,
            r.max_score_delta,
            r.flip_rate * 100.0,
        );
    }

    // Accuracy gates (every mode).
    for r in rows.iter().filter(|r| r.mode == "blocked_f64") {
        assert_eq!(
            r.max_score_delta, 0.0,
            "blocked-f64 must be bitwise-identical to the exact path"
        );
        assert_eq!(r.flip_rate, 0.0, "blocked-f64 flipped a decision");
    }
    for r in rows.iter().filter(|r| r.mode == "int8") {
        assert!(
            r.max_score_delta < 0.05,
            "int8 score delta out of bound: {:.3e}",
            r.max_score_delta
        );
        assert!(
            r.flip_rate <= 0.02,
            "int8 flipped >2% of decisions: {:.4}",
            r.flip_rate
        );
    }

    if smoke {
        println!("smoke ok: serving lanes within bounds (bitwise f64 gate + int8 bound)");
        return;
    }

    // Headline speedup gates on the single-thread rows (full runs only).
    let wps = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.threads == 1)
            .expect("row present")
            .windows_per_sec
    };
    assert!(
        wps("blocked_f64") >= 0.9 * exact_wps,
        "blocked-f64 materially slower than scalar-exact: {:.2}x",
        wps("blocked_f64") / exact_wps
    );
    assert!(
        wps("int8") >= 1.2 * exact_wps,
        "int8 speedup below 1.2x: {:.2}",
        wps("int8") / exact_wps
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"threads\": {},\n",
                    "      \"windows_per_sec\": {:.1},\n",
                    "      \"speedup_vs_exact\": {:.2},\n",
                    "      \"max_score_delta\": {:.6e},\n",
                    "      \"decision_flip_rate\": {:.6}\n",
                    "    }}"
                ),
                r.mode,
                r.threads,
                r.windows_per_sec,
                r.windows_per_sec / exact_wps,
                r.max_score_delta,
                r.flip_rate,
            )
        })
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"inference\",\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"seq_len\": {},\n",
            "  \"encoder_units\": [{}, {}],\n",
            "  \"windows\": {},\n",
            "  \"threshold\": {:.6},\n",
            "  \"lanes\": [\n{}\n  ]\n}}\n"
        ),
        host_cpus,
        reps,
        seq_len,
        units.0,
        units.1,
        n_wins,
        threshold,
        entries.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}

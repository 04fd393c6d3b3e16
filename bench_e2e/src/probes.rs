//! Per-layer probes: each times one public primitive of a layer at the
//! shape the workloads use it, so a row of the ledger can be set against
//! the end-to-end number it should move. Every traced run takes all of
//! them — they are a few dozen milliseconds each and the context every
//! workload's rows are read in.

use crate::host::{self, seconds_per_call};
use bytes::BytesMut;
use evfad_core::federated::compression::QuantizedUpdate;
use evfad_core::federated::framing::{self, FrameDecoder};
use evfad_core::federated::streaming::{StreamingAggregator, StreamingFedAvg};
use evfad_core::federated::wire::{self, Message};
use evfad_core::federated::{LocalUpdate, Scheduler};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::nn::infer::{InferenceModel, Precision};
use evfad_core::nn::{autoencoder_model, Adam, Loss, Seq};
use evfad_core::tensor::fastpath::{self, PackedB};
use evfad_core::tensor::kernels::{self, MatMut, MatRef};
use evfad_core::tensor::parallel;
use evfad_core::tensor::Matrix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// The paper's shapes.
const BATCH: usize = 32;
const SEQ_LEN: usize = 24;
const HIDDEN: usize = 50;
/// The LSTM's gate GEMM: a batch of hidden states times four gates.
const GEMM: (usize, usize, usize) = (BATCH, HIDDEN, 4 * HIDDEN);

const BATCHES: usize = 5;
const BATCH_S: f64 = 0.01;

fn per_call(f: impl FnMut()) -> f64 {
    seconds_per_call(BATCHES, BATCH_S, f)
}

fn wave(len: usize, step: f64) -> Vec<f64> {
    (0..len).map(|i| (i as f64 * step).sin() * 0.5).collect()
}

/// `tensor`: the train-path kernels and the serving fast path on the
/// gate GEMM, as GFLOP/s.
fn tensor(out: &mut BTreeMap<&'static str, f64>) {
    let (m, k, n) = GEMM;
    let flops = (2 * m * k * n) as f64;
    let a = wave(m * k, 0.37);
    let b = wave(k * n, 0.11);
    let mut c = vec![0.0; m * n];
    let fwd = per_call(|| {
        kernels::matmul_acc_into(
            MatRef::new(m, k, &a),
            MatRef::new(k, n, &b),
            MatMut::new(m, n, &mut c),
        );
        black_box(&c);
    });
    out.insert("tensor.gemm_fwd_gflops", flops / fwd / 1e9);

    // The same product with the worker pool let loose on it, as the
    // product's defaults would: above 1 the pool pays at this shape, below
    // 1 waking a worker costs more than half a GEMM. The workloads hold
    // the pool to one thread (see `run::run`), so this row is where a
    // change to the pool or its threshold shows first.
    if host::cpus() >= 2 {
        let serial_only = parallel::serial_flop_threshold();
        parallel::set_serial_flop_threshold(64 * 64 * 64);
        parallel::set_threads(2);
        let pooled = per_call(|| {
            kernels::matmul_acc_into(
                MatRef::new(m, k, &a),
                MatRef::new(k, n, &b),
                MatMut::new(m, n, &mut c),
            );
            black_box(&c);
        });
        parallel::set_threads(0);
        parallel::set_serial_flop_threshold(serial_only);
        out.insert("tensor.pool_gain_t2", fwd / pooled);
    }

    // Backward of the same product: dW = xᵀ·dz and dx = dz·Wᵀ.
    let dz = wave(m * n, 0.23);
    let mut dw = vec![0.0; k * n];
    let mut dx = vec![0.0; m * k];
    let bwd = per_call(|| {
        kernels::transpose_matmul_acc_into(
            MatRef::new(m, k, &a),
            MatRef::new(m, n, &dz),
            MatMut::new(k, n, &mut dw),
        );
        kernels::matmul_transpose_into(
            MatRef::new(m, n, &dz),
            MatRef::new(k, n, &b),
            MatMut::new(m, k, &mut dx),
        );
        black_box((&dw, &dx));
    });
    out.insert("tensor.gemm_bwd_gflops", 2.0 * flops / bwd / 1e9);

    let packed = PackedB::pack(MatRef::new(k, n, &b));
    let fast = per_call(|| {
        fastpath::matmul_into_blocked(MatRef::new(m, k, &a), &packed, MatMut::new(m, n, &mut c));
        black_box(&c);
    });
    out.insert("tensor.fastpath_gflops", flops / fast / 1e9);
}

/// `nn`: one train step of each model, batch prediction, and frozen
/// inference at batch 32 and batch 1.
fn nn(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let windows: Vec<Matrix> = (0..BATCH)
        .map(|s| Matrix::from_fn(SEQ_LEN, 1, |t, _| ((s * 13 + t) as f64 * 0.23).sin()))
        .collect();
    let nexts: Vec<Matrix> = (0..BATCH)
        .map(|s| Matrix::from_fn(1, 1, |_, _| ((s * 13 + SEQ_LEN) as f64 * 0.23).sin()))
        .collect();
    let x = Seq::from_samples(&windows);

    let mut forecaster = build_forecaster(HIDDEN, 0.003, seed);
    let y = Seq::from_samples(&nexts);
    let step = per_call(|| {
        black_box(forecaster.train_batch(&x, &y, Loss::Mse, Some(5.0)));
    });
    out.insert("nn.forecaster_step_ms", step * 1e3);

    let mut autoencoder = autoencoder_model(SEQ_LEN, seed).with_optimizer(Adam::new(0.005));
    let step = per_call(|| {
        black_box(autoencoder.train_batch(&x, &x, Loss::Mse, Some(5.0)));
    });
    out.insert("nn.autoencoder_step_ms", step * 1e3);

    let many: Vec<Matrix> = windows.iter().cycle().take(256).cloned().collect();
    let mut flat = Vec::new();
    let predict = per_call(|| {
        black_box(forecaster.predict_into(&many, &mut flat));
    });
    out.insert("nn.predict_windows_per_s", many.len() as f64 / predict);

    let mut frozen = InferenceModel::freeze(&autoencoder, Precision::F64)
        .expect("the paper's autoencoder freezes");
    let flat_windows: Vec<f64> = windows.iter().flat_map(|w| w.as_slice().to_vec()).collect();
    let mut recon = Vec::new();
    let b32 = per_call(|| {
        black_box(frozen.forward_batch_into(&flat_windows, BATCH, &mut recon));
    });
    let b1 = per_call(|| {
        black_box(frozen.forward_batch_into(&flat_windows[..SEQ_LEN], 1, &mut recon));
    });
    out.insert("nn.infer_windows_per_s_b32", BATCH as f64 / b32);
    out.insert("nn.infer_windows_per_s_b1", 1.0 / b1);
    out.insert("nn.infer_batch_gain", b1 * BATCH as f64 / b32);
}

/// `federated`: codec, message envelope, framing, scheduler and the
/// streaming aggregator's two folds, on the forecaster's 87 KB payload.
fn federated(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let weights = build_forecaster(HIDDEN, 0.003, seed).weights();
    let model_mb = weights.iter().map(Matrix::len).sum::<usize>() as f64 * 8.0 / 1e6;
    out.insert("federated.model_mb", model_mb);

    let mut buf = BytesMut::new();
    let encode = per_call(|| {
        wire::encode_weights_into(&mut buf, &weights);
        black_box(&buf);
    });
    out.insert("federated.wire_encode_mb_s", model_mb / encode);
    let decode = per_call(|| {
        black_box(wire::decode_weights(&buf).expect("a payload this process encoded"));
    });
    out.insert("federated.wire_decode_mb_s", model_mb / decode);

    let update = Message::Update {
        round: 1,
        client_id: "z102".to_string(),
        sample_count: 8,
        train_loss: 0.25,
        payload: wire::encode_weights(&weights),
    };
    let mut envelope = BytesMut::new();
    let codec = per_call(|| {
        wire::encode_message(&mut envelope, &update);
        black_box(wire::decode_message(&envelope).expect("a message this process encoded"));
    });
    out.insert("federated.msg_codec_us", codec * 1e6);

    // One frame through an in-memory pipe: vectored write on one side,
    // incremental reassembly on the other.
    let mut pipe = Vec::with_capacity(envelope.len() + 8);
    let mut decoder = FrameDecoder::new();
    let frame = per_call(|| {
        pipe.clear();
        framing::write_frame(&mut pipe, &envelope).expect("a Vec accepts every write");
        decoder.feed(&pipe);
        black_box(decoder.next_frame().expect("a whole frame was fed"));
    });
    out.insert("federated.frame_roundtrip_us", frame * 1e6);

    let scheduler = Scheduler::new(0.1, seed);
    let mut round = 0usize;
    let sample = per_call(|| {
        round += 1;
        black_box(scheduler.sample(round, 100_000));
    });
    out.insert("federated.scheduler_sample_us", sample * 1e6);

    // The two folds the scale engine alternates between, 64 updates a
    // fold so construction and `finish` are amortised as in a shard.
    const FOLD: usize = 64;
    let dense = LocalUpdate {
        client_id: "c000001".to_string(),
        weights: weights.clone(),
        sample_count: 40,
        train_loss: 0.0,
        duration: Duration::ZERO,
        simulated_extra_seconds: 0.0,
    };
    let fold = |ingest: &mut dyn FnMut(&mut StreamingFedAvg)| {
        let mut agg = StreamingFedAvg::new((40 * FOLD) as f64, FOLD);
        for _ in 0..FOLD {
            ingest(&mut agg);
        }
        black_box(
            Box::new(agg)
                .finish()
                .expect("every declared update arrived"),
        );
    };
    let ingest = per_call(|| fold(&mut |agg| agg.ingest(&dense).expect("shapes agree")));
    out.insert("federated.ingest_mb_s", model_mb * FOLD as f64 / ingest);

    let mut quantized = QuantizedUpdate::quantize(&weights);
    let mut q8 = BytesMut::new();
    let encode_q8 = per_call(|| {
        QuantizedUpdate::quantize_into(&weights, &mut quantized);
        wire::encode_quantized_into(&mut q8, &quantized);
        black_box(&q8);
    });
    out.insert("federated.q8_encode_mb_s", model_mb / encode_q8);
    let ingest_q8 = per_call(|| {
        fold(&mut |agg| {
            agg.ingest_quantized("c000001", 40, &q8)
                .expect("a payload this process encoded")
        })
    });
    out.insert(
        "federated.ingest_q8_mb_s",
        model_mb * FOLD as f64 / ingest_q8,
    );
}

/// Runs every probe. Keys are per-layer metric names.
pub fn run_all(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    tensor(&mut out);
    nn(seed, &mut out);
    federated(seed, &mut out);
    out
}

//! Property-based tests for the neural-network substrate.

use evfad_federated::wire;
use evfad_nn::infer::{InferenceModel, Precision};
use evfad_nn::{
    autoencoder_model, forecaster_model, Activation, Dense, Dropout, Loss, Lstm, RepeatVector, Seq,
    Sequential,
};
use evfad_tensor::Matrix;
use proptest::prelude::*;

/// The stacks whose weights cross the wire: the paper's forecaster and the
/// paper's autoencoder (dropout and `RepeatVector` included, over 5 steps).
fn architecture(arch: usize, seed: u64) -> Sequential {
    match arch {
        0 => forecaster_model(3, seed),
        _ => autoencoder_model(5, seed),
    }
}

fn sequence_strategy(time: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, time).prop_map(|v| Matrix::column_vector(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The forward pass is a pure function of weights and input.
    #[test]
    fn forward_is_deterministic(x in sequence_strategy(6), seed in 0u64..1000) {
        let mut model = Sequential::new(seed)
            .with(Lstm::new(1, 4, false))
            .with(Dense::new(4, 1, Activation::Linear));
        let a = model.predict(std::slice::from_ref(&x));
        let b = model.predict(&[x]);
        prop_assert_eq!(a, b);
    }

    /// Weight export/import through `EVFD` bytes is lossless for every
    /// layer kind: a receiver built from another seed predicts exactly as
    /// the donor once it holds the donor's decoded weights.
    #[test]
    fn weight_transfer_preserves_predictions(
        arch in 0usize..2,
        x in sequence_strategy(5),
        seed in 0u64..1000,
    ) {
        let mut donor = architecture(arch, seed);
        let mut receiver = architecture(arch, seed + 1);
        let bytes = wire::encode_weights(&donor.weights());
        let decoded = wire::decode_weights(&bytes).expect("a well-formed EVFD record");
        receiver.set_weights(&decoded).expect("same architecture");
        prop_assert_eq!(donor.predict(std::slice::from_ref(&x)), receiver.predict(&[x]));
    }

    /// LSTM outputs stay bounded (|h| < 1 elementwise by construction).
    #[test]
    fn lstm_output_bounded(x in prop::collection::vec(-100.0f64..100.0, 1..12)) {
        let mut lstm = Lstm::new_seeded(1, 8, true, 1);
        let mut y = Seq::default();
        lstm.forward(&Seq::from_samples(&[Matrix::column_vector(&x)]), false, &mut y);
        prop_assert_eq!(y.shape(), (x.len(), 1, 8));
        prop_assert!(y.as_slice().iter().all(|h| h.abs() <= 1.0 + 1e-12));
    }

    /// Batch evaluation equals per-sample evaluation (no cross-batch leakage).
    #[test]
    fn batching_does_not_change_outputs(
        a in sequence_strategy(4),
        b in sequence_strategy(4),
        seed in 0u64..100,
    ) {
        let mut model = Sequential::new(seed)
            .with(Lstm::new(1, 3, false))
            .with(Dense::new(3, 1, Activation::Tanh));
        let joint = model.predict(&[a.clone(), b.clone()]);
        let solo_a = model.predict(&[a]);
        let solo_b = model.predict(&[b]);
        prop_assert!((joint[0][(0, 0)] - solo_a[0][(0, 0)]).abs() < 1e-12);
        prop_assert!((joint[1][(0, 0)] - solo_b[0][(0, 0)]).abs() < 1e-12);
    }

    /// MSE is non-negative and zero iff prediction equals target.
    #[test]
    fn mse_nonnegative(p in prop::collection::vec(-10.0f64..10.0, 1..20)) {
        let pred = Seq::single(Matrix::from_vec(1, p.len(), p.clone()));
        let target = Seq::single(Matrix::zeros(1, p.len()));
        let v = Loss::Mse.value(&pred, &target);
        prop_assert!(v >= 0.0);
        prop_assert_eq!(Loss::Mse.value(&pred, &pred), 0.0);
    }
}

// ---------------------------------------------------------------------------
// Zero-copy batch pipeline: a planned gather of any shuffle order must be
// bitwise identical to the allocating clone + `Seq::from_samples` marshal it
// replaces — this is what keeps `fit` deterministic across the refactor.
// ---------------------------------------------------------------------------

use evfad_nn::{BatchPlan, Sample};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_plan_gather_matches_clone_and_from_samples(
        raw in prop::collection::vec(-10.0f64..10.0, 9 * (5 + 2)),
        idx in prop::collection::vec(0usize..9, 1..12),
    ) {
        let samples: Vec<Sample> = (0..9)
            .map(|i| {
                let base = i * 7;
                Sample::new(
                    Matrix::column_vector(&raw[base..base + 5]),
                    Matrix::column_vector(&raw[base + 5..base + 7]),
                )
            })
            .collect();
        // Old path: clone the picked samples, then marshal time-major.
        let picked_in: Vec<Matrix> = idx.iter().map(|&i| samples[i].input.clone()).collect();
        let picked_tgt: Vec<Matrix> = idx.iter().map(|&i| samples[i].target.clone()).collect();
        let ref_in = Seq::from_samples(&picked_in);
        let ref_tgt = Seq::from_samples(&picked_tgt);
        // New path: gather the same indices through the prebuilt plan.
        let plan = BatchPlan::new(&samples);
        let (mut bin, mut btg) = (Seq::default(), Seq::default());
        plan.gather_into(&idx, &mut bin, &mut btg);
        prop_assert_eq!(bin, ref_in);
        prop_assert_eq!(btg, ref_tgt);
    }

    /// Gathering through a reused buffer pair after a differently-shaped
    /// batch still matches the fresh marshal (stale contents cannot leak).
    #[test]
    fn batch_plan_gather_is_stable_across_reuse(
        raw in prop::collection::vec(-10.0f64..10.0, 6 * 4),
        first in prop::collection::vec(0usize..6, 5),
        second in prop::collection::vec(0usize..6, 2),
    ) {
        let samples: Vec<Sample> = (0..6)
            .map(|i| {
                let base = i * 4;
                Sample::new(
                    Matrix::column_vector(&raw[base..base + 3]),
                    Matrix::column_vector(&raw[base + 3..base + 4]),
                )
            })
            .collect();
        let plan = BatchPlan::new(&samples);
        let (mut bin, mut btg) = (Seq::default(), Seq::default());
        plan.gather_into(&first, &mut bin, &mut btg);
        plan.gather_into(&second, &mut bin, &mut btg);
        let picked: Vec<Matrix> = second.iter().map(|&i| samples[i].input.clone()).collect();
        prop_assert_eq!(bin, Seq::from_samples(&picked));
    }

    /// `predict_into`'s flat buffer and `predict`'s matrices hold exactly
    /// what one un-chunked forward over all the inputs gives, sample-major —
    /// below, at and across the 64-input predict chunk, out to several
    /// chunks with a ragged tail: the chunk size is not in the bits.
    #[test]
    fn predict_into_matches_allocating_predict(
        arch in 0usize..3,
        seed in 0u64..100,
        data in prop::collection::vec(-1.0f64..1.0, 5 * 258),
    ) {
        let time = 5;
        let mut model = stack(arch, 4, 2, time, seed);
        for n in [1usize, 2, 5, 63, 64, 65, 129, 255, 256, 258] {
            let inputs = batch_of_windows(&data, n, time);
            let reference = model.forward(&Seq::from_samples(&inputs)).to_samples();
            let mut got = Vec::new();
            let (t_out, f_out) = model.predict_into(&inputs, &mut got);
            prop_assert_eq!(got.len(), n * t_out * f_out);
            for (r, g) in reference.iter().zip(got.chunks_exact(t_out * f_out)) {
                prop_assert_eq!(r.as_slice(), g);
            }
            prop_assert_eq!(model.predict(&inputs), reference);
        }
    }
}

/// Builds one of three serving-relevant layer stacks (dense-only,
/// LSTM head, full LSTM autoencoder) with randomised dims.
fn stack(arch: usize, h1: usize, h2: usize, time: usize, seed: u64) -> Sequential {
    match arch {
        0 => Sequential::new(seed)
            .with(Dense::new(1, h1, Activation::Relu))
            .with(Dense::new(h1, 1, Activation::Linear)),
        1 => Sequential::new(seed)
            .with(Lstm::new(1, h1, false))
            .with(Dense::new(h1, 2, Activation::Tanh)),
        _ => Sequential::new(seed)
            .with(Lstm::new(1, h1, true))
            .with(Dropout::new(0.2))
            .with(Lstm::new(h1, h2, false))
            .with(RepeatVector::new(time))
            .with(Lstm::new(h2, h1, true))
            .with(Dense::new(h1, 1, Activation::Linear)),
    }
}

fn batch_of_windows(data: &[f64], batch: usize, time: usize) -> Vec<Matrix> {
    (0..batch)
        .map(|b| Matrix::column_vector(&data[b * time..(b + 1) * time]))
        .collect()
}

fn flat(samples: &[Matrix]) -> Vec<f64> {
    samples.iter().flat_map(|m| m.as_slice().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The frozen f64 serving lane replays the exact forward: over random
    /// stacks and window shapes, one batched `forward_batch_into` equals N
    /// independent `predict` calls, bitwise.
    #[test]
    fn frozen_f64_lane_matches_per_window_predict(
        arch in 0usize..3,
        h1 in 2usize..6,
        h2 in 1usize..4,
        time in 3usize..7,
        batch in 1usize..5,
        seed in 0u64..500,
        data in prop::collection::vec(-1.0f64..1.0, 4 * 6),
    ) {
        let mut model = stack(arch, h1, h2, time, seed);
        let samples = batch_of_windows(&data, batch, time);
        let exact: Vec<f64> = model
            .predict(&samples)
            .iter()
            .flat_map(|m| m.as_slice().to_vec())
            .collect();
        let mut frozen = InferenceModel::freeze(&model, Precision::F64).expect("freeze");
        let mut got = Vec::new();
        let (steps, feat) = frozen.forward_batch_into(&flat(&samples), batch, &mut got);
        prop_assert_eq!(got.len(), batch * steps * feat);
        prop_assert_eq!(got.len(), exact.len());
        for (g, e) in got.iter().zip(&exact) {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "bitwise break: {} vs {}", g, e);
        }
    }

    /// The int8 lane stays within a loose absolute bound of the exact
    /// forward over the LSTM stacks it serves (unit-scale inputs; the
    /// serving bench asserts the tight score-level bound end to end).
    #[test]
    fn frozen_int8_lane_stays_bounded(
        lstm_arch in 0usize..2,
        h1 in 2usize..6,
        h2 in 1usize..4,
        time in 3usize..7,
        batch in 1usize..5,
        seed in 0u64..500,
        data in prop::collection::vec(-1.0f64..1.0, 4 * 6),
    ) {
        let mut model = stack(1 + lstm_arch, h1, h2, time, seed);
        let samples = batch_of_windows(&data, batch, time);
        let exact: Vec<f64> = model
            .predict(&samples)
            .iter()
            .flat_map(|m| m.as_slice().to_vec())
            .collect();
        let mut frozen = InferenceModel::freeze(&model, Precision::Int8).expect("freeze");
        let mut got = Vec::new();
        frozen.forward_batch_into(&flat(&samples), batch, &mut got);
        prop_assert_eq!(got.len(), exact.len());
        for (g, e) in got.iter().zip(&exact) {
            prop_assert!(
                (g - e).abs() < 0.3,
                "int8 drifted out of bound: {} vs {}",
                g,
                e
            );
        }
    }
}

/// FNV-1a over the output bit patterns.
fn checksum(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Both serving lanes against recorded checksums: the LSTM autoencoder at
/// `F64` and `Int8`, at batch 1, 5 and 32 (edge tile only, band plus edge,
/// full bands of the GEMM micro-kernels). The `Int8` literal has held
/// through every rewrite of the int8 forward. The `F64` literals were
/// re-recorded once, when the f64 σ/tanh became the `vmath` polynomial
/// instead of libm; they were recorded on a separate f64 serving forward
/// and now hold for the layers' own eval forward, which replaced it.
#[test]
fn frozen_lanes_reproduce_the_recorded_literals() {
    const TIME: usize = 6;
    let autoencoder = Sequential::new(7)
        .with(Lstm::new(1, 8, true))
        .with(Dropout::new(0.2))
        .with(Lstm::new(8, 4, false))
        .with(RepeatVector::new(TIME))
        .with(Lstm::new(4, 8, true))
        .with(Dense::new(8, 1, Activation::Linear));
    #[rustfmt::skip]
    let recorded: [(&Sequential, Precision, [u64; 3]); 2] = [
        (&autoencoder, Precision::F64, [0xbcb84b600185ad62, 0xc45fb560e4dae63e, 0xb80025e4bce5e3c7]),
        (&autoencoder, Precision::Int8, [0xda799df9460c8ebe, 0xc42b8d3f727ac055, 0xdcf9337125610536]),
    ];
    for (model, precision, want) in recorded {
        let mut frozen = InferenceModel::freeze(model, precision).expect("freeze");
        let got = [1usize, 5, 32].map(|batch| {
            let windows: Vec<f64> = (0..batch * TIME)
                .map(|i| 0.5 + 0.4 * (i as f64 * 0.37).sin())
                .collect();
            let mut out = Vec::new();
            frozen.forward_batch_into(&windows, batch, &mut out);
            checksum(&out)
        });
        assert_eq!(
            got, want,
            "{precision:?} lane moved: got {got:#018x?}, recorded {want:#018x?}"
        );
    }
}

/// A snapshot is a copy, not a view of its source: train steps through
/// the source (its arena included) and a `set_weights` on
/// it leave both lanes' warm outputs at their pre-training bits.
#[test]
fn frozen_snapshots_do_not_follow_their_source() {
    const TIME: usize = 6;
    const BATCH: usize = 5;
    let build = |seed| {
        Sequential::new(seed)
            .with(Lstm::new(1, 8, true))
            .with(Dropout::new(0.2))
            .with(Lstm::new(8, 4, false))
            .with(RepeatVector::new(TIME))
            .with(Lstm::new(4, 8, true))
            .with(Dense::new(8, 1, Activation::Linear))
    };
    let mut model = build(11);
    let windows: Vec<f64> = (0..BATCH * TIME)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.37).sin())
        .collect();
    let samples = batch_of_windows(&windows, BATCH, TIME);
    let mut frozen = [Precision::F64, Precision::Int8]
        .map(|precision| InferenceModel::freeze(&model, precision).expect("freeze"));
    let outputs = |frozen: &mut [InferenceModel; 2]| {
        frozen.each_mut().map(|f| {
            let mut out = Vec::new();
            f.forward_batch_into(&windows, BATCH, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        })
    };
    let before = outputs(&mut frozen);

    let batch = Seq::from_samples(&samples);
    for _ in 0..3 {
        model.train_batch(&batch, &batch, Loss::Mse, Some(5.0));
    }
    let trained: Vec<u64> = flat(&model.predict(&samples))
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_ne!(trained, before[0], "the train steps must move the source");
    assert_eq!(
        outputs(&mut frozen),
        before,
        "training the source moved a snapshot"
    );

    model
        .set_weights(&build(12).weights())
        .expect("same architecture");
    assert_eq!(
        outputs(&mut frozen),
        before,
        "set_weights on the source moved a snapshot"
    );
}

//! Recorded-literal pin for whole train steps.
//!
//! Three stacks that between them run every layer kind's forward and
//! backward — including the paths no other bitwise gate reaches:
//! training-mode `Dropout` masks, `RepeatVector::backward` and a binding
//! `clip_norm` — take three `train_batch` steps from a fixed seed on
//! deterministic data. Each step's loss `to_bits()`, a checksum of
//! `weights()` after the third step and a checksum of one `predict_into`
//! are compared with literals recorded before `Seq` became one contiguous
//! buffer. A literal that moves means an arithmetic expression, a summation
//! order or an RNG draw changed: fix that, do not re-record.

use evfad_nn::{
    autoencoder_model, forecaster_model, Activation, Dense, Loss, Lstm, RepeatVector, Seq,
    Sequential,
};
use evfad_tensor::Matrix;

const BATCH: usize = 8;
const PREDICT: usize = 5;

/// FNV-1a over the bit patterns, so `-0.0` and `0.0` differ.
fn checksum<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Sample `i`'s value at absolute position `i * 5 + t`: a fixed scramble of
/// the integers into `[0.1, 0.9]`, free of libm so the literals depend on
/// nothing but this crate's arithmetic.
fn value(i: usize, t: usize) -> f64 {
    0.1 + 0.8 * (((i * 5 + t) * 37 % 101) as f64 / 100.0)
}

fn window(i: usize, time: usize) -> Matrix {
    Matrix::from_fn(time, 1, |t, _| value(i, t))
}

fn next_value(i: usize, time: usize) -> Matrix {
    Matrix::from_fn(1, 1, |_, _| value(i, time))
}

struct Case {
    name: &'static str,
    build: fn() -> Sequential,
    time: usize,
    /// `true`: the target is the input window; `false`: the next value.
    autoencoding: bool,
    clip_norm: Option<f64>,
    losses: [u64; 3],
    weights: u64,
    predict: u64,
}

const CASES: &[Case] = &[
    Case {
        name: "forecaster",
        build: || forecaster_model(50, 42),
        time: 24,
        autoencoding: false,
        clip_norm: Some(5.0),
        losses: [
            0x3fce_4462_919f_c149,
            0x3fc9_8d18_14f6_d579,
            0x3fc5_40ce_e27d_b993,
        ],
        weights: 0x24f3_05b5_fe50_8ae4,
        predict: 0xc947_b027_10a9_aa5c,
    },
    Case {
        name: "autoencoder_with_dropout",
        build: || autoencoder_model(12, 42),
        time: 12,
        autoencoding: true,
        clip_norm: Some(5.0),
        losses: [
            0x3fd4_2a32_b355_4541,
            0x3fd3_3280_79a2_47dd,
            0x3fd2_5419_0581_a89b,
        ],
        weights: 0x4cc6_9897_b9a0_47e0,
        predict: 0xd83e_ab1d_d40e_da5b,
    },
    Case {
        name: "repeat_vector_binding_clip",
        build: || {
            Sequential::new(42)
                .with(Lstm::new(1, 6, false))
                .with(RepeatVector::new(7))
                .with(Lstm::new(6, 6, true))
                .with(Dense::new(6, 1, Activation::Linear))
        },
        time: 7,
        autoencoding: true,
        clip_norm: Some(1e-3),
        losses: [
            0x3fd1_ef68_4dbe_52f4,
            0x3fd1_86a2_4048_aed1,
            0x3fd1_1efd_b836_3009,
        ],
        weights: 0x7ad5_3507_bd32_82e7,
        predict: 0x4537_0f34_8951_4d34,
    },
];

#[test]
fn train_steps_reproduce_the_recorded_literals() {
    let mut mismatches = Vec::new();
    for case in CASES {
        let inputs: Vec<Matrix> = (0..BATCH).map(|i| window(i, case.time)).collect();
        let targets: Vec<Matrix> = if case.autoencoding {
            inputs.clone()
        } else {
            (0..BATCH).map(|i| next_value(i, case.time)).collect()
        };
        let (x, y) = (Seq::from_samples(&inputs), Seq::from_samples(&targets));
        let mut model = (case.build)();
        let losses: [u64; 3] = std::array::from_fn(|_| {
            model
                .train_batch(&x, &y, Loss::Mse, case.clip_norm)
                .to_bits()
        });
        let weights = checksum(model.weights().iter().flat_map(|w| w.as_slice()));
        // A batch size the train steps never used, so the arena reshapes.
        let fresh: Vec<Matrix> = (0..PREDICT).map(|i| window(i + 100, case.time)).collect();
        let mut flat = Vec::new();
        model.predict_into(&fresh, &mut flat);
        let predict = checksum(&flat);
        if (losses, weights, predict) != (case.losses, case.weights, case.predict) {
            mismatches.push(format!(
                "{}:\n        losses: [{:#018x}, {:#018x}, {:#018x}],\n        \
                 weights: {weights:#018x},\n        predict: {predict:#018x},",
                case.name, losses[0], losses[1], losses[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "train steps left their recorded bits:\n{}",
        mismatches.join("\n")
    );
}

/// The clip in the last case must actually bind, or it pins nothing.
#[test]
fn the_binding_clip_case_binds() {
    let case = &CASES[2];
    let inputs: Vec<Matrix> = (0..BATCH).map(|i| window(i, case.time)).collect();
    let x = Seq::from_samples(&inputs);
    let (mut clipped, mut free) = ((case.build)(), (case.build)());
    clipped.train_batch(&x, &x, Loss::Mse, case.clip_norm);
    free.train_batch(&x, &x, Loss::Mse, None);
    assert_ne!(clipped.weights(), free.weights());
}

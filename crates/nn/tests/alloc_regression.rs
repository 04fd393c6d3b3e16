//! Allocation-regression gate for the fused recurrent hot path.
//!
//! These tests read the process-global matrix-allocation counters from
//! `evfad_tensor::alloc_stats()`, so they live in their own integration-test
//! binary (own process) and serialise on a local mutex to keep the deltas
//! attributable.

use evfad_nn::{autoencoder_model, forecaster_model, Loss, Sample, Seq, Sequential};
use evfad_tensor::{alloc_stats, AllocStats, Matrix};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn toy_batch(seq_len: usize, batch: usize) -> (Seq, Seq) {
    let inputs: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(seq_len, 1, |t, _| ((i * 7 + t) as f64 * 0.31).sin()))
        .collect();
    let targets: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(1, 1, |_, _| ((i * 7 + seq_len) as f64 * 0.31).sin()))
        .collect();
    (Seq::from_samples(&inputs), Seq::from_samples(&targets))
}

/// Matrix allocations of a *warm* `train_batch` (the arena already sized
/// by two earlier steps).
fn warm_step_allocs(mut model: Sequential, x: &Seq, y: &Seq) -> AllocStats {
    for _ in 0..2 {
        model.train_batch(x, y, Loss::Mse, Some(5.0));
    }
    let before = alloc_stats();
    model.train_batch(x, y, Loss::Mse, Some(5.0));
    alloc_stats().since(&before)
}

fn warm_forecaster_step_allocs(seq_len: usize) -> AllocStats {
    let (x, y) = toy_batch(seq_len, 8);
    warm_step_allocs(forecaster_model(16, 7), &x, &y)
}

/// The paper's autoencoder, `Dropout(0.2)` layers included and drawing
/// masks, reconstructing its own input.
fn warm_autoencoder_step_allocs(seq_len: usize) -> AllocStats {
    let (x, _) = toy_batch(seq_len, 8);
    warm_step_allocs(autoencoder_model(seq_len, 7), &x, &x)
}

/// A warm train step allocates no matrix at all, at any sequence length
/// and for every stack: per-timestep scratch, activations, input
/// gradients and the loss gradient all live in the model's arena. While each layer still returned a fresh `Matrix` per step the
/// paper's autoencoder made 117 / 229 / 341 allocations at T = 8 / 16 / 24
/// (batch 32) and the forecaster a constant 7.
#[test]
fn warm_train_step_matrix_allocs_are_o1_in_sequence_length() {
    let _guard = GUARD.lock().unwrap();
    for (name, allocs) in [
        (
            "forecaster",
            warm_forecaster_step_allocs as fn(usize) -> AllocStats,
        ),
        ("autoencoder", warm_autoencoder_step_allocs),
    ] {
        for seq_len in [8, 16, 24] {
            let warm = allocs(seq_len);
            assert_eq!(warm.matrices, 0, "{name} at T = {seq_len}: {warm:?}");
        }
    }
}

/// A warm step must also not allocate more *bytes* when only T grows; all
/// T-proportional buffers belong to the reusable arena.
#[test]
fn warm_train_step_bytes_are_o1_in_sequence_length() {
    let _guard = GUARD.lock().unwrap();
    for allocs in [warm_forecaster_step_allocs, warm_autoencoder_step_allocs] {
        assert_eq!(
            allocs(8).bytes,
            allocs(16).bytes,
            "per-step allocated bytes grew with T"
        );
    }
}

/// Matrix allocations of a *warm* `predict_into` call over `n` sequences
/// (staging buffers and the eval arena already shaped by two prior calls).
fn warm_predict_allocs(n: usize) -> AllocStats {
    let mut model = forecaster_model(16, 7);
    let inputs: Vec<Matrix> = (0..n)
        .map(|i| Matrix::from_fn(12, 1, |t, _| ((i * 5 + t) as f64 * 0.17).sin()))
        .collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        let _ = model.predict_into(&inputs, &mut out);
    }
    let before = alloc_stats();
    let _ = model.predict_into(&inputs, &mut out);
    alloc_stats().since(&before)
}

/// A warm `predict_into` stages inputs into a reusable `Seq`, runs the
/// layers through the model's arena, and scatters straight into the
/// caller's flat buffer — so its matrix-allocation count must not grow with
/// the number of sequences scored (within one 64-sequence chunk).
#[test]
fn warm_predict_into_matrix_allocs_are_o1_in_batch_size() {
    let _guard = GUARD.lock().unwrap();
    let small = warm_predict_allocs(8);
    let double = warm_predict_allocs(16);
    let triple = warm_predict_allocs(24);
    assert_eq!(
        small.matrices, double.matrices,
        "warm predict_into matrix allocations grew with n: {small:?} vs {double:?}"
    );
    assert_eq!(
        double.matrices, triple.matrices,
        "warm predict_into matrix allocations grew with n: {double:?} vs {triple:?}"
    );
    assert!(
        small.matrices <= 8,
        "warm predict_into allocated {} matrices",
        small.matrices
    );
}

/// The allocating `predict` clones one output matrix per sequence; the flat
/// `predict_into` must beat it by at least the issue's 5x floor even at a
/// modest batch size.
#[test]
fn predict_into_allocates_5x_fewer_matrices_than_predict() {
    let _guard = GUARD.lock().unwrap();
    let mut model = forecaster_model(16, 7);
    let inputs: Vec<Matrix> = (0..64)
        .map(|i| Matrix::from_fn(12, 1, |t, _| ((i * 5 + t) as f64 * 0.17).sin()))
        .collect();
    let mut out = Vec::new();
    // Warm both paths so neither pays one-time arena sizing.
    let _ = model.predict(&inputs);
    let _ = model.predict_into(&inputs, &mut out);
    let before = alloc_stats();
    let _ = model.predict(&inputs);
    let old = alloc_stats().since(&before);
    let before = alloc_stats();
    let _ = model.predict_into(&inputs, &mut out);
    let new = alloc_stats().since(&before);
    assert!(
        new.matrices * 5 <= old.matrices,
        "predict_into is not 5x leaner: old {old:?} vs new {new:?}"
    );
}

/// One arena serves every batch size: a warm `evaluate` (a full 256-sample
/// chunk, then a ragged tail of 37) + `predict_into` (four full 64-input
/// chunks, then the same tail) lays each call out in the same arena and
/// allocates no matrix at all — as does going back and forth between that
/// and a train step.
#[test]
fn alternating_full_chunk_and_ragged_tail_allocates_nothing_once_warm() {
    let _guard = GUARD.lock().unwrap();
    let mut model = autoencoder_model(6, 7);
    let samples: Vec<Sample> = (0..256 + 37)
        .map(|i| {
            Sample::autoencoding(Matrix::from_fn(6, 1, |t, _| {
                ((i * 5 + t) as f64 * 0.17).sin()
            }))
        })
        .collect();
    let inputs: Vec<Matrix> = samples.iter().map(|s| s.input.clone()).collect();
    let batch = Seq::from_samples(&inputs[..8]);
    let mut out = Vec::new();
    let mut round = |model: &mut Sequential| {
        model.train_batch(&batch, &batch, Loss::Mse, Some(5.0));
        let loss = model.evaluate(&samples, Loss::Mse);
        model.predict_into(&inputs, &mut out);
        loss
    };
    round(&mut model);
    let before = alloc_stats();
    let loss = round(&mut model);
    let warm = alloc_stats().since(&before);
    assert!(loss.is_finite());
    assert_eq!(warm.matrices, 0, "allocated once warm: {warm:?}");
}

/// A `Seq` acquires storage only when a shape exceeds every shape it has
/// held, and that acquisition is counted exactly as a `Matrix` of the size.
#[test]
fn seq_reshape_counts_growth_as_one_matrix_and_reuses_capacity() {
    let _guard = GUARD.lock().unwrap();
    let mut seq = Seq::default();
    let before = alloc_stats();
    seq.reshape(4, 3, 2);
    let grown = alloc_stats().since(&before);
    assert_eq!((grown.matrices, grown.bytes), (1, 8 * 24));
    let before = alloc_stats();
    seq.reshape(1, 3, 2);
    seq.reshape(2, 4, 3);
    seq.reshape(4, 3, 2);
    assert_eq!(alloc_stats().since(&before).matrices, 0);
}

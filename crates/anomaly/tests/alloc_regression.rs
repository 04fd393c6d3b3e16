//! Allocation-regression gate for the zero-copy anomaly-scoring path.
//!
//! Reads the process-global matrix-allocation counters from
//! `evfad_tensor::alloc_stats()`, so these tests live in their own
//! integration-test binary and serialise on a local mutex.

use evfad_anomaly::{AnomalyFilter, FilterConfig, OnlineDetector};
use evfad_tensor::{alloc_stats, AllocStats};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn sine(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 12.0).sin())
        .collect()
}

fn fitted_filter() -> AnomalyFilter {
    let mut filter = AnomalyFilter::new(FilterConfig::fast(12));
    filter.fit(&sine(400)).expect("fit");
    filter
}

/// Matrix allocations of a *warm* `score` over a series with `n` points
/// (staging batch, eval arena, and reconstruction buffer already sized by
/// two prior calls at the same length).
fn warm_score_allocs(filter: &mut AnomalyFilter, n: usize) -> AllocStats {
    let series = sine(n);
    for _ in 0..2 {
        let _ = filter.score(&series).expect("score");
    }
    let before = alloc_stats();
    let _ = filter.score(&series).expect("score");
    alloc_stats().since(&before)
}

/// Warm scoring stages windows straight off the series into reused buffers,
/// so its matrix-allocation count must not grow with the series length.
/// All lengths here span multiple 64-window chunks, so the count includes
/// the full-chunk/tail staging cadence the production path really runs.
#[test]
fn warm_score_matrix_allocs_are_o1_in_series_length() {
    let _guard = GUARD.lock().unwrap();
    let mut filter = fitted_filter();
    let short = warm_score_allocs(&mut filter, 400);
    let double = warm_score_allocs(&mut filter, 700);
    let triple = warm_score_allocs(&mut filter, 1000);
    assert_eq!(
        short.matrices, double.matrices,
        "warm score matrix allocations grew with series length: {short:?} vs {double:?}"
    );
    assert_eq!(
        double.matrices, triple.matrices,
        "warm score matrix allocations grew with series length: {double:?} vs {triple:?}"
    );
}

/// One window per push, always the same shape: after warm-up the streaming
/// detector's hot path must allocate no matrices at all.
#[test]
fn warm_online_push_makes_zero_matrix_allocs() {
    let _guard = GUARD.lock().unwrap();
    let mut detector = OnlineDetector::fit(FilterConfig::fast(12), &sine(400), true).expect("fit");
    let stream = sine(80);
    for &v in &stream[..40] {
        let _ = detector.push(v);
    }
    let before = alloc_stats();
    for &v in &stream[40..] {
        let _ = detector.push(v).expect("context is warm");
    }
    let after = alloc_stats().since(&before);
    assert_eq!(
        after.matrices, 0,
        "warm OnlineDetector::push allocated matrices: {after:?}"
    );
}

/// Bulk streaming into a pre-sized decision buffer: a warm `push_all_into`
/// must make zero matrix allocations and never grow any vector — neither
/// the caller's decision buffer nor the detector's internal scratch.
#[test]
fn warm_push_all_into_makes_zero_allocs_and_zero_vec_growth() {
    let _guard = GUARD.lock().unwrap();
    let mut detector = OnlineDetector::fit(FilterConfig::fast(12), &sine(400), true).expect("fit");
    let stream = sine(120);
    let mut decisions = Vec::new();
    // Two warm-up passes size every reusable buffer for this stream length.
    detector.push_all_into(&stream, &mut decisions);
    detector.push_all_into(&stream, &mut decisions);
    let cap = decisions.capacity();
    let before = alloc_stats();
    detector.push_all_into(&stream, &mut decisions);
    let after = alloc_stats().since(&before);
    assert_eq!(
        after.matrices, 0,
        "warm push_all_into allocated matrices: {after:?}"
    );
    assert_eq!(
        decisions.capacity(),
        cap,
        "warm push_all_into grew the caller's decision buffer"
    );
    assert_eq!(decisions.len(), stream.len(), "every warm point decided");
}

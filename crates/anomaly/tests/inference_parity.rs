//! Tier-1 exactness gate for the serving path.
//!
//! The frozen `InferenceModel`'s f64 lane must reproduce
//! `AnomalyFilter::score` **bitwise**: same autoencoder, same windows, same
//! kernels and activations, same squared-error arithmetic. The int8 lane is
//! bounded instead: score delta under 0.05, at most 2 % of decisions
//! flipped against the exact scores.

use evfad_anomaly::{AnomalyFilter, FilterConfig};
use evfad_nn::infer::{InferenceModel, Precision};

fn sine(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 12.0).sin())
        .collect()
}

#[test]
fn frozen_f64_lane_matches_filter_score_bitwise() {
    const SEQ_LEN: usize = 12;
    let mut filter = AnomalyFilter::new(FilterConfig::fast(SEQ_LEN));
    filter.fit(&sine(400)).expect("fit");
    let mut frozen =
        InferenceModel::freeze(filter.model().expect("fitted"), Precision::F64).expect("freeze");

    let mut series = sine(90);
    series[50] += 2.5; // include an off-manifold window
    let n_wins = series.len() - SEQ_LEN + 1;

    // One batched forward over every stride-1 window.
    let mut windows = Vec::with_capacity(n_wins * SEQ_LEN);
    for w in 0..n_wins {
        windows.extend_from_slice(&series[w..w + SEQ_LEN]);
    }
    let mut recon = Vec::new();
    let (steps, feat) = frozen.forward_batch_into(&windows, n_wins, &mut recon);
    assert_eq!((steps, feat), (SEQ_LEN, 1));

    // Reference: the exact batch path, one window at a time (a single
    // window's score at its last point is that window's backward estimate).
    let mut scores = Vec::new();
    for w in 0..n_wins {
        let window = &series[w..w + SEQ_LEN];
        filter.score_into(window, &mut scores).expect("score");
        let exact = scores[SEQ_LEN - 1];
        let err = recon[w * SEQ_LEN + (SEQ_LEN - 1)] - window[SEQ_LEN - 1];
        let served = err * err;
        assert_eq!(
            served.to_bits(),
            exact.to_bits(),
            "window {w}: serving path broke bitwise identity: {served} vs {exact}"
        );
    }
}

#[test]
fn frozen_int8_lane_score_error_is_small() {
    const SEQ_LEN: usize = 12;
    let mut filter = AnomalyFilter::new(FilterConfig::fast(SEQ_LEN));
    filter.fit(&sine(400)).expect("fit");
    let threshold = filter.threshold().expect("fitted");
    let mut frozen =
        InferenceModel::freeze(filter.model().expect("fitted"), Precision::Int8).expect("freeze");

    let mut series = sine(90);
    series[50] += 2.5; // off-manifold: the windows ending here score past the threshold
    let n_wins = series.len() - SEQ_LEN + 1;
    let mut windows = Vec::with_capacity(n_wins * SEQ_LEN);
    for w in 0..n_wins {
        windows.extend_from_slice(&series[w..w + SEQ_LEN]);
    }
    let mut recon = Vec::new();
    frozen.forward_batch_into(&windows, n_wins, &mut recon);

    let mut scores = Vec::new();
    let mut max_delta = 0.0f64;
    let mut flagged = 0usize;
    let mut flips = 0usize;
    for w in 0..n_wins {
        let window = &series[w..w + SEQ_LEN];
        filter.score_into(window, &mut scores).expect("score");
        let exact = scores[SEQ_LEN - 1];
        let err = recon[w * SEQ_LEN + (SEQ_LEN - 1)] - window[SEQ_LEN - 1];
        let served = err * err;
        max_delta = max_delta.max((served - exact).abs());
        flagged += usize::from(exact > threshold);
        flips += usize::from((served > threshold) != (exact > threshold));
    }
    assert!(
        max_delta < 0.05,
        "int8 score drifted too far from exact: {max_delta}"
    );
    assert!(
        (1..n_wins).contains(&flagged),
        "the series must score on both sides of the threshold, {flagged} of {n_wins} flagged"
    );
    assert!(
        flips * 50 <= n_wins,
        "int8 flipped {flips} of {n_wins} decisions (bound: 2 %)"
    );
}

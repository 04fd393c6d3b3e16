//! Property tests pinning the zero-copy scoring pipeline to the allocating
//! path it replaced.
//!
//! `AnomalyFilter::score` now stages windows straight from a
//! [`WindowedSeries`] view instead of materialising per-window
//! `Matrix::column_vector`s of `series.windows(seq_len)` and a
//! `Seq::from_samples` batch. These tests prove the staged batches —
//! and the per-point scores computed from them — are bitwise identical to
//! the old marshal for arbitrary series, so the golden fixture (and every
//! score downstream) is unaffected.

use evfad_anomaly::{AnomalyFilter, FilterConfig};
use evfad_nn::{Seq, Sequential};
use evfad_tensor::Matrix;
use evfad_timeseries::windows::WindowedSeries;
use proptest::prelude::*;
use std::sync::OnceLock;

const SCORE_SEQ_LEN: usize = 6;

/// One small fitted filter shared by every scoring case.
fn fitted_filter() -> &'static AnomalyFilter {
    static FILTER: OnceLock<AnomalyFilter> = OnceLock::new();
    FILTER.get_or_init(|| {
        let train: Vec<f64> = (0..120)
            .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 12.0).sin())
            .collect();
        let mut filter = AnomalyFilter::new(FilterConfig::fast(SCORE_SEQ_LEN));
        filter.fit(&train).expect("fit");
        filter
    })
}

/// `AnomalyFilter::score` as it was before the windowed view: one
/// column-vector matrix per stride-1 window, every
/// window through one un-chunked forward, then the min-over-estimates sweep.
fn allocating_score(model: &mut Sequential, series: &[f64], seq_len: usize) -> Vec<f64> {
    let inputs: Vec<Matrix> = series.windows(seq_len).map(Matrix::column_vector).collect();
    let recon = model.forward(&Seq::from_samples(&inputs)).to_samples();
    let mut best = vec![f64::INFINITY; series.len()];
    for (start, r) in recon.iter().enumerate() {
        let last_idx = start + seq_len - 1;
        let err_last = r[(seq_len - 1, 0)] - series[last_idx];
        best[last_idx] = best[last_idx].min(err_last * err_last);
        let err_first = r[(0, 0)] - series[start];
        best[start] = best[start].min(err_first * err_first);
    }
    for (idx, b) in best.iter_mut().enumerate() {
        if !b.is_finite() {
            let start = idx.min(series.len() - seq_len);
            let err = recon[start][(idx - start, 0)] - series[idx];
            *b = err * err;
        }
    }
    best
}

/// Stages windows `first..first + count` of `ws` time-major, the way
/// `AnomalyFilter::recon_into` builds each chunk.
fn stage_chunk(ws: &WindowedSeries<'_>, first: usize, count: usize, buf: &mut Seq) {
    buf.reshape(ws.seq_len(), count, 1);
    for t in 0..ws.seq_len() {
        buf.step_data_mut(t)
            .copy_from_slice(ws.step(t, first, count));
    }
}

/// A forward's result never depends on what its arenas held before: the
/// property `Sequential::release_arenas` rests on. Series A scores the same
/// on the cold arenas a fit leaves behind as after series B has regrown
/// them. B's ragged tail is A's window count (40 after one 64-window
/// chunk), so A's second pass takes every buffer back at its own length,
/// still holding B's values.
#[test]
fn scores_do_not_depend_on_arena_history() {
    let train: Vec<f64> = (0..120)
        .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 12.0).sin())
        .collect();
    let mut filter = AnomalyFilter::new(FilterConfig::fast(SCORE_SEQ_LEN));
    filter.fit(&train).expect("fit");
    let a: Vec<f64> = (0..SCORE_SEQ_LEN - 1 + 40)
        .map(|i| 0.5 + 0.25 * (i as f64 * 0.7).cos())
        .collect();
    let b: Vec<f64> = (0..SCORE_SEQ_LEN - 1 + 64 + 40)
        .map(|i| {
            if i % 17 == 3 {
                0.95
            } else {
                0.1 + 0.002 * i as f64
            }
        })
        .collect();
    let cold = filter.score(&a).expect("score A on cold arenas");
    let _ = filter.score(&b).expect("score B");
    let stale = filter.score(&a).expect("score A after B");
    assert_eq!(cold.len(), stale.len());
    for (i, (c, s)) in cold.iter().zip(&stale).enumerate() {
        assert_eq!(c.to_bits(), s.to_bits(), "point {i}: {c} cold, {s} after B");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A staged chunk equals `slice::windows` + `column_vector` +
    /// `from_samples` over the same window range, bitwise.
    #[test]
    fn windowed_series_chunk_matches_allocating_marshal(
        series in prop::collection::vec(-100.0f64..100.0, 8..80),
        seq_len in 1usize..8,
        first_raw in 0usize..64,
        count_raw in 0usize..64,
    ) {
        let ws = WindowedSeries::new(&series, seq_len).expect("series longer than window");
        let first = first_raw % ws.len();
        let count = 1 + count_raw % (ws.len() - first);

        prop_assert_eq!(series.windows(seq_len).len(), ws.len());
        let picked: Vec<Matrix> = series
            .windows(seq_len)
            .skip(first)
            .take(count)
            .map(Matrix::column_vector)
            .collect();
        let reference = Seq::from_samples(&picked);

        let mut buf = Seq::default();
        stage_chunk(&ws, first, count, &mut buf);
        prop_assert_eq!(buf, reference);
    }

    /// End to end: every per-point score off the windowed view equals the
    /// allocating path's, bitwise, for window counts below, at and across
    /// the 64-window scoring chunk, out to several chunks with a ragged
    /// tail: the chunk size is not in the bits.
    #[test]
    fn filter_score_matches_allocating_path(
        series in prop::collection::vec(0.0f64..1.0, SCORE_SEQ_LEN - 1 + 258),
    ) {
        let mut filter = fitted_filter().clone();
        let mut model = filter.model().expect("fitted").clone();
        for n_windows in [1usize, 2, 63, 64, 65, 129, 255, 256, 258] {
            let series = &series[..SCORE_SEQ_LEN - 1 + n_windows];
            let reference = allocating_score(&mut model, series, SCORE_SEQ_LEN);
            let scores = filter.score(series).expect("score");
            prop_assert_eq!(scores.len(), reference.len());
            for (s, r) in scores.iter().zip(&reference) {
                prop_assert_eq!(s.to_bits(), r.to_bits());
            }
        }
    }

    /// Chunked staging (as `recon_into` does, at any chunk size) covers the
    /// exact same values as one whole-series marshal.
    #[test]
    fn chunked_staging_covers_whole_series(
        series in prop::collection::vec(-100.0f64..100.0, 12..120),
        seq_len in 2usize..6,
        chunk in 1usize..9,
    ) {
        let ws = WindowedSeries::new(&series, seq_len).expect("long enough");
        let wins: Vec<&[f64]> = series.windows(seq_len).collect();
        let mut buf = Seq::default();
        let mut first = 0;
        while first < ws.len() {
            let count = chunk.min(ws.len() - first);
            stage_chunk(&ws, first, count, &mut buf);
            for (b, win) in wins[first..first + count].iter().enumerate() {
                for (t, &v) in win.iter().enumerate() {
                    prop_assert_eq!(buf.step(t).as_slice()[b].to_bits(), v.to_bits());
                }
            }
            first += count;
        }
    }
}

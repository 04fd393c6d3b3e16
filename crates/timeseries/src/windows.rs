//! Sliding-window sequence construction.

use serde::{Deserialize, Serialize};

/// One supervised learning window: `seq_len` inputs and the next value.
///
/// Mirrors the paper's input preparation: `SEQUENCE_LENGTH = 24` hourly
/// values predict the following hour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Input slice of length `seq_len` (chronological order).
    pub input: Vec<f64>,
    /// The value immediately following the input window.
    pub target: f64,
    /// Index of `target` within the source series.
    pub target_index: usize,
}

/// Builds every sliding forecast window of length `seq_len`.
///
/// Returns an empty vector when the series is shorter than `seq_len + 1`.
///
/// # Panics
///
/// Panics if `seq_len == 0`.
///
/// # Examples
///
/// ```
/// let w = evfad_timeseries::windows::sliding(&[1.0, 2.0, 3.0, 4.0], 2);
/// assert_eq!(w.len(), 2);
/// assert_eq!(w[0].input, vec![1.0, 2.0]);
/// assert_eq!(w[0].target, 3.0);
/// assert_eq!(w[1].target_index, 3);
/// ```
pub fn sliding(series: &[f64], seq_len: usize) -> Vec<Window> {
    assert!(seq_len > 0, "seq_len must be >= 1");
    if series.len() <= seq_len {
        return Vec::new();
    }
    (0..series.len() - seq_len)
        .map(|start| Window {
            input: series[start..start + seq_len].to_vec(),
            target: series[start + seq_len],
            target_index: start + seq_len,
        })
        .collect()
}

/// Builds every sliding *reconstruction* window of length `seq_len`
/// (no target — used to train the LSTM autoencoder on normal data).
///
/// The window starting at index `i` covers `series[i..i + seq_len]`.
///
/// # Panics
///
/// Panics if `seq_len == 0`.
pub fn reconstruction(series: &[f64], seq_len: usize) -> Vec<Vec<f64>> {
    assert!(seq_len > 0, "seq_len must be >= 1");
    if series.len() < seq_len {
        return Vec::new();
    }
    (0..=series.len() - seq_len)
        .map(|start| series[start..start + seq_len].to_vec())
        .collect()
}

/// A zero-copy time-major view of every stride-1 reconstruction window.
///
/// Where [`reconstruction`] materialises one `Vec<f64>` per window (and
/// downstream code re-marshals them into per-window matrices and then a
/// time-major batch), this view exploits the structure of stride-1
/// windows: timestep `t` of windows `first..first + count` is the
/// *contiguous* source slice `series[first + t..first + t + count]`. Hot
/// paths therefore build each time-major step with a single
/// `copy_from_slice` instead of `count * seq_len` scattered reads.
///
/// The values are taken verbatim from the same series positions the
/// allocating path reads, so any batch assembled from [`WindowedSeries::step`]
/// slices is bitwise identical to `reconstruction` + per-window matrices +
/// time-major batching (pinned by proptest in `evfad-anomaly`).
///
/// # Examples
///
/// ```
/// use evfad_timeseries::windows::WindowedSeries;
///
/// let series = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let ws = WindowedSeries::new(&series, 3).unwrap();
/// assert_eq!(ws.len(), 3);
/// // Timestep 1 of windows 0..3 is the contiguous slice starting at 1.
/// assert_eq!(ws.step(1, 0, 3), &[2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WindowedSeries<'a> {
    series: &'a [f64],
    seq_len: usize,
}

impl<'a> WindowedSeries<'a> {
    /// Views `series` as its stride-1 windows of length `seq_len`.
    ///
    /// Returns `None` when the series is shorter than one window (the
    /// case where [`reconstruction`] returns an empty vector).
    ///
    /// # Panics
    ///
    /// Panics if `seq_len == 0`.
    pub fn new(series: &'a [f64], seq_len: usize) -> Option<Self> {
        assert!(seq_len > 0, "seq_len must be >= 1");
        if series.len() < seq_len {
            return None;
        }
        Some(Self { series, seq_len })
    }

    /// Window length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Number of windows (`series.len() - seq_len + 1`).
    #[allow(clippy::len_without_is_empty)] // >= 1 window by construction
    pub fn len(&self) -> usize {
        self.series.len() - self.seq_len + 1
    }

    /// Timestep `t` of the `count` windows starting at window `first`,
    /// as one contiguous slice (`series[first + t..first + t + count]`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= seq_len` or `first + count > self.len()`.
    pub fn step(&self, t: usize, first: usize, count: usize) -> &'a [f64] {
        assert!(t < self.seq_len, "timestep {t} out of range");
        assert!(
            first + count <= self.len(),
            "window range {first}..{} out of range ({} windows)",
            first + count,
            self.len()
        );
        &self.series[first + t..first + t + count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_formula() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sliding(&series, 24).len(), 76);
        assert_eq!(reconstruction(&series, 24).len(), 77);
    }

    #[test]
    fn windows_are_chronological_and_contiguous() {
        let series = [10.0, 20.0, 30.0, 40.0, 50.0];
        let w = sliding(&series, 3);
        assert_eq!(w[0].input, vec![10.0, 20.0, 30.0]);
        assert_eq!(w[0].target, 40.0);
        assert_eq!(w[1].input, vec![20.0, 30.0, 40.0]);
        assert_eq!(w[1].target, 50.0);
    }

    #[test]
    fn short_series_yield_nothing() {
        assert!(sliding(&[1.0, 2.0], 2).is_empty());
        assert!(sliding(&[1.0], 5).is_empty());
        assert!(reconstruction(&[1.0], 5).is_empty());
    }

    #[test]
    fn reconstruction_exact_length_gives_one_window() {
        let w = reconstruction(&[1.0, 2.0, 3.0], 3);
        assert_eq!(w, vec![vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn target_index_points_into_series() {
        let series: Vec<f64> = (0..30).map(|i| i as f64).collect();
        for w in sliding(&series, 7) {
            assert_eq!(series[w.target_index], w.target);
        }
    }

    #[test]
    #[should_panic(expected = "seq_len")]
    fn zero_seq_len_panics() {
        let _ = sliding(&[1.0], 0);
    }

    #[test]
    fn windowed_series_matches_reconstruction() {
        let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let wins = reconstruction(&series, 24);
        let ws = WindowedSeries::new(&series, 24).expect("long enough");
        assert_eq!(ws.len(), wins.len());
        assert_eq!(ws.seq_len(), 24);
        for (w, win) in wins.iter().enumerate() {
            let window: Vec<f64> = (0..24).map(|t| ws.step(t, w, 1)[0]).collect();
            assert_eq!(&window, win);
        }
        // step(t, first, count)[i] is window (first + i)'s element t.
        #[allow(clippy::needless_range_loop)]
        for t in 0..24 {
            let step = ws.step(t, 3, 10);
            for (i, &v) in step.iter().enumerate() {
                assert_eq!(v, wins[3 + i][t]);
            }
        }
    }

    #[test]
    fn windowed_series_too_short_is_none() {
        assert!(WindowedSeries::new(&[1.0, 2.0], 3).is_none());
        assert!(WindowedSeries::new(&[1.0, 2.0, 3.0], 3).is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn windowed_series_step_bounds_panic() {
        let series = [1.0, 2.0, 3.0, 4.0];
        let ws = WindowedSeries::new(&series, 2).unwrap();
        let _ = ws.step(0, 2, 2);
    }
}

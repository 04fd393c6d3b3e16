//! Detection-quality metrics (paper Table II and §III-C).

use serde::{Deserialize, Serialize};

/// Confusion-matrix summary of a point-wise detection run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// True positives (attacked and flagged).
    pub tp: usize,
    /// False positives (normal but flagged).
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives (attacked but missed).
    pub fn_: usize,
}

impl DetectionReport {
    /// Computes the confusion matrix from ground-truth and predicted flags.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn from_flags(truth: &[bool], predicted: &[bool]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "flag length mismatch");
        let mut r = DetectionReport {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        for (&t, &p) in truth.iter().zip(predicted) {
            match (t, p) {
                (true, true) => r.tp += 1,
                (false, true) => r.fp += 1,
                (false, false) => r.tn += 1,
                (true, false) => r.fn_ += 1,
            }
        }
        r
    }

    /// Precision `tp / (tp + fp)`; `0` when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall (a.k.a. the paper's "true attacks detected" ratio)
    /// `tp / (tp + fn)`; `0` when there were no attacks.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-positive rate `fp / (fp + tn)`; the paper reports 1.21 %.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Total number of points.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Merges two reports (e.g. per-client into overall).
    pub fn merged(self, other: DetectionReport) -> DetectionReport {
        DetectionReport {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            tn: self.tn + other.tn,
            fn_: self.fn_ + other.fn_,
        }
    }
}

fn ratio(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let truth = [true, false, true, false];
        let r = DetectionReport::from_flags(&truth, &truth);
        assert_eq!(r.precision(), 1.0);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.f1(), 1.0);
        assert_eq!(r.false_positive_rate(), 0.0);
    }

    #[test]
    fn hand_computed_confusion() {
        let truth = [true, true, true, false, false, false];
        let pred = [true, false, false, true, false, false];
        let r = DetectionReport::from_flags(&truth, &pred);
        assert_eq!((r.tp, r.fp, r.tn, r.fn_), (1, 1, 2, 2));
        assert!((r.precision() - 0.5).abs() < 1e-12);
        assert!((r.recall() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.f1() - 0.4).abs() < 1e-12);
        assert!((r.false_positive_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let r = DetectionReport::from_flags(&[false, false], &[false, false]);
        assert_eq!(r.precision(), 0.0);
        assert_eq!(r.recall(), 0.0);
        assert_eq!(r.f1(), 0.0);
        assert_eq!(r.false_positive_rate(), 0.0);
    }

    #[test]
    fn merged_adds_counts() {
        let a = DetectionReport {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        let b = DetectionReport {
            tp: 10,
            fp: 20,
            tn: 30,
            fn_: 40,
        };
        let m = a.merged(b);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (11, 22, 33, 44));
        assert_eq!(m.total(), 110);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = DetectionReport::from_flags(&[true], &[true, false]);
    }
}

/// Episode-level detection summary.
///
/// The paper reports a "True Attacks Detected ratio" alongside point-wise
/// precision/recall; operators care whether each *attack event* was caught
/// at all, not only how many of its hours were flagged. An episode counts
/// as detected when at least `min_overlap` of its hours are flagged; a
/// false alarm is a maximal flagged run that overlaps no true episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeReport {
    /// Number of ground-truth attack episodes.
    pub episodes: usize,
    /// Episodes with sufficient flagged overlap.
    pub detected: usize,
    /// Maximal flagged runs that overlap no episode.
    pub false_alarm_events: usize,
}

impl EpisodeReport {
    /// Computes the report from ground-truth episode spans (as
    /// `(start, end)` half-open ranges) and point-wise predicted flags.
    ///
    /// `min_overlap` is the fraction of an episode's hours that must be
    /// flagged for it to count as detected (use a small value such as
    /// `0.1` for "any meaningful hit").
    ///
    /// # Panics
    ///
    /// Panics if an episode range exceeds `flags.len()`.
    pub fn from_episodes(episodes: &[(usize, usize)], flags: &[bool], min_overlap: f64) -> Self {
        let mut detected = 0;
        let mut covered = vec![false; flags.len()];
        for &(start, end) in episodes {
            assert!(end <= flags.len(), "episode range out of bounds");
            for c in covered.iter_mut().take(end).skip(start) {
                *c = true;
            }
            let hits = flags[start..end].iter().filter(|&&f| f).count();
            let needed = ((end - start) as f64 * min_overlap).max(1.0).ceil() as usize;
            if hits >= needed.min(end - start) {
                detected += 1;
            }
        }
        // Count maximal flagged runs fully outside every episode.
        let mut false_alarm_events = 0;
        let mut in_run = false;
        let mut run_touches_episode = false;
        for i in 0..flags.len() {
            if flags[i] {
                if !in_run {
                    in_run = true;
                    run_touches_episode = false;
                }
                if covered[i] {
                    run_touches_episode = true;
                }
            } else if in_run {
                in_run = false;
                if !run_touches_episode {
                    false_alarm_events += 1;
                }
            }
        }
        if in_run && !run_touches_episode {
            false_alarm_events += 1;
        }
        Self {
            episodes: episodes.len(),
            detected,
            false_alarm_events,
        }
    }
}

#[cfg(test)]
mod episode_tests {
    use super::*;

    #[test]
    fn all_episodes_detected_with_partial_hits() {
        let flags = [
            false, true, false, false, false, false, true, true, false, false,
        ];
        let episodes = [(1usize, 4usize), (6, 9)];
        let r = EpisodeReport::from_episodes(&episodes, &flags, 0.1);
        assert_eq!(r.episodes, 2);
        assert_eq!(r.detected, 2);
        assert_eq!(r.false_alarm_events, 0);
    }

    #[test]
    fn higher_overlap_requirement_rejects_single_hits() {
        let flags = [false, true, false, false, false];
        let episodes = [(1usize, 5usize)]; // 1 of 4 hours flagged = 25%
        let strict = EpisodeReport::from_episodes(&episodes, &flags, 0.5);
        assert_eq!(strict.detected, 0);
        let lax = EpisodeReport::from_episodes(&episodes, &flags, 0.2);
        assert_eq!(lax.detected, 1);
    }

    #[test]
    fn false_alarm_runs_counted_once() {
        let flags = [true, true, false, true, false, false];
        let episodes: [(usize, usize); 0] = [];
        let r = EpisodeReport::from_episodes(&episodes, &flags, 0.1);
        assert_eq!(r.false_alarm_events, 2);
    }

    #[test]
    fn run_touching_episode_is_not_a_false_alarm() {
        // Flagged run spills out of the episode but overlaps it.
        let flags = [false, true, true, true, false];
        let episodes = [(2usize, 3usize)];
        let r = EpisodeReport::from_episodes(&episodes, &flags, 0.1);
        assert_eq!(r.detected, 1);
        assert_eq!(r.false_alarm_events, 0);
    }

    #[test]
    fn trailing_run_is_counted() {
        let flags = [false, false, true, true];
        let episodes: [(usize, usize); 0] = [];
        let r = EpisodeReport::from_episodes(&episodes, &flags, 0.1);
        assert_eq!(r.false_alarm_events, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_episode_panics() {
        let _ = EpisodeReport::from_episodes(&[(0, 10)], &[false; 5], 0.1);
    }
}

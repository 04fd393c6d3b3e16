//! Order statistics for timing samples.
//!
//! `quartiles` and `spread` reproduce Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! because that is what judges a set of runs of this benchmark: a metric
//! is steady when `(Q3 − Q1) / median` stays inside its bound.

/// Sorts a sample ascending. Timings are finite by construction; a NaN
/// would be a bug in the caller and sorts last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` of the sample at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(Q1, Q2, Q3)` as `statistics.quantiles(values, n=4)` gives them.
/// A single value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of an empty sample");
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is compared against. Zero when the median is zero
/// (an exact count that repeats).
pub fn spread(sorted: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(sorted);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, or `None` when even p75 does not (fewer than 40
/// samples): a tail read off fewer than ten samples is noise.
pub fn supported_tail(samples: usize) -> Option<f64> {
    [99usize, 95, 90, 75]
        .into_iter()
        .find(|pct| samples * (100 - pct) >= 10 * 100)
        .map(|pct| pct as f64 / 100.0)
}

/// Median of each of `parts` consecutive stretches of a sample kept in
/// the order it was taken (fewer stretches when the sample is shorter).
///
/// On a shared host interference comes in bursts of seconds: within one
/// 10 s run the median tick of a one-second stretch alternated between
/// 8.2–8.8 ms and 12–14 ms. A burst can only add time, so the *lowest*
/// stretch median is the run's estimate of what the code itself costs,
/// and it repeats where the whole-run median depends on how much of the
/// run the neighbours took.
pub fn stretch_medians(in_order: &[f64], parts: usize) -> Vec<f64> {
    let n = in_order.len();
    let parts = parts.min(n);
    (0..parts)
        .map(|i| {
            median(&sorted(
                in_order[i * n / parts..(i + 1) * n / parts].to_vec(),
            ))
        })
        .collect()
}

/// Work per second in each of at most `parts` stretches of equal
/// duration. `marks` are `(seconds, work done so far)` along one pass;
/// a stretch ends on the first mark past its share of the wall time.
pub fn stretch_rates(marks: &[(f64, f64)], parts: usize) -> Vec<f64> {
    let Some(&(wall, _)) = marks.last() else {
        return Vec::new();
    };
    let mut rates = Vec::with_capacity(parts);
    let (mut t0, mut w0) = (0.0, 0.0);
    for &(t, w) in marks {
        // The last mark closes whatever is left.
        let due = wall * (rates.len() + 1) as f64 / parts as f64;
        if (t >= due || t == wall) && t > t0 {
            rates.push((w - w0) / (t - t0));
            (t0, w0) = (t, w);
        }
    }
    rates
}

/// Smallest of a non-empty list.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of a non-empty list.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calmest_stretch_ignores_bursts() {
        // 100 ticks of 8 ms with two bursts of 13 ms covering 35 of them:
        // the whole-run median would move with the bursts' share.
        let mut ticks = vec![8.0; 100];
        for t in &mut ticks[10..30] {
            *t = 13.0;
        }
        for t in &mut ticks[60..75] {
            *t = 13.0;
        }
        let medians = stretch_medians(&ticks, 10);
        assert_eq!(medians.len(), 10);
        assert_eq!(lowest(&medians), 8.0);
        assert_eq!(highest(&medians), 13.0);
        // A sample shorter than the stretch count: one stretch per value.
        assert_eq!(stretch_medians(&[3.0, 1.0, 2.0], 10), vec![3.0, 1.0, 2.0]);
        assert!(stretch_medians(&[], 10).is_empty());
    }

    #[test]
    fn stretch_rates_cut_the_wall_time_evenly() {
        // Ten work items a second, except one second in which nothing
        // moves: one stretch shows the stall, the best one does not.
        let mut marks = Vec::new();
        let (mut t, mut w) = (0.0, 0.0);
        for i in 0..100 {
            t += if i == 50 { 1.1 } else { 0.1 };
            w += 1.0;
            marks.push((t, w));
        }
        let rates = stretch_rates(&marks, 10);
        assert!(rates.len() >= 9 && rates.len() <= 11, "{}", rates.len());
        assert!((highest(&rates) - 10.0).abs() < 1e-6);
        assert!(lowest(&rates) < 6.0);
        assert!(w / t < 9.2);
        // Few marks: one stretch per mark.
        assert!(stretch_rates(&[], 10).is_empty());
        assert_eq!(stretch_rates(&[(2.0, 8.0)], 10), vec![4.0]);
        assert_eq!(stretch_rates(&[(1.0, 4.0), (2.0, 6.0)], 10), vec![4.0, 2.0]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 7.0], 0.5), 3.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
    }
}

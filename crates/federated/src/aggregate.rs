//! Server-side aggregation rules.

use crate::client::LocalUpdate;
use crate::error::FederatedError;
use crate::streaming::{StreamingAggregator, StreamingFedAvg};
use evfad_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Rule combining client updates into the next global model.
///
/// The paper uses sample-weighted Federated Averaging
/// ([`Aggregator::FedAvg`]). The Byzantine-robust rules harden the server
/// against poisoned updates — relevant because the paper's threat model is
/// an adversary attacking the *data* path; a natural escalation (the
/// `aggregation` section of the `ablate` bench, exercised end-to-end by the chaos harness in
/// `tests/chaos.rs` via [`crate::faults`]) is an adversary compromising a
/// *client*.
///
/// The robust rules tolerate non-finite updates (a NaN-flood attack must
/// not panic the server): the median ignores non-finite contributions, the
/// trimmed mean counts non-finite values per coordinate and spends its trim
/// budget on them before any honest extreme, and a candidate whose Krum
/// score is non-finite is never selected. `FedAvg` deliberately propagates
/// NaN — it is the paper's baseline the robust rules are measured against.
///
/// Two semantic fixes over earlier revisions of this module:
///
/// * **Krum with no finite-scored candidate now errors.** Previously, when
///   every candidate's score was NaN (e.g. every client NaN-flooded, or
///   `f` too small to exclude the floods from every neighbour sum), the
///   selection loop never fired and the server silently returned the
///   *first* update — exactly the possibly-poisoned payload Krum exists to
///   reject. It now returns [`FederatedError::Aggregation`].
/// * **Trimmed mean bounds the non-finite count per coordinate.** IEEE
///   total ordering sorts every (positive) NaN to the same end, so two
///   NaN-flooded clients under `trim: 1` used to leave one NaN inside the
///   kept slice and the aggregated coordinate went NaN. Non-finite values
///   now consume trim slots first (high side first, matching the old
///   placement of positive NaN) and aggregation errors when more than
///   `2 * trim` values of a coordinate are non-finite. The clean path is
///   bitwise unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Aggregator {
    /// Sample-count-weighted mean of client weights (McMahan et al.).
    #[default]
    FedAvg,
    /// Coordinate-wise median (unweighted).
    Median,
    /// Coordinate-wise trimmed mean: drop the lowest and highest
    /// `trim` values per coordinate, average the rest.
    TrimmedMean {
        /// How many extreme values to drop from each side.
        trim: usize,
    },
    /// Krum: select the single update minimising the summed squared
    /// distance to its `n - f - 2` nearest neighbours.
    Krum {
        /// Upper bound on the number of Byzantine clients `f`.
        byzantine: usize,
    },
}

impl Aggregator {
    /// Stable identifier for bench output.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::FedAvg => "fedavg",
            Aggregator::Median => "median",
            Aggregator::TrimmedMean { .. } => "trimmed_mean",
            Aggregator::Krum { .. } => "krum",
        }
    }

    /// Combines updates into new global weights.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::NoClients`] for an empty update set;
    /// * [`FederatedError::Aggregation`] if shapes disagree, trimming
    ///   removes everything, more than `2 * trim` values of a coordinate
    ///   are non-finite, Krum lacks clients (`n >= f + 3`), or no Krum
    ///   candidate has a finite score.
    pub fn aggregate(self, updates: &[LocalUpdate]) -> Result<Vec<Matrix>, FederatedError> {
        if updates.is_empty() {
            return Err(FederatedError::NoClients);
        }
        let reference: Vec<(usize, usize)> = updates[0].weights.iter().map(Matrix::shape).collect();
        for u in updates {
            let shapes: Vec<(usize, usize)> = u.weights.iter().map(Matrix::shape).collect();
            if shapes != reference {
                return Err(FederatedError::Aggregation(format!(
                    "client {} has mismatched weight shapes",
                    u.client_id
                )));
            }
        }
        match self {
            Aggregator::FedAvg => {
                let total = updates.iter().map(|u| u.sample_count as f64).sum();
                let mut acc = StreamingFedAvg::new(total, updates.len());
                for u in updates {
                    acc.ingest(u)?;
                }
                acc.finish()
            }
            Aggregator::Median => coordinate_wise(updates, |vals| Ok(robust_median(vals))),
            Aggregator::TrimmedMean { trim } => {
                if 2 * trim >= updates.len() {
                    return Err(FederatedError::Aggregation(format!(
                        "trim {trim} leaves no updates out of {}",
                        updates.len()
                    )));
                }
                coordinate_wise(updates, move |vals| trimmed_mean(vals, trim))
            }
            Aggregator::Krum { byzantine } => krum(updates, byzantine),
        }
    }
}

/// How many trim slots the non-finite values of a coordinate consume on
/// each side: `(low_honest, high_honest)` — the number of *honest* (finite)
/// extremes still trimmed from each end after non-finite values have eaten
/// into the `2 * trim` budget, high side first (positive NaN used to sort
/// to the positive end, so this keeps the single-flood behaviour
/// identical).
fn trim_split(trim: usize, non_finite: usize) -> (usize, usize) {
    let high_honest = trim - non_finite.min(trim);
    let low_honest = trim - non_finite.saturating_sub(trim);
    (low_honest, high_honest)
}

/// The per-coordinate trimmed mean with bounded non-finite tolerance.
///
/// Non-finite values consume trim capacity before any honest extreme; with
/// `bad` of them, `2 * trim - bad` honest extremes are still trimmed
/// (allocated by [`trim_split`]). On an all-finite coordinate this is the
/// classic trimmed mean, bitwise identical to sorting and averaging the
/// middle slice.
///
/// # Errors
///
/// [`FederatedError::Aggregation`] when more than `2 * trim` values are
/// non-finite — too many corrupted clients to contain.
fn trimmed_mean(vals: &[f64], trim: usize) -> Result<f64, FederatedError> {
    let bad = vals.iter().filter(|v| !v.is_finite()).count();
    if bad > 2 * trim {
        return Err(FederatedError::Aggregation(format!(
            "trimmed mean: {bad} non-finite values at a coordinate exceed \
             the 2 * trim = {} containment budget",
            2 * trim
        )));
    }
    let mut sorted: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let (low, high) = trim_split(trim, bad);
    let kept = &sorted[low..sorted.len() - high];
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Coordinate-wise median over the *finite* contributions; NaN/∞ values
/// (a corrupted client) cannot be "the middle" under any robust reading,
/// so they are ignored. All-non-finite coordinates yield NaN.
fn robust_median(vals: &[f64]) -> f64 {
    let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    evfad_tensor::stats::median(&finite)
}

fn coordinate_wise(
    updates: &[LocalUpdate],
    combine: impl Fn(&[f64]) -> Result<f64, FederatedError>,
) -> Result<Vec<Matrix>, FederatedError> {
    let mut out = Vec::with_capacity(updates[0].weights.len());
    for t in 0..updates[0].weights.len() {
        let shape = updates[0].weights[t].shape();
        let mut m = Matrix::zeros(shape.0, shape.1);
        let mut column = vec![0.0; updates.len()];
        for flat in 0..m.len() {
            for (ci, u) in updates.iter().enumerate() {
                column[ci] = u.weights[t].as_slice()[flat];
            }
            m.as_mut_slice()[flat] = combine(&column)?;
        }
        out.push(m);
    }
    Ok(out)
}

fn krum(updates: &[LocalUpdate], byzantine: usize) -> Result<Vec<Matrix>, FederatedError> {
    let n = updates.len();
    if n < byzantine + 3 {
        return Err(FederatedError::Aggregation(format!(
            "Krum needs at least f + 3 = {} clients, got {n}",
            byzantine + 3
        )));
    }
    let neighbours = n - byzantine - 2;
    let dist = |a: &LocalUpdate, b: &LocalUpdate| -> f64 {
        a.weights
            .iter()
            .zip(&b.weights)
            .map(|(x, y)| {
                x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f64>()
            })
            .sum()
    };
    // Only a candidate with a *finite* score may win. A NaN score means the
    // candidate is itself corrupted; an infinite score means its neighbour
    // distances overflowed. If no candidate qualifies the server must
    // refuse rather than fall back to an arbitrary update: the old code
    // left `best = 0` in that case and silently returned the first —
    // possibly poisoned — payload.
    let mut best: Option<(usize, f64)> = None;
    for i in 0..n {
        let mut distances: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| dist(&updates[i], &updates[j]))
            .collect();
        // Total ordering: distances to a NaN-corrupted update sort last,
        // past the honest neighbours, instead of panicking.
        distances.sort_by(f64::total_cmp);
        let score: f64 = distances.iter().take(neighbours).sum();
        if score.is_finite() && best.is_none_or(|(_, s)| score < s) {
            best = Some((i, score));
        }
    }
    match best {
        Some((i, _)) => Ok(updates[i].weights.clone()),
        None => Err(FederatedError::Aggregation(
            "no Krum candidate has a finite score; every update may be corrupted \
             (raise f or investigate the federation)"
                .to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn update(id: &str, value: f64, samples: usize) -> LocalUpdate {
        LocalUpdate {
            client_id: id.into(),
            weights: vec![
                Matrix::filled(2, 2, value),
                Matrix::filled(1, 2, value * 10.0),
            ],
            sample_count: samples,
            train_loss: 0.0,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn fedavg_weighted_by_samples() {
        let ups = [update("a", 0.0, 100), update("b", 1.0, 300)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 0.75).abs() < 1e-12);
        assert!((agg[1][(0, 1)] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn fedavg_equal_samples_is_plain_mean() {
        let ups = [update("a", 2.0, 50), update("b", 4.0, 50)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(1, 1)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fedavg_zero_samples_falls_back_to_uniform() {
        let ups = [update("a", 2.0, 0), update("b", 4.0, 0)];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_ignores_one_outlier() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.2, 10),
            update("evil", 1e9, 10),
        ];
        let agg = Aggregator::Median.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 1.2).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_discards_extremes() {
        let ups = [
            update("a", 0.0, 10),
            update("b", 1.0, 10),
            update("c", 2.0, 10),
            update("evil", 1e6, 10),
            update("evil2", -1e6, 10),
        ];
        let agg = Aggregator::TrimmedMean { trim: 1 }.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_rejects_overtrim() {
        let ups = [update("a", 0.0, 1), update("b", 1.0, 1)];
        assert!(Aggregator::TrimmedMean { trim: 1 }.aggregate(&ups).is_err());
    }

    #[test]
    fn krum_selects_inlier_against_byzantine() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.05, 10),
            update("c", 0.95, 10),
            update("evil", 500.0, 10),
        ];
        let agg = Aggregator::Krum { byzantine: 1 }.aggregate(&ups).unwrap();
        let v = agg[0][(0, 0)];
        assert!((0.9..=1.1).contains(&v), "krum picked {v}");
    }

    fn nan_update(id: &str) -> LocalUpdate {
        let mut u = update(id, 0.0, 10);
        for m in &mut u.weights {
            for v in m.as_mut_slice() {
                *v = f64::NAN;
            }
        }
        u
    }

    #[test]
    fn median_ignores_a_nan_flooded_client() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.2, 10),
            update("c", 1.4, 10),
            nan_update("evil"),
        ];
        let agg = Aggregator::Median.aggregate(&ups).unwrap();
        assert!((agg[0][(0, 0)] - 1.2).abs() < 1e-12);
        assert!(agg.iter().all(Matrix::is_finite));
    }

    #[test]
    fn median_of_all_nan_is_nan_not_a_panic() {
        let ups = [nan_update("e1"), nan_update("e2")];
        let agg = Aggregator::Median.aggregate(&ups).unwrap();
        assert!(agg[0][(0, 0)].is_nan());
    }

    #[test]
    fn trimmed_mean_trims_a_nan_flooded_client() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 2.0, 10),
            update("c", 3.0, 10),
            nan_update("evil"),
        ];
        let agg = Aggregator::TrimmedMean { trim: 1 }.aggregate(&ups).unwrap();
        // NaN sorts as an extreme and is trimmed; kept = {2.0, 3.0}.
        assert!((agg[0][(0, 0)] - 2.5).abs() < 1e-12);
        assert!(agg.iter().all(Matrix::is_finite));
    }

    #[test]
    fn krum_with_no_finite_score_errors_instead_of_returning_first_update() {
        // Regression: every client NaN-flooded. Every pairwise distance is
        // NaN, so every candidate score is NaN and nothing may win. The old
        // code silently returned updates[0] — the poisoned payload itself.
        let ups = [
            nan_update("e1"),
            nan_update("e2"),
            nan_update("e3"),
            nan_update("e4"),
        ];
        match (Aggregator::Krum { byzantine: 1 }).aggregate(&ups) {
            Err(FederatedError::Aggregation(msg)) => {
                assert!(msg.contains("finite score"), "unexpected message: {msg}");
            }
            other => panic!("expected an aggregation error, got {other:?}"),
        }
    }

    #[test]
    fn trimmed_mean_contains_two_nan_floods_with_trim_one() {
        // Regression: total_cmp sorts both (positive) NaNs to the same end,
        // so the old `[trim..len - trim]` slice kept one NaN and the
        // aggregate went NaN. Both floods must now consume the trim budget.
        let ups = [
            update("a", 1.0, 10),
            update("b", 2.0, 10),
            nan_update("evil1"),
            nan_update("evil2"),
        ];
        let agg = Aggregator::TrimmedMean { trim: 1 }.aggregate(&ups).unwrap();
        assert!(
            agg.iter().all(Matrix::is_finite),
            "two NaN floods must not leak into the aggregate"
        );
        // Both trim slots went to the floods; both honest values are kept.
        assert!((agg[0][(0, 0)] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_errors_when_floods_exceed_the_containment_budget() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 2.0, 10),
            nan_update("e1"),
            nan_update("e2"),
            nan_update("e3"),
        ];
        match (Aggregator::TrimmedMean { trim: 1 }).aggregate(&ups) {
            Err(FederatedError::Aggregation(msg)) => {
                assert!(msg.contains("non-finite"), "unexpected message: {msg}");
            }
            other => panic!("expected an aggregation error, got {other:?}"),
        }
    }

    #[test]
    fn trim_split_spends_budget_on_non_finite_high_side_first() {
        assert_eq!(trim_split(1, 0), (1, 1));
        assert_eq!(trim_split(1, 1), (1, 0));
        assert_eq!(trim_split(1, 2), (0, 0));
        assert_eq!(trim_split(2, 1), (2, 1));
        assert_eq!(trim_split(2, 3), (1, 0));
        assert_eq!(trim_split(2, 4), (0, 0));
        assert_eq!(trim_split(0, 0), (0, 0));
    }

    #[test]
    fn krum_never_selects_a_nan_flooded_client() {
        let ups = [
            update("a", 1.0, 10),
            update("b", 1.1, 10),
            update("c", 0.9, 10),
            nan_update("evil"),
        ];
        let agg = Aggregator::Krum { byzantine: 1 }.aggregate(&ups).unwrap();
        assert!(agg.iter().all(Matrix::is_finite));
        let v = agg[0][(0, 0)];
        assert!((0.8..=1.2).contains(&v), "krum picked {v}");
    }

    #[test]
    fn fedavg_propagates_nan_by_design() {
        let ups = [update("a", 1.0, 10), nan_update("evil")];
        let agg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        assert!(agg[0][(0, 0)].is_nan());
    }

    #[test]
    fn krum_needs_enough_clients() {
        let ups = [update("a", 1.0, 1), update("b", 1.0, 1)];
        assert!(Aggregator::Krum { byzantine: 1 }.aggregate(&ups).is_err());
    }

    #[test]
    fn empty_updates_rejected() {
        assert_eq!(
            Aggregator::FedAvg.aggregate(&[]),
            Err(FederatedError::NoClients)
        );
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut bad = update("bad", 1.0, 1);
        bad.weights[0] = Matrix::zeros(3, 3);
        let ups = [update("a", 1.0, 1), bad];
        assert!(matches!(
            Aggregator::FedAvg.aggregate(&ups),
            Err(FederatedError::Aggregation(_))
        ));
    }

    #[test]
    fn aggregate_preserves_shapes() {
        let ups = [update("a", 1.0, 5), update("b", 2.0, 5)];
        for agg in [
            Aggregator::FedAvg,
            Aggregator::Median,
            Aggregator::Krum { byzantine: 0 },
        ] {
            if let Ok(w) = agg.aggregate(&ups) {
                assert_eq!(w[0].shape(), (2, 2));
                assert_eq!(w[1].shape(), (1, 2));
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Aggregator::FedAvg.name(), "fedavg");
        assert_eq!(Aggregator::Median.name(), "median");
        assert_eq!(Aggregator::TrimmedMean { trim: 1 }.name(), "trimmed_mean");
        assert_eq!(Aggregator::Krum { byzantine: 1 }.name(), "krum");
        assert_eq!(Aggregator::default(), Aggregator::FedAvg);
    }
}

//! Additional attack vectors (paper §III-G future work).
//!
//! The paper's detector targets sustained high-volume spikes and explicitly
//! defers "subtle data manipulation or temporal pattern disruption" to
//! future work. These injectors implement those vectors so the ablation
//! benches can quantify how the LSTM-autoencoder detector degrades on them.

use crate::ddos::{AttackEpisode, AttackOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An alternative attack vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackVector {
    /// False-data injection: a constant multiplicative bias over the
    /// episode — subtle, no spikes.
    FalseDataInjection {
        /// Multiplicative bias (e.g. `1.15` = +15 %).
        bias: f64,
    },
    /// Temporal disruption: the episode's values are reversed in time,
    /// destroying the daily shape without changing the value distribution.
    TemporalDisruption,
    /// Ramp attack: linearly growing inflation across the episode.
    Ramp {
        /// Multiplier reached at the episode end.
        peak: f64,
    },
    /// Pulse attack: alternating hours are inflated, the rest untouched.
    Pulse {
        /// Multiplier applied on the inflated hours.
        magnitude: f64,
    },
}

impl AttackVector {
    /// Stable identifier used in bench output.
    pub fn name(&self) -> &'static str {
        match self {
            AttackVector::FalseDataInjection { .. } => "false_data_injection",
            AttackVector::TemporalDisruption => "temporal_disruption",
            AttackVector::Ramp { .. } => "ramp",
            AttackVector::Pulse { .. } => "pulse",
        }
    }

    /// Applies the vector to `series[episode]`, mutating in place.
    fn apply(&self, series: &mut [f64], episode: AttackEpisode) {
        let span = &mut series[episode.start..episode.end];
        match *self {
            AttackVector::FalseDataInjection { bias } => {
                for v in span.iter_mut() {
                    *v *= bias;
                }
            }
            AttackVector::TemporalDisruption => span.reverse(),
            AttackVector::Ramp { peak } => {
                let n = span.len().max(1) as f64;
                for (i, v) in span.iter_mut().enumerate() {
                    let frac = (i + 1) as f64 / n;
                    *v *= 1.0 + (peak - 1.0) * frac;
                }
            }
            AttackVector::Pulse { magnitude } => {
                for (i, v) in span.iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *v *= magnitude;
                    }
                }
            }
        }
    }
}

/// Injects `vector` attacks over episodes covering roughly
/// `attack_fraction` of the series.
///
/// Labels cover every hour of every episode (for `Pulse`, both inflated and
/// untouched hours inside an episode count as attacked — the episode is the
/// ground-truth unit, as in the DDoS injector).
///
/// # Examples
///
/// ```
/// use evfad_attack::vectors::{inject_vector, AttackVector};
///
/// let clean = vec![10.0; 600];
/// let out = inject_vector(&clean, AttackVector::Ramp { peak: 3.0 }, 0.05, 1);
/// assert!(out.labels.contains(&true));
/// ```
pub fn inject_vector(
    series: &[f64],
    vector: AttackVector,
    attack_fraction: f64,
    seed: u64,
) -> AttackOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EC7_0BAD);
    let len = series.len();
    let target = (len as f64 * attack_fraction).round() as usize;
    let mut episodes: Vec<AttackEpisode> = Vec::new();
    let mut attacked = 0usize;
    let mut guard = 0;
    while attacked < target && guard < 10_000 {
        guard += 1;
        let dur = rng.gen_range(4..=12).min(len.saturating_sub(1));
        if dur == 0 || dur >= len {
            break;
        }
        let start = rng.gen_range(0..len - dur);
        let cand = AttackEpisode {
            start,
            end: start + dur,
        };
        if episodes
            .iter()
            .any(|e| cand.start < e.end + 1 && e.start < cand.end + 1)
        {
            continue;
        }
        attacked += dur;
        episodes.push(cand);
    }
    episodes.sort_by_key(|e| e.start);

    let mut out = series.to_vec();
    let mut labels = vec![false; len];
    for ep in &episodes {
        vector.apply(&mut out, *ep);
        for l in labels.iter_mut().take(ep.end).skip(ep.start) {
            *l = true;
        }
    }
    AttackOutcome {
        series: out,
        labels,
        episodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| 10.0 + i as f64 * 0.01).collect()
    }

    #[test]
    fn fdi_applies_constant_bias() {
        let clean = vec![10.0; 400];
        let out = inject_vector(
            &clean,
            AttackVector::FalseDataInjection { bias: 1.2 },
            0.1,
            3,
        );
        for i in 0..clean.len() {
            if out.labels[i] {
                assert!((out.series[i] - 12.0).abs() < 1e-12);
            } else {
                assert_eq!(out.series[i], 10.0);
            }
        }
    }

    #[test]
    fn temporal_disruption_preserves_values() {
        let clean = ramp_series(500);
        let out = inject_vector(&clean, AttackVector::TemporalDisruption, 0.1, 4);
        let mut a: Vec<f64> = clean.clone();
        let mut b: Vec<f64> = out.series.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b, "value multiset must be preserved");
        assert_ne!(clean, out.series, "order must change");
    }

    #[test]
    fn ramp_grows_within_episode() {
        let clean = vec![10.0; 600];
        let out = inject_vector(&clean, AttackVector::Ramp { peak: 4.0 }, 0.08, 5);
        for ep in &out.episodes {
            if ep.len() >= 3 {
                assert!(out.series[ep.end - 1] > out.series[ep.start]);
            }
        }
    }

    #[test]
    fn pulse_alternates() {
        let clean = vec![10.0; 600];
        let out = inject_vector(&clean, AttackVector::Pulse { magnitude: 5.0 }, 0.08, 6);
        for ep in &out.episodes {
            assert_eq!(out.series[ep.start], 50.0);
            if ep.len() >= 2 {
                assert_eq!(out.series[ep.start + 1], 10.0);
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            AttackVector::FalseDataInjection { bias: 1.1 }.name(),
            "false_data_injection"
        );
        assert_eq!(
            AttackVector::TemporalDisruption.name(),
            "temporal_disruption"
        );
        assert_eq!(AttackVector::Ramp { peak: 2.0 }.name(), "ramp");
        assert_eq!(AttackVector::Pulse { magnitude: 2.0 }.name(), "pulse");
    }

    #[test]
    fn deterministic_per_seed() {
        let clean = ramp_series(300);
        let v = AttackVector::Ramp { peak: 2.0 };
        assert_eq!(
            inject_vector(&clean, v, 0.05, 1),
            inject_vector(&clean, v, 0.05, 1)
        );
    }

    #[test]
    fn fraction_respected_roughly() {
        let clean = vec![1.0; 4000];
        let out = inject_vector(&clean, AttackVector::TemporalDisruption, 0.05, 9);
        let frac = out.labels.iter().filter(|&&l| l).count() as f64 / clean.len() as f64;
        assert!((0.03..=0.08).contains(&frac), "fraction {frac}");
    }
}

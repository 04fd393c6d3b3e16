//! Episode-based DDoS anomaly injection for hourly demand series.

use crate::traffic::TrafficModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One contiguous attack episode on the hourly series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackEpisode {
    /// First attacked hour (inclusive).
    pub start: usize,
    /// One past the last attacked hour (exclusive).
    pub end: usize,
}

impl AttackEpisode {
    /// Number of attacked hours.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the episode is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Configuration for [`DdosInjector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdosConfig {
    /// Target fraction of hours under attack (default 12 %, in episodes of
    /// 3–10 h; see [`DdosConfig::default`] for the calibration rationale).
    pub attack_fraction: f64,
    /// Minimum episode length in hours.
    pub min_episode_hours: usize,
    /// Maximum episode length in hours.
    pub max_episode_hours: usize,
    /// Minimum normal gap between consecutive episodes, in hours. Keeping
    /// this at two autoencoder windows (48 h) guarantees every normal point
    /// has an attack-free window on at least one side, which is what keeps
    /// the detector's false-positive rate at the paper's ~1 % level.
    pub min_gap_hours: usize,
    /// Peak within-episode attack intensity in `[0, 1]`
    /// (1 maps to the documented 10.6x packet multiplier).
    pub peak_intensity: f64,
    /// How strongly the packet-level multiplier carries into charging
    /// volume. `1.0` applies the raw multiplier; smaller values model the
    /// partial absorption of network load into recorded charging volume.
    pub coupling: f64,
    /// Packet-level traffic model used for the intensity translation.
    pub traffic: TrafficModel,
}

impl Default for DdosConfig {
    /// 12 % of hours under attack, in episodes of 3–10 h at least 48 h
    /// apart. The paper's reported detection operating point — precision
    /// 0.913 / recall 0.58 / FPR 1.21 % — jointly implies roughly 15–20 %
    /// of hours under attack, with episode edges mild enough to be missed;
    /// the coded 12 % sits below that band.
    fn default() -> Self {
        Self {
            attack_fraction: 0.12,
            min_episode_hours: 3,
            max_episode_hours: 10,
            min_gap_hours: 48,
            peak_intensity: 1.0,
            coupling: 0.3,
            traffic: TrafficModel::paper(),
        }
    }
}

/// Result of injecting attacks into a series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// The attacked series (same length as the input).
    pub series: Vec<f64>,
    /// Ground truth: `labels[i]` is `true` iff hour `i` was attacked.
    pub labels: Vec<bool>,
    /// The attack episodes, in chronological order, non-overlapping.
    pub episodes: Vec<AttackEpisode>,
}

/// Injects DDoS-like volume spikes into an hourly charging series.
///
/// Attacks arrive as episodes of `min..=max` hours. Within an episode the
/// intensity follows a triangular ramp (build-up, peak, decay) with per-hour
/// jitter, matching the "sustained high-volume irregular spikes" the paper's
/// detector targets while leaving episode edges mild — which is what makes
/// detection recall imperfect, as in Table II.
///
/// # Examples
///
/// ```
/// use evfad_attack::{DdosConfig, DdosInjector};
///
/// let clean = vec![10.0; 1000];
/// let out = DdosInjector::new(DdosConfig::default()).inject(&clean, 7);
/// let frac = out.labels.iter().filter(|&&l| l).count() as f64 / clean.len() as f64;
/// assert!(frac > 0.06 && frac < 0.16, "fraction {frac}");
/// ```
#[derive(Debug, Clone)]
pub struct DdosInjector {
    config: DdosConfig,
}

impl DdosInjector {
    /// Creates an injector with the given configuration.
    pub fn new(config: DdosConfig) -> Self {
        Self { config }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &DdosConfig {
        &self.config
    }

    /// Draws non-overlapping attack episodes covering roughly
    /// `attack_fraction` of `len` hours.
    pub fn schedule(&self, len: usize, rng: &mut StdRng) -> Vec<AttackEpisode> {
        let target = (len as f64 * self.config.attack_fraction).round() as usize;
        let mut episodes: Vec<AttackEpisode> = Vec::new();
        let mut attacked = 0usize;
        let mut guard = 0;
        while attacked < target && guard < 10_000 {
            guard += 1;
            let dur = rng.gen_range(self.config.min_episode_hours..=self.config.max_episode_hours);
            let dur = dur.min(target - attacked + self.config.min_episode_hours);
            if dur >= len {
                break;
            }
            let start = rng.gen_range(0..len - dur);
            let candidate = AttackEpisode {
                start,
                end: start + dur,
            };
            // Keep a guard band between episodes so ground-truth segments
            // stay distinct and normal points retain attack-free windows.
            let gap = self.config.min_gap_hours.max(1);
            let overlaps = episodes.iter().any(|e| {
                candidate.start < e.end.saturating_add(gap) && e.start < candidate.end + gap
            });
            if overlaps {
                continue;
            }
            attacked += dur;
            episodes.push(candidate);
        }
        episodes.sort_by_key(|e| e.start);
        episodes
    }

    /// Injects attacks into `series` using a deterministic RNG stream
    /// derived from `seed`.
    pub fn inject(&self, series: &[f64], seed: u64) -> AttackOutcome {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDD05_DD05);
        let episodes = self.schedule(series.len(), &mut rng);
        let mut out = series.to_vec();
        let mut labels = vec![false; series.len()];
        for ep in &episodes {
            let dur = ep.len().max(1);
            for (offset, idx) in (ep.start..ep.end).enumerate() {
                // Triangular ramp: 0 at edges, 1 at the episode midpoint.
                let pos = (offset as f64 + 0.5) / dur as f64;
                let ramp = 1.0 - (2.0 * pos - 1.0).abs();
                let intensity = (self.config.peak_intensity * (0.05 + 0.95 * ramp)).clamp(0.0, 1.0);
                let packet_mult = self.config.traffic.hourly_multiplier(intensity, &mut rng);
                // Translate packet-level inflation into volume inflation.
                let volume_mult = 1.0 + (packet_mult - 1.0) * self.config.coupling;
                out[idx] = series[idx] * volume_mult;
                labels[idx] = true;
            }
        }
        AttackOutcome {
            series: out,
            labels,
            episodes,
        }
    }
}

impl Default for DdosInjector {
    fn default() -> Self {
        Self::new(DdosConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: usize) -> Vec<f64> {
        vec![20.0; n]
    }

    #[test]
    fn labels_match_episodes_exactly() {
        let out = DdosInjector::default().inject(&flat(2000), 1);
        let mut expected = vec![false; 2000];
        for ep in &out.episodes {
            for e in expected.iter_mut().take(ep.end).skip(ep.start) {
                *e = true;
            }
        }
        assert_eq!(out.labels, expected);
    }

    #[test]
    fn attacked_points_are_inflated() {
        let clean = flat(2000);
        let out = DdosInjector::default().inject(&clean, 2);
        for (i, &v) in clean.iter().enumerate() {
            if out.labels[i] {
                assert!(out.series[i] > v, "attacked point not inflated");
            } else {
                assert_eq!(out.series[i], v);
            }
        }
    }

    #[test]
    fn attack_fraction_close_to_target() {
        let out = DdosInjector::default().inject(&flat(5000), 3);
        let frac = out.labels.iter().filter(|&&l| l).count() as f64 / 5000.0;
        assert!((0.08..=0.16).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn episodes_respect_length_bounds_and_do_not_overlap() {
        let cfg = DdosConfig::default();
        let out = DdosInjector::new(cfg.clone()).inject(&flat(5000), 4);
        for w in out.episodes.windows(2) {
            assert!(w[0].end <= w[1].start, "episodes overlap");
        }
        for ep in &out.episodes {
            assert!(!ep.is_empty() && ep.len() <= cfg.max_episode_hours + cfg.min_episode_hours);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inj = DdosInjector::default();
        assert_eq!(inj.inject(&flat(600), 9), inj.inject(&flat(600), 9));
        assert_ne!(
            inj.inject(&flat(600), 9).episodes,
            inj.inject(&flat(600), 10).episodes
        );
    }

    #[test]
    fn peak_hours_much_larger_than_edge_hours() {
        // With a long flat series and default config, episode midpoints are
        // inflated more than episode edges on average.
        let clean = flat(8000);
        let out = DdosInjector::default().inject(&clean, 5);
        let mut edge_ratio = 0.0;
        let mut peak_ratio = 0.0;
        let mut n = 0.0;
        for ep in &out.episodes {
            if ep.len() < 4 {
                continue;
            }
            let mid = (ep.start + ep.end) / 2;
            edge_ratio += out.series[ep.start] / clean[ep.start];
            peak_ratio += out.series[mid] / clean[mid];
            n += 1.0;
        }
        assert!(n > 0.0);
        assert!(peak_ratio / n > edge_ratio / n * 1.3);
    }

    #[test]
    fn zero_fraction_injects_nothing() {
        let cfg = DdosConfig {
            attack_fraction: 0.0,
            ..DdosConfig::default()
        };
        let out = DdosInjector::new(cfg).inject(&flat(500), 6);
        assert!(!out.labels.contains(&true));
        assert_eq!(out.series, flat(500));
    }

    #[test]
    fn short_series_handled() {
        let out = DdosInjector::default().inject(&flat(5), 7);
        assert_eq!(out.series.len(), 5);
    }

    #[test]
    fn stronger_coupling_bigger_spikes() {
        let weak = DdosInjector::new(DdosConfig {
            coupling: 0.1,
            ..DdosConfig::default()
        })
        .inject(&flat(3000), 8);
        let strong = DdosInjector::new(DdosConfig {
            coupling: 1.0,
            ..DdosConfig::default()
        })
        .inject(&flat(3000), 8);
        let max = |v: &[f64]| v.iter().copied().fold(0.0_f64, f64::max);
        assert!(max(&strong.series) > max(&weak.series));
    }
}

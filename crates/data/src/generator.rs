//! Dataset assembly.

use crate::profile::{Zone, ZoneProfile};
use crate::weather::{generate_weather, WeatherPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_normal::sample_standard_normal;
use serde::{Deserialize, Serialize};

/// The paper's per-zone series length (Sep 2022 – Feb 2023, hourly).
pub const PAPER_TIMESTAMPS: usize = 4344;

/// Configuration for [`ShenzhenGenerator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of hourly timestamps per zone (paper: 4,344).
    pub timestamps: usize,
    /// Master seed; per-zone streams are derived deterministically.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            timestamps: PAPER_TIMESTAMPS,
            seed: 2022,
        }
    }
}

impl DatasetConfig {
    /// A reduced-size configuration for fast tests/benches (`n` hours).
    pub fn small(n: usize, seed: u64) -> Self {
        Self {
            timestamps: n,
            seed,
        }
    }
}

/// One federated client's local dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientData {
    /// Which traffic zone this client serves.
    pub zone: Zone,
    /// Hourly charging volume (never negative).
    pub demand: Vec<f64>,
    /// Contextual weather (unused by the models, as in the paper).
    pub weather: Vec<WeatherPoint>,
}

/// Generates the synthetic three-zone dataset.
///
/// # Examples
///
/// ```
/// use evfad_data::{DatasetConfig, ShenzhenGenerator};
///
/// let small = ShenzhenGenerator::new(DatasetConfig::small(500, 1)).generate_all();
/// assert_eq!(small[0].demand.len(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct ShenzhenGenerator {
    config: DatasetConfig,
}

impl ShenzhenGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: DatasetConfig) -> Self {
        Self { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Generates the demand series and weather for one zone.
    pub fn generate_zone(&self, zone: Zone) -> ClientData {
        self.generate_with_profile(zone, &ZoneProfile::shenzhen(zone))
    }

    /// Generates a zone's data from a given profile.
    fn generate_with_profile(&self, zone: Zone, profile: &ZoneProfile) -> ClientData {
        let n = self.config.timestamps;
        let zone_seed = self
            .config
            .seed
            .wrapping_mul(0x0100_0000_01B3)
            .wrapping_add(zone.client_index() as u64);
        let mut rng = StdRng::seed_from_u64(zone_seed);
        let mut ar_noise = 0.0f64;
        let mut demand = Vec::with_capacity(n);
        for t in 0..n {
            let det = profile.deterministic(t, n);
            let innovation = sample_standard_normal(&mut rng) * profile.noise_level * profile.base;
            ar_noise = profile.noise_persistence * ar_noise + innovation;
            let mut v = det + ar_noise;
            if rng.gen::<f64>() < profile.natural_spike_rate {
                // Natural demand burst (fleet arrival, event traffic).
                v += profile.base * profile.natural_spike_scale * rng.gen_range(0.5..1.5);
            }
            demand.push(v.max(0.0));
        }
        ClientData {
            zone,
            demand,
            weather: generate_weather(n, zone_seed ^ 0xABCD),
        }
    }

    /// Generates all three clients in paper order (102, 105, 108).
    pub fn generate_all(&self) -> Vec<ClientData> {
        Zone::ALL.iter().map(|&z| self.generate_zone(z)).collect()
    }
}

/// Minimal inlined standard-normal sampler (Box–Muller) so the crate does
/// not need `rand_distr`.
mod rand_distr_normal {
    use rand::Rng;

    /// Samples one standard normal value.
    pub(super) fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        #[test]
        fn moments_are_plausible() {
            let mut rng = StdRng::seed_from_u64(1);
            let n = 20_000;
            let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.03, "mean={mean}");
            assert!((var - 1.0).abs() < 0.05, "var={var}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_tensor_free_stats::{autocorrelation_at_lag, mean};

    /// Tiny local stats helpers (avoids a dev-dependency cycle).
    mod evfad_tensor_free_stats {
        pub fn mean(v: &[f64]) -> f64 {
            v.iter().sum::<f64>() / v.len() as f64
        }

        pub fn autocorrelation_at_lag(v: &[f64], lag: usize) -> f64 {
            let m = mean(v);
            let var: f64 = v.iter().map(|x| (x - m) * (x - m)).sum();
            if var == 0.0 {
                return 0.0;
            }
            let cov: f64 = v[..v.len() - lag]
                .iter()
                .zip(&v[lag..])
                .map(|(a, b)| (a - m) * (b - m))
                .sum();
            cov / var
        }
    }

    #[test]
    fn default_matches_paper_dimensions() {
        let data = ShenzhenGenerator::new(DatasetConfig::default()).generate_all();
        assert_eq!(data.len(), 3);
        for (i, client) in data.iter().enumerate() {
            assert_eq!(client.demand.len(), PAPER_TIMESTAMPS);
            assert_eq!(client.weather.len(), PAPER_TIMESTAMPS);
            assert_eq!(client.zone.client_index(), i + 1);
        }
    }

    #[test]
    fn demand_is_nonnegative_and_finite() {
        let data = ShenzhenGenerator::new(DatasetConfig::small(2000, 3)).generate_all();
        for client in &data {
            assert!(client.demand.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ShenzhenGenerator::new(DatasetConfig::small(300, 9)).generate_all();
        let b = ShenzhenGenerator::new(DatasetConfig::small(300, 9)).generate_all();
        assert_eq!(a, b);
        let c = ShenzhenGenerator::new(DatasetConfig::small(300, 10)).generate_all();
        assert_ne!(a, c);
    }

    #[test]
    fn strong_daily_autocorrelation() {
        let client =
            ShenzhenGenerator::new(DatasetConfig::small(24 * 60, 4)).generate_zone(Zone::Z102);
        let ac24 = autocorrelation_at_lag(&client.demand, 24);
        assert!(ac24 > 0.5, "24h autocorrelation too weak: {ac24}");
    }

    #[test]
    fn zones_have_distinct_means() {
        let data = ShenzhenGenerator::new(DatasetConfig::small(24 * 30, 5)).generate_all();
        let means: Vec<f64> = data.iter().map(|c| mean(&c.demand)).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(
                    (means[i] - means[j]).abs() > 1.0,
                    "zones {i} and {j} too similar: {means:?}"
                );
            }
        }
    }

    #[test]
    fn zone_108_has_highest_relative_roughness() {
        // High-frequency residual v[t] - (v[t-1] + v[t+1]) / 2 cancels the
        // smooth daily pattern and isolates noise + natural spikes, which
        // is what makes zone 108 hard for the anomaly detector.
        let data = ShenzhenGenerator::new(DatasetConfig::small(24 * 60, 6)).generate_all();
        let roughness = |v: &[f64]| {
            let m = mean(v);
            let acc: f64 = v
                .windows(3)
                .map(|w| (w[1] - (w[0] + w[2]) / 2.0).abs())
                .sum();
            acc / (v.len() - 2) as f64 / m
        };
        let r: Vec<f64> = data.iter().map(|c| roughness(&c.demand)).collect();
        assert!(r[2] > r[0] && r[2] > r[1], "{r:?}");
    }

    #[test]
    fn custom_profile_is_respected() {
        let gen = ShenzhenGenerator::new(DatasetConfig::small(24 * 14, 2));
        let mut profile = ZoneProfile::shenzhen(Zone::Z102);
        profile.base = 400.0;
        let big = gen.generate_with_profile(Zone::Z102, &profile);
        let normal = gen.generate_zone(Zone::Z102);
        assert!(mean(&big.demand) > 5.0 * mean(&normal.demand));
    }
}

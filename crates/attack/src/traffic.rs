//! Packet-level DDoS traffic model.
//!
//! Reproduces the network statistics the paper adapts its attack simulation
//! from: normal traffic averaging 33,000 packets per second, attack traffic
//! reaching 350,500 packets per second (a 10.6x multiplier), measured in
//! 100 ms slots.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Normal IP traffic rate in packets per second (paper §II-B).
pub const NORMAL_PPS: f64 = 33_000.0;

/// Attack traffic rate in packets per second (paper §II-B).
pub const ATTACK_PPS: f64 = 350_500.0;

/// The documented intensity multiplier (`ATTACK_PPS / NORMAL_PPS` ≈ 10.6).
pub const INTENSITY_MULTIPLIER: f64 = ATTACK_PPS / NORMAL_PPS;

/// Measurement slot width in milliseconds.
pub const SLOT_MS: u64 = 100;

/// A per-slot packet-rate simulator for normal and attack conditions.
///
/// Slot-level rates fluctuate around the documented means with multiplicative
/// jitter; an attacked slot ramps toward the attack rate according to the
/// episode's intensity in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use evfad_attack::TrafficModel;
/// use rand::SeedableRng;
///
/// let model = TrafficModel::paper();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // A fully attacked hour carries about the documented 10.6x the volume.
/// let mult = model.hourly_multiplier(1.0, &mut rng);
/// assert!((mult - evfad_attack::INTENSITY_MULTIPLIER).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// Mean normal packet rate (packets/s).
    pub normal_pps: f64,
    /// Mean packet rate at full attack intensity (packets/s).
    pub attack_pps: f64,
    /// Relative slot-level jitter (lognormal-ish multiplicative noise).
    pub jitter: f64,
}

impl TrafficModel {
    /// The model with the paper's published constants.
    pub fn paper() -> Self {
        Self {
            normal_pps: NORMAL_PPS,
            attack_pps: ATTACK_PPS,
            jitter: 0.15,
        }
    }

    /// Mean packet rate at attack `intensity` in `[0, 1]`
    /// (0 = normal traffic, 1 = full documented attack rate).
    fn mean_rate(&self, intensity: f64) -> f64 {
        let intensity = intensity.clamp(0.0, 1.0);
        self.normal_pps + (self.attack_pps - self.normal_pps) * intensity
    }

    /// Simulates per-slot (100 ms) packet counts at a fixed attack
    /// intensity.
    fn simulate_slots(&self, slots: usize, intensity: f64, rng: &mut impl Rng) -> Vec<f64> {
        let mean = self.mean_rate(intensity);
        (0..slots)
            .map(|_| {
                let noise = 1.0 + rng.gen_range(-self.jitter..self.jitter);
                (mean * noise / (1000.0 / SLOT_MS as f64)).max(0.0)
            })
            .collect()
    }

    /// Estimates the hourly volume multiplier for an attacked hour by
    /// simulating slot traffic and comparing against normal traffic —
    /// the "systematic translation" step of the paper's §II-B.
    pub fn hourly_multiplier(&self, intensity: f64, rng: &mut impl Rng) -> f64 {
        // 100 slots (10 s) is enough for a stable mean estimate.
        let attacked = self.simulate_slots(100, intensity, rng);
        let normal = self.simulate_slots(100, 0.0, rng);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        sum(&attacked) / sum(&normal).max(f64::MIN_POSITIVE)
    }
}

impl Default for TrafficModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn published_constants() {
        assert_eq!(NORMAL_PPS, 33_000.0);
        assert_eq!(ATTACK_PPS, 350_500.0);
        assert!((INTENSITY_MULTIPLIER - 10.621).abs() < 0.01);
        assert_eq!(SLOT_MS, 100);
    }

    #[test]
    fn mean_rate_interpolates() {
        let m = TrafficModel::paper();
        assert_eq!(m.mean_rate(0.0), NORMAL_PPS);
        assert_eq!(m.mean_rate(1.0), ATTACK_PPS);
        let half = m.mean_rate(0.5);
        assert!(half > NORMAL_PPS && half < ATTACK_PPS);
    }

    #[test]
    fn intensity_clamped() {
        let m = TrafficModel::paper();
        assert_eq!(m.mean_rate(-1.0), NORMAL_PPS);
        assert_eq!(m.mean_rate(5.0), ATTACK_PPS);
    }

    #[test]
    fn full_attack_multiplier_near_documented() {
        let m = TrafficModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let mult = m.hourly_multiplier(1.0, &mut rng);
        assert!(
            (mult - INTENSITY_MULTIPLIER).abs() < 0.5,
            "multiplier {mult}"
        );
    }

    #[test]
    fn zero_intensity_multiplier_near_one() {
        let m = TrafficModel::paper();
        let mut rng = StdRng::seed_from_u64(4);
        let mult = m.hourly_multiplier(0.0, &mut rng);
        assert!((mult - 1.0).abs() < 0.1, "multiplier {mult}");
    }

    #[test]
    fn slots_scale_with_slot_width() {
        let m = TrafficModel::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let slots = m.simulate_slots(1000, 0.0, &mut rng);
        let per_second = slots.iter().sum::<f64>() / slots.len() as f64 * 10.0;
        assert!((per_second - NORMAL_PPS).abs() < NORMAL_PPS * 0.05);
    }
}

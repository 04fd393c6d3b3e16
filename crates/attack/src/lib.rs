//! DDoS traffic modelling and data-integrity attack injection.
//!
//! The paper derives its attack simulation from real DDoS measurements:
//! normal IP traffic of 33,000 packets/s versus 350,500 packets/s under
//! attack — a 10.6x intensity multiplier — observed in 100 ms slots
//! (§II-B). [`traffic`] reproduces that packet-level model; [`DdosInjector`]
//! translates it into "irregular volume spikes" on the hourly EV-charging
//! series, together with ground-truth labels for evaluating detection.
//!
//! [`vectors`] adds the attack types the paper lists as future work
//! (false-data injection, temporal disruption, ramp and pulse attacks) so
//! the detection ablations in `evfad-bench` can stress the detector beyond
//! volume spikes.
//!
//! # Examples
//!
//! ```
//! use evfad_attack::{DdosConfig, DdosInjector};
//!
//! let clean: Vec<f64> = (0..500).map(|i| 30.0 + (i as f64 * 0.26).sin() * 10.0).collect();
//! let outcome = DdosInjector::new(DdosConfig::default()).inject(&clean, 42);
//! assert_eq!(outcome.series.len(), clean.len());
//! assert_eq!(outcome.labels.len(), clean.len());
//! assert!(outcome.labels.contains(&true));
//! // Unattacked points are untouched.
//! for i in 0..clean.len() {
//!     if !outcome.labels[i] {
//!         assert_eq!(outcome.series[i], clean[i]);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddos;
pub mod traffic;
pub mod vectors;

pub use ddos::{AttackEpisode, AttackOutcome, DdosConfig, DdosInjector};
pub use traffic::{TrafficModel, ATTACK_PPS, INTENSITY_MULTIPLIER, NORMAL_PPS, SLOT_MS};

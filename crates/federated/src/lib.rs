//! Federated learning stack: clients, server, aggregation, transport.
//!
//! Implements the paper's federated LSTM training loop (§II-C2): identical
//! local models trained independently on local datasets, coordinated by
//! Federated Averaging over model weights only — raw data never leaves a
//! client. Per the paper's hyper-parameters the default schedule is
//! `FEDERATED_ROUNDS = 5` rounds of `EPOCHS_PER_ROUND = 10` local epochs.
//!
//! Beyond the paper, the crate provides the robustness machinery a
//! production deployment would need (and which the benches ablate):
//!
//! * [`Aggregator`] — FedAvg plus one Byzantine-robust rule, Krum,
//!   NaN-tolerant against weight-level corruption;
//! * [`faults`] — seeded, bit-reproducible fault injection (drop-out,
//!   stragglers with a server-side round timeout, update corruption,
//!   transient failures with retry/backoff) driven by a [`FaultPlan`];
//! * [`TrafficTotals`] — a run's messages, wire bytes and retries, summed
//!   from its rounds' tallies, for the communication story;
//! * parallel client training on threads (the mechanism behind the paper's
//!   18.1 % training-time advantage over centralized training).
//!
//! # Examples
//!
//! ```
//! use evfad_federated::{Aggregator, FederatedConfig, FederatedSimulation};
//! use evfad_nn::{forecaster_model, Sample};
//! use evfad_tensor::Matrix;
//!
//! // Two clients with tiny local datasets.
//! let make_samples = |phase: f64| -> Vec<Sample> {
//!     (0..24)
//!         .map(|i| {
//!             let xs: Vec<f64> = (0..6).map(|t| ((i + t) as f64 * 0.5 + phase).sin()).collect();
//!             Sample::new(
//!                 Matrix::column_vector(&xs),
//!                 Matrix::from_vec(1, 1, vec![((i + 6) as f64 * 0.5 + phase).sin()]),
//!             )
//!         })
//!         .collect()
//! };
//! let template = forecaster_model(4, 0);
//! let cfg = FederatedConfig { rounds: 2, epochs_per_round: 1, ..FederatedConfig::default() };
//! let mut sim = FederatedSimulation::new(template, cfg);
//! sim.add_client("a", make_samples(0.0));
//! sim.add_client("b", make_samples(1.0));
//! let outcome = sim.run()?;
//! assert_eq!(outcome.rounds.len(), 2);
//! # Ok::<(), evfad_federated::FederatedError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod client;
pub mod compression;
mod engine;
mod error;
pub mod faults;
pub mod framing;
pub mod scale;
pub mod scheduler;
mod server;
mod simulation;
pub mod socket;
pub mod streaming;
pub mod wire;

pub use aggregate::Aggregator;
pub use client::{FedClient, LocalUpdate};
pub use compression::CompressionMode;
pub use engine::TrafficTotals;
pub use error::FederatedError;
pub use faults::{
    Corruption, FaultEvent, FaultKind, FaultOutcome, FaultPlan, FaultRule, RoundSelector,
};
pub use scheduler::Scheduler;
pub use simulation::{
    FederatedConfig, FederatedOutcome, FederatedSimulation, OutcomeDigest, RoundDigest, RoundStats,
};
pub use socket::{SocketClient, SocketServer, SocketServerConfig};
pub use streaming::StreamingAggregator;

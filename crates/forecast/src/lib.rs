//! Forecasting models and the paper's experiment runner.
//!
//! Ties every substrate together into the paper's §III evaluation:
//!
//! * [`pipeline`] — per-client data preparation (scaling, windowing,
//!   temporal split) and model evaluation in raw units;
//! * [`scenario`] — the four experimental scenarios (Clean / Attacked /
//!   Filtered × Federated, Filtered × Centralized) including attack
//!   injection and anomaly filtering;
//! * [`experiment`] — the study runner producing [`StudyReport`], from
//!   which every table (I–III) and figure (2–3) of the paper is printed.
//!
//! # Examples
//!
//! Run a miniature end-to-end study (seconds, not minutes):
//!
//! ```no_run
//! use evfad_forecast::{run_study, Scale, StudyConfig};
//!
//! let report = run_study(&StudyConfig::at_scale(Scale::Small, 42))?;
//! println!("{}", report.table1());
//! println!("{}", report.table2());
//! println!("{}", report.table3());
//! # Ok::<(), evfad_forecast::ForecastError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod error;
pub mod experiment;
pub mod pipeline;
pub mod scenario;

pub use error::ForecastError;
pub use experiment::{
    run_study, run_study_on, ClientMetrics, Scale, ScenarioResult, StudyConfig, StudyReport,
};
pub use scenario::{Architecture, Scenario};

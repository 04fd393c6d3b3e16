//! A federation runs at the process-wide pool width and never writes it.
//!
//! A study runs three default-config federations at once; if a run stored
//! a width into `parallel::set_threads`, the first would undo a caller's
//! `set_threads(1)` for the rest of the process and a second study would no
//! longer run serially.
//!
//! Reads and writes the process-wide thread setting, so this lives in its
//! own integration-test binary.

use evfad_federated::{FederatedConfig, FederatedSimulation};
use evfad_nn::{forecaster_model, Sample};
use evfad_tensor::{parallel, Matrix};

fn samples(offset: usize) -> Vec<Sample> {
    (0..12)
        .map(|i| {
            let xs: Vec<f64> = (0..6)
                .map(|t| ((offset + i + t) as f64 * 0.31).sin())
                .collect();
            let y = ((offset + i + 6) as f64 * 0.31).sin();
            Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
        })
        .collect()
}

#[test]
fn a_default_config_run_leaves_the_process_wide_thread_count_alone() {
    parallel::set_threads(1);
    let cfg = FederatedConfig {
        rounds: 1,
        epochs_per_round: 1,
        batch_size: 4,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(forecaster_model(4, 1), cfg);
    sim.add_client("a", samples(0));
    sim.add_client("b", samples(5));
    sim.run().expect("run");
    assert_eq!(parallel::threads(), 1, "a run must inherit the width");
    parallel::set_threads(0);
}

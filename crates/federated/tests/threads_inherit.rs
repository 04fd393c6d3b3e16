//! `FederatedConfig::threads == 0` inherits the process-wide pool width.
//!
//! A study runs three default-config federations at once; if each stored
//! its `0` into `parallel::set_threads`, the first would undo a caller's
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

fn run(threads: usize) {
    let cfg = FederatedConfig {
        rounds: 1,
        epochs_per_round: 1,
        batch_size: 4,
        threads,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(forecaster_model(4, 1), cfg);
    sim.add_client("a", samples(0));
    sim.add_client("b", samples(5));
    sim.run().expect("run");
}

#[test]
fn a_default_config_run_leaves_the_process_wide_thread_count_alone() {
    assert_eq!(FederatedConfig::default().threads, 0);
    parallel::set_threads(1);
    run(0);
    assert_eq!(parallel::threads(), 1, "threads: 0 must inherit");
    // An explicit count is still installed, as documented.
    run(3);
    assert_eq!(parallel::threads(), 3);
    parallel::set_threads(0);
}

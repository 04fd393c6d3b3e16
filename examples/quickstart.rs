//! Quickstart: the complete pipeline in one page.
//!
//! Generates the synthetic three-zone Shenzhen dataset, injects DDoS
//! anomalies, trains the LSTM-autoencoder filter, mitigates the attacks,
//! and trains the federated LSTM forecaster — then prints the paper-style
//! performance tables.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use evfad_core::forecast::{run_study, Scale, StudyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small preset keeps this example under a minute; swap in
    // `Scale::Paper` (or `StudyConfig::paper(seed)`) for the full protocol.
    let config = StudyConfig::at_scale(Scale::Small, 42);
    println!(
        "Running the four-scenario study: {} hourly points per zone, LSTM({}) forecaster,\n\
         {} federated rounds x {} local epochs, {:.0}% DDoS-attacked hours.\n",
        config.dataset.timestamps,
        config.lstm_units,
        config.rounds,
        config.epochs_per_round,
        config.attack.attack_fraction * 100.0,
    );

    let report = run_study(&config)?;

    print!("{}", report.table1());
    println!();
    print!("{}", report.table2());
    println!();
    print!("{}", report.table3());
    println!();
    println!("{}", report.headline_text());
    Ok(())
}

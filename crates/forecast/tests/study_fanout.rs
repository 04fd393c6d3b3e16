//! The study's fan-outs — one job per client detector, then one per
//! training, and under `parallel: true` one per client inside each
//! federation — produce the serial study: every row below renders the same
//! text under `parallel::set_threads(1)` (the loop on the calling thread)
//! and `set_threads(4)` (four pool jobs, oversubscribed on a two-CPU
//! runner).
//!
//! Writes the process-wide thread setting, so the table is one test in its
//! own integration-test binary.

use evfad_anomaly::FilterConfig;
use evfad_attack::DdosConfig;
use evfad_data::{ClientData, DatasetConfig, ShenzhenGenerator, Zone};
use evfad_forecast::scenario::build_all;
use evfad_forecast::{run_study, Scale, StudyConfig};
use evfad_tensor::parallel;

/// The report with wall-clock removed, as JSON. With `parallel` each
/// federation's clients are pool jobs too, dispatched from inside the
/// study's training jobs.
fn study(parallel: bool) -> String {
    let config = StudyConfig {
        parallel,
        ..StudyConfig::at_scale(Scale::Small, 42)
    };
    let mut report = run_study(&config).expect("study");
    for scenario in &mut report.scenarios {
        assert!(scenario.train_seconds > 0.0, "a training timed itself");
        scenario.train_seconds = 0.0;
    }
    serde_json::to_string(&report).expect("a report serialises")
}

fn build(clients: &[ClientData]) -> String {
    let built = build_all(clients, &DdosConfig::default(), &FilterConfig::fast(12), 7);
    format!("{built:?}")
}

fn three_clients() -> String {
    let built = build(&ShenzhenGenerator::new(DatasetConfig::small(400, 5)).generate_all());
    assert!(built.starts_with("Ok("), "{built}");
    built
}

/// Both clients fail, for lengths that tell them apart; the error returned
/// is client 0's whichever job finishes first.
fn two_short_clients() -> String {
    let short =
        |points, zone| ShenzhenGenerator::new(DatasetConfig::small(points, 5)).generate_zone(zone);
    let built = build(&[short(8, Zone::Z102), short(10, Zone::Z105)]);
    assert!(built.starts_with("Err(") && built.contains('8'), "{built}");
    assert!(!built.contains("10"), "client 1's error won: {built}");
    built
}

#[test]
fn one_thread_and_four_give_the_same_study() {
    type Row = (&'static str, fn() -> String);
    let rows: [Row; 4] = [
        ("run_study at Scale::Small", || study(false)),
        ("run_study at Scale::Small, parallel: true", || study(true)),
        ("build_all over three clients", three_clients),
        ("build_all over two too-short clients", two_short_clients),
    ];
    for (name, run) in rows {
        parallel::set_threads(1);
        let serial = run();
        parallel::set_threads(4);
        let fanned_out = run();
        parallel::set_threads(0);
        assert_eq!(serial, fanned_out, "{name}");
    }
}

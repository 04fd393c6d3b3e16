//! The study's fan-outs — one dependency-ordered dispatch of three client
//! detectors and four trainings, `build_all`'s one job per client detector,
//! and under `parallel: true` one job per client inside each federation —
//! produce the serial study: every row below renders the same text under
//! `parallel::set_threads` 1 (the loop on the calling thread), 2, 3 and 8
//! (oversubscribed on a two-CPU runner). Which job runs beside which depends
//! on the width, so every width is a different interleaving.
//!
//! Writes the process-wide thread setting, so the table is one test in its
//! own integration-test binary.

use evfad_anomaly::FilterConfig;
use evfad_attack::DdosConfig;
use evfad_data::{ClientData, DatasetConfig, ShenzhenGenerator, Zone};
use evfad_forecast::scenario::build_all;
use evfad_forecast::{
    run_study, run_study_counted, run_study_on, ForecastError, Scale, StudyConfig,
};
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

/// The run's counts table: steps, detector windows, round traffic, Matrix
/// allocations and arena bytes, none of which may depend on the width.
/// The allocation row counts the whole process, so it holds only while
/// this test is the only one in its binary.
fn counts() -> String {
    let (_, counts) = run_study_counted(&StudyConfig::at_scale(Scale::Small, 42)).expect("study");
    counts.table()
}

fn short(points: usize, zone: Zone) -> ClientData {
    ShenzhenGenerator::new(DatasetConfig::small(points, 5)).generate_zone(zone)
}

/// Client 1 has 20 points, too few for its detector's 25-point window (and
/// for a forecaster's). The study returns, with that detector's error: not
/// the clean or attacked training's preparation error, and not the filtered
/// trainings' — though at width one every training runs after the failure,
/// and at any width the filtered ones wait on the failed detector.
fn study_with_a_short_client() -> String {
    let mut clients = ShenzhenGenerator::new(DatasetConfig::small(400, 5)).generate_all();
    clients[1] = short(20, Zone::Z105);
    let failure = run_study_on(&clients, &StudyConfig::at_scale(Scale::Small, 42))
        .expect_err("client 1 cannot be detected on");
    assert!(
        matches!(&failure, ForecastError::Anomaly(m) if m.contains("series of 20 points")),
        "{failure:?}"
    );
    format!("{failure:?}")
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
    let built = build(&[short(8, Zone::Z102), short(10, Zone::Z105)]);
    assert!(built.starts_with("Err(") && built.contains('8'), "{built}");
    assert!(!built.contains("10"), "client 1's error won: {built}");
    built
}

#[test]
fn every_width_gives_the_serial_study() {
    type Row = (&'static str, fn() -> String);
    let rows: [Row; 6] = [
        ("run_study at Scale::Small", || study(false)),
        ("run_study at Scale::Small, parallel: true", || study(true)),
        ("run_study_counted's table at Scale::Small", counts),
        (
            "run_study_on with a client too short for its detector",
            study_with_a_short_client,
        ),
        ("build_all over three clients", three_clients),
        ("build_all over two too-short clients", two_short_clients),
    ];
    for (name, run) in rows {
        parallel::set_threads(1);
        let serial = run();
        for width in [2, 3, 8] {
            parallel::set_threads(width);
            let fanned_out = run();
            parallel::set_threads(0);
            assert_eq!(serial, fanned_out, "{name} at width {width}");
        }
    }
}

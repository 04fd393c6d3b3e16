//! The equivalence matrix: where a federation runs does not change what it
//! computes.
//!
//! Every test is one class — a family, a codec and a fault plan — and runs
//! the same federation in each of the family's rows:
//!
//! * **federation rows** ([`FED_ROWS`]): the in-process simulation's serial
//!   arm (`parallel: false`, one thread), its pool arm at 1, 2 and 4
//!   threads, and a loopback TCP server with one socket client per station
//!   under `parallel::set_threads` 1, 2 and 4. The digest is
//!   [`OutcomeDigest`] JSON, and every socket client must leave holding the
//!   server's final global weights;
//! * **scale rows** ([`SCALE_ROWS`]): `ScaleEngine` with edge fan-out 1, 2,
//!   4 and 8 (one worker per edge). The digest is the weight checksum, the
//!   traffic totals and the round stats with `peak_state_bytes` zeroed —
//!   the one stat that grows with the fan-out by design.
//!
//! A class asserts that every row's digest is byte-identical to its first
//! row's, naming the row that diverged, and that its first row's traffic is
//! the class's recorded literal: rows that agree with each other cannot
//! catch a miscount every driver shares. A fault-plan class also asserts
//! that its plan fired, and a federation Quant8 class that the codec did.

use evfad_core::federated::scale::{ScaleConfig, ScaleEngine, ScaleRoundStats};
use evfad_core::federated::{
    CompressionMode, Corruption, FaultKind, FaultPlan, FederatedConfig, FederatedOutcome,
    FederatedSimulation, RoundSelector, SocketClient, SocketServer, SocketServerConfig,
};
use evfad_core::nn::{forecaster_model, Sample};
use evfad_core::tensor::{parallel, Matrix};
use std::fmt::Debug;
use std::sync::{Mutex, PoisonError};

/// Held by every class: rows set the process-wide pool width.
static WIDTH: Mutex<()> = Mutex::new(());

/// Where a federation row runs.
#[derive(Debug, Clone, Copy)]
enum Fed {
    /// `FederatedSimulation` with `parallel: false` under
    /// `parallel::set_threads(1)`.
    Serial,
    /// `FederatedSimulation` with `parallel: true` under
    /// `parallel::set_threads`.
    InProcess(usize),
    /// `SocketServer` and its clients under `parallel::set_threads`.
    Socket(usize),
}

const FED_ROWS: [Fed; 7] = [
    Fed::Serial,
    Fed::InProcess(1),
    Fed::InProcess(2),
    Fed::InProcess(4),
    Fed::Socket(1),
    Fed::Socket(2),
    Fed::Socket(4),
];

/// A scale row: `ScaleEngine` at this `ScaleConfig::threads`.
#[derive(Debug, Clone, Copy)]
struct Scale {
    threads: usize,
}

/// Eight edges, so 8 is one worker per edge.
const SCALE_ROWS: [Scale; 4] = [
    Scale { threads: 1 },
    Scale { threads: 2 },
    Scale { threads: 4 },
    Scale { threads: 8 },
];

/// Runs every row, asserts each digest equals the first row's, and returns
/// what the first row produced alongside its digest.
fn assert_rows_agree<R: Copy + Debug, T>(rows: &[R], run: impl Fn(R) -> (String, T)) -> T {
    let _width = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    let (want, first) = run(rows[0]);
    for &row in &rows[1..] {
        let (got, _) = run(row);
        assert_eq!(got, want, "row {row:?} diverged from row {:?}", rows[0]);
    }
    first
}

/// The four stations as (id, phase) pairs, in registration order.
const STATIONS: [(&str, f64); 4] = [("z102", 0.0), ("z105", 0.8), ("z108", 1.6), ("z111", 2.4)];

/// Tiny per-client dataset: a phase-shifted sine, 6-step windows.
fn sine_samples(n: usize, phase: f64) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let xs: Vec<f64> = (0..6)
                .map(|t| ((i + t) as f64 * 0.5 + phase).sin())
                .collect();
            Sample::new(
                Matrix::column_vector(&xs),
                Matrix::from_vec(1, 1, vec![((i + 6) as f64 * 0.5 + phase).sin()]),
            )
        })
        .collect()
}

/// Every fault kind at once, with a probabilistic rule.
fn kitchen_sink_plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_timeout(30.0)
        .with_retry(2, 0.5)
        .with_min_participants(1)
        .with_rule(
            "z102",
            RoundSelector::Probability { p: 0.5 },
            FaultKind::DropOut,
        )
        .with_rule(
            "z105",
            RoundSelector::Every,
            FaultKind::Straggler {
                delay_seconds: 12.0,
            },
        )
        .with_rule(
            "z108",
            RoundSelector::Only { round: 1 },
            FaultKind::Corrupt {
                corruption: Corruption::SignFlip,
            },
        )
        .with_rule(
            "z111",
            RoundSelector::Every,
            FaultKind::Transient { failures: 1 },
        )
}

fn in_process(config: FederatedConfig) -> FederatedOutcome {
    let mut sim = FederatedSimulation::new(forecaster_model(4, 3), config);
    for (id, phase) in STATIONS {
        sim.add_client(id, sine_samples(32, phase));
    }
    sim.run().expect("in-process run")
}

/// The server on this thread, one client thread per station.
fn over_sockets(config: FederatedConfig) -> FederatedOutcome {
    let ids = STATIONS.iter().map(|(id, _)| id.to_string()).collect();
    let server_cfg = SocketServerConfig::new(config, ids);
    let mut server =
        SocketServer::bind("127.0.0.1:0", forecaster_model(4, 3), server_cfg).expect("bind");
    let addr = server.local_addr();
    let clients: Vec<_> = STATIONS
        .iter()
        .map(|&(id, phase)| {
            std::thread::spawn(move || {
                let samples = sine_samples(32, phase);
                SocketClient { time_dilation: 0.0 }.run(addr, id, forecaster_model(4, 3), samples)
            })
        })
        .collect();
    let outcome = server.run().expect("socket run");
    for (client, (id, _)) in clients.into_iter().zip(STATIONS) {
        let global = client.join().expect("client thread").expect("client run");
        assert_eq!(
            global, outcome.global_weights,
            "{id} left without the global"
        );
    }
    outcome
}

/// A run's traffic totals as `(messages, bytes, retries)`.
type Traffic = (usize, usize, usize);

/// Runs a federation class, checks its traffic against `traffic` and that
/// its plan and codec fired.
fn federation_class(compression: CompressionMode, faults: Option<FaultPlan>, traffic: Traffic) {
    let fired = faults.is_some();
    let digest = assert_rows_agree(&FED_ROWS, |row| {
        let config = FederatedConfig {
            rounds: 2,
            epochs_per_round: 2,
            batch_size: 16,
            parallel: !matches!(row, Fed::Serial),
            compression,
            faults: faults.clone(),
            ..FederatedConfig::default()
        };
        let threads = match row {
            Fed::Serial => 1,
            Fed::InProcess(threads) | Fed::Socket(threads) => threads,
        };
        parallel::set_threads(threads);
        let outcome = match row {
            Fed::Socket(_) => over_sockets(config),
            Fed::Serial | Fed::InProcess(_) => in_process(config),
        };
        parallel::set_threads(0);
        let digest = outcome.digest();
        (serde_json::to_string(&digest).expect("digest json"), digest)
    });
    let got = (digest.messages, digest.bytes, digest.retries);
    assert_eq!(got, traffic, "traffic moved from the recorded literal");
    if fired {
        let events = digest.rounds.iter().map(|r| r.faults.len()).sum::<usize>();
        assert!(events > 0, "the plan never fired");
        assert!(digest.retries > 0, "the flaky uplink never retried");
    }
    if compression == CompressionMode::Quant8 {
        assert!(digest.rounds.iter().all(|r| r.compression_ratio > 1.0));
    }
}

/// Runs a scale class, checks its traffic against `traffic` and that its
/// plan fired.
fn scale_class(compression: CompressionMode, faults: Option<FaultPlan>, traffic: Traffic) {
    let fired = faults.is_some();
    let out = assert_rows_agree(&SCALE_ROWS, |Scale { threads }| {
        let template = vec![
            Matrix::filled(3, 4, 0.25),
            Matrix::filled(4, 1, -0.5),
            Matrix::filled(1, 1, 1.0),
        ];
        let config = ScaleConfig {
            clients: 2_000,
            rounds: 3,
            edges: 8,
            threads,
            compression,
            faults: faults.clone(),
            ..ScaleConfig::default()
        };
        let out = ScaleEngine::new(template, config)
            .and_then(|mut engine| engine.run())
            .expect("scale run");
        let rounds: Vec<ScaleRoundStats> = out
            .rounds
            .iter()
            .map(|r| ScaleRoundStats {
                peak_state_bytes: 0,
                ..r.clone()
            })
            .collect();
        let stats = serde_json::to_string(&rounds).expect("stats json");
        let digest = format!("{} {:?} {stats}", out.weights_checksum(), out.traffic);
        (digest, out)
    });
    let got = (out.traffic.messages, out.traffic.bytes, out.traffic.retries);
    assert_eq!(got, traffic, "traffic moved from the recorded literal");
    if fired {
        assert!(out.rounds.iter().any(|r| r.dropped > 0), "no drop-out");
        assert!(out.traffic.retries > 0, "no transient fault");
    }
}

/// A population-level chaos plan: 15 % drop-outs, 5 % flaky uplinks.
fn wildcard_plan() -> FaultPlan {
    FaultPlan::new(2)
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.15 },
            FaultKind::DropOut,
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.05 },
            FaultKind::Transient { failures: 2 },
        )
}

#[test]
fn federation_plain_clean() {
    federation_class(CompressionMode::None, None, (12, 15768, 0));
}

#[test]
fn federation_plain_kitchen_sink() {
    federation_class(
        CompressionMode::None,
        Some(kitchen_sink_plan()),
        (12, 15768, 2),
    );
}

#[test]
fn federation_quant8_clean() {
    federation_class(CompressionMode::Quant8, None, (12, 7936, 0));
}

#[test]
fn federation_quant8_kitchen_sink() {
    federation_class(
        CompressionMode::Quant8,
        Some(kitchen_sink_plan()),
        (12, 7936, 2),
    );
}

#[test]
fn scale_plain_clean() {
    scale_class(CompressionMode::None, None, (1024, 174080, 0));
}

#[test]
fn scale_plain_wildcard() {
    scale_class(
        CompressionMode::None,
        Some(wildcard_plan()),
        (990, 168300, 68),
    );
}

#[test]
fn scale_quant8_clean() {
    scale_class(CompressionMode::Quant8, None, (1024, 138680, 0));
}

#[test]
fn scale_quant8_wildcard() {
    scale_class(
        CompressionMode::Quant8,
        Some(wildcard_plan()),
        (990, 134906, 68),
    );
}

//! Regression gate: the federated round loop performs **zero** JSON
//! serialisations.
//!
//! PR 5 moved all metering onto the binary wire path (`record_bytes` plus
//! O(1) size arithmetic), so nothing inside `FederatedSimulation::run`
//! should ever touch `serde_json`. The vendored `serde_json` counts every
//! `to_string`/`to_vec` process-wide; these tests live in their own
//! integration-test binary and each holds [`counter`] for its whole body,
//! so no parallel test can inflate the counter inside another's window.

use evfad_federated::socket::SocketServerConfig;
use evfad_federated::{
    CompressionMode, FederatedConfig, FederatedSimulation, SocketClient, SocketServer,
};
use evfad_nn::{forecaster_model, Sample};
use evfad_tensor::Matrix;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Exclusive use of the process-wide serialisation counter. The harness
/// runs `#[test]`s on parallel threads, and one test's sanity `to_string`
/// landing between another's `before` and `after` reads as a regression.
fn counter() -> MutexGuard<'static, ()> {
    static COUNTER: Mutex<()> = Mutex::new(());
    // A poisoned lock guards no data: the other test still gets its verdict.
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn samples(phase: f64) -> Vec<Sample> {
    (0..32)
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

fn run_mode(compression: CompressionMode) {
    let cfg = FederatedConfig {
        rounds: 2,
        epochs_per_round: 1,
        batch_size: 16,
        compression,
        ..FederatedConfig::default()
    };
    let mut sim = FederatedSimulation::new(forecaster_model(4, 3), cfg);
    sim.add_client("z102", samples(0.0));
    sim.add_client("z105", samples(0.8));
    sim.add_client("z108", samples(1.6));
    let before = serde_json::serialization_count();
    let out = sim.run().expect("run");
    let after = serde_json::serialization_count();
    assert_eq!(
        after - before,
        0,
        "round loop serialised JSON under {compression} — the zero-serialization comms path regressed"
    );
    assert!(out.traffic.bytes > 0, "metering still recorded real bytes");
}

#[test]
fn socket_session_is_json_free_handshake_included() {
    let _exclusive = counter();
    // The handshake used to ship `FederatedConfig` as JSON inside the
    // binary Welcome envelope; a Welcome now carries five fixed-width
    // schedule values and the initial weights. The gate
    // covers the whole session — bind, Hello/Welcome handshake, rounds,
    // Done — from both ends, which run in this one process.
    let model = forecaster_model(4, 3);
    let cfg = FederatedConfig {
        rounds: 2,
        epochs_per_round: 1,
        batch_size: 16,
        compression: CompressionMode::Quant8,
        ..FederatedConfig::default()
    };
    let ids = vec!["z102".to_string(), "z105".to_string()];
    let before = serde_json::serialization_count();
    let mut server = SocketServer::bind(
        ("127.0.0.1", 0),
        model.clone(),
        SocketServerConfig::new(cfg, ids.clone()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let clients: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let id = id.clone();
            let model = model.clone();
            let data = samples(i as f64 * 0.8);
            std::thread::spawn(move || {
                SocketClient { time_dilation: 0.0 }.run(addr, id, model, data)
            })
        })
        .collect();
    let outcome = server.run().expect("server run");
    for c in clients {
        c.join().expect("client thread").expect("client run");
    }
    let after = serde_json::serialization_count();
    assert_eq!(
        after - before,
        0,
        "socket session serialised JSON — the binary handshake regressed"
    );
    assert!(outcome.traffic.bytes > 0);
}

#[test]
fn round_loop_is_json_free_in_every_compression_mode() {
    let _exclusive = counter();
    for mode in [CompressionMode::None, CompressionMode::Quant8] {
        run_mode(mode);
    }
    // Sanity-check the counter itself: a real serialisation must bump it.
    let before = serde_json::serialization_count();
    let _ = serde_json::to_string(&vec![1.0f64, 2.0]).expect("serialise");
    assert_eq!(serde_json::serialization_count() - before, 1);
}

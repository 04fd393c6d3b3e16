//! Loopback integration suite: the federation over real TCP sockets.
//!
//! Spawns an `evfad` socket server and N socket clients on localhost and
//! runs full federated rounds through the live transport. The central
//! claim of the socket layer — the socket run's digest serialises to
//! byte-identical JSON as the in-process [`FederatedSimulation`]'s, under
//! either codec, with or without faults, at every pool width — is owned
//! by `tests/equivalence.rs`; this suite pins what that table does not.
//!
//! Traffic is pinned arithmetically: metering counts protocol payload
//! bytes only (frame and envelope overhead excluded), so the live run's
//! byte totals must equal `wire::encoded_size` arithmetic. And partial
//! participation samples the same subset over sockets as in-process.

use evfad_core::federated::{
    wire, FederatedConfig, FederatedOutcome, FederatedSimulation, SocketClient, SocketServer,
    SocketServerConfig,
};
use evfad_core::nn::{forecaster_model, Sample};
use evfad_core::tensor::Matrix;

/// Tiny per-client dataset: a phase-shifted sine, 6-step windows —
/// the repo's standard fixture, identical to the chaos suite's.
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

/// The standard three-station roster used across these tests.
const ROSTER: [(&str, f64); 3] = [("z102", 0.0), ("z105", 0.8), ("z108", 1.6)];

fn loopback_config(rounds: usize) -> FederatedConfig {
    FederatedConfig {
        rounds,
        epochs_per_round: 2,
        batch_size: 16,
        parallel: false,
        ..FederatedConfig::default()
    }
}

/// Runs a full federation over localhost TCP: server on an ephemeral
/// port, one thread per client. Returns the server outcome once every
/// client has finished.
fn run_loopback(config: FederatedConfig, roster: &[(&str, f64)]) -> FederatedOutcome {
    let ids: Vec<String> = roster.iter().map(|(id, _)| id.to_string()).collect();
    let server_cfg = SocketServerConfig::new(config, ids);
    let mut server =
        SocketServer::bind("127.0.0.1:0", forecaster_model(4, 3), server_cfg).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    let client_threads: Vec<_> = roster
        .iter()
        .map(|&(id, phase)| {
            let id = id.to_string();
            std::thread::spawn(move || {
                let client = SocketClient { time_dilation: 0.0 };
                client.run(addr, id, forecaster_model(4, 3), sine_samples(32, phase))
            })
        })
        .collect();
    let outcome = server_thread
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
    for h in client_threads {
        h.join()
            .expect("client thread panicked")
            .expect("client run");
    }
    outcome
}

/// The same schedule run entirely in-process, for digest comparison.
fn run_in_process(config: FederatedConfig, roster: &[(&str, f64)]) -> FederatedOutcome {
    let mut sim = FederatedSimulation::new(forecaster_model(4, 3), config);
    for &(id, phase) in roster {
        sim.add_client(id, sine_samples(32, phase));
    }
    sim.run().expect("in-process run failed")
}

/// Metering counts protocol payload bytes only, so the live run's
/// traffic must equal pure `wire::encoded_size` arithmetic: with full
/// participation and no faults, R rounds over N clients cost N·R
/// uplinks plus N·(R−1) broadcasts (round 0 starts from the shared
/// initialisation), every one a full-precision weight payload.
#[test]
fn loopback_traffic_matches_encoded_size_arithmetic() {
    let rounds = 3;
    let n = ROSTER.len();
    let outcome = run_loopback(loopback_config(rounds), &ROSTER);

    let payload = wire::encoded_size(&forecaster_model(4, 3).weights());
    let uplinks = n * rounds;
    let broadcasts = n * (rounds - 1);
    assert_eq!(outcome.traffic.messages, uplinks + broadcasts);
    assert_eq!(outcome.traffic.bytes, (uplinks + broadcasts) * payload);
    assert_eq!(outcome.traffic.retries, 0);

    // Per-round stats agree with the same arithmetic.
    for (round, stats) in outcome.rounds.iter().enumerate() {
        assert_eq!(stats.uplink_bytes, n * payload);
        let expected_down = if round == 0 { 0 } else { n * payload };
        assert_eq!(stats.downlink_bytes, expected_down);
    }
}

/// Partial participation samples identically over sockets: the
/// scheduler draws from registration order on both paths, so the same
/// subset trains each round and idle clients simply hold for the next
/// broadcast.
#[test]
fn partial_participation_samples_identically_over_sockets() {
    let roster = [("z102", 0.0), ("z105", 0.8), ("z108", 1.6), ("z111", 2.4)];
    let config = FederatedConfig {
        participation: 0.5,
        sampling_seed: 7,
        ..loopback_config(3)
    };
    let socket_outcome = run_loopback(config.clone(), &roster);
    let sim_outcome = run_in_process(config, &roster);
    assert_eq!(
        serde_json::to_string(&socket_outcome.digest()).unwrap(),
        serde_json::to_string(&sim_outcome.digest()).unwrap()
    );
    for stats in &socket_outcome.rounds {
        assert_eq!(stats.participants.len(), 2);
    }
}

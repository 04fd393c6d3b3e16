//! Chaos suite: deterministic fault injection against the federated loop.
//!
//! Every fault decision flows from the seeded [`FaultPlan`], so a chaotic
//! run is exactly as reproducible as a clean one — same seed, same faults,
//! same bytes. These tests pin that guarantee and the paper's resilience
//! story: a corrupted client poisons plain FedAvg while Krum shrugs it
//! off, and a federation degrades gracefully
//! through drop-outs, stragglers, and flaky uplinks. `tests/equivalence.rs`
//! runs the kitchen-sink plan across every thread width and codec.

use evfad_core::federated::{
    Aggregator, Corruption, FaultKind, FaultOutcome, FaultPlan, FederatedConfig, FederatedError,
    FederatedOutcome, FederatedSimulation, RoundSelector, SocketClient, SocketServer,
    SocketServerConfig,
};
use evfad_core::nn::{forecaster_model, Loss, Sample, Sequential};
use evfad_core::tensor::Matrix;

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

/// The four-station roster as (id, phase) pairs, in registration order.
const FOUR_STATIONS: [(&str, f64); 4] =
    [("z102", 0.0), ("z105", 0.8), ("z108", 1.6), ("z111", 2.4)];

/// The four-station schedule, for driving either path.
fn four_client_config(faults: Option<FaultPlan>) -> FederatedConfig {
    FederatedConfig {
        rounds: 2,
        epochs_per_round: 2,
        batch_size: 16,
        parallel: false,
        faults,
        ..FederatedConfig::default()
    }
}

/// A four-client federation (Krum with f = 1 needs n ≥ 4).
fn four_client_sim(aggregator: Aggregator, faults: Option<FaultPlan>) -> FederatedSimulation {
    let cfg = FederatedConfig {
        aggregator,
        ..four_client_config(faults)
    };
    let mut sim = FederatedSimulation::new(forecaster_model(4, 3), cfg);
    for (id, phase) in FOUR_STATIONS {
        sim.add_client(id, sine_samples(32, phase));
    }
    sim
}

/// Euclidean distance between two weight sets.
fn weights_distance(a: &[Matrix], b: &[Matrix]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
        })
        .sum::<f64>()
        .sqrt()
}

/// A plan exercising every fault kind at once, with a probabilistic rule.
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

#[test]
fn same_seed_yields_byte_identical_outcomes() {
    let run = |parallel: bool| {
        let cfg = FederatedConfig {
            rounds: 2,
            epochs_per_round: 2,
            batch_size: 16,
            parallel,
            faults: Some(kitchen_sink_plan()),
            ..FederatedConfig::default()
        };
        let mut sim = FederatedSimulation::new(forecaster_model(4, 3), cfg);
        sim.add_client("z102", sine_samples(32, 0.0));
        sim.add_client("z105", sine_samples(32, 0.8));
        sim.add_client("z108", sine_samples(32, 1.6));
        sim.add_client("z111", sine_samples(32, 2.4));
        sim.run().expect("chaotic run")
    };
    let a = run(false);
    let b = run(true);
    // Identical weights bit for bit, identical fault logs, identical
    // digest JSON — thread scheduling must not leak into any of them.
    assert_eq!(a.global_weights, b.global_weights);
    let events_a: Vec<_> = a.fault_events().cloned().collect();
    let events_b: Vec<_> = b.fault_events().cloned().collect();
    assert_eq!(events_a, events_b);
    assert!(!events_a.is_empty(), "the kitchen-sink plan must fire");
    let digest_a = serde_json::to_vec(&a.digest()).expect("digest json");
    let digest_b = serde_json::to_vec(&b.digest()).expect("digest json");
    assert_eq!(digest_a, digest_b, "digest JSON must be byte-identical");
}

#[test]
fn a_different_fault_seed_changes_only_the_probabilistic_faults() {
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed).with_rule(
            "z102",
            RoundSelector::Probability { p: 0.5 },
            FaultKind::DropOut,
        );
        let mut sim = four_client_sim(Aggregator::FedAvg, Some(plan));
        sim.run().expect("run").digest()
    };
    let digests: Vec<_> = (0..16).map(run).collect();
    // Across 16 seeds of a p = 0.5 × 2-round plan, at least two digests
    // must differ (the chance of a 16-way tie is ~2⁻³⁰).
    assert!(
        digests.iter().any(|d| *d != digests[0]),
        "probabilistic faults never varied across seeds"
    );
    // And the same seed reproduces its own digest exactly.
    assert_eq!(run(7), run(7));
}

#[test]
fn sign_flip_poisons_fedavg_but_not_robust_rules() {
    let corrupt_plan = || {
        Some(FaultPlan::new(9).with_rule(
            "z105",
            RoundSelector::Every,
            FaultKind::Corrupt {
                corruption: Corruption::SignFlip,
            },
        ))
    };
    let final_weights = |agg: Aggregator, faults: Option<FaultPlan>| {
        four_client_sim(agg, faults)
            .run()
            .expect("run")
            .global_weights
    };
    let fedavg_shift = weights_distance(
        &final_weights(Aggregator::FedAvg, None),
        &final_weights(Aggregator::FedAvg, corrupt_plan()),
    );
    assert!(
        fedavg_shift > 1e-3,
        "sign-flip should visibly move FedAvg (shift = {fedavg_shift})"
    );
    let krum = Aggregator::Krum { byzantine: 1 };
    let shift = weights_distance(
        &final_weights(krum, None),
        &final_weights(krum, corrupt_plan()),
    );
    assert!(
        shift < fedavg_shift * 0.25,
        "Krum shifted {shift} under sign-flip vs FedAvg's {fedavg_shift}"
    );
}

#[test]
fn nan_flood_breaks_fedavg_but_robust_rules_stay_finite() {
    let plan = || {
        Some(FaultPlan::new(9).with_rule(
            "z108",
            RoundSelector::Every,
            FaultKind::Corrupt {
                corruption: Corruption::NanFlood,
            },
        ))
    };
    // Under FedAvg the round-0 aggregate is already NaN; broadcasting it
    // would poison every client's round-1 training. The loop refuses to
    // broadcast it and names the round that aggregated it, rather than
    // silently converging to garbage or blaming an honest client.
    let mut poisoned = four_client_sim(Aggregator::FedAvg, plan());
    assert!(matches!(
        poisoned.run().unwrap_err(),
        FederatedError::Aggregation(m) if m.starts_with("round 0 aggregated a non-finite")
    ));
    // A single round shows the mechanism: the NaN flood reaches the
    // global weights untouched — that is the vulnerability.
    let one_round = FederatedConfig {
        rounds: 1,
        ..four_client_config(plan())
    };
    let mut sim = FederatedSimulation::new(forecaster_model(4, 3), one_round);
    sim.add_client("z102", sine_samples(32, 0.0));
    sim.add_client("z108", sine_samples(32, 1.6));
    let weights = sim.run().expect("one round").global_weights;
    assert!(
        weights.iter().any(|m| !m.is_finite()),
        "FedAvg must propagate a NaN flood"
    );
    let weights = four_client_sim(Aggregator::Krum { byzantine: 1 }, plan())
        .run()
        .expect("run")
        .global_weights;
    assert!(
        weights.iter().all(Matrix::is_finite),
        "Krum let NaNs through"
    );
}

#[test]
fn dropout_every_round_still_completes_and_learns() {
    let plan = FaultPlan::new(5).with_min_participants(3).with_rule(
        "z111",
        RoundSelector::Every,
        FaultKind::DropOut,
    );
    let mut sim = four_client_sim(Aggregator::FedAvg, Some(plan));
    let out = sim.run().expect("run survives a permanent drop-out");
    for r in &out.rounds {
        assert_eq!(r.participants, vec!["z102", "z105", "z108"]);
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].outcome, FaultOutcome::Dropped);
    }
    // The surviving majority still trains a useful global model.
    let test = sine_samples(32, 0.0);
    let mut init: Sequential = forecaster_model(4, 3);
    let before = init.evaluate(&test, Loss::Mse);
    let mut global = sim.model_with_weights(&out.global_weights).expect("fits");
    let after = global.evaluate(&test, Loss::Mse);
    assert!(after < before, "before={before} after={after}");
}

#[test]
fn min_participants_is_honoured_when_the_fault_model_starves_a_round() {
    let mut plan = FaultPlan::new(5).with_min_participants(2);
    for id in ["z105", "z108", "z111"] {
        plan = plan.with_rule(id, RoundSelector::Every, FaultKind::DropOut);
    }
    let mut sim = four_client_sim(Aggregator::FedAvg, Some(plan));
    assert_eq!(
        sim.run().unwrap_err(),
        FederatedError::InsufficientParticipants {
            round: 0,
            survivors: 1,
            required: 2,
        }
    );
}

#[test]
fn stragglers_within_the_timeout_only_slow_the_round_down() {
    let clean = four_client_sim(Aggregator::FedAvg, None)
        .run()
        .expect("clean");
    let plan = FaultPlan::new(5).with_timeout(60.0).with_rule(
        "z105",
        RoundSelector::Every,
        FaultKind::Straggler {
            delay_seconds: 20.0,
        },
    );
    let out = four_client_sim(Aggregator::FedAvg, Some(plan))
        .run()
        .expect("straggler run");
    // Same weights — a slow-but-in-time client changes nothing numeric.
    assert_eq!(out.global_weights, clean.global_weights);
    // But the simulated distributed clock pays 20 s per round. (Compare
    // against the injected delay, not the clean run's wall clock — real
    // training seconds jitter between runs.)
    assert!(out.simulated_distributed_seconds() >= 2.0 * 20.0);
    for r in &out.rounds {
        assert_eq!(r.client_extra_seconds[1], 20.0);
        assert!(matches!(
            r.faults[0].outcome,
            FaultOutcome::Delayed {
                delay_seconds: 20.0
            }
        ));
    }
}

#[test]
fn stragglers_past_the_timeout_are_cut_from_aggregation() {
    let plan = FaultPlan::new(5).with_timeout(5.0).with_rule(
        "z105",
        RoundSelector::Every,
        FaultKind::Straggler {
            delay_seconds: 50.0,
        },
    );
    let out = four_client_sim(Aggregator::FedAvg, Some(plan))
        .run()
        .expect("timeout run");
    for r in &out.rounds {
        assert_eq!(r.participants, vec!["z102", "z108", "z111"]);
        assert_eq!(r.timeout_wait_seconds, 5.0);
        assert!(matches!(
            r.faults[0].outcome,
            FaultOutcome::TimedOut {
                delay_seconds: 50.0,
                timeout_seconds: 5.0,
            }
        ));
    }
    // The server waited out the timeout even though it discarded the update.
    assert!(out.simulated_distributed_seconds() >= 2.0 * 5.0);
}

#[test]
fn retry_accounting_matches_the_transport_meter() {
    let clean = four_client_sim(Aggregator::FedAvg, None)
        .run()
        .expect("clean");
    let plan = FaultPlan::new(5)
        .with_retry(3, 2.0)
        .with_rule(
            "z102",
            RoundSelector::Every,
            FaultKind::Transient { failures: 2 },
        )
        .with_rule(
            "z108",
            RoundSelector::Only { round: 1 },
            FaultKind::Transient { failures: 9 },
        );
    let out = four_client_sim(Aggregator::FedAvg, Some(plan))
        .run()
        .expect("flaky run");
    // Cross-check the traffic totals against the fault log: every retry
    // the log claims must appear in the totals, and vice versa.
    let logged_retries: usize = out
        .fault_events()
        .map(|e| match e.outcome {
            FaultOutcome::Recovered {
                failed_attempts, ..
            } => failed_attempts,
            // An exhausted client burned its full retry budget; its
            // failed_attempts counts the initial send too.
            FaultOutcome::RetriesExhausted { failed_attempts } => failed_attempts - 1,
            _ => 0,
        })
        .sum();
    assert!(logged_retries > 0);
    assert_eq!(out.traffic.retries, logged_retries);
    // First-attempt traffic is exactly the clean protocol's traffic.
    assert_eq!(
        out.traffic.messages - out.traffic.retries,
        clean.traffic.messages
    );
    // z102 recovers every round (2 retries each); z108 exhausts a budget
    // of 3 in round 1. 2 + 2 + 3 = 7 retries.
    assert_eq!(out.traffic.retries, 7);
    // Recovered uploads are aggregated; exhausted ones are not.
    assert_eq!(out.rounds[0].participants.len(), 4);
    assert_eq!(out.rounds[1].participants, vec!["z102", "z105", "z111"]);
    // Backoff: 2 failures at base 2 s → 2·(2² − 1) = 6 s of extra wait.
    assert_eq!(out.rounds[0].client_extra_seconds[0], 6.0);
}

/// Krum with f Byzantine clients needs n ≥ f + 3. A roster that can never
/// meet that is refused before anything trains, on both paths; a round that
/// drop-outs starve below it is still refused when it aggregates.
#[test]
fn krum_refuses_a_roster_below_f_plus_3_before_training() {
    let krum = FederatedConfig {
        aggregator: Aggregator::Krum { byzantine: 1 },
        ..four_client_config(None)
    };
    let refused = |err: &FederatedError| matches!(err, FederatedError::InvalidConfig { field, .. } if field == "aggregator");
    let run = |config: &FederatedConfig, roster: &[(&str, f64)]| {
        let mut sim = FederatedSimulation::new(forecaster_model(4, 3), config.clone());
        for &(id, phase) in roster {
            sim.add_client(id, sine_samples(32, phase));
        }
        sim.run().unwrap_err()
    };
    let three = &FOUR_STATIONS[..3];
    let err = run(&krum, three);
    assert!(refused(&err), "in-process run: {err}");
    // Four registered clients at half participation sample two a round.
    let half = FederatedConfig {
        participation: 0.5,
        ..krum.clone()
    };
    let err = run(&half, &FOUR_STATIONS);
    assert!(refused(&err), "half participation: {err}");
    // No client ever connects: a server that reached its handshake would
    // time out with a transport error instead.
    let ids = three.iter().map(|(id, _)| id.to_string()).collect();
    let mut cfg = SocketServerConfig::new(krum, ids);
    cfg.handshake_timeout = std::time::Duration::from_millis(200);
    let mut server = SocketServer::bind("127.0.0.1:0", forecaster_model(4, 3), cfg).expect("bind");
    let err = server.run().unwrap_err();
    assert!(refused(&err), "socket server: {err}");
    // Four registered clients pass; a permanent drop-out leaves three in
    // round 0, and aggregation refuses it.
    let plan = FaultPlan::new(5).with_rule("z111", RoundSelector::Every, FaultKind::DropOut);
    let err = four_client_sim(Aggregator::Krum { byzantine: 1 }, Some(plan))
        .run()
        .unwrap_err();
    assert!(
        matches!(&err, FederatedError::Aggregation(m) if m.contains("f + 3")),
        "starved round: {err}"
    );
}

// ---------------------------------------------------------------------------
// Chaos over real sockets: the same FaultPlan drives the live TCP path.
// Connection loss mid-upload is a *real* connection the server kills; the
// client's retry/backoff is the same `faults` machinery the simulation
// accounts — and the digests must agree byte for byte.
// ---------------------------------------------------------------------------

/// Runs the federation over localhost TCP: server on an ephemeral port,
/// one thread per client. Returns the server's result and every
/// client's, in roster order — chaos tests assert on both sides.
#[allow(clippy::type_complexity)]
fn run_over_sockets(
    config: FederatedConfig,
    roster: &[(&str, f64)],
) -> (
    Result<FederatedOutcome, FederatedError>,
    Vec<Result<Vec<Matrix>, FederatedError>>,
) {
    let ids: Vec<String> = roster.iter().map(|(id, _)| id.to_string()).collect();
    let mut server = SocketServer::bind(
        "127.0.0.1:0",
        forecaster_model(4, 3),
        SocketServerConfig::new(config, ids),
    )
    .expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    let client_threads: Vec<_> = roster
        .iter()
        .map(|&(id, phase)| {
            let id = id.to_string();
            std::thread::spawn(move || {
                SocketClient { time_dilation: 0.0 }.run(
                    addr,
                    id,
                    forecaster_model(4, 3),
                    sine_samples(32, phase),
                )
            })
        })
        .collect();
    let outcome = server_thread.join().expect("server thread panicked");
    let clients = client_threads
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    (outcome, clients)
}

/// Transient faults over TCP are real dropped connections: the server
/// kills the upload socket mid-round, the client re-dials through the
/// plan's retry/backoff, and the run's digest — retries, extra seconds,
/// participants, weights — is byte-identical to the simulation's.
#[test]
fn transient_faults_over_sockets_ride_the_real_retry_path() {
    let plan = || {
        FaultPlan::new(5)
            .with_retry(3, 2.0)
            .with_rule(
                "z102",
                RoundSelector::Every,
                FaultKind::Transient { failures: 2 },
            )
            .with_rule(
                "z108",
                RoundSelector::Only { round: 1 },
                FaultKind::Transient { failures: 9 },
            )
    };
    let (server, clients) = run_over_sockets(four_client_config(Some(plan())), &FOUR_STATIONS);
    let out = server.expect("flaky socket run");
    let sim_out = four_client_sim(Aggregator::FedAvg, Some(plan()))
        .run()
        .expect("flaky simulated run");
    assert_eq!(
        serde_json::to_string(&out.digest()).unwrap(),
        serde_json::to_string(&sim_out.digest()).unwrap()
    );
    // Every retry the meter counts was a real re-dialed connection:
    // z102 recovers each round (2 kills each), z108 exhausts its budget
    // of 3 in round 1. 2 + 2 + 3 = 7 killed uploads.
    assert_eq!(out.traffic.retries, 7);
    // Backoff is accounted, not slept (time_dilation = 0): two failures
    // at base 2 s cost z102 2·(2² − 1) = 6 simulated seconds.
    assert_eq!(out.rounds[0].client_extra_seconds[0], 6.0);
    // The exhausted client is cut from round 1's aggregation...
    assert_eq!(out.rounds[1].participants, vec!["z102", "z105", "z111"]);
    // ...but exhaustion is graceful degradation, not a client crash:
    // everyone still completes and leaves with the final global model.
    for client in clients {
        assert_eq!(
            client.expect("client survives retry exhaustion"),
            out.global_weights
        );
    }
}

/// A starved round fails identically on both paths — same
/// `InsufficientParticipants` error, same round, same counts — and the
/// server tells every live client why via `Abort` before going down.
#[test]
fn starved_rounds_abort_identically_over_sockets() {
    let plan = || {
        let mut plan = FaultPlan::new(5).with_min_participants(2);
        for id in ["z105", "z108", "z111"] {
            plan = plan.with_rule(id, RoundSelector::Every, FaultKind::DropOut);
        }
        plan
    };
    let (server, clients) = run_over_sockets(four_client_config(Some(plan())), &FOUR_STATIONS);
    let socket_err = server.unwrap_err();
    let sim_err = four_client_sim(Aggregator::FedAvg, Some(plan()))
        .run()
        .unwrap_err();
    assert_eq!(socket_err, sim_err);
    assert_eq!(
        socket_err,
        FederatedError::InsufficientParticipants {
            round: 0,
            survivors: 1,
            required: 2,
        }
    );
    for client in clients {
        let err = client.unwrap_err();
        assert!(matches!(&err, FederatedError::Transport { .. }));
        assert!(
            err.to_string().contains("starved"),
            "client should learn why the run died, got: {err}"
        );
    }
}

/// The kitchen-sink plan — drop-outs, stragglers, corruption, flaky
/// uplinks, a probabilistic rule — reproduces its digest over TCP.
/// Corruption is applied client-side before encoding, so the poisoned
/// bytes genuinely cross the wire; the gate does not re-apply it.
#[test]
fn the_kitchen_sink_plan_reproduces_its_digest_over_sockets() {
    let (server, clients) = run_over_sockets(
        four_client_config(Some(kitchen_sink_plan())),
        &FOUR_STATIONS,
    );
    let out = server.expect("kitchen-sink socket run");
    let sim_out = four_client_sim(Aggregator::FedAvg, Some(kitchen_sink_plan()))
        .run()
        .expect("kitchen-sink simulated run");
    assert_eq!(
        serde_json::to_string(&out.digest()).unwrap(),
        serde_json::to_string(&sim_out.digest()).unwrap()
    );
    assert!(
        out.fault_events().next().is_some(),
        "the kitchen-sink plan must fire over sockets too"
    );
    for client in clients {
        assert_eq!(client.expect("chaotic client run"), out.global_weights);
    }
}

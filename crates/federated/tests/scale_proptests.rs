//! Property-based tests for the scale-out machinery: the per-round client
//! sampler and the engine's runs.
//!
//! Two invariant families:
//!
//! 1. [`Scheduler::sample`] returns a sorted, duplicate-free selection of
//!    exactly `take_count(n)` indices, identical for identical
//!    `(seed, round, n)` — up to populations of 100k;
//! 2. the parallel edge fan-out ([`ScaleConfig::threads`]) reproduces the
//!    serial run byte for byte at threads 1/2/4/8 — checksum, traffic,
//!    and round stats — over random populations, edge counts, and
//!    wildcard fault plans on both tiers.

use evfad_federated::faults::{Corruption, FaultKind, FaultPlan, RoundSelector};
use evfad_federated::scale::{ScaleConfig, ScaleEngine, ScaleRoundStats};
use evfad_federated::{CompressionMode, Scheduler};
use evfad_tensor::Matrix;
use proptest::prelude::*;
use std::time::Duration;

/// A small paper-shaped weight template for scale-engine property runs.
fn tiny_template() -> Vec<Matrix> {
    vec![
        Matrix::from_vec(3, 4, (0..12).map(|i| 0.05 * i as f64 - 0.3).collect()),
        Matrix::from_vec(4, 1, vec![0.1, -0.2, 0.3, -0.4]),
    ]
}

/// A wildcard chaos schedule: every fault kind as a population-level
/// probability rule, plus a timeout and a retry budget, so the fan-out is
/// exercised under drop-out, stragglers, corruption, and retries at once.
fn wildcard_plan(
    seed: u64,
    drop_p: f64,
    straggler_p: f64,
    corrupt_p: f64,
    transient_p: f64,
) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rule(
            "*",
            RoundSelector::Probability { p: drop_p },
            FaultKind::DropOut,
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: straggler_p },
            FaultKind::Straggler { delay_seconds: 9.0 },
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: corrupt_p },
            FaultKind::Corrupt {
                corruption: Corruption::SignFlip,
            },
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: transient_p },
            FaultKind::Transient { failures: 1 },
        )
        .with_timeout(5.0)
        .with_retry(2, 0.5)
}

/// Round stats with the thread-dependent peak (and host wall-clock)
/// zeroed, so serial and parallel runs can be compared for equality.
fn comparable(rounds: &[ScaleRoundStats]) -> Vec<ScaleRoundStats> {
    rounds
        .iter()
        .map(|r| ScaleRoundStats {
            peak_state_bytes: 0,
            duration: Duration::ZERO,
            ..r.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sample is sorted, duplicate-free, in range, and exactly
    /// `take_count(n)` long — at populations up to 100k.
    #[test]
    fn sample_is_a_sorted_exact_subset(
        seed in any::<u64>(),
        round in 0usize..200,
        n in 1usize..100_001,
        participation in 0.0001f64..1.0,
    ) {
        let scheduler = Scheduler::new(participation, seed);
        let sample = scheduler.sample(round, n);
        prop_assert_eq!(sample.len(), scheduler.take_count(n));
        prop_assert!(sample.windows(2).all(|w| w[0] < w[1]),
            "sample must be strictly increasing (sorted, no duplicates)");
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    /// Identical `(seed, round)` reproduces the identical sample; a
    /// different round draws a different one (overwhelmingly, for
    /// non-trivial fractions).
    #[test]
    fn sample_is_deterministic_per_seed_and_round(
        seed in any::<u64>(),
        round in 0usize..100,
        n in 100usize..100_001,
    ) {
        let scheduler = Scheduler::new(0.1, seed);
        prop_assert_eq!(scheduler.sample(round, n), scheduler.sample(round, n));
        prop_assert_eq!(
            Scheduler::new(0.1, seed).sample(round, n),
            scheduler.sample(round, n),
            "a rebuilt scheduler must agree"
        );
        prop_assert_ne!(scheduler.sample(round, n), scheduler.sample(round + 1, n));
    }
}

proptest! {
    // Each case is eight full engine runs (four thread counts, with and
    // without chaos), so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wave fan-out is bitwise identical to the serial fold at every
    /// thread count, over random populations, edge counts, and wildcard
    /// fault plans on both the client and edge tiers. The weight
    /// checksum, the traffic totals, and every round stat except the
    /// (by-design thread-dependent) peak must agree; a run that fails —
    /// e.g. `InsufficientParticipants` under heavy drop-out — must fail
    /// identically at every thread count.
    #[test]
    fn parallel_fanout_replays_serial_under_chaos(
        seed in any::<u64>(),
        clients in 20usize..200,
        edges in 1usize..9,
        rounds in 1usize..3,
        drop_p in 0.0f64..0.3,
        straggler_p in 0.0f64..0.2,
        corrupt_p in 0.0f64..0.2,
        transient_p in 0.0f64..0.2,
        edge_drop_p in 0.0f64..0.2,
        with_faults in any::<bool>(),
    ) {
        let faults = wildcard_plan(seed, drop_p, straggler_p, corrupt_p, transient_p);
        let edge_faults = FaultPlan::new(seed ^ 0xedfe).with_rule(
            "*",
            RoundSelector::Probability { p: edge_drop_p },
            FaultKind::DropOut,
        );
        let run = |threads: usize| {
            let config = ScaleConfig {
                clients,
                rounds,
                participation: 0.5,
                edges,
                threads,
                seed,
                faults: with_faults.then(|| faults.clone()),
                edge_faults: with_faults.then(|| edge_faults.clone()),
                ..ScaleConfig::default()
            };
            ScaleEngine::new(tiny_template(), config)
                .expect("valid config")
                .run()
        };
        let serial = run(1);
        for threads in [2usize, 4, 8] {
            match (&serial, &run(threads)) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(
                        s.weights_checksum(),
                        p.weights_checksum(),
                        "threads={} diverged from serial", threads
                    );
                    prop_assert_eq!(s.traffic, p.traffic);
                    prop_assert_eq!(comparable(&s.rounds), comparable(&p.rounds));
                }
                (Err(s), Err(p)) => prop_assert_eq!(
                    format!("{s:?}"),
                    format!("{p:?}"),
                    "threads={} failed differently", threads
                ),
                (s, p) => prop_assert!(
                    false,
                    "threads={} disagreed on success: serial {:?} vs parallel {:?}",
                    threads, s.is_ok(), p.is_ok()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stream identity: literals recorded at the commit before update
// synthesis went lockstep (PR 15's parent). Every client's generator
// stream and every coordinate's fold order must stay what they were, so
// the final weights and every round stat must land on these bytes.
// ---------------------------------------------------------------------

/// Tensor lengths 65 / 7 / 16 / 1: a tile-plus-tail tensor, a tail-only
/// tensor, an exact two-tile tensor and a single coefficient.
fn golden_template() -> Vec<Matrix> {
    let ramp = |rows: usize, cols: usize, step: f64| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| step * i as f64 - 0.4).collect(),
        )
    };
    vec![
        ramp(5, 13, 0.013),
        ramp(7, 1, 0.11),
        ramp(2, 8, -0.05),
        ramp(1, 1, 1.0),
    ]
}

/// Drop-out, stragglers cut off by the round timeout (metered waste — the
/// pre-pass synthesises these to size their compressed payload), sign
/// flips and retried transients, all as wildcard rates. Sign flips, not a
/// NaN flood: a flooded FedAvg global is NaN, whose checksum pins little.
fn golden_plan() -> FaultPlan {
    FaultPlan::new(11)
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.1 },
            FaultKind::DropOut,
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.08 },
            FaultKind::Straggler { delay_seconds: 9.0 },
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.01 },
            FaultKind::Corrupt {
                corruption: Corruption::SignFlip,
            },
        )
        .with_rule(
            "*",
            RoundSelector::Probability { p: 0.05 },
            FaultKind::Transient { failures: 1 },
        )
        .with_timeout(5.0)
        .with_retry(2, 0.5)
}

struct Golden {
    name: &'static str,
    config: ScaleConfig,
    checksum: &'static str,
    rounds: &'static str,
}

fn golden_cases() -> Vec<Golden> {
    let base = |clients: usize, edges: usize, threads: usize| ScaleConfig {
        clients,
        rounds: 2,
        edges,
        threads,
        seed: 42,
        ..ScaleConfig::default()
    };
    vec![
        Golden {
            name: "plain flat, 101 kept",
            config: base(1_010, 1, 1),
            checksum: "075713b75a4cc31f",
            rounds: r#"[{"round":0,"sampled":101,"aggregated":101,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":1,"edges_lost":0,"uplink_bytes":76154,"downlink_bytes":0,"peak_state_bytes":712},{"round":1,"sampled":101,"aggregated":101,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":1,"edges_lost":0,"uplink_bytes":76154,"downlink_bytes":76154,"peak_state_bytes":712}]"#,
        },
        Golden {
            // Round 2 damps by a third, the first factor that is not a
            // power of two: a reassociated product shows here only.
            name: "plain 4 edges, threads 2, 3 rounds",
            config: ScaleConfig {
                rounds: 3,
                ..base(1_999, 4, 2)
            },
            checksum: "eacbd58e223f7129",
            rounds: r#"[{"round":0,"sampled":200,"aggregated":200,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":153816,"downlink_bytes":0,"peak_state_bytes":2136},{"round":1,"sampled":200,"aggregated":200,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":153816,"downlink_bytes":150800,"peak_state_bytes":2136},{"round":2,"sampled":200,"aggregated":200,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":153816,"downlink_bytes":150800,"peak_state_bytes":2136}]"#,
        },
        Golden {
            name: "plain 4 edges, threads 4",
            config: base(1_999, 4, 4),
            checksum: "260a0953f7a02f0d",
            rounds: r#"[{"round":0,"sampled":200,"aggregated":200,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":153816,"downlink_bytes":0,"peak_state_bytes":3560},{"round":1,"sampled":200,"aggregated":200,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":153816,"downlink_bytes":150800,"peak_state_bytes":3560}]"#,
        },
        Golden {
            name: "quant8 flat",
            config: ScaleConfig {
                compression: CompressionMode::Quant8,
                ..base(1_010, 1, 1)
            },
            checksum: "6017f5be2b211930",
            rounds: r#"[{"round":0,"sampled":101,"aggregated":101,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":1,"edges_lost":0,"uplink_bytes":21311,"downlink_bytes":0,"peak_state_bytes":712},{"round":1,"sampled":101,"aggregated":101,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":1,"edges_lost":0,"uplink_bytes":21311,"downlink_bytes":76154,"peak_state_bytes":712}]"#,
        },
        Golden {
            name: "quant8 4 edges, threads 4",
            config: ScaleConfig {
                compression: CompressionMode::Quant8,
                ..base(1_500, 4, 4)
            },
            checksum: "a6fb270c8d131338",
            rounds: r#"[{"round":0,"sampled":150,"aggregated":150,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":34666,"downlink_bytes":0,"peak_state_bytes":3560},{"round":1,"sampled":150,"aggregated":150,"dropped":0,"wasted":0,"corrupted":0,"trained":0,"edges_kept":4,"edges_lost":0,"uplink_bytes":34666,"downlink_bytes":113100,"peak_state_bytes":3560}]"#,
        },
        Golden {
            name: "chaos + sign flip, fedavg, plain",
            config: ScaleConfig {
                faults: Some(golden_plan()),
                ..base(2_000, 1, 1)
            },
            checksum: "f47c31593a221528",
            rounds: r#"[{"round":0,"sampled":200,"aggregated":165,"dropped":19,"wasted":16,"corrupted":2,"edges_kept":1,"edges_lost":0,"uplink_bytes":142506,"downlink_bytes":0,"peak_state_bytes":712},{"round":1,"sampled":200,"aggregated":169,"dropped":22,"wasted":9,"corrupted":1,"edges_kept":1,"edges_lost":0,"uplink_bytes":143260,"downlink_bytes":150800,"peak_state_bytes":712}]"#,
        },
        Golden {
            name: "chaos + sign flip, fedavg, quant8, threads 2",
            config: ScaleConfig {
                compression: CompressionMode::Quant8,
                faults: Some(golden_plan()),
                ..base(2_000, 1, 2)
            },
            checksum: "b96a6b1c7042c267",
            rounds: r#"[{"round":0,"sampled":200,"aggregated":165,"dropped":19,"wasted":16,"corrupted":2,"edges_kept":1,"edges_lost":0,"uplink_bytes":39879,"downlink_bytes":0,"peak_state_bytes":712},{"round":1,"sampled":200,"aggregated":169,"dropped":22,"wasted":9,"corrupted":1,"edges_kept":1,"edges_lost":0,"uplink_bytes":40090,"downlink_bytes":150800,"peak_state_bytes":712}]"#,
        },
    ]
}

/// To re-record after a deliberate protocol change, blank a case's
/// literals: the failure message prints what the run produced.
///
/// Rounds are compared parsed, not as text: the literals carry a
/// `"trained":0` counter the stats no longer have, and an unknown key is
/// ignored.
#[test]
fn update_streams_match_the_recorded_literals() {
    let parsed = |json: &str| serde_json::from_str::<Vec<ScaleRoundStats>>(json).ok();
    let mut mismatches = Vec::new();
    for case in golden_cases() {
        let mut engine = ScaleEngine::new(golden_template(), case.config).expect("valid config");
        let out = engine.run().expect(case.name);
        let rounds = serde_json::to_string(&out.rounds).expect("serialize");
        if out.weights_checksum() != case.checksum || parsed(&rounds) != parsed(case.rounds) {
            mismatches.push(format!(
                "{}\n  checksum: {:?}\n  rounds: {:?}",
                case.name,
                out.weights_checksum(),
                rounds
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "runs left the recorded streams:\n{}",
        mismatches.join("\n")
    );
}

/// Ten million clients, a ten-thousandth of them sampled: the engine
/// derives specs where it needs them, so building it costs nothing that
/// grows with the population (a stored spec table would be 320 MB here).
#[test]
fn ten_million_clients_build_and_run_a_round() {
    let config = ScaleConfig {
        clients: 10_000_000,
        rounds: 1,
        participation: 1e-4,
        ..ScaleConfig::default()
    };
    let mut engine = ScaleEngine::new(tiny_template(), config).expect("valid config");
    assert_eq!(engine.spec(9_999_999).id(), "c9999999");
    let out = engine.run().expect("run");
    assert_eq!(out.rounds[0].sampled, 1_000);
    assert_eq!(out.rounds[0].aggregated, 1_000);
    assert_eq!(out.peak_aggregation_bytes, 2 * out.model_bytes);
}

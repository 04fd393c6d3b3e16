//! `socket_fed`: the federation over loopback TCP. One `SocketServer` and
//! two `SocketClient` threads exchange the paper's LSTM(50) forecaster
//! (an 87 KB payload) round after round.
//!
//! Training is made deliberately tiny — one epoch of one 8-sample,
//! 6-step batch per client — so that encoding, framing, the socket and
//! decode-and-fold are most of a round. Transport work shows here; `nn`
//! work barely does.
//!
//! A client opens a fresh TCP connection for every upload. One listener
//! serves `socket_rounds` rounds and then a new one is bound on a new
//! ephemeral port, so the connections a run leaves in `TIME_WAIT` are
//! spread over many destination ports and never exhaust the local range
//! towards one. A bind, connect or accept error fails that federation's
//! operations; it does not panic.

use super::{Outcome, Sizes, Workload};
use crate::stats;
use crate::trace::Tracer;
use evfad_core::federated::{
    wire, CompressionMode, FederatedConfig, FederatedOutcome, FederatedSimulation, SocketClient,
    SocketServer, SocketServerConfig,
};
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::nn::{Sample, Sequential};
use evfad_core::tensor::{alloc_stats, Matrix};
use std::time::{Duration, Instant};

const CLIENTS: [&str; 2] = ["z102", "z105"];
const SAMPLES: usize = 8;
const STEPS: usize = 6;

pub struct SocketFed {
    template: Sequential,
    samples: Vec<Vec<Sample>>,
    config: FederatedConfig,
    /// The in-process twin's digest JSON and median round (ms), run once
    /// per process: every pass checks against the same one.
    twin: Option<(String, f64)>,
}

/// A client's private data: a sine with a phase drawn from the seed.
fn sine_samples(phase: f64) -> Vec<Sample> {
    (0..SAMPLES)
        .map(|i| {
            let at = |t: usize| ((i + t) as f64 * 0.5 + phase).sin();
            let xs: Vec<f64> = (0..STEPS).map(at).collect();
            Sample::new(
                Matrix::column_vector(&xs),
                Matrix::from_vec(1, 1, vec![at(STEPS)]),
            )
        })
        .collect()
}

fn schedule(rounds: usize) -> FederatedConfig {
    FederatedConfig {
        rounds,
        epochs_per_round: 1,
        batch_size: SAMPLES,
        parallel: true,
        compression: CompressionMode::None,
        ..FederatedConfig::default()
    }
}

impl SocketFed {
    /// Builds the model and the clients' data, then runs a short
    /// federation so the loopback path and both code sides are warm (and
    /// so that set-up is mostly rounds, which repeat, not thread and
    /// socket creation, which on a shared host do not).
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        let this = Self {
            template: build_forecaster(50, 0.003, seed),
            samples: (0..CLIENTS.len())
                .map(|i| sine_samples((seed % 628) as f64 * 0.01 + 0.8 * i as f64))
                .collect(),
            config: schedule(sizes.socket_rounds),
            twin: None,
        };
        // A failure here repeats in the measured federations and is
        // counted there.
        let _ = this.federation(&schedule(200.min(sizes.socket_rounds)), &mut Tracer::off());
        this
    }

    /// One federation over a fresh listener: bind, handshake, all
    /// rounds, done. Any transport error comes back as text.
    fn federation(
        &self,
        config: &FederatedConfig,
        t: &mut Tracer,
    ) -> Result<FederatedOutcome, String> {
        t.enter("federated.socket_bind");
        let mut server_cfg = SocketServerConfig::new(
            config.clone(),
            CLIENTS.iter().map(|id| id.to_string()).collect(),
        );
        // Loopback answers in microseconds; a run that waits this long
        // is stuck, and must end well inside the driver's time limit.
        server_cfg.handshake_timeout = Duration::from_secs(10);
        server_cfg.io_timeout = Duration::from_secs(10);
        let bound = SocketServer::bind("127.0.0.1:0", self.template.clone(), server_cfg);
        t.exit();
        let mut server = bound.map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();

        std::thread::scope(|scope| {
            let handles: Vec<_> = CLIENTS
                .iter()
                .zip(&self.samples)
                .map(|(id, samples)| {
                    let (template, samples) = (self.template.clone(), samples.clone());
                    scope.spawn(move || {
                        SocketClient { time_dilation: 0.0 }.run(addr, *id, template, samples)
                    })
                })
                .collect();

            t.enter("federated.socket_handshake");
            let outcome = server.run();
            if let Ok(outcome) = &outcome {
                // The rounds, as the product's statistics time them, end
                // when the run does; what precedes them is the handshake.
                let rounds: f64 = outcome
                    .rounds
                    .iter()
                    .map(|r| r.duration.as_secs_f64())
                    .sum();
                let end = t.now();
                t.record("federated.socket_rounds", end - rounds, end);
            }
            t.exit();

            // Closing the listener and every connection unblocks a client
            // still waiting on a server that gave up.
            drop(server);
            t.enter("federated.socket_join");
            let mut client_error = None;
            for handle in handles {
                match handle.join() {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => client_error = Some(format!("client: {e}")),
                    Err(_) => client_error = Some("client thread panicked".to_string()),
                }
            }
            t.exit();
            let outcome = outcome.map_err(|e| format!("server: {e}"))?;
            client_error.map_or(Ok(outcome), Err)
        })
    }

    /// The same schedule, clients in-process on parallel threads.
    fn run_twin(&self) -> Result<FederatedOutcome, String> {
        let mut sim = FederatedSimulation::new(self.template.clone(), self.config.clone());
        for (id, samples) in CLIENTS.iter().zip(&self.samples) {
            sim.add_client(*id, samples.clone());
        }
        sim.run().map_err(|e| e.to_string())
    }
}

fn round_ms(outcome: &FederatedOutcome) -> impl Iterator<Item = f64> + '_ {
    outcome
        .rounds
        .iter()
        .map(|r| r.duration.as_secs_f64() * 1e3)
}

impl Workload for SocketFed {
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let rounds = self.config.rounds;
        let expected_updates = (CLIENTS.len() * rounds) as u64;

        let allocs = alloc_stats();
        let start = Instant::now();
        let mut federations = Vec::new();
        loop {
            let federation = self.federation(&self.config, tracer);
            out.mark(
                start,
                federation.as_ref().map_or(0.0, |f| f.rounds.len() as f64),
            );
            federations.push(federation);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        out.count_allocs(&allocs);

        // The in-process twin: same seed, same schedule, no sockets. Its
        // digest is what every socket federation must reproduce, byte for
        // byte, and its rounds are the cost of everything but transport.
        if self.twin.is_none() {
            self.twin = match self.run_twin() {
                Ok(twin) => Some((
                    serde_json::to_string(&twin.digest()).expect("a digest serialises"),
                    stats::median(&stats::sorted(round_ms(&twin).collect())),
                )),
                Err(e) => {
                    out.fail(format!("in-process twin failed: {e}"));
                    out.attempted = expected_updates * federations.len() as u64;
                    out.failed = out.attempted;
                    return out;
                }
            };
        }
        let (twin_digest, twin_round_ms) = self.twin.as_ref().expect("just computed");
        let payload = wire::encoded_size(&self.template.weights());
        let uplinks = CLIENTS.len() * rounds;
        let broadcasts = CLIENTS.len() * (rounds - 1);

        for federation in &federations {
            out.attempted += expected_updates;
            let outcome = match federation {
                Ok(outcome) => outcome,
                Err(e) => {
                    out.failed += expected_updates;
                    out.fail(format!("federation failed: {e}"));
                    continue;
                }
            };
            let aggregated: usize = outcome.rounds.iter().map(|r| r.participants.len()).sum();
            out.failed += expected_updates.saturating_sub(aggregated as u64);
            out.unit_ms.extend(round_ms(outcome));
            let digest = serde_json::to_string(&outcome.digest()).expect("a digest serialises");
            if digest != *twin_digest {
                out.fail("socket digest differs from the in-process twin's");
            }
            let traffic = outcome.traffic;
            if traffic.messages != uplinks + broadcasts
                || traffic.bytes != (uplinks + broadcasts) * payload
                || traffic.retries != 0
            {
                out.fail(format!(
                    "traffic {traffic:?} is not {} messages of {payload} bytes",
                    uplinks + broadcasts
                ));
            }
            out.layer
                .insert("federated.messages", traffic.messages as f64);
            out.layer.insert("federated.bytes", traffic.bytes as f64);
            out.layer
                .insert("federated.retries", traffic.retries as f64);
            let uplink: usize = outcome.rounds.iter().map(|r| r.uplink_bytes).sum();
            out.layer.insert(
                "federated.uplink_mb_per_round",
                uplink as f64 / rounds as f64 / 1e6,
            );
        }
        if !out.unit_ms.is_empty() {
            let socket = stats::median(&stats::sorted(out.unit_ms.clone()));
            out.layer
                .insert("federated.socket_vs_inproc", socket / twin_round_ms);
        }
        out
    }
}

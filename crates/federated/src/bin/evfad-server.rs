//! Federation server over TCP: binds, admits the expected clients, runs
//! the full federated schedule through the shared round engine, and
//! prints the run's deterministic digest as JSON.
//!
//! Pair with `evfad-client` — one process per charging-station client:
//!
//! ```text
//! evfad-server --addr 127.0.0.1:7878 --clients z102,z105,z108 --rounds 3
//! evfad-client --addr 127.0.0.1:7878 --id z102 --phase 0.0   # per client
//! ```
//!
//! For the same seed/config, the printed digest is byte-identical to an
//! in-process `FederatedSimulation` over the same clients — the loopback
//! integration suite pins this.

use evfad_federated::{CompressionMode, FederatedConfig, SocketServer, SocketServerConfig};
use evfad_nn::forecaster_model;
use std::process::ExitCode;

struct Args {
    addr: String,
    clients: Vec<String>,
    rounds: usize,
    epochs: usize,
    batch: usize,
    lstm_units: usize,
    model_seed: u64,
    sampling_seed: u64,
    participation: f64,
    compression: CompressionMode,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            addr: "127.0.0.1:7878".to_string(),
            clients: Vec::new(),
            rounds: 3,
            epochs: 2,
            batch: 16,
            lstm_units: 4,
            model_seed: 3,
            sampling_seed: 0,
            participation: 1.0,
            compression: CompressionMode::None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--addr" => args.addr = value("--addr")?,
                "--clients" => {
                    args.clients = value("--clients")?.split(',').map(str::to_string).collect();
                }
                "--rounds" => args.rounds = parse_num(&value("--rounds")?)?,
                "--epochs" => args.epochs = parse_num(&value("--epochs")?)?,
                "--batch" => args.batch = parse_num(&value("--batch")?)?,
                "--lstm-units" => args.lstm_units = parse_num(&value("--lstm-units")?)?,
                "--model-seed" => args.model_seed = parse_num(&value("--model-seed")?)?,
                "--sampling-seed" => args.sampling_seed = parse_num(&value("--sampling-seed")?)?,
                "--participation" => {
                    args.participation = value("--participation")?
                        .parse()
                        .map_err(|e| format!("--participation: {e}"))?;
                }
                "--compression" => {
                    let v = value("--compression")?;
                    args.compression = match v.as_str() {
                        "none" => CompressionMode::None,
                        "quant8" => CompressionMode::Quant8,
                        other => return Err(format!("unknown compression {other:?}")),
                    };
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        if args.clients.is_empty() {
            return Err(format!("--clients is required\n{USAGE}"));
        }
        Ok(args)
    }
}

const USAGE: &str = "\
Usage: evfad-server --clients z102,z105,z108 [options]
  --addr HOST:PORT        listen address (default 127.0.0.1:7878)
  --clients A,B,C         expected client ids, in registration order (required)
  --rounds N              federated rounds (default 3)
  --epochs N              local epochs per round (default 2)
  --batch N               local mini-batch size (default 16)
  --lstm-units N          model width; must match the clients (default 4)
  --model-seed N          model init seed; must match the clients (default 3)
  --sampling-seed N       participant sampling seed (default 0)
  --participation F       per-round participation fraction (default 1.0)
  --compression MODE      none | quant8 (default none)";

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{s:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = FederatedConfig {
        rounds: args.rounds,
        epochs_per_round: args.epochs,
        batch_size: args.batch,
        participation: args.participation,
        sampling_seed: args.sampling_seed,
        compression: args.compression,
        ..FederatedConfig::default()
    };
    let template = forecaster_model(args.lstm_units, args.model_seed);
    let server_cfg = SocketServerConfig::new(config, args.clients.clone());
    let mut server = match SocketServer::bind(&args.addr, template, server_cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("evfad-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "evfad-server: listening on {}, waiting for {} clients: {}",
        server.local_addr(),
        args.clients.len(),
        args.clients.join(", ")
    );
    match server.run() {
        Ok(outcome) => {
            let digest = outcome.digest();
            match serde_json::to_string_pretty(&digest) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("evfad-server: digest serialisation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            eprintln!(
                "evfad-server: {} rounds complete, {} bytes over {} messages",
                outcome.rounds.len(),
                outcome.traffic.bytes,
                outcome.traffic.messages
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("evfad-server: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Serialisation round-trips across the workspace: model weights through
//! their one format (`EVFD`), scalers, attack outcomes, and study reports.

use evfad_core::attack::{DdosConfig, DdosInjector};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator};
use evfad_core::federated::wire;
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::nn::Sequential;
use evfad_core::tensor::Matrix;
use evfad_core::timeseries::MinMaxScaler;

/// A freshly built forecaster holding `model`'s weights, decoded from the
/// `EVFD` bytes that carry them between processes.
fn restore_through_evfd(model: &Sequential, lstm_units: usize, learning_rate: f64) -> Sequential {
    let bytes = wire::encode_weights(&model.weights());
    let mut restored = build_forecaster(lstm_units, learning_rate, model.seed() + 1);
    restored
        .set_weights(&wire::decode_weights(&bytes).expect("a well-formed EVFD record"))
        .expect("same architecture");
    restored
}

#[test]
fn forecaster_evfd_round_trip_preserves_predictions() {
    let mut model = build_forecaster(10, 0.001, 42);
    let input = vec![Matrix::column_vector(
        &(0..24).map(|t| (t as f64 * 0.3).sin()).collect::<Vec<_>>(),
    )];
    let before = model.predict(&input);
    let mut restored = restore_through_evfd(&model, 10, 0.001);
    assert_eq!(before, restored.predict(&input));
}

#[test]
fn evfd_restored_forecaster_can_keep_training() {
    // Weights are only useful if training can resume from them: a federated
    // client trains on from the global model it decoded.
    let mut model = build_forecaster(6, 0.01, 1);
    let samples: Vec<evfad_core::nn::Sample> = (0..32)
        .map(|i| {
            let xs: Vec<f64> = (0..8).map(|t| ((i + t) as f64 * 0.4).sin()).collect();
            evfad_core::nn::Sample::new(
                Matrix::column_vector(&xs),
                Matrix::from_vec(1, 1, vec![((i + 8) as f64 * 0.4).sin()]),
            )
        })
        .collect();
    let cfg = evfad_core::nn::TrainConfig {
        epochs: 3,
        ..evfad_core::nn::TrainConfig::default()
    };
    model.fit(&samples, &cfg).expect("first fit");
    let mut restored = restore_through_evfd(&model, 6, 0.01);
    let before = restored.evaluate(&samples, evfad_core::nn::Loss::Mse);
    restored.fit(&samples, &cfg).expect("resumed fit");
    let after = restored.evaluate(&samples, evfad_core::nn::Loss::Mse);
    assert!(
        after <= before * 1.05,
        "resumed training diverged: {before} -> {after}"
    );
}

#[test]
fn scaler_and_attack_outcome_serde() {
    let client = ShenzhenGenerator::new(DatasetConfig::small(200, 3))
        .generate_zone(evfad_core::data::Zone::Z105);
    let scaler = MinMaxScaler::fit(&client.demand).expect("fit");
    let json = serde_json::to_string(&scaler).expect("ser");
    let back: MinMaxScaler = serde_json::from_str(&json).expect("de");
    assert_eq!(scaler, back);

    let outcome = DdosInjector::new(DdosConfig::default()).inject(&client.demand, 1);
    let json = serde_json::to_string(&outcome).expect("ser");
    let back: evfad_core::attack::AttackOutcome = serde_json::from_str(&json).expect("de");
    assert_eq!(outcome, back);
}

#[test]
fn client_dataset_serde_round_trip() {
    let data = ShenzhenGenerator::new(DatasetConfig::small(100, 7)).generate_all();
    let json = serde_json::to_string(&data).expect("ser");
    let back: Vec<evfad_core::data::ClientData> = serde_json::from_str(&json).expect("de");
    assert_eq!(data, back);
}

#[test]
fn weights_survive_json_exactly() {
    // The federated exchange serialises weight tensors; check bit-exact
    // round-trips through the JSON layer (float_roundtrip feature).
    let model = build_forecaster(12, 0.001, 9);
    let weights = model.weights();
    let json = serde_json::to_string(&weights).expect("ser");
    let back: Vec<Matrix> = serde_json::from_str(&json).expect("de");
    assert_eq!(weights, back);
}

#[test]
fn a_retired_compression_tag_is_refused() {
    use evfad_core::federated::wire::{self, BytesMut, Message, WireError};
    use evfad_core::federated::{Aggregator, CompressionMode};
    // The compression tag follows a `Welcome`'s 6-byte preamble, its
    // message tag and two `u32`s; 2 was `TopKDelta { k }` and stays
    // unassigned.
    const COMPRESSION_TAG_AT: usize = 6 + 1 + 8;
    let mut blob = BytesMut::new();
    wire::encode_message(
        &mut blob,
        &Message::Welcome {
            epochs_per_round: 10,
            batch_size: 32,
            compression: CompressionMode::Quant8,
            retry_budget: 0,
            backoff_base_seconds: 0.0,
            init_global: wire::encode_weights(&[]),
        },
    );
    assert_eq!(blob[COMPRESSION_TAG_AT], 1, "layout moved");
    blob[COMPRESSION_TAG_AT] = 2;
    assert_eq!(wire::decode_message(&blob), Err(WireError::UnknownTag(2)));
    assert!(serde_json::from_str::<CompressionMode>(r#"{"TopKDelta":{"k":8}}"#).is_err());
    // `Median` and `TrimmedMean { trim }` were retired on evidence; no
    // aggregator crosses the wire, and JSON configs refuse both.
    assert!(serde_json::from_str::<Aggregator>(r#""Median""#).is_err());
    assert!(serde_json::from_str::<Aggregator>(r#"{"TrimmedMean":{"trim":1}}"#).is_err());
}

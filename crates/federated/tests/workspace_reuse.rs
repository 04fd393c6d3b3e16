//! Federated rounds must reuse layer workspaces across rounds.
//!
//! A `FedClient` keeps its model (and therefore every layer's scratch arena)
//! alive between rounds; receiving fresh global weights only overwrites
//! parameter tensors. After a warm-up round, later rounds on same-shaped
//! batches must not allocate more matrices than the warm round did — the
//! T- and batch-proportional buffers all live in the reused workspaces.
//! The same holds for the uplink codec: once a `CodecScratch`, the payload
//! buffer and the decode target have seen the model, a Quant8 encode →
//! decode round allocates no matrix at all.
//!
//! Reads the process-global counters from `evfad_tensor::alloc_stats()`, so
//! this lives in its own integration-test binary.

use evfad_federated::compression::QuantizedUpdate;
use evfad_federated::{wire, CodecScratch, CompressionMode, FedClient};
use evfad_nn::{forecaster_model, Sample, TrainConfig};
use evfad_tensor::{alloc_stats, Matrix};

fn client_samples(offset: usize) -> Vec<Sample> {
    (0..16)
        .map(|i| {
            let xs: Vec<f64> = (0..12)
                .map(|t| ((offset + i + t) as f64 * 0.29).sin())
                .collect();
            let y = ((offset + i + 12) as f64 * 0.29).sin();
            Sample::new(Matrix::column_vector(&xs), Matrix::from_vec(1, 1, vec![y]))
        })
        .collect()
}

#[test]
fn later_rounds_allocate_no_more_than_the_first_warm_round() {
    let global = forecaster_model(16, 3);
    let mut client = FedClient::new("c0", global.clone(), client_samples(0));
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        shuffle: false,
        ..TrainConfig::default()
    };
    let global_weights = global.weights();

    // Round 0 sizes every workspace buffer (cold).
    client.receive_global(&global_weights).unwrap();
    client.train_local(&cfg).unwrap();

    // Rounds 1..: the same shapes flow through; buffers must be reused.
    let mut per_round = Vec::new();
    for _ in 0..3 {
        client.receive_global(&global_weights).unwrap();
        let before = alloc_stats();
        client.train_local(&cfg).unwrap();
        per_round.push(alloc_stats().since(&before).matrices);
    }
    assert_eq!(
        per_round[0], per_round[1],
        "warm federated rounds drifted in allocations: {per_round:?}"
    );
    assert_eq!(
        per_round[1], per_round[2],
        "warm federated rounds drifted in allocations: {per_round:?}"
    );

    // Second phase, same test: the counters are process-wide, so a
    // parallel `#[test]` would be counted here. The paper's LSTM(50)
    // through warm codec rounds.
    let weights = forecaster_model(50, 42).weights();
    let mut scratch = CodecScratch::default();
    let mut payload = wire::BytesMut::new();
    let mut decoded = weights.clone();
    let mut codec_round = || {
        QuantizedUpdate::quantize_into(&weights, &mut scratch.quant);
        wire::encode_quantized_into(&mut payload, &scratch.quant);
        assert_eq!(payload.len(), wire::quantized_encoded_size(&scratch.quant));
        scratch.decode_into(CompressionMode::Quant8, &mut decoded);
    };
    codec_round();
    let before = alloc_stats();
    for _ in 0..3 {
        codec_round();
    }
    assert_eq!(
        alloc_stats().since(&before).matrices,
        0,
        "warm codec rounds allocated matrix buffers"
    );
}

//! Property-based gate for the fused decode-into-fold path.
//!
//! `ingest_quantized` folds coefficients straight out of the encoded
//! `EVQ8` payload into the streaming accumulator. The contract is
//! **bitwise identity** with the materializing path — decode the payload's
//! view into a `Vec<Matrix>` (`weights_into`), call `ingest` — for every
//! payload the codec can produce: random values, tie-heavy values
//! (exercising shared quantization codes), and NaN/±∞ floods (specials
//! carried verbatim; results compared as raw bits because `NaN != NaN`).
//! That decode is itself held to `QuantizedUpdate::dequantize`, the
//! reference. When one path rejects an input, the other must reject it
//! with the same error.

use evfad_federated::compression::QuantizedUpdate;
use evfad_federated::streaming::{StreamingAggregator, StreamingFedAvg};
use evfad_federated::{wire, FederatedError, LocalUpdate};
use evfad_tensor::Matrix;
use proptest::prelude::*;
use std::time::Duration;

/// Max flat values a client needs: 3 tensors × 5×5.
const POOL: usize = 75;

fn shapes_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..6, 0usize..6), 1..4)
}

/// Per-client `(flat value pool, sample count)`, 1–3 clients sharing the
/// case's shapes.
fn clients_strategy(
    values: impl Strategy<Value = f64>,
) -> impl Strategy<Value = Vec<(Vec<f64>, usize)>> {
    prop::collection::vec((prop::collection::vec(values, POOL), 1usize..50), 1..4)
}

/// Values drawn from a coarse grid: quantization collapses them onto
/// shared codes.
fn tie_heavy() -> impl Strategy<Value = f64> {
    (0usize..7).prop_map(|i| [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0][i])
}

/// Mostly finite values with a heavy non-finite minority — up to full
/// NaN floods on small tensors. Specials travel verbatim on the wire.
fn nan_flood() -> impl Strategy<Value = f64> {
    (0usize..6, -1e3f64..1e3).prop_map(|(pick, finite)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => finite,
    })
}

fn build_weights(shapes: &[(usize, usize)], pool: &[f64]) -> Vec<Matrix> {
    let mut at = 0usize;
    shapes
        .iter()
        .map(|&(r, c)| {
            let m = Matrix::from_vec(r, c, pool[at..at + r * c].to_vec());
            at += r * c;
            m
        })
        .collect()
}

fn update(i: usize, weights: Vec<Matrix>, sample_count: usize) -> LocalUpdate {
    LocalUpdate {
        client_id: format!("c{i}"),
        weights,
        sample_count,
        train_loss: 0.0,
        duration: Duration::ZERO,
        simulated_extra_seconds: 0.0,
    }
}

/// Raw little-endian bytes of the weights — the bitwise comparator that
/// survives NaN (`NaN != NaN` defeats `==` on matrices).
fn bits(w: &[Matrix]) -> Vec<u8> {
    wire::encode_weights(w).to_vec()
}

fn assert_same_finish(
    fused: Result<Vec<Matrix>, FederatedError>,
    reference: Result<Vec<Matrix>, FederatedError>,
) -> Result<(), TestCaseError> {
    match (fused, reference) {
        (Ok(f), Ok(r)) => prop_assert_eq!(bits(&f), bits(&r), "fused result diverged"),
        (Err(f), Err(r)) => prop_assert_eq!(f.to_string(), r.to_string()),
        (f, r) => prop_assert!(false, "paths diverged: fused {f:?} vs reference {r:?}"),
    }
    Ok(())
}

/// Quantized: encode each client, then fold fused-from-payload vs
/// decode-then-ingest and demand identical outcomes.
fn check_quantized(
    shapes: &[(usize, usize)],
    clients: &[(Vec<f64>, usize)],
) -> Result<(), TestCaseError> {
    let total: f64 = clients.iter().map(|(_, sc)| *sc as f64).sum();
    let mut fused = StreamingFedAvg::new(total, clients.len());
    let mut reference = StreamingFedAvg::new(total, clients.len());
    for (i, (pool, sc)) in clients.iter().enumerate() {
        let weights = build_weights(shapes, pool);
        let quantized = QuantizedUpdate::quantize(&weights);
        let payload = wire::encode_quantized(&quantized);
        let mut decoded = Vec::new();
        wire::quantized_view(&payload)
            .expect("valid payload")
            .weights_into(&mut decoded);
        prop_assert_eq!(bits(&decoded), bits(&quantized.dequantize()));
        fused
            .ingest_quantized(&format!("c{i}"), *sc, &payload)
            .expect("fused ingest");
        reference.ingest(&update(i, decoded, *sc)).expect("ingest");
    }
    assert_same_finish(fused.finish(), reference.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_quantized_matches_materializing_random(
        shapes in shapes_strategy(),
        clients in clients_strategy(-1e6f64..1e6),
    ) {
        check_quantized(&shapes, &clients)?;
    }

    #[test]
    fn fused_quantized_matches_materializing_tie_heavy(
        shapes in shapes_strategy(),
        clients in clients_strategy(tie_heavy()),
    ) {
        check_quantized(&shapes, &clients)?;
    }

    #[test]
    fn fused_quantized_matches_materializing_nan_flood(
        shapes in shapes_strategy(),
        clients in clients_strategy(nan_flood()),
    ) {
        check_quantized(&shapes, &clients)?;
    }
}

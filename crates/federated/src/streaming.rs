//! Streaming FedAvg: fold client updates one at a time in O(model) memory.
//!
//! [`StreamingFedAvg`] is the crate's one sample-weighted Federated
//! Averaging. It folds `acc ← acc + w_i · update_i` left to right in
//! arrival order, `w_i` being the update's share of a total sample count
//! supplied up front (the caller knows it before the first payload arrives,
//! because fault decisions are made first — see [`crate::faults`]). State is
//! one model's worth of f64s, however many updates fold into it.
//! [`Aggregator::aggregate`](crate::Aggregator::aggregate) folds its FedAvg
//! through it too, so the batch and streaming FedAvg are one fold with one
//! set of bits.

use crate::client::LocalUpdate;
use crate::error::FederatedError;
use crate::wire;
use evfad_tensor::Matrix;

/// Folds updates one at a time into O(model) aggregation state.
///
/// Contract: `ingest` every update in arrival order, then call `finish`
/// exactly once. The expected update count and the total sample weight are
/// fixed at construction.
pub trait StreamingAggregator {
    /// Folds one update into the accumulator.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Aggregation`] when the update's shapes disagree
    /// with the first ingested update or more updates arrive than declared.
    fn ingest(&mut self, update: &LocalUpdate) -> Result<(), FederatedError>;

    /// Folds one `EVQ8`-encoded update straight out of its wire payload —
    /// the fused decode-into-fold fast path. **Bitwise identical** to
    /// decoding the payload's view into matrices and [`ingest`]ing them
    /// (NaN floods included): the fold reads exactly the values that decode
    /// writes and performs the same arithmetic in the same order — without
    /// allocating a `Vec<Matrix>` per update.
    ///
    /// The payload is structurally validated **up front** (see
    /// [`wire::quantized_view`]); a corrupt payload errors before the
    /// accumulator is touched, so a failed ingest never leaves partial
    /// state behind.
    ///
    /// [`ingest`]: StreamingAggregator::ingest
    ///
    /// # Errors
    ///
    /// [`FederatedError::Aggregation`] on a malformed payload, mismatched
    /// shapes, or more updates than declared.
    fn ingest_quantized(
        &mut self,
        client_id: &str,
        sample_count: usize,
        payload: &[u8],
    ) -> Result<(), FederatedError>;

    /// Approximate bytes of live aggregation state — what the scale
    /// engine sums into `ScaleOutcome::peak_aggregation_bytes`.
    ///
    /// Contract: state is allocated lazily on the first `ingest` and its
    /// size is **constant from then on** — it may never grow with the
    /// number of updates folded. The scale engine's parallel edge fan-out
    /// builds its O(model · workers) peak bound on this: one accumulator
    /// per active worker is only a bound if no accumulator quietly inflates.
    fn state_bytes(&self) -> usize;

    /// Consumes the accumulator and returns the aggregated weights.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::NoClients`] when nothing was ingested;
    /// * [`FederatedError::Aggregation`] when fewer updates arrived than
    ///   declared.
    fn finish(self) -> Result<Vec<Matrix>, FederatedError>;
}

/// Shape guard of the dense and fused ingests alike: the first update pins
/// the reference shapes; every later one must match, with the same error
/// text as the batch path. `shapes` comes from the update's matrices or
/// from a validated wire-payload view.
fn check_shapes(
    reference: &mut Vec<(usize, usize)>,
    client_id: &str,
    shapes: impl Iterator<Item = (usize, usize)>,
) -> Result<(), FederatedError> {
    if reference.is_empty() {
        reference.extend(shapes);
        if reference.is_empty() {
            return Err(FederatedError::Aggregation(format!(
                "client {client_id} sent an empty weight set"
            )));
        }
        return Ok(());
    }
    if !shapes.eq(reference.iter().copied()) {
        return Err(FederatedError::Aggregation(format!(
            "client {client_id} has mismatched weight shapes"
        )));
    }
    Ok(())
}

/// Maps a wire-validation failure on the fused path into the aggregation
/// error domain, naming the offending client.
pub(crate) fn bad_payload(client_id: &str, err: wire::WireError) -> FederatedError {
    FederatedError::Aggregation(format!("client {client_id}: malformed EVQ8 payload: {err}"))
}

/// Streaming sample-weighted Federated Averaging (see the module docs).
#[derive(Debug)]
pub struct StreamingFedAvg {
    total_samples: f64,
    expected: usize,
    seen: usize,
    shapes: Vec<(usize, usize)>,
    acc: Vec<Matrix>,
}

impl StreamingFedAvg {
    /// An accumulator expecting `expected` updates whose sample counts sum
    /// (as f64, in ingest order) to `total_samples`.
    pub fn new(total_samples: f64, expected: usize) -> Self {
        Self {
            total_samples,
            expected,
            seen: 0,
            shapes: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// The per-update weight: sample fraction, or uniform in the
    /// degenerate all-zero-sample federation.
    fn weight(&self, sample_count: usize) -> f64 {
        if self.total_samples > 0.0 {
            sample_count as f64 / self.total_samples
        } else {
            1.0 / self.expected as f64
        }
    }

    /// The shared count guard, with the same error text as [`ingest`]
    /// (`StreamingAggregator::ingest`).
    ///
    /// [`ingest`]: StreamingAggregator::ingest
    fn check_capacity(&self) -> Result<(), FederatedError> {
        if self.seen == self.expected {
            return Err(FederatedError::Aggregation(format!(
                "streaming FedAvg declared {} updates but received more",
                self.expected
            )));
        }
        Ok(())
    }

    /// Lazily allocates the accumulator on the first ingest.
    fn ensure_acc(&mut self) {
        if self.acc.is_empty() {
            self.acc = self
                .shapes
                .iter()
                .map(|&(rows, cols)| Matrix::zeros(rows, cols))
                .collect();
        }
    }
}

impl StreamingAggregator for StreamingFedAvg {
    fn ingest(&mut self, update: &LocalUpdate) -> Result<(), FederatedError> {
        self.check_capacity()?;
        check_shapes(
            &mut self.shapes,
            &update.client_id,
            update.weights.iter().map(Matrix::shape),
        )?;
        self.ensure_acc();
        let w = self.weight(update.sample_count);
        for (acc, m) in self.acc.iter_mut().zip(&update.weights) {
            acc.axpy(w, m);
        }
        self.seen += 1;
        Ok(())
    }

    fn ingest_quantized(
        &mut self,
        client_id: &str,
        sample_count: usize,
        payload: &[u8],
    ) -> Result<(), FederatedError> {
        self.check_capacity()?;
        let view = wire::quantized_view(payload).map_err(|e| bad_payload(client_id, e))?;
        check_shapes(
            &mut self.shapes,
            client_id,
            view.tensors().map(|t| t.shape()),
        )?;
        self.ensure_acc();
        // `axpy` is `*slot += w * v` per coordinate; folding the decoded
        // values in the same order keeps the fused path bitwise identical
        // to decode-then-ingest. Segmenting on the (rare) specials lets
        // the bulk fold run as slice loops the compiler can vectorise —
        // each coordinate still folds the exact value the materializing
        // path would have decoded.
        let w = self.weight(sample_count);
        for (acc, t) in self.acc.iter_mut().zip(view.tensors()) {
            let range = t.range();
            let codes = t.codes();
            let slots = acc.as_mut_slice();
            let mut start = 0usize;
            for (idx, v) in t.specials() {
                for (slot, &c) in slots[start..idx].iter_mut().zip(&codes[start..idx]) {
                    *slot += w * range.decode(c);
                }
                slots[idx] += w * v;
                start = idx + 1;
            }
            for (slot, &c) in slots[start..].iter_mut().zip(&codes[start..]) {
                *slot += w * range.decode(c);
            }
        }
        self.seen += 1;
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.acc.iter().map(|m| m.len() * 8).sum()
    }

    fn finish(self) -> Result<Vec<Matrix>, FederatedError> {
        if self.seen == 0 {
            return Err(FederatedError::NoClients);
        }
        if self.seen != self.expected {
            return Err(FederatedError::Aggregation(format!(
                "streaming FedAvg declared {} updates but received {}",
                self.expected, self.seen
            )));
        }
        Ok(self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::QuantizedUpdate;
    use std::time::Duration;

    fn update(id: &str, values: &[f64], samples: usize) -> LocalUpdate {
        LocalUpdate {
            client_id: id.into(),
            weights: vec![
                Matrix::from_vec(1, values.len(), values.to_vec()),
                Matrix::filled(2, 1, values[0] * 10.0),
            ],
            sample_count: samples,
            train_loss: 0.0,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn streaming_state_is_o_model_not_o_clients() {
        let many: Vec<LocalUpdate> = (0..256)
            .map(|i| update(&format!("c{i}"), &[i as f64, -(i as f64), 0.5], 10))
            .collect();
        let total: f64 = many.iter().map(|u| u.sample_count as f64).sum();
        let mut agg = StreamingFedAvg::new(total, many.len());
        let mut peak = 0usize;
        for u in &many {
            agg.ingest(u).unwrap();
            peak = peak.max(agg.state_bytes());
        }
        // 5 coordinates, one f64 each — nowhere near 256 materialised
        // updates (256 * 5 * 8 = 10240 bytes).
        assert_eq!(peak, 5 * 8);
        assert!(agg.finish().unwrap().iter().all(Matrix::is_finite));
    }

    #[test]
    fn streaming_state_is_constant_after_first_ingest() {
        // The trait contract the scale engine's O(model · workers) peak
        // bound rests on: state allocates on the first ingest and never
        // changes size afterwards.
        let many: Vec<LocalUpdate> = (0..64)
            .map(|i| update(&format!("c{i}"), &[i as f64, 1.0, -2.0], 7))
            .collect();
        let total: f64 = many.iter().map(|u| u.sample_count as f64).sum();
        let mut agg = StreamingFedAvg::new(total, many.len());
        assert_eq!(agg.state_bytes(), 0, "lazy allocation");
        let mut settled = 0usize;
        for (i, u) in many.iter().enumerate() {
            agg.ingest(u).unwrap();
            if i == 0 {
                settled = agg.state_bytes();
                assert!(settled > 0, "state after first ingest");
            } else {
                assert_eq!(
                    agg.state_bytes(),
                    settled,
                    "state changed size at update {i}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected_mid_stream() {
        let good = update("a", &[1.0, 2.0], 5);
        let mut bad = update("b", &[1.0, 2.0], 5);
        bad.weights[1] = Matrix::zeros(3, 3);
        let mut agg = StreamingFedAvg::new(10.0, 2);
        agg.ingest(&good).unwrap();
        assert!(matches!(
            agg.ingest(&bad),
            Err(FederatedError::Aggregation(_))
        ));
    }

    #[test]
    fn count_contract_is_enforced() {
        let u = update("a", &[1.0], 5);
        // Too many.
        let mut agg = StreamingFedAvg::new(5.0, 1);
        agg.ingest(&u).unwrap();
        assert!(agg.ingest(&u).is_err());
        // Too few.
        let mut agg = StreamingFedAvg::new(10.0, 2);
        agg.ingest(&u).unwrap();
        assert!(matches!(agg.finish(), Err(FederatedError::Aggregation(_))));
        // Nothing at all.
        let agg = StreamingFedAvg::new(0.0, 0);
        assert!(matches!(agg.finish(), Err(FederatedError::NoClients)));
    }

    fn assert_bitwise_eq(a: &[Matrix], b: &[Matrix], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: tensor count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.shape(), y.shape(), "{context}: shape");
            for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{context}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn fused_quantized_ingest_is_bitwise_identical_to_decode_then_ingest() {
        let nan = f64::NAN;
        let ups = [
            update("a", &[0.1, -2.0, 3.7], 100),
            update("b", &[nan, 0.3, -0.4], 17),
            update("c", &[-5.5, nan, nan], 311),
        ];
        let total: f64 = ups.iter().map(|u| u.sample_count as f64).sum();
        let mut materialized = StreamingFedAvg::new(total, ups.len());
        let mut fused = StreamingFedAvg::new(total, ups.len());
        for u in &ups {
            let blob = wire::encode_quantized(&QuantizedUpdate::quantize(&u.weights));
            let mut lossy = u.clone();
            wire::quantized_view(&blob)
                .unwrap()
                .weights_into(&mut lossy.weights);
            materialized.ingest(&lossy).unwrap();
            fused
                .ingest_quantized(&u.client_id, u.sample_count, &blob)
                .unwrap();
        }
        assert_bitwise_eq(
            &materialized.finish().unwrap(),
            &fused.finish().unwrap(),
            "fedavg",
        );
    }

    #[test]
    fn corrupt_payload_errors_before_touching_accumulator_state() {
        let a = update("a", &[1.0, 2.0, 3.0], 10);
        let b = update("b", &[2.0, 1.0, 0.0], 20);
        let blob_a = wire::encode_quantized(&QuantizedUpdate::quantize(&a.weights));
        let blob_b = wire::encode_quantized(&QuantizedUpdate::quantize(&b.weights));
        let mut agg = StreamingFedAvg::new(30.0, 2);
        agg.ingest_quantized("a", 10, &blob_a).unwrap();
        // Truncated payload: rejected up front, nothing folded.
        let truncated = &blob_b[..blob_b.len() - 1];
        assert!(matches!(
            agg.ingest_quantized("b", 20, truncated),
            Err(FederatedError::Aggregation(_))
        ));
        // Wrong codec: an EVFD payload on the quantized path is rejected.
        assert!(agg
            .ingest_quantized("b", 20, &wire::encode_weights(&b.weights))
            .is_err());
        // A clean retry lands exactly where an unfailed stream would; had a
        // failed ingest counted, the second of two declared updates would
        // be one too many.
        agg.ingest_quantized("b", 20, &blob_b).unwrap();
        let mut fresh = StreamingFedAvg::new(30.0, 2);
        fresh.ingest_quantized("a", 10, &blob_a).unwrap();
        fresh.ingest_quantized("b", 20, &blob_b).unwrap();
        assert_bitwise_eq(
            &agg.finish().unwrap(),
            &fresh.finish().unwrap(),
            "retry after corrupt payload",
        );
    }

    #[test]
    fn fused_count_and_shape_contracts_match_the_materialised_path() {
        let u = update("a", &[1.0], 5);
        let blob = wire::encode_quantized(&QuantizedUpdate::quantize(&u.weights));
        let mut agg = StreamingFedAvg::new(5.0, 1);
        agg.ingest_quantized("a", 5, &blob).unwrap();
        let err = agg.ingest_quantized("a", 5, &blob).unwrap_err();
        assert!(
            err.to_string()
                .contains("declared 1 updates but received more"),
            "{err}"
        );
        let mut agg = StreamingFedAvg::new(10.0, 2);
        agg.ingest_quantized("a", 5, &blob).unwrap();
        let other = update("b", &[1.0, 2.0], 5);
        let wrong = wire::encode_quantized(&QuantizedUpdate::quantize(&other.weights));
        let err = agg.ingest_quantized("b", 5, &wrong).unwrap_err();
        assert!(
            err.to_string()
                .contains("client b has mismatched weight shapes"),
            "{err}"
        );
    }
}

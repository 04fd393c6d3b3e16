//! Streaming aggregation: fold client updates one at a time in O(model)
//! memory.
//!
//! The batch path ([`Aggregator::aggregate`]) needs every update
//! materialised at once — O(clients × model) server memory, which is what
//! caps a federation at a few hundred clients. A [`StreamingAggregator`]
//! instead holds a fixed-size accumulator and consumes updates as they
//! arrive:
//!
//! * [`StreamingFedAvg`] — **bitwise identical** to the batch FedAvg. The
//!   batch rule folds `acc ← acc + w_i · update_i` left to right over the
//!   kept updates; the streaming rule performs the *same* `axpy` sequence
//!   in the same order with the same weights (the total sample count is
//!   supplied up front, exactly as the batch path computes it), so every
//!   intermediate rounding step matches. State: one model's worth of f64s.
//! * [`StreamingTrimmedMean`] — semantically identical to the batch
//!   trimmed mean (same kept set per coordinate, same non-finite
//!   containment rule via `trim_split`, shared with the batch rule so both
//!   paths agree on which values are trimmed) but sums in arrival order minus
//!   the tracked extremes rather than in sorted order, so results agree to
//!   floating-point reassociation, not bitwise: the extremes' rounding stays
//!   in the sum, so a result can sit many ulps off when outliers dwarf it
//!   (`tests/aggregator_oracle.rs` holds the summation bound). State per
//!   coordinate: running sum, non-finite count, and the `trim` smallest /
//!   largest values seen — O(model · trim).
//!
//! Median and Krum cannot stream: the median needs the full per-coordinate
//! distribution and Krum needs all pairwise distances. They stay on the
//! batch path ([`Aggregator::supports_streaming`] returns `false`), which
//! in a hierarchical topology still only materialises one *shard* — or one
//! tier of edge partials — at a time (see [`crate::scale`]).

use crate::aggregate::{trim_split, Aggregator};
use crate::client::LocalUpdate;
use crate::error::FederatedError;
use crate::wire;
use evfad_tensor::Matrix;

/// Folds updates one at a time into O(model) aggregation state.
///
/// Contract: `ingest` every update in arrival order, then call `finish`
/// exactly once. The expected update count and (for FedAvg) the total
/// sample weight are fixed at construction — the caller knows both before
/// the first payload arrives because fault decisions are made up front (see
/// [`crate::faults`]).
pub trait StreamingAggregator: Send {
    /// Folds one update into the accumulator.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Aggregation`] when the update's shapes disagree
    /// with the first ingested update or more updates arrive than declared.
    fn ingest(&mut self, update: &LocalUpdate) -> Result<(), FederatedError>;

    /// Folds one `EVQ8`-encoded update straight out of its wire payload —
    /// the fused decode-into-fold fast path. **Bitwise identical** to
    /// `decode_quantized(payload).dequantize()` followed by [`ingest`]
    /// (NaN floods included): the payload view yields exactly the values
    /// `dequantize` would materialise, and the fold performs the same
    /// arithmetic in the same order — without allocating a `Vec<Matrix>`
    /// per update.
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

    /// Updates ingested so far.
    fn ingested(&self) -> usize;

    /// Approximate bytes of live aggregation state — what the scale
    /// engine sums into `ScaleOutcome::peak_aggregation_bytes`.
    ///
    /// Contract: state is allocated lazily on the first `ingest` and its
    /// size is **constant from then on** — it may never grow with the
    /// number of updates folded. The scale engine's parallel edge fan-out
    /// builds its O(model · workers) peak bound on this (and asserts it
    /// in-run under `verify_streaming`): one accumulator per active
    /// worker is only a bound if no accumulator quietly inflates.
    fn state_bytes(&self) -> usize;

    /// Consumes the accumulator and returns the aggregated weights.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::NoClients`] when nothing was ingested;
    /// * [`FederatedError::Aggregation`] when fewer updates arrived than
    ///   declared, trimming removes everything, or a coordinate's
    ///   non-finite count exceeds the `2 * trim` containment budget.
    fn finish(self: Box<Self>) -> Result<Vec<Matrix>, FederatedError>;
}

impl Aggregator {
    /// The streaming form of this rule, when one exists.
    ///
    /// `expected` is the number of updates that will be ingested and
    /// `total_samples` their summed sample counts (in ingest order, as f64
    /// — the exact fold the batch FedAvg performs). Median and Krum return
    /// `None`: they need every update at once.
    pub fn streaming(
        self,
        total_samples: f64,
        expected: usize,
    ) -> Option<Box<dyn StreamingAggregator>> {
        match self {
            Aggregator::FedAvg => Some(Box::new(StreamingFedAvg::new(total_samples, expected))),
            Aggregator::TrimmedMean { trim } => {
                Some(Box::new(StreamingTrimmedMean::new(trim, expected)))
            }
            Aggregator::Median | Aggregator::Krum { .. } => None,
        }
    }
}

/// Shape guard shared by the streaming rules, dense and fused alike: the
/// first update pins the reference shapes; every later one must match,
/// with the same error text as the batch path. `shapes` comes from the
/// update's matrices or from a validated wire-payload view.
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
fn bad_payload(client_id: &str, err: wire::WireError) -> FederatedError {
    FederatedError::Aggregation(format!("client {client_id}: malformed EVQ8 payload: {err}"))
}

/// Streaming sample-weighted Federated Averaging — bitwise identical to
/// [`Aggregator::FedAvg`]'s batch fold (see the module docs for why).
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

    /// The batch fold's per-update weight: sample fraction, or uniform in
    /// the degenerate all-zero-sample federation.
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
        // Exactly the batch fold: degenerate all-zero-sample federations
        // fall back to uniform weighting.
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

    fn ingested(&self) -> usize {
        self.seen
    }

    fn state_bytes(&self) -> usize {
        self.acc.iter().map(|m| m.len() * 8).sum()
    }

    fn finish(self: Box<Self>) -> Result<Vec<Matrix>, FederatedError> {
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

/// Streaming coordinate-wise trimmed mean with the batch rule's bounded
/// non-finite containment.
///
/// Per coordinate the accumulator tracks the running finite sum, the
/// non-finite count, and the `trim` smallest / largest finite values seen.
/// `finish` reconstructs the batch kept-set: non-finite values consume trim
/// slots first (high side first, via the batch rule's `trim_split`),
/// the remaining budget trims honest extremes, and the mean of the kept
/// values is `(sum - trimmed extremes) / kept` — the same set the batch
/// rule averages, summed in a different order (see the module docs for how
/// far apart that can put them).
#[derive(Debug)]
pub struct StreamingTrimmedMean {
    trim: usize,
    expected: usize,
    seen: usize,
    shapes: Vec<(usize, usize)>,
    /// Running sum of the finite values per flat coordinate.
    sum: Vec<f64>,
    /// Non-finite contributions per flat coordinate.
    bad: Vec<u32>,
    /// Ascending `trim` smallest finite values per coordinate
    /// (`coordinate * trim ..`), only the first `min(trim, finite)` valid.
    lows: Vec<f64>,
    /// Ascending `trim` largest finite values per coordinate.
    highs: Vec<f64>,
}

impl StreamingTrimmedMean {
    /// An accumulator dropping `trim` extremes per side over `expected`
    /// updates.
    pub fn new(trim: usize, expected: usize) -> Self {
        Self {
            trim,
            expected,
            seen: 0,
            shapes: Vec::new(),
            sum: Vec::new(),
            bad: Vec::new(),
            lows: Vec::new(),
            highs: Vec::new(),
        }
    }

    /// Finite values of coordinate `c` seen so far.
    fn finite_count(&self, c: usize) -> usize {
        self.seen - self.bad[c] as usize
    }

    /// The shared count guard, with the same error text as `ingest`.
    fn check_capacity(&self) -> Result<(), FederatedError> {
        if self.seen == self.expected {
            return Err(FederatedError::Aggregation(format!(
                "streaming trimmed mean declared {} updates but received more",
                self.expected
            )));
        }
        Ok(())
    }

    /// Lazily allocates the per-coordinate state on the first ingest.
    fn ensure_state(&mut self) {
        if self.sum.is_empty() {
            let coords: usize = self.shapes.iter().map(|&(rows, cols)| rows * cols).sum();
            self.sum = vec![0.0; coords];
            self.bad = vec![0; coords];
            self.lows = vec![0.0; coords * self.trim];
            self.highs = vec![0.0; coords * self.trim];
        }
    }

    /// Folds one value of flat coordinate `c` — the single fold body every
    /// ingest path (materialised or fused) routes through, so they cannot
    /// diverge on the containment rule.
    fn fold_value(&mut self, c: usize, v: f64) {
        if v.is_finite() {
            let filled = (self.seen - self.bad[c] as usize).min(self.trim);
            self.sum[c] += v;
            if self.trim > 0 {
                let base = c * self.trim;
                insert_low(&mut self.lows[base..base + self.trim], filled, v);
                insert_high(&mut self.highs[base..base + self.trim], filled, v);
            }
        } else {
            self.bad[c] += 1;
        }
    }
}

impl StreamingAggregator for StreamingTrimmedMean {
    fn ingest(&mut self, update: &LocalUpdate) -> Result<(), FederatedError> {
        self.check_capacity()?;
        check_shapes(
            &mut self.shapes,
            &update.client_id,
            update.weights.iter().map(Matrix::shape),
        )?;
        self.ensure_state();
        let mut c = 0;
        for m in &update.weights {
            for &v in m.as_slice() {
                self.fold_value(c, v);
                c += 1;
            }
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
        let _ = sample_count; // trimmed mean is unweighted
        self.check_capacity()?;
        let view = wire::quantized_view(payload).map_err(|e| bad_payload(client_id, e))?;
        check_shapes(
            &mut self.shapes,
            client_id,
            view.tensors().map(|t| t.shape()),
        )?;
        self.ensure_state();
        let mut c = 0;
        for t in view.tensors() {
            for v in t.values() {
                self.fold_value(c, v);
                c += 1;
            }
        }
        self.seen += 1;
        Ok(())
    }

    fn ingested(&self) -> usize {
        self.seen
    }

    fn state_bytes(&self) -> usize {
        (self.sum.len() + self.lows.len() + self.highs.len()) * 8 + self.bad.len() * 4
    }

    fn finish(self: Box<Self>) -> Result<Vec<Matrix>, FederatedError> {
        if self.seen == 0 {
            return Err(FederatedError::NoClients);
        }
        if self.seen != self.expected {
            return Err(FederatedError::Aggregation(format!(
                "streaming trimmed mean declared {} updates but received {}",
                self.expected, self.seen
            )));
        }
        if 2 * self.trim >= self.seen {
            return Err(FederatedError::Aggregation(format!(
                "trim {} leaves no updates out of {}",
                self.trim, self.seen
            )));
        }
        let mut out = Vec::with_capacity(self.shapes.len());
        let mut c = 0;
        for &(rows, cols) in &self.shapes {
            let mut m = Matrix::zeros(rows, cols);
            for flat in 0..m.len() {
                let bad = self.bad[c] as usize;
                if bad > 2 * self.trim {
                    return Err(FederatedError::Aggregation(format!(
                        "trimmed mean: {bad} non-finite values at a coordinate exceed \
                         the 2 * trim = {} containment budget",
                        2 * self.trim
                    )));
                }
                let finite = self.finite_count(c);
                let (low, high) = trim_split(self.trim, bad);
                let filled = finite.min(self.trim);
                let base = c * self.trim;
                let mut total = self.sum[c];
                // Remove the `low` smallest and `high` largest finite
                // values — `low + high = 2 * trim - bad <= finite - 1`, and
                // both slices are fully tracked because
                // `low, high <= trim <= filled` whenever they are nonzero
                // (finite >= kept + low + high > trim when low or high > 0).
                for &v in &self.lows[base..base + low] {
                    total -= v;
                }
                for &v in &self.highs[base + filled - high..base + filled] {
                    total -= v;
                }
                let kept = finite - low - high;
                m.as_mut_slice()[flat] = total / kept as f64;
                c += 1;
            }
            out.push(m);
        }
        Ok(out)
    }
}

/// Keeps `slot[..min(filled + 1, slot.len())]` the ascending smallest
/// values after offering `v`. `filled` is how many entries were valid
/// before the call.
fn insert_low(slot: &mut [f64], filled: usize, v: f64) {
    let cap = slot.len();
    let mut len = filled;
    if len < cap {
        slot[len] = v;
        len += 1;
    } else if v < slot[cap - 1] {
        slot[cap - 1] = v;
    } else {
        return;
    }
    // Bubble the new value left to keep the prefix sorted ascending.
    let mut i = len - 1;
    while i > 0 && slot[i] < slot[i - 1] {
        slot.swap(i, i - 1);
        i -= 1;
    }
}

/// Keeps `slot[..min(filled + 1, slot.len())]` the ascending *largest*
/// values after offering `v`.
fn insert_high(slot: &mut [f64], filled: usize, v: f64) {
    let cap = slot.len();
    let mut len = filled;
    if len < cap {
        slot[len] = v;
        len += 1;
    } else if v > slot[0] {
        slot[0] = v;
        // Bubble right.
        let mut i = 0;
        while i + 1 < cap && slot[i] > slot[i + 1] {
            slot.swap(i, i + 1);
            i += 1;
        }
        return;
    } else {
        return;
    }
    let mut i = len - 1;
    while i > 0 && slot[i] < slot[i - 1] {
        slot.swap(i, i - 1);
        i -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn stream(rule: Aggregator, updates: &[LocalUpdate]) -> Result<Vec<Matrix>, FederatedError> {
        let total: f64 = updates.iter().map(|u| u.sample_count as f64).sum();
        let mut agg = rule
            .streaming(total, updates.len())
            .expect("rule must stream");
        for u in updates {
            agg.ingest(u)?;
        }
        agg.finish()
    }

    #[test]
    fn streaming_fedavg_is_bitwise_identical_to_batch() {
        let ups = [
            update("a", &[0.1, -2.0, 3.7], 100),
            update("b", &[1.9, 0.3, -0.4], 17),
            update("c", &[-5.5, 2.2, 0.0], 311),
        ];
        let batch = Aggregator::FedAvg.aggregate(&ups).unwrap();
        let streamed = stream(Aggregator::FedAvg, &ups).unwrap();
        assert_eq!(batch, streamed, "same fold, same bits");
    }

    #[test]
    fn streaming_fedavg_zero_samples_matches_uniform_fallback() {
        let ups = [update("a", &[2.0], 0), update("b", &[4.0], 0)];
        let batch = Aggregator::FedAvg.aggregate(&ups).unwrap();
        let streamed = stream(Aggregator::FedAvg, &ups).unwrap();
        assert_eq!(batch, streamed);
        assert!((streamed[0][(0, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_trimmed_mean_matches_batch_to_reassociation() {
        let ups = [
            update("a", &[0.0, 5.0], 10),
            update("b", &[1.0, 4.0], 10),
            update("c", &[2.0, 3.0], 10),
            update("evil", &[1e6, -1e6], 10),
            update("evil2", &[-1e6, 1e6], 10),
        ];
        let batch = Aggregator::TrimmedMean { trim: 1 }.aggregate(&ups).unwrap();
        let streamed = stream(Aggregator::TrimmedMean { trim: 1 }, &ups).unwrap();
        for (b, s) in batch.iter().zip(&streamed) {
            for (x, y) in b.as_slice().iter().zip(s.as_slice()) {
                assert!((x - y).abs() < 1e-9, "batch {x} vs streamed {y}");
            }
        }
    }

    #[test]
    fn streaming_trimmed_mean_contains_nan_floods_like_batch() {
        let nan = f64::NAN;
        let ups = [
            update("a", &[1.0], 10),
            update("b", &[2.0], 10),
            update("e1", &[nan], 10),
            update("e2", &[nan], 10),
        ];
        let streamed = stream(Aggregator::TrimmedMean { trim: 1 }, &ups).unwrap();
        assert!((streamed[0][(0, 0)] - 1.5).abs() < 1e-12);
        // One more flood exceeds the budget — error, like the batch rule.
        let over = [
            update("a", &[1.0], 10),
            update("b", &[2.0], 10),
            update("e1", &[nan], 10),
            update("e2", &[nan], 10),
            update("e3", &[nan], 10),
        ];
        assert!(matches!(
            stream(Aggregator::TrimmedMean { trim: 1 }, &over),
            Err(FederatedError::Aggregation(_))
        ));
    }

    #[test]
    fn streaming_state_is_o_model_not_o_clients() {
        let many: Vec<LocalUpdate> = (0..256)
            .map(|i| update(&format!("c{i}"), &[i as f64, -(i as f64), 0.5], 10))
            .collect();
        let total: f64 = many.iter().map(|u| u.sample_count as f64).sum();
        for rule in [Aggregator::FedAvg, Aggregator::TrimmedMean { trim: 2 }] {
            let mut agg = rule.streaming(total, many.len()).unwrap();
            let mut peak = 0usize;
            for u in &many {
                agg.ingest(u).unwrap();
                peak = peak.max(agg.state_bytes());
            }
            // 5 coordinates; generous constant factor, but nowhere near
            // 256 materialised updates (256 * 5 * 8 = 10240 bytes).
            assert!(peak <= 5 * 8 * 6, "{} state grew to {peak}", rule.name());
            assert_eq!(agg.ingested(), 256);
            assert!(agg.finish().unwrap().iter().all(Matrix::is_finite));
        }
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
        for rule in [Aggregator::FedAvg, Aggregator::TrimmedMean { trim: 3 }] {
            let mut agg = rule.streaming(total, many.len()).unwrap();
            assert_eq!(agg.state_bytes(), 0, "{}: lazy allocation", rule.name());
            let mut settled = 0usize;
            for (i, u) in many.iter().enumerate() {
                agg.ingest(u).unwrap();
                if i == 0 {
                    settled = agg.state_bytes();
                    assert!(settled > 0, "{}: state after first ingest", rule.name());
                } else {
                    assert_eq!(
                        agg.state_bytes(),
                        settled,
                        "{}: state changed size at update {i}",
                        rule.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected_mid_stream() {
        let good = update("a", &[1.0, 2.0], 5);
        let mut bad = update("b", &[1.0, 2.0], 5);
        bad.weights[1] = Matrix::zeros(3, 3);
        let mut agg = Aggregator::FedAvg.streaming(10.0, 2).unwrap();
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
        let mut agg = Aggregator::FedAvg.streaming(5.0, 1).unwrap();
        agg.ingest(&u).unwrap();
        assert!(agg.ingest(&u).is_err());
        // Too few.
        let mut agg = Aggregator::TrimmedMean { trim: 0 }
            .streaming(10.0, 2)
            .unwrap();
        agg.ingest(&u).unwrap();
        assert!(matches!(agg.finish(), Err(FederatedError::Aggregation(_))));
        // Nothing at all.
        let agg = Aggregator::FedAvg.streaming(0.0, 0).unwrap();
        assert!(matches!(agg.finish(), Err(FederatedError::NoClients)));
    }

    #[test]
    fn median_and_krum_do_not_stream() {
        assert!(Aggregator::Median.streaming(1.0, 1).is_none());
        assert!(Aggregator::Krum { byzantine: 1 }
            .streaming(1.0, 1)
            .is_none());
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
        use crate::compression::QuantizedUpdate;
        let nan = f64::NAN;
        let ups = [
            update("a", &[0.1, -2.0, 3.7], 100),
            update("b", &[nan, 0.3, -0.4], 17),
            update("c", &[-5.5, nan, nan], 311),
        ];
        let total: f64 = ups.iter().map(|u| u.sample_count as f64).sum();
        for rule in [Aggregator::FedAvg, Aggregator::TrimmedMean { trim: 1 }] {
            let mut materialized = rule.streaming(total, ups.len()).unwrap();
            let mut fused = rule.streaming(total, ups.len()).unwrap();
            for u in &ups {
                let blob = wire::encode_quantized(&QuantizedUpdate::quantize(&u.weights));
                let mut lossy = u.clone();
                lossy.weights = wire::decode_quantized(&blob).unwrap().dequantize();
                materialized.ingest(&lossy).unwrap();
                fused
                    .ingest_quantized(&u.client_id, u.sample_count, &blob)
                    .unwrap();
            }
            assert_bitwise_eq(
                &materialized.finish().unwrap(),
                &fused.finish().unwrap(),
                rule.name(),
            );
        }
    }

    #[test]
    fn corrupt_payload_errors_before_touching_accumulator_state() {
        use crate::compression::QuantizedUpdate;
        let a = update("a", &[1.0, 2.0, 3.0], 10);
        let b = update("b", &[2.0, 1.0, 0.0], 20);
        let blob_a = wire::encode_quantized(&QuantizedUpdate::quantize(&a.weights));
        let blob_b = wire::encode_quantized(&QuantizedUpdate::quantize(&b.weights));
        let mut agg = Aggregator::FedAvg.streaming(30.0, 2).unwrap();
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
        assert_eq!(agg.ingested(), 1, "failed ingests must not count");
        // A clean retry lands exactly where an unfailed stream would.
        agg.ingest_quantized("b", 20, &blob_b).unwrap();
        let mut fresh = Aggregator::FedAvg.streaming(30.0, 2).unwrap();
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
        use crate::compression::QuantizedUpdate;
        let u = update("a", &[1.0], 5);
        let blob = wire::encode_quantized(&QuantizedUpdate::quantize(&u.weights));
        let mut agg = Aggregator::FedAvg.streaming(5.0, 1).unwrap();
        agg.ingest_quantized("a", 5, &blob).unwrap();
        let err = agg.ingest_quantized("a", 5, &blob).unwrap_err();
        assert!(
            err.to_string()
                .contains("declared 1 updates but received more"),
            "{err}"
        );
        let mut agg = Aggregator::FedAvg.streaming(10.0, 2).unwrap();
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

    #[test]
    fn extreme_trackers_keep_the_right_values() {
        let mut lows = [0.0; 3];
        let mut highs = [0.0; 3];
        let vals = [5.0, -1.0, 3.0, 9.0, 0.0, -7.0, 2.0];
        for (i, &v) in vals.iter().enumerate() {
            insert_low(&mut lows, i.min(3), v);
            insert_high(&mut highs, i.min(3), v);
        }
        assert_eq!(lows, [-7.0, -1.0, 0.0]);
        assert_eq!(highs, [3.0, 5.0, 9.0]);
    }
}

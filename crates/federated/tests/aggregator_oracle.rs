//! Every aggregation rule against a naive f64 reference written here with
//! plain loops and nothing of the crate's — no `Matrix` arithmetic.
//!
//! `Aggregator::aggregate` (FedAvg, Krum) and `StreamingFedAvg` must equal
//! the reference bit for bit, refusals included.
//!
//! Cases draw one to three tensors of up to 4 × 4, one to twelve clients
//! with sample counts from zero (all-zero federations included), and floods
//! of NaN, +∞ or −∞ over whole clients or single coordinates. Values come
//! from a continuous range, far from overflow and subnormals.

// The reference indexes on purpose: it should read as the definition.
#![allow(clippy::needless_range_loop)]

use evfad_federated::streaming::{StreamingAggregator, StreamingFedAvg};
use evfad_federated::{Aggregator, FederatedError, LocalUpdate};
use evfad_tensor::Matrix;
use proptest::prelude::*;

/// Per tensor, its row-major values.
type Weights = Vec<Vec<f64>>;

#[derive(Debug, Clone)]
struct Case {
    shapes: Vec<(usize, usize)>,
    clients: Vec<(Weights, usize)>,
}

impl Case {
    fn updates(&self) -> Vec<LocalUpdate> {
        let mut out = Vec::new();
        for (i, (values, samples)) in self.clients.iter().enumerate() {
            let mut weights = Vec::new();
            for t in 0..self.shapes.len() {
                let (rows, cols) = self.shapes[t];
                weights.push(Matrix::from_vec(rows, cols, values[t].clone()));
            }
            out.push(LocalUpdate {
                client_id: format!("c{i}"),
                weights,
                sample_count: *samples,
                ..LocalUpdate::default()
            });
        }
        out
    }

    /// One zero per coordinate, shaped like the model.
    fn zeros(&self) -> Weights {
        let mut out = Vec::new();
        for &(rows, cols) in &self.shapes {
            out.push(vec![0.0; rows * cols]);
        }
        out
    }
}

/// Sorts ascending in IEEE total order, equal values keeping their order.
fn insertion_sort(v: &mut [f64]) {
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && v[j].total_cmp(&v[j - 1]).is_lt() {
            v.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Sample-weighted mean: each client weighs its share of the summed counts
/// (summed in client order), or `1 / n` when every count is zero; folded
/// into zeros client by client.
fn fedavg(case: &Case) -> Weights {
    let mut total = 0.0;
    for (_, samples) in &case.clients {
        total += *samples as f64;
    }
    let mut out = case.zeros();
    for (values, samples) in &case.clients {
        let w = if total > 0.0 {
            *samples as f64 / total
        } else {
            1.0 / case.clients.len() as f64
        };
        for t in 0..out.len() {
            for k in 0..out[t].len() {
                out[t][k] += w * values[t][k];
            }
        }
    }
    out
}

/// Squared Euclidean distance, summed tensor by tensor.
fn distance(a: &Weights, b: &Weights) -> f64 {
    let mut total = 0.0;
    for t in 0..a.len() {
        let mut sum = 0.0;
        for k in 0..a[t].len() {
            let d = a[t][k] - b[t][k];
            sum += d * d;
        }
        total += sum;
    }
    total
}

/// Krum: the client whose `n − f − 2` nearest distances (IEEE total order:
/// a NaN distance sorts by its sign) sum lowest among finite scores, the
/// first on a tie; a refusal below `f + 3` clients or when no score is
/// finite.
fn krum(case: &Case, byzantine: usize) -> Option<Weights> {
    let n = case.clients.len();
    if n < byzantine + 3 {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for i in 0..n {
        let mut distances = Vec::new();
        for j in 0..n {
            if j != i {
                distances.push(distance(&case.clients[i].0, &case.clients[j].0));
            }
        }
        insertion_sort(&mut distances);
        let mut score = 0.0;
        for &d in &distances[..n - byzantine - 2] {
            score += d;
        }
        let better = match best {
            None => true,
            Some((_, s)) => score < s,
        };
        if score.is_finite() && better {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| case.clients[i].0.clone())
}

fn reference(case: &Case, rule: Aggregator) -> Option<Weights> {
    match rule {
        Aggregator::FedAvg => Some(fedavg(case)),
        Aggregator::Krum { byzantine } => krum(case, byzantine),
    }
}

fn rules() -> Vec<Aggregator> {
    let mut rules = vec![Aggregator::FedAvg];
    for k in 0..4 {
        rules.push(Aggregator::Krum { byzantine: k });
    }
    rules
}

fn streamed(case: &Case) -> Result<Vec<Matrix>, FederatedError> {
    let updates = case.updates();
    let mut total = 0.0;
    for u in &updates {
        total += u.sample_count as f64;
    }
    let mut stream = StreamingFedAvg::new(total, updates.len());
    for u in &updates {
        stream.ingest(u)?;
    }
    stream.finish()
}

/// `Ok` when `got` is `want` bit for bit, refusals included.
fn same_bits(
    got: Result<Vec<Matrix>, FederatedError>,
    want: Option<Weights>,
) -> Result<(), String> {
    match (got, want) {
        (Err(_), None) => Ok(()),
        (Ok(got), Some(want)) => {
            for t in 0..want.len() {
                let got = got[t].as_slice();
                for k in 0..want[t].len() {
                    if got[k].to_bits() != want[t][k].to_bits() {
                        return Err(format!(
                            "tensor {t}[{k}]: {:e} against the reference's {:e}",
                            got[k], want[t][k]
                        ));
                    }
                }
            }
            Ok(())
        }
        (got, want) => Err(format!(
            "the crate {} where the reference {}",
            if got.is_ok() { "aggregated" } else { "refused" },
            if want.is_some() {
                "aggregated"
            } else {
                "refused"
            },
        )),
    }
}

/// Draws up to twelve clients of up to three tensors from fixed-size pools
/// and slices them to the drawn shape (the vendored proptest has no
/// `prop_flat_map`). A client is honest three times in four; otherwise its
/// whole update, or one coordinate of it, is NaN, +∞ or −∞.
fn case() -> impl Strategy<Value = Case> {
    (
        (
            1usize..4,
            prop::collection::vec((1usize..5, 1usize..5), 3),
            1usize..13,
        ),
        prop::collection::vec(-1e3f64..1e3, 12 * 3 * 16),
        (prop::collection::vec(0usize..300, 12), 0u8..8),
        prop::collection::vec((0u8..24, 0usize..48), 12),
    )
        .prop_map(|((tensors, dims, n), pool, (samples, zero), poison)| {
            let shapes: Vec<(usize, usize)> = dims[..tensors].to_vec();
            let coords: usize = shapes.iter().map(|&(r, c)| r * c).sum();
            let mut clients = Vec::new();
            for i in 0..n {
                let mut flat: Vec<f64> = pool[i * 48..i * 48 + coords].to_vec();
                let (code, at) = poison[i];
                let flood = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                match code {
                    18..=20 => flat.fill(flood[usize::from(code - 18)]),
                    21..=23 => flat[at % coords] = flood[usize::from(code - 21)],
                    _ => {}
                }
                let mut values = Vec::new();
                let mut rest = &flat[..];
                for &(r, c) in &shapes {
                    let (head, tail) = rest.split_at(r * c);
                    values.push(head.to_vec());
                    rest = tail;
                }
                // One federation in eight has nothing but zero counts.
                clients.push((values, if zero == 0 { 0 } else { samples[i] }));
            }
            Case { shapes, clients }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every batch rule is its reference, bit for bit.
    #[test]
    fn batch_rules_equal_the_reference_bitwise(case in case()) {
        let updates = case.updates();
        for rule in rules() {
            let verdict = same_bits(rule.aggregate(&updates), reference(&case, rule));
            prop_assert!(verdict.is_ok(), "{rule:?}: {}", verdict.unwrap_err());
        }
    }

    /// Streaming FedAvg is the reference, bit for bit.
    #[test]
    fn streaming_fedavg_equals_the_reference_bitwise(case in case()) {
        let verdict = same_bits(streamed(&case), Some(fedavg(&case)));
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

//! Differential oracle for the LSTM forward.
//!
//! Every other forward test in the workspace compares the fused layers with
//! something built from the same kernels and the same `vmath` activations
//! (the serving lanes, the pre-fusion bench baseline), so a shared mistake
//! would pass them all. Here the reference shares nothing: one scalar loop
//! per output element, libm `exp`/`tanh`, written from the layer equations.
//! It runs on the paper's shapes — 24 steps × batch 32, 1 → 50 with every
//! step returned and 50 → 25 with the last — and must agree within 1e-12
//! (the layer differs from it by summation order and by `vmath`'s 5e-15 per
//! activation, carried through 24 recurrent steps).

use evfad_nn::{Lstm, Seq};
use evfad_tensor::{MatRef, Matrix};

const STEPS: usize = 24;
const BATCH: usize = 32;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// `bias[j] + Σ_k x[k]·w[k][j] + Σ_k h[k]·w[x.len() + k][j]`.
fn affine(w: &Matrix, bias: &Matrix, x: &[f64], h: &[f64], j: usize) -> f64 {
    let mut s = bias[(0, j)];
    for (k, &v) in x.iter().chain(h).enumerate() {
        s += v * w[(k, j)];
    }
    s
}

/// Inputs in `[-1, 1]`, the range of scaled demand and of hidden states.
fn input(features: usize) -> Seq {
    let samples: Vec<Matrix> = (0..BATCH)
        .map(|b| {
            Matrix::from_fn(STEPS, features, |t, f| {
                ((b * 131 + t * 17 + f * 5) as f64 * 0.137).sin()
            })
        })
        .collect();
    Seq::from_samples(&samples)
}

/// Batch row `b` of one step.
fn row(step: MatRef<'_>, b: usize) -> &[f64] {
    &step.as_slice()[b * step.cols()..(b + 1) * step.cols()]
}

/// Holds the layer's output (all steps, or the last) to the oracle's hidden
/// trajectory.
fn assert_close(name: &str, got: &Seq, want: &[Vec<Vec<f64>>], return_sequences: bool) {
    let first = if return_sequences { 0 } else { STEPS - 1 };
    assert_eq!(got.len(), STEPS - first, "{name}: output steps");
    let mut worst = 0.0f64;
    for (t, step) in got.iter().enumerate() {
        for (b, want_row) in want[first + t].iter().enumerate() {
            for (&g, &w) in row(step, b).iter().zip(want_row) {
                worst = worst.max((g - w).abs());
            }
        }
    }
    assert!(worst < 1e-12, "{name}: {worst:e} from the naive forward");
}

/// Hidden state per step, batch row and unit of an LSTM, gate order
/// `[i | f | g | o]`.
fn naive_lstm(w: &Matrix, bias: &Matrix, x: &Seq, h_dim: usize) -> Vec<Vec<Vec<f64>>> {
    let mut h = vec![vec![0.0; h_dim]; BATCH];
    let mut c = vec![vec![0.0; h_dim]; BATCH];
    let mut trajectory = Vec::new();
    for x_t in x.iter() {
        let h_prev = h.clone();
        for b in 0..BATCH {
            let pre = |j: usize| affine(w, bias, row(x_t, b), &h_prev[b], j);
            for j in 0..h_dim {
                let i = sigmoid(pre(j));
                let f = sigmoid(pre(h_dim + j));
                let g = pre(2 * h_dim + j).tanh();
                let o = sigmoid(pre(3 * h_dim + j));
                c[b][j] = f * c[b][j] + i * g;
                h[b][j] = o * c[b][j].tanh();
            }
        }
        trajectory.push(h.clone());
    }
    trajectory
}

#[test]
fn lstm_forward_agrees_with_a_naive_libm_forward_on_the_paper_shapes() {
    for (i_dim, h_dim, return_sequences) in [(1, 50, true), (50, 25, false)] {
        let mut lstm = Lstm::new_seeded(i_dim, h_dim, return_sequences, 42);
        let x = input(i_dim);
        let (mut got, mut trained) = (Seq::default(), Seq::default());
        lstm.forward(&x, false, &mut got);
        let [w, bias] = lstm.params()[..] else {
            panic!("an LSTM has two parameter tensors");
        };
        let want = naive_lstm(w, bias, &x, h_dim);
        assert_close(
            &format!("lstm {i_dim}→{h_dim}"),
            &got,
            &want,
            return_sequences,
        );
        // The training-mode forward is the same computation.
        lstm.forward(&x, true, &mut trained);
        assert_eq!(trained, got);
    }
}

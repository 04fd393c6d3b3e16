//! Times one training step (forward + backward + optimiser update) of the
//! paper's models through the fused, workspace-backed layers against a
//! faithful reimplementation of the original allocating per-step algorithm,
//! and emits `BENCH_train_step.json`.
//!
//! The baseline below reproduces the pre-fusion layer math operation by
//! operation (per-step `hstack` of `[x | h]`, gate slices, fresh matrices
//! everywhere), so the two paths evaluate identical floating-point
//! expression trees: before timing anything the harness trains both for
//! several steps and asserts the resulting weights are **bitwise equal**.
//! Matrix-allocation counts per warm step come from
//! `evfad_tensor::alloc_stats()`.
//!
//! Usage: `cargo run --release --bin bench_train_step [output-path] [--smoke]`
//!
//! `--smoke` runs tiny shapes with few repetitions and skips the JSON dump —
//! the CI gate that the fused and baseline trajectories agree.

use evfad_bench::median;
use evfad_core::nn::{Activation, Adam, Dense, Loss, Lstm, RepeatVector, Seq, Sequential};
use evfad_core::tensor::{alloc_stats, Matrix};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Baseline: the original allocating per-step layer algorithms.
// ---------------------------------------------------------------------------

// Both route to the crate's own activations — the functions the fused
// layers apply as slice passes — so gate values match bitwise.
fn sigmoid(x: f64) -> f64 {
    Activation::Sigmoid.apply(x)
}

fn tanh(x: f64) -> f64 {
    Activation::Tanh.apply(x)
}

/// Step `t` of `seq` as an owned matrix — the per-step `Matrix` the
/// pre-fusion layers were handed.
fn step_matrix(seq: &Seq, t: usize) -> Matrix {
    let step = seq.step(t);
    Matrix::from_vec(step.rows(), step.cols(), step.as_slice().to_vec())
}

struct BaseStepCache {
    z: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
    c_prev: Matrix,
}

struct BaseLstm {
    input_dim: usize,
    hidden_dim: usize,
    return_sequences: bool,
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    cache: Vec<BaseStepCache>,
}

impl BaseLstm {
    fn new(
        input_dim: usize,
        hidden_dim: usize,
        return_sequences: bool,
        w: Matrix,
        b: Matrix,
    ) -> Self {
        let z_dim = input_dim + hidden_dim;
        Self {
            input_dim,
            hidden_dim,
            return_sequences,
            w,
            b,
            grad_w: Matrix::zeros(z_dim, 4 * hidden_dim),
            grad_b: Matrix::zeros(1, 4 * hidden_dim),
            cache: Vec::new(),
        }
    }

    fn forward(&mut self, input: &Seq, training: bool) -> Seq {
        let batch = input.batch_size();
        let h_dim = self.hidden_dim;
        let mut h = Matrix::zeros(batch, h_dim);
        let mut c = Matrix::zeros(batch, h_dim);
        if training {
            self.cache.clear();
        }
        let mut outputs = Vec::with_capacity(input.len());
        for t in 0..input.len() {
            let z = step_matrix(input, t).hstack(&h);
            let pre = z.matmul(&self.w).add_row_broadcast(&self.b);
            let i = pre.slice_cols(0..h_dim).map(sigmoid);
            let f = pre.slice_cols(h_dim..2 * h_dim).map(sigmoid);
            let g = pre.slice_cols(2 * h_dim..3 * h_dim).map(tanh);
            let o = pre.slice_cols(3 * h_dim..4 * h_dim).map(sigmoid);
            let c_prev = c.clone();
            c = f.hadamard(&c_prev).zip_map(&i.hadamard(&g), |a, b| a + b);
            let tanh_c = c.map(tanh);
            h = o.hadamard(&tanh_c);
            if training {
                self.cache.push(BaseStepCache {
                    z,
                    i,
                    f,
                    g,
                    o,
                    tanh_c: tanh_c.clone(),
                    c_prev,
                });
            }
            if self.return_sequences {
                outputs.push(h.clone());
            }
        }
        if self.return_sequences {
            Seq::from_steps(outputs)
        } else {
            Seq::single(h)
        }
    }

    fn backward(&mut self, grad: &Seq) -> Seq {
        let steps = self.cache.len();
        let h_dim = self.hidden_dim;
        let batch = grad.batch_size();
        let mut dh_next = Matrix::zeros(batch, h_dim);
        let mut dc_next = Matrix::zeros(batch, h_dim);
        let mut input_grads = vec![Matrix::zeros(batch, self.input_dim); steps];

        for t in (0..steps).rev() {
            let cache = &self.cache[t];
            let mut dh = dh_next.clone();
            if self.return_sequences {
                dh += &step_matrix(grad, t);
            } else if t == steps - 1 {
                dh += &step_matrix(grad, 0);
            }
            let d_o = dh.hadamard(&cache.tanh_c);
            let mut dc = dh
                .hadamard(&cache.o)
                .zip_map(&cache.tanh_c, |v, tc| v * (1.0 - tc * tc));
            dc += &dc_next;
            let d_i = dc.hadamard(&cache.g);
            let d_f = dc.hadamard(&cache.c_prev);
            let d_g = dc.hadamard(&cache.i);
            dc_next = dc.hadamard(&cache.f);
            let dp_i = d_i.zip_map(&cache.i, |d, y| d * y * (1.0 - y));
            let dp_f = d_f.zip_map(&cache.f, |d, y| d * y * (1.0 - y));
            let dp_g = d_g.zip_map(&cache.g, |d, y| d * (1.0 - y * y));
            let dp_o = d_o.zip_map(&cache.o, |d, y| d * y * (1.0 - y));
            let dpre = dp_i.hstack(&dp_f).hstack(&dp_g).hstack(&dp_o);
            self.grad_w += &cache.z.transpose_matmul(&dpre);
            self.grad_b += &dpre.sum_rows();
            let dz = dpre.matmul_transpose(&self.w);
            input_grads[t] = dz.slice_cols(0..self.input_dim);
            dh_next = dz.slice_cols(self.input_dim..self.input_dim + h_dim);
        }
        Seq::from_steps(input_grads)
    }

    fn zero_grads(&mut self) {
        self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        self.grad_b = Matrix::zeros(1, self.b.cols());
    }
}

struct BaseDense {
    w: Matrix,
    b: Matrix,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Matrix,
    cache_inputs: Vec<Matrix>,
    cache_outputs: Vec<Matrix>,
}

impl BaseDense {
    fn new(activation: Activation, w: Matrix, b: Matrix) -> Self {
        let (i, o) = w.shape();
        Self {
            w,
            b,
            activation,
            grad_w: Matrix::zeros(i, o),
            grad_b: Matrix::zeros(1, o),
            cache_inputs: Vec::new(),
            cache_outputs: Vec::new(),
        }
    }

    fn forward(&mut self, input: &Seq, training: bool) -> Seq {
        if training {
            self.cache_inputs.clear();
            self.cache_outputs.clear();
        }
        let act = self.activation;
        let steps = (0..input.len())
            .map(|t| {
                let x = step_matrix(input, t);
                let y = x
                    .matmul(&self.w)
                    .add_row_broadcast(&self.b)
                    .map(|v| act.apply(v));
                if training {
                    self.cache_inputs.push(x);
                    self.cache_outputs.push(y.clone());
                }
                y
            })
            .collect();
        Seq::from_steps(steps)
    }

    fn backward(&mut self, grad: &Seq) -> Seq {
        let act = self.activation;
        let mut input_grads = Vec::with_capacity(grad.len());
        for t in 0..grad.len() {
            let y = &self.cache_outputs[t];
            let dpre =
                step_matrix(grad, t).zip_map(y, |gv, yv| gv * act.derivative_from_output(yv));
            self.grad_w += &self.cache_inputs[t].transpose_matmul(&dpre);
            self.grad_b += &dpre.sum_rows();
            input_grads.push(dpre.matmul_transpose(&self.w));
        }
        Seq::from_steps(input_grads)
    }

    fn zero_grads(&mut self) {
        self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        self.grad_b = Matrix::zeros(1, self.b.cols());
    }
}

enum BaseLayer {
    Lstm(BaseLstm),
    Dense(BaseDense),
    Repeat(RepeatVector),
}

impl BaseLayer {
    fn forward(&mut self, input: &Seq, training: bool) -> Seq {
        match self {
            BaseLayer::Lstm(l) => l.forward(input, training),
            BaseLayer::Dense(l) => l.forward(input, training),
            BaseLayer::Repeat(l) => {
                let mut out = Seq::default();
                l.forward(input, training, &mut out);
                out
            }
        }
    }

    fn backward(&mut self, grad: &Seq) -> Seq {
        match self {
            BaseLayer::Lstm(l) => l.backward(grad),
            BaseLayer::Dense(l) => l.backward(grad),
            BaseLayer::Repeat(l) => {
                let mut dx = Seq::default();
                l.backward(grad, Some(&mut dx));
                dx
            }
        }
    }

    fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        match self {
            BaseLayer::Lstm(l) => vec![(&mut l.w, &mut l.grad_w), (&mut l.b, &mut l.grad_b)],
            BaseLayer::Dense(l) => vec![(&mut l.w, &mut l.grad_w), (&mut l.b, &mut l.grad_b)],
            BaseLayer::Repeat(_) => Vec::new(),
        }
    }

    fn zero_grads(&mut self) {
        match self {
            BaseLayer::Lstm(l) => l.zero_grads(),
            BaseLayer::Dense(l) => l.zero_grads(),
            BaseLayer::Repeat(_) => {}
        }
    }
}

struct BaseModel {
    layers: Vec<BaseLayer>,
    opt: Adam,
}

impl BaseModel {
    /// One training step mirroring the original `Sequential` loop (which
    /// cloned the input and the loss gradient before the layer sweeps).
    fn train_step(&mut self, x: &Seq, y: &Seq, loss: Loss) -> f64 {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, true);
        }
        let mut grad = Seq::default();
        let loss_value = loss.evaluate(&cur, y, &mut grad);
        let mut g = grad.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        let mut pg: Vec<(&mut Matrix, &mut Matrix)> = self
            .layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads_mut())
            .collect();
        self.opt.step(&mut pg);
        drop(pg);
        for l in &mut self.layers {
            l.zero_grads();
        }
        loss_value
    }

    fn weights(&mut self) -> Vec<Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| {
                l.params_and_grads_mut()
                    .into_iter()
                    .map(|(w, _)| w.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Model configurations.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Spec {
    Lstm {
        input: usize,
        hidden: usize,
        seq: bool,
    },
    Dense {
        input: usize,
        output: usize,
        act: Activation,
    },
    Repeat(usize),
}

struct Config {
    name: &'static str,
    batch: usize,
    seq_len: usize,
    spec: Vec<Spec>,
    autoencoding: bool,
}

fn forecaster_config(batch: usize, seq_len: usize, hidden: usize) -> Config {
    Config {
        name: "forecaster",
        batch,
        seq_len,
        spec: vec![
            Spec::Lstm {
                input: 1,
                hidden,
                seq: false,
            },
            Spec::Dense {
                input: hidden,
                output: 10,
                act: Activation::Relu,
            },
            Spec::Dense {
                input: 10,
                output: 1,
                act: Activation::Linear,
            },
        ],
        autoencoding: false,
    }
}

/// The paper's LSTM autoencoder minus its `Dropout` layers (dropout draws
/// from per-layer RNG state the baseline cannot share;
/// `crates/nn/tests/recorded_steps.rs` pins the stack with them).
fn autoencoder_config(batch: usize, seq_len: usize, h1: usize, h2: usize) -> Config {
    Config {
        name: "autoencoder",
        batch,
        seq_len,
        spec: vec![
            Spec::Lstm {
                input: 1,
                hidden: h1,
                seq: true,
            },
            Spec::Lstm {
                input: h1,
                hidden: h2,
                seq: false,
            },
            Spec::Repeat(seq_len),
            Spec::Lstm {
                input: h2,
                hidden: h2,
                seq: true,
            },
            Spec::Lstm {
                input: h2,
                hidden: h1,
                seq: true,
            },
            Spec::Dense {
                input: h1,
                output: 1,
                act: Activation::Linear,
            },
        ],
        autoencoding: true,
    }
}

fn build_fused(cfg: &Config, seed: u64) -> Sequential {
    let mut model = Sequential::new(seed);
    for spec in &cfg.spec {
        match *spec {
            Spec::Lstm { input, hidden, seq } => model.push(Lstm::new(input, hidden, seq)),
            Spec::Dense { input, output, act } => model.push(Dense::new(input, output, act)),
            Spec::Repeat(n) => model.push(RepeatVector::new(n)),
        }
    }
    model
}

/// Builds the baseline with the fused model's exact initial weights.
fn build_baseline(cfg: &Config, fused: &Sequential) -> BaseModel {
    let mut weights = fused.weights().into_iter();
    let layers = cfg
        .spec
        .iter()
        .map(|spec| match *spec {
            Spec::Lstm { input, hidden, seq } => {
                let w = weights.next().expect("lstm kernel");
                let b = weights.next().expect("lstm bias");
                BaseLayer::Lstm(BaseLstm::new(input, hidden, seq, w, b))
            }
            Spec::Dense { act, .. } => {
                let w = weights.next().expect("dense kernel");
                let b = weights.next().expect("dense bias");
                BaseLayer::Dense(BaseDense::new(act, w, b))
            }
            Spec::Repeat(n) => BaseLayer::Repeat(RepeatVector::new(n)),
        })
        .collect();
    BaseModel {
        layers,
        opt: Adam::new(0.001),
    }
}

fn make_batch(cfg: &Config) -> (Seq, Seq) {
    let inputs: Vec<Matrix> = (0..cfg.batch)
        .map(|s| Matrix::from_fn(cfg.seq_len, 1, |t, _| ((s * 13 + t) as f64 * 0.23).sin()))
        .collect();
    let targets: Vec<Matrix> = if cfg.autoencoding {
        inputs.clone()
    } else {
        (0..cfg.batch)
            .map(|s| Matrix::from_fn(1, 1, |_, _| ((s * 13 + cfg.seq_len) as f64 * 0.23).sin()))
            .collect()
    };
    (Seq::from_samples(&inputs), Seq::from_samples(&targets))
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct ConfigResult {
    name: &'static str,
    batch: usize,
    seq_len: usize,
    baseline_ms: f64,
    fused_ms: f64,
    baseline_allocs: u64,
    fused_allocs: u64,
    bitwise_identical: bool,
}

fn run_config(cfg: &Config, seed: u64, reps: usize) -> ConfigResult {
    let (x, y) = make_batch(cfg);

    // Bitwise gate: both paths must land on identical weights after a few
    // optimiser steps from identical initial weights.
    let mut fused = build_fused(cfg, seed);
    let mut baseline = build_baseline(cfg, &fused);
    for _ in 0..3 {
        let lf = fused.train_batch(&x, &y, Loss::Mse, None);
        let lb = baseline.train_step(&x, &y, Loss::Mse);
        assert_eq!(
            lf.to_bits(),
            lb.to_bits(),
            "{}: losses diverged between fused and baseline",
            cfg.name
        );
    }
    let wf = fused.weights();
    let wb = baseline.weights();
    let bitwise_identical = wf.len() == wb.len()
        && wf
            .iter()
            .zip(&wb)
            .all(|(a, b)| a.as_slice() == b.as_slice());
    assert!(
        bitwise_identical,
        "{}: post-step weights diverged between fused and baseline",
        cfg.name
    );

    // Allocation counts for one warm step.
    let before = alloc_stats();
    let _ = baseline.train_step(&x, &y, Loss::Mse);
    let baseline_allocs = alloc_stats().since(&before).matrices;
    let before = alloc_stats();
    let _ = fused.train_batch(&x, &y, Loss::Mse, None);
    let fused_allocs = alloc_stats().since(&before).matrices;

    // Wall clock, median over `reps` warm steps each. The two paths are
    // interleaved rep-by-rep so machine-wide slowdowns (noisy neighbours,
    // frequency shifts) hit both sample sets equally instead of skewing
    // whichever path happened to run during the slow window.
    let mut baseline_samples = Vec::with_capacity(reps);
    let mut fused_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let _ = baseline.train_step(&x, &y, Loss::Mse);
        baseline_samples.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let _ = fused.train_batch(&x, &y, Loss::Mse, None);
        fused_samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let baseline_ms = median(baseline_samples);
    let fused_ms = median(fused_samples);

    ConfigResult {
        name: cfg.name,
        batch: cfg.batch,
        seq_len: cfg.seq_len,
        baseline_ms,
        fused_ms,
        baseline_allocs,
        fused_allocs,
        bitwise_identical,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_train_step.json".to_string());

    let (configs, reps) = if smoke {
        (
            vec![forecaster_config(4, 6, 8), autoencoder_config(4, 6, 8, 4)],
            3,
        )
    } else {
        (
            vec![
                forecaster_config(32, 24, 50),
                autoencoder_config(32, 24, 50, 25),
            ],
            21,
        )
    };

    println!(
        "train-step bench: {} (reps={reps})",
        if smoke { "smoke" } else { "full" }
    );
    let results: Vec<ConfigResult> = configs.iter().map(|c| run_config(c, 42, reps)).collect();
    for r in &results {
        println!(
            "{:<12} B={} T={}  baseline {:.3} ms / {} allocs  fused {:.3} ms / {} allocs  speedup {:.2}x  bitwise={}",
            r.name,
            r.batch,
            r.seq_len,
            r.baseline_ms,
            r.baseline_allocs,
            r.fused_ms,
            r.fused_allocs,
            r.baseline_ms / r.fused_ms,
            r.bitwise_identical,
        );
    }

    if smoke {
        println!("smoke ok: fused and baseline trajectories bitwise identical");
        return;
    }

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"config\": \"{}\",\n",
                    "      \"batch\": {},\n",
                    "      \"seq_len\": {},\n",
                    "      \"baseline_ms\": {:.4},\n",
                    "      \"fused_ms\": {:.4},\n",
                    "      \"speedup\": {:.2},\n",
                    "      \"baseline_allocs_per_step\": {},\n",
                    "      \"fused_allocs_per_step\": {},\n",
                    "      \"bitwise_identical\": {}\n",
                    "    }}"
                ),
                r.name,
                r.batch,
                r.seq_len,
                r.baseline_ms,
                r.fused_ms,
                r.baseline_ms / r.fused_ms,
                r.baseline_allocs,
                r.fused_allocs,
                r.bitwise_identical,
            )
        })
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"train_step\",\n  \"host_cpus\": {},\n  \"reps\": {},\n  \"configs\": [\n{}\n  ]\n}}\n",
        host_cpus,
        reps,
        entries.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}

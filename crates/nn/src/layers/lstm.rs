//! LSTM layer with full backpropagation through time.
//!
//! The hot path is fused and allocation-free: all per-timestep state
//! (pre-activations, gates, cell/hidden trajectories) lives in a reusable
//! [`Workspace`] arena, the input projection of a training forward is one
//! `(T*B) x 4H` GEMM over the input [`Seq`]'s own buffer, the combined
//! kernel is addressed through zero-copy `W_x`/`W_h` row views instead of
//! per-step `hstack`, and the output and the input gradient are written
//! into caller-owned `Seq`s. An eval forward runs the same loop but keeps
//! only what the next step reads — two steps of cell and hidden state, the
//! input projected a register tile of rows at a time — so its workspace
//! does not grow with `T`; kernel rows are independent, so its bits are
//! the same. Every
//! sum and product keeps the order of the original allocating
//! implementation (see DESIGN.md §6 for the summation-order argument); the
//! gate nonlinearities are [`vmath`]'s slice kernels, the workspace's one
//! definition of σ and tanh, applied band by band to the in-place gates.

use crate::seq::Seq;
use crate::workspace::Workspace;
use evfad_tensor::{kernels, vmath, Initializer, MatMut, MatRef, Matrix};
use rand::Rng;

// Workspace slot layout. Forward slots double as the BPTT cache; eval-mode
// forwards use the same layout at `EVAL_BASE`, a few steps deep instead of
// `T`, so they never clobber a pending training cache.
const X_ALL: usize = 0; // (T*B) x I   input copy (training forwards only)
const PRE_ALL: usize = 1; // (T*B) x 4H  pre-activations, then gates in place
const C_ALL: usize = 2; // (T*B) x H   cell states
const TANH_ALL: usize = 3; // (T*B) x H   tanh(c)
const H_ALL: usize = 4; // (T*B) x H   hidden states
const ZEROS: usize = 5; // B x H       zero h_-1 / c_-1 (re-zeroed per call)
const DH: usize = 6; // B x H       running dh
const DC: usize = 7; // B x H       running dc
const DPRE: usize = 8; // B x 4H      per-step pre-activation gradient
const TW_X: usize = 9; // I x 4H      x^T @ dpre staging
const TW_H: usize = 10; // H x 4H      h^T @ dpre staging
const BSUM: usize = 11; // 1 x 4H      column sums of dpre
const WXT: usize = 12; // 4H x I      W_x^T, staged once per backward
const WHT: usize = 13; // 4H x H      W_h^T, staged once per backward
const EVAL_BASE: usize = 16;

/// A Long Short-Term Memory layer.
///
/// Implements the standard gate equations
///
/// ```text
/// i = sigmoid(z W_i + b_i)    f = sigmoid(z W_f + b_f)
/// g = tanh(z W_g + b_g)       o = sigmoid(z W_o + b_o)
/// c_t = f * c_{t-1} + i * g   h_t = o * tanh(c_t)
/// ```
///
/// with `z = [x_t | h_{t-1}]` and a combined kernel
/// `W : (input+hidden) x 4*hidden` in gate order `[i | f | g | o]`.
/// Following Keras defaults the kernel is Glorot-uniform and the forget-gate
/// bias is initialised to one (`unit_forget_bias`).
///
/// With `return_sequences = true` the output has one step per input step
/// (used to stack LSTMs in the paper's autoencoder); otherwise the output is
/// a single-step [`Seq`] holding the final hidden state.
///
/// # Examples
///
/// ```
/// use evfad_nn::{Lstm, Seq};
/// use evfad_tensor::Matrix;
///
/// let mut lstm = Lstm::new_seeded(1, 8, false, 42);
/// let x = Seq::from_samples(&[Matrix::column_vector(&[0.1, 0.2, 0.3])]);
/// let mut h = Seq::default();
/// lstm.forward(&x, false, &mut h);
/// assert_eq!(h.shape(), (1, 1, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    return_sequences: bool,
    /// Combined kernel over `[x | h]`, shape `(input+hidden) x 4*hidden`.
    w: Matrix,
    /// Bias, shape `1 x 4*hidden`.
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    ws: Workspace,
    /// Timesteps cached by the last training forward (0 = no cache).
    cached_steps: usize,
    cached_batch: usize,
}

impl Lstm {
    /// Creates an LSTM seeded from the thread RNG. Prefer
    /// [`Lstm::new_seeded`] for reproducibility;
    /// [`Sequential::with`](crate::Sequential::with) reseeds adopted layers.
    pub fn new(input_dim: usize, hidden_dim: usize, return_sequences: bool) -> Self {
        Self::new_with_rng(
            input_dim,
            hidden_dim,
            return_sequences,
            &mut rand::thread_rng(),
        )
    }

    /// Creates an LSTM initialised from `rng`.
    pub fn new_with_rng(
        input_dim: usize,
        hidden_dim: usize,
        return_sequences: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let z_dim = input_dim + hidden_dim;
        let w = Initializer::GlorotUniform.init(z_dim, 4 * hidden_dim, rng);
        let mut b = Matrix::zeros(1, 4 * hidden_dim);
        // unit_forget_bias: the f-gate block starts at 1.0.
        for j in hidden_dim..2 * hidden_dim {
            b[(0, j)] = 1.0;
        }
        Self {
            input_dim,
            hidden_dim,
            return_sequences,
            w,
            b,
            grad_w: Matrix::zeros(z_dim, 4 * hidden_dim),
            grad_b: Matrix::zeros(1, 4 * hidden_dim),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
        }
    }

    /// Creates an LSTM initialised from a fixed seed.
    pub fn new_seeded(
        input_dim: usize,
        hidden_dim: usize,
        return_sequences: bool,
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::new_with_rng(input_dim, hidden_dim, return_sequences, &mut rng)
    }

    /// Re-initialises the weights from `rng`.
    pub fn reinitialize(&mut self, rng: &mut impl Rng) {
        let fresh = Lstm::new_with_rng(self.input_dim, self.hidden_dim, self.return_sequences, rng);
        self.w = fresh.w;
        self.b = fresh.b;
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Whether the layer emits the full hidden sequence.
    pub fn return_sequences(&self) -> bool {
        self.return_sequences
    }

    /// Forward pass over a batched sequence into `out` (reshaped to
    /// `T x B x H`, or `1 x B x H` without `return_sequences`; storage
    /// reused). Caches the BPTT state when `training`.
    ///
    /// # Panics
    ///
    /// Panics if the input feature width differs from `input_dim`.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        assert_eq!(
            input.features(),
            self.input_dim,
            "LSTM expected {} input features, got {}",
            self.input_dim,
            input.features()
        );
        let steps = input.len();
        let batch = input.batch_size();
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let (bi, bh, b4h) = (batch * i_dim, batch * h_dim, batch * 4 * h_dim);
        // The input is projected `group` steps per GEMM into block
        // `t % group` of the pre-activations; cell, tanh(c) and hidden state
        // of step `t` live in block `t % blocks`. A training forward keeps
        // every step for BPTT: one GEMM, `T` blocks. An eval forward keeps
        // the step it writes and the one it reads, and projects just enough
        // steps for a full register tile of rows; it works in a disjoint
        // slot range, so an in-flight training cache survives it.
        let (base, blocks, group) = if training {
            (0, steps, steps)
        } else {
            let tile_steps = kernels::TILE_ROWS.div_ceil(batch.max(1));
            (EVAL_BASE, 2, tile_steps.min(steps))
        };

        let mut pre_all = self.ws.take(base + PRE_ALL, group * b4h);
        let mut c_all = self.ws.take(base + C_ALL, blocks * bh);
        let mut tanh_all = self.ws.take(base + TANH_ALL, blocks * bh);
        let mut h_all = self.ws.take(base + H_ALL, blocks * bh);
        let mut zeros = self.ws.take(base + ZEROS, bh);
        zeros.fill(0.0);

        // Input projection: accumulating the x-columns first and the
        // h-columns second reproduces the `[x|h] @ W` summation order, so
        // this is bitwise identical to the per-step concatenated product,
        // and each output row depends on its own input row only, so the
        // group size is not in the bits.
        let w_x = self.w.rows_view(0..i_dim);
        let w_h = self.w.rows_view(i_dim..i_dim + h_dim);
        let first = if self.return_sequences { 0 } else { steps - 1 };
        out.reshape(steps - first, batch, h_dim);

        for t in 0..steps {
            if t % group == 0 {
                let rows = group.min(steps - t) * batch;
                let x = &input.as_slice()[t * bi..][..rows * i_dim];
                let pre = &mut pre_all[..rows * 4 * h_dim];
                kernels::matmul_into(
                    MatRef::new(rows, i_dim, x),
                    w_x,
                    MatMut::new(rows, 4 * h_dim, pre),
                );
            }
            let pre_t = &mut pre_all[(t % group) * b4h..][..b4h];
            let (h_prev, h_t) = step_blocks(&mut h_all, &zeros, t, blocks);
            kernels::matmul_acc_into(
                MatRef::new(batch, h_dim, h_prev),
                w_h,
                MatMut::new(batch, 4 * h_dim, pre_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, 4 * h_dim, pre_t), self.b.view());
            // Gate nonlinearities as slice passes over each row's in-place
            // bands, then the cell update.
            let (c_prev, c_t) = step_blocks(&mut c_all, &zeros, t, blocks);
            for r in 0..batch {
                let gates = &mut pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                vmath::sigmoid_f64(&mut gates[..2 * h_dim]);
                vmath::tanh_f64(&mut gates[2 * h_dim..3 * h_dim]);
                vmath::sigmoid_f64(&mut gates[3 * h_dim..]);
                let row = r * h_dim..(r + 1) * h_dim;
                let it = c_t[row.clone()]
                    .iter_mut()
                    .zip(&c_prev[row])
                    .zip(&gates[..h_dim])
                    .zip(&gates[h_dim..2 * h_dim])
                    .zip(&gates[2 * h_dim..3 * h_dim]);
                for ((((ct, &cp), &i_v), &f_v), &g_v) in it {
                    *ct = (f_v * cp) + (i_v * g_v);
                }
            }
            // tanh(c) for the whole step, in the slot backward reads it
            // from; then h = o ∘ tanh(c).
            let tanh_t = &mut tanh_all[(t % blocks) * bh..][..bh];
            tanh_t.copy_from_slice(c_t);
            vmath::tanh_f64(tanh_t);
            for r in 0..batch {
                let go = &pre_t[(r * 4 + 3) * h_dim..(r + 1) * 4 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                for ((ht, &o_v), &tc) in h_t[row.clone()].iter_mut().zip(go).zip(&tanh_t[row]) {
                    *ht = o_v * tc;
                }
            }
            if t >= first {
                out.step_data_mut(t - first).copy_from_slice(h_t);
            }
        }

        self.ws.put(base + PRE_ALL, pre_all);
        self.ws.put(base + C_ALL, c_all);
        self.ws.put(base + TANH_ALL, tanh_all);
        self.ws.put(base + H_ALL, h_all);
        self.ws.put(base + ZEROS, zeros);
        if training {
            // The input is the one thing BPTT reads that the caller, not
            // this layer, owns: keep a copy.
            let mut x_all = self.ws.take(X_ALL, steps * bi);
            x_all.copy_from_slice(input.as_slice());
            self.ws.put(X_ALL, x_all);
            self.cached_steps = steps;
            self.cached_batch = batch;
        }
    }

    /// Backward pass through time.
    ///
    /// `grad` must match the forward output shape: one step per input step
    /// when `return_sequences`, otherwise a single step (gradient of the
    /// final hidden state). Accumulates kernel/bias gradients and, when
    /// `dx` is given, writes the gradient with respect to the input
    /// sequence into it; `None` skips the `dpre @ W_x^T` product per step
    /// (the first layer of a model discards that gradient anyway).
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad: &Seq, mut dx: Option<&mut Seq>) {
        let steps = self.cached_steps;
        assert!(steps > 0, "backward requires a training forward pass");
        if self.return_sequences {
            assert_eq!(grad.len(), steps, "gradient length mismatch");
        } else {
            assert_eq!(grad.len(), 1, "single-step gradient expected");
        }
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let batch = self.cached_batch;
        let (bi, bh, b4h) = (batch * i_dim, batch * h_dim, batch * 4 * h_dim);

        let x_all = self.ws.take(X_ALL, steps * bi);
        let pre_all = self.ws.take(PRE_ALL, steps * b4h);
        let c_all = self.ws.take(C_ALL, steps * bh);
        let tanh_all = self.ws.take(TANH_ALL, steps * bh);
        let h_all = self.ws.take(H_ALL, steps * bh);
        let zeros = self.ws.take(ZEROS, bh);
        let mut dh = self.ws.take(DH, bh);
        let mut dc = self.ws.take(DC, bh);
        let mut dpre = self.ws.take(DPRE, b4h);
        let mut tw_x = self.ws.take(TW_X, i_dim * 4 * h_dim);
        let mut tw_h = self.ws.take(TW_H, h_dim * 4 * h_dim);
        let mut bsum = self.ws.take(BSUM, 4 * h_dim);
        let mut wxt = self.ws.take(WXT, 4 * h_dim * i_dim);
        let mut wht = self.ws.take(WHT, 4 * h_dim * h_dim);
        dh.fill(0.0);
        dc.fill(0.0);

        // Stage W_x^T / W_h^T once so the per-step `dpre @ W^T` products can
        // run through the streaming matmul kernel instead of the dot kernel
        // (bitwise identical: same terms in the same ascending-k order).
        let w_x = self.w.rows_view(0..i_dim);
        let w_h = self.w.rows_view(i_dim..i_dim + h_dim);
        kernels::transpose_into(w_x, MatMut::new(4 * h_dim, i_dim, &mut wxt));
        kernels::transpose_into(w_h, MatMut::new(4 * h_dim, h_dim, &mut wht));
        let wxt_ref = MatRef::new(4 * h_dim, i_dim, &wxt);
        let wht_ref = MatRef::new(4 * h_dim, h_dim, &wht);
        if let Some(dx) = dx.as_deref_mut() {
            dx.reshape(steps, batch, i_dim);
        }

        for t in (0..steps).rev() {
            // `grad` covers the last `grad.len()` steps (all of them, or
            // only the final one).
            if let Some(g_t) = (t + grad.len()).checked_sub(steps) {
                for (d, &g) in dh.iter_mut().zip(grad.step(g_t).as_slice()) {
                    *d += g;
                }
            }
            let pre_t = &pre_all[t * b4h..(t + 1) * b4h];
            let tanh_t = &tanh_all[t * bh..(t + 1) * bh];
            let c_prev = if t == 0 {
                &zeros[..]
            } else {
                &c_all[(t - 1) * bh..t * bh]
            };
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_all[(t - 1) * bh..t * bh]
            };
            // Fused gate backward: identical expression trees to the
            // allocating version (products grouped left-to-right).
            for r in 0..batch {
                let gates = &pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                let (gi, rest) = gates.split_at(h_dim);
                let (gf, rest) = rest.split_at(h_dim);
                let (gg, go) = rest.split_at(h_dim);
                let dpre_row = &mut dpre[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                let (di, rest) = dpre_row.split_at_mut(h_dim);
                let (df, rest) = rest.split_at_mut(h_dim);
                let (dg, dov) = rest.split_at_mut(h_dim);
                let row = r * h_dim..(r + 1) * h_dim;
                let it = di
                    .iter_mut()
                    .zip(df.iter_mut())
                    .zip(dg.iter_mut())
                    .zip(dov.iter_mut())
                    .zip(gi)
                    .zip(gf)
                    .zip(gg)
                    .zip(go)
                    .zip(&tanh_t[row.clone()])
                    .zip(&c_prev[row.clone()])
                    .zip(&dh[row.clone()])
                    .zip(&mut dc[row]);
                #[allow(clippy::type_complexity)]
                for (
                    (
                        (((((((((di_v, df_v), dg_v), do_v), &i_v), &f_v), &g_v), &o_v), &tc), &cp),
                        &dh_v,
                    ),
                    dc_el,
                ) in it
                {
                    // h = o * tanh(c);  c = f*c_prev + i*g
                    let d_o = dh_v * tc;
                    let dc_v = ((dh_v * o_v) * (1.0 - tc * tc)) + *dc_el;
                    *di_v = ((dc_v * g_v) * i_v) * (1.0 - i_v);
                    *df_v = ((dc_v * cp) * f_v) * (1.0 - f_v);
                    *dg_v = (dc_v * i_v) * (1.0 - g_v * g_v);
                    *do_v = (d_o * o_v) * (1.0 - o_v);
                    *dc_el = dc_v * f_v;
                }
            }
            // Parameter gradients: full products staged into temporaries,
            // then added — the grouping the allocating `+=` produced.
            let dpre_ref = MatRef::new(batch, 4 * h_dim, &dpre);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, &x_all[t * bi..(t + 1) * bi]),
                dpre_ref,
                MatMut::new(i_dim, 4 * h_dim, &mut tw_x),
            );
            kernels::transpose_matmul_into(
                MatRef::new(batch, h_dim, h_prev),
                dpre_ref,
                MatMut::new(h_dim, 4 * h_dim, &mut tw_h),
            );
            let gw = self.grad_w.as_mut_slice();
            for (g, &v) in gw[..i_dim * 4 * h_dim].iter_mut().zip(tw_x.iter()) {
                *g += v;
            }
            for (g, &v) in gw[i_dim * 4 * h_dim..].iter_mut().zip(tw_h.iter()) {
                *g += v;
            }
            bsum.fill(0.0);
            for r in 0..batch {
                let row = &dpre[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                for (o, &x) in bsum.iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            for (g, &v) in self.grad_b.as_mut_slice().iter_mut().zip(bsum.iter()) {
                *g += v;
            }
            // Through z = [x | h_prev]: column blocks of dpre @ W^T.
            if let Some(dx) = dx.as_deref_mut() {
                let dx_t = MatMut::new(batch, i_dim, dx.step_data_mut(t));
                kernels::matmul_into(dpre_ref, wxt_ref, dx_t);
            }
            kernels::matmul_into(dpre_ref, wht_ref, MatMut::new(batch, h_dim, &mut dh));
        }

        self.ws.put(X_ALL, x_all);
        self.ws.put(PRE_ALL, pre_all);
        self.ws.put(C_ALL, c_all);
        self.ws.put(TANH_ALL, tanh_all);
        self.ws.put(H_ALL, h_all);
        self.ws.put(ZEROS, zeros);
        self.ws.put(DH, dh);
        self.ws.put(DC, dc);
        self.ws.put(DPRE, dpre);
        self.ws.put(TW_X, tw_x);
        self.ws.put(TW_H, tw_h);
        self.ws.put(BSUM, bsum);
        self.ws.put(WXT, wxt);
        self.ws.put(WHT, wht);
    }

    /// Immutable access to `(kernel, bias)`.
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.w, &mut self.grad_w),
            (&mut self.b, &mut self.grad_b),
        ]
    }

    /// Clears accumulated gradients (in place once correctly shaped).
    pub fn zero_grads(&mut self) {
        if self.grad_w.shape() == self.w.shape() {
            self.grad_w.as_mut_slice().fill(0.0);
        } else {
            self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        }
        if self.grad_b.shape() == self.b.shape() {
            self.grad_b.as_mut_slice().fill(0.0);
        } else {
            self.grad_b = Matrix::zeros(1, self.b.cols());
        }
    }

    /// The parameters without the gradients or the workspace: what an
    /// eval forward reads, and nothing a trained layer merely carries.
    pub(crate) fn serving_copy(&self) -> Self {
        Self {
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: Matrix::default(),
            grad_b: Matrix::default(),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
            ..*self
        }
    }
}

/// Step `t`'s two blocks of a slot holding `blocks` steps of `zeros.len()`
/// values each, step `t` in block `t % blocks`: the block it reads (step
/// `t - 1`'s, or `zeros` at `t == 0`) and the block it writes.
fn step_blocks<'a>(
    buf: &'a mut [f64],
    zeros: &'a [f64],
    t: usize,
    blocks: usize,
) -> (&'a [f64], &'a mut [f64]) {
    let len = zeros.len();
    let cur = t % blocks;
    if t == 0 {
        return (zeros, &mut buf[..len]);
    }
    let prev = (t - 1) % blocks;
    let (lo, hi) = buf.split_at_mut(prev.max(cur) * len);
    if prev < cur {
        (&lo[prev * len..(prev + 1) * len], &mut hi[..len])
    } else {
        (&hi[..len], &mut lo[cur * len..(cur + 1) * len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(l: &mut Lstm, x: &Seq, training: bool) -> Seq {
        let mut y = Seq::default();
        l.forward(x, training, &mut y);
        y
    }

    fn backward(l: &mut Lstm, grad: &Seq) -> Seq {
        let mut dx = Seq::default();
        l.backward(grad, Some(&mut dx));
        dx
    }

    #[test]
    fn output_shapes_respect_return_sequences() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4]),
            Matrix::column_vector(&[0.5, 0.6, 0.7, 0.8]),
        ]);
        let mut last_only = Lstm::new_seeded(1, 5, false, 1);
        assert_eq!(forward(&mut last_only, &x, false).shape(), (1, 2, 5));
        let mut all = Lstm::new_seeded(1, 5, true, 1);
        assert_eq!(forward(&mut all, &x, false).shape(), (4, 2, 5));
    }

    #[test]
    fn final_step_equal_between_modes() {
        let x = Seq::from_samples(&[Matrix::column_vector(&[0.3, -0.1, 0.7])]);
        let mut a = Lstm::new_seeded(1, 4, false, 9);
        let mut b = Lstm::new_seeded(1, 4, true, 9);
        let ya = forward(&mut a, &x, false);
        let yb = forward(&mut b, &x, false);
        assert_eq!(ya.step(0).as_slice(), yb.step(2).as_slice());
    }

    #[test]
    fn hidden_state_resets_between_calls() {
        let x = Seq::from_samples(&[Matrix::column_vector(&[0.5, 0.5])]);
        let mut l = Lstm::new_seeded(1, 3, false, 2);
        let y1 = forward(&mut l, &x, false);
        let y2 = forward(&mut l, &x, false);
        assert_eq!(y1, y2);
    }

    #[test]
    fn output_buffer_is_reshaped_across_calls() {
        // One `out` serves a long batch, a short one and the long one again.
        let long = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3, 0.4]),
            Matrix::column_vector(&[0.5, 0.6, 0.7, 0.8]),
        ]);
        let short = Seq::from_samples(&[Matrix::column_vector(&[0.9, -0.9])]);
        let mut l = Lstm::new_seeded(1, 3, true, 2);
        let mut out = Seq::default();
        l.forward(&long, false, &mut out);
        let first = out.clone();
        l.forward(&short, false, &mut out);
        assert_eq!(out, forward(&mut l, &short, false));
        l.forward(&long, false, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let l = Lstm::new_seeded(2, 3, false, 4);
        let b = l.params()[1];
        for j in 0..3 {
            assert_eq!(b[(0, j)], 0.0); // i
            assert_eq!(b[(0, 3 + j)], 1.0); // f
            assert_eq!(b[(0, 6 + j)], 0.0); // g
            assert_eq!(b[(0, 9 + j)], 0.0); // o
        }
    }

    #[test]
    fn outputs_bounded_by_gate_ranges() {
        // |h| <= |o| * |tanh(c)| < 1 for bounded inputs over few steps.
        let x = Seq::from_samples(&[Matrix::column_vector(&[10.0, -10.0, 10.0])]);
        let mut l = Lstm::new_seeded(1, 6, true, 7);
        let y = forward(&mut l, &x, false);
        assert!(y.as_slice().iter().all(|h| h.abs() < 3.0));
    }

    #[test]
    fn batch_independence() {
        // Processing two samples in one batch must equal processing them alone.
        let s1 = Matrix::column_vector(&[0.2, 0.4, -0.3]);
        let s2 = Matrix::column_vector(&[-0.6, 0.1, 0.9]);
        let mut l = Lstm::new_seeded(1, 4, false, 5);
        let joint = forward(&mut l, &Seq::from_samples(&[s1.clone(), s2.clone()]), false);
        let solo1 = forward(&mut l, &Seq::from_samples(&[s1]), false);
        let solo2 = forward(&mut l, &Seq::from_samples(&[s2]), false);
        let solo = solo1.as_slice().iter().chain(solo2.as_slice());
        for (j, s) in joint.as_slice().iter().zip(solo) {
            assert!((j - s).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_produces_input_grad_of_right_shape() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3]),
            Matrix::column_vector(&[0.4, 0.5, 0.6]),
        ]);
        let mut l = Lstm::new_seeded(1, 4, false, 6);
        let _ = forward(&mut l, &x, true);
        let dx = backward(&mut l, &Seq::single(Matrix::ones(2, 4)));
        assert_eq!(dx.shape(), (3, 2, 1));
        assert!(dx.is_finite());
    }

    #[test]
    fn eval_forward_does_not_clobber_training_cache() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3]),
            Matrix::column_vector(&[0.4, 0.5, 0.6]),
        ]);
        let mut with_eval = Lstm::new_seeded(1, 4, false, 6);
        let mut plain = Lstm::new_seeded(1, 4, false, 6);
        let _ = forward(&mut with_eval, &x, true);
        let _ = forward(&mut plain, &x, true);
        // An eval forward (e.g. a validation pass) between forward and
        // backward must not disturb the training cache.
        let other = Seq::from_samples(&[Matrix::column_vector(&[0.9, -0.9, 0.9, -0.9])]);
        let _ = forward(&mut with_eval, &other, false);
        let g = Seq::single(Matrix::ones(2, 4));
        assert_eq!(backward(&mut with_eval, &g), backward(&mut plain, &g));
    }

    #[test]
    fn backward_without_input_grad_accumulates_same_params() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3]),
            Matrix::column_vector(&[0.4, 0.5, 0.6]),
        ]);
        let g = Seq::single(Matrix::ones(2, 4));
        let mut a = Lstm::new_seeded(1, 4, false, 6);
        let mut b = Lstm::new_seeded(1, 4, false, 6);
        let _ = forward(&mut a, &x, true);
        let _ = forward(&mut b, &x, true);
        let _ = backward(&mut a, &g);
        b.backward(&g, None);
        let ga: Vec<f64> = a.params_and_grads_mut()[0].1.as_slice().to_vec();
        let gb: Vec<f64> = b.params_and_grads_mut()[0].1.as_slice().to_vec();
        assert_eq!(ga, gb);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_feature_width_panics() {
        let mut l = Lstm::new_seeded(2, 3, false, 1);
        let x = Seq::single(Matrix::ones(1, 5));
        let _ = forward(&mut l, &x, false);
    }
}

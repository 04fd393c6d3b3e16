//! LSTM layer with full backpropagation through time.
//!
//! The hot path is fused and allocation-free: the per-timestep state a
//! forward works in (pre-activations turned gates, cell states) lives in
//! slots of its model's arena, the input projection of a training forward
//! is one `(T*B) x 4H` GEMM over the input [`Seq`]'s own buffer, the
//! combined kernel is addressed through zero-copy `W_x`/`W_h` row views
//! instead of per-step `hstack`, and the output and the input gradient are
//! written into caller-owned `Seq`s. Every hidden state goes straight into
//! the output — all `T` under `return_sequences`, else the one step the
//! next step reads, overwritten once its `h @ W_h` product is done.
//!
//! A training forward keeps per step only what BPTT cannot recompute
//! exactly: the gates. The rest of its state — the cell state, rotating
//! through two blocks as an eval forward's does, tanh(c) and the zero
//! state — it works on in the backward scratch, which the next layer's
//! forward overwrites. Backward reads the input back from the caller and
//! never its output: it first replays all `T` cell updates from the kept
//! gates, then recomputes `tanh(c_{t-1})` and `h_{t-1} = o_{t-1} *
//! tanh(c_{t-1})` once per step, each with the forward's own kernel and
//! expression, so the bits are the ones a kept copy would give. So a layer
//! after it may write over its output (a training dropout does). The
//! replayed `c`, like the rest of the backward's state (`dh`, `dc`,
//! `dpre`, the staged `W^T` and the `grad_W` temporaries), is live only
//! while it runs, so it lives in the scratch the model lends each layer in
//! turn, not in the layer.
//!
//! The layer owns no buffer: it declares the blocks of each kind of slot
//! (`state_blocks`, `backward_blocks`), the model's plan sums them into
//! the arena's layout, and each pass carves the span it is handed by the
//! same declaration. An eval forward runs the same loop but projects the
//! input a register tile of rows at a time instead of all `T` steps in one
//! GEMM, so its slots do not grow with `T`; kernel rows are independent, so
//! its bits are the same. It may lie over a training step's cache: no
//! cache outlives the call whose backward reads it. Every sum and product
//! keeps the order of the original allocating implementation (see
//! DESIGN.md §6 for the summation-order argument); the gate nonlinearities
//! are [`vmath`]'s slice kernels, the workspace's one definition of σ and
//! tanh, applied band by band to the in-place gates.

use crate::arena::{carve, Slots};
use crate::seq::{Seq, SeqRef, Shape};
use evfad_tensor::{kernels, vmath, Initializer, MatMut, MatRef, Matrix};
use rand::Rng;

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
    /// Timesteps of the last training forward (0 = none since the last
    /// eval forward or release).
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

    /// Output shape for an input of `(T, B, _)`: `T x B x H`, or
    /// `1 x B x H` without `return_sequences`.
    pub(crate) fn output_shape(&self, (steps, batch, _): Shape) -> Shape {
        let out_steps = if self.return_sequences { steps } else { 1 };
        (out_steps, batch, self.hidden_dim)
    }

    /// The blocks a forward of `batch` rows works in beside its
    /// pre-activations: the cell state of step `t` in block `t % 2`, its
    /// tanh in block `t % 2`, the zero state.
    fn state_blocks(&self, batch: usize) -> [usize; 3] {
        let bh = batch * self.hidden_dim;
        [2 * bh, 2 * bh, bh]
    }

    /// The blocks of the backward scratch: one step's `dpre`, the `x^T` and
    /// `h^T @ dpre` staging, bias sums, the running `dh` and `dc`, `W_x^T`
    /// and `W_h^T`, the recomputed `h_{t-1}`, two steps of tanh(c), the
    /// zero state and the `T` steps of cell state replayed from the gates.
    fn backward_blocks(&self, steps: usize, batch: usize) -> [usize; 12] {
        let (i, h) = (self.input_dim, self.hidden_dim);
        let (bh, g) = (batch * h, 4 * h);
        [
            batch * g,
            i * g,
            h * g,
            g,
            bh,
            bh,
            g * i,
            g * h,
            bh,
            2 * bh,
            bh,
            steps * bh,
        ]
    }

    /// What the layer declares at an input of `(T, B, _)`. A training
    /// forward keeps only the gates of all `T` steps; it works on the rest
    /// of its state in the backward scratch, whose `dh`, `dc`, `h_{t-1}`,
    /// tanh(c) and zero-state blocks alone are as long.
    pub(crate) fn slots(&self, (steps, batch, _): Shape) -> Slots {
        let b4h = batch * 4 * self.hidden_dim;
        let state: usize = self.state_blocks(batch).iter().sum();
        Slots {
            cache: steps * b4h,
            scratch: self.backward_blocks(steps, batch).iter().sum(),
            eval: eval_group(steps, batch) * b4h + state,
        }
    }

    /// Forward pass over a batched sequence into `out` (reshaped to
    /// [`Lstm`]'s output shape, storage reused). A layer on its own has no
    /// arena: its slots are sized for this call and dropped with it.
    ///
    /// # Panics
    ///
    /// Panics if the input feature width differs from `input_dim`.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        let (t, b, h) = self.output_shape(input.shape());
        out.reshape(t, b, h);
        let slots = self.slots(input.shape());
        let (len, work) = match training {
            true => (slots.cache, slots.scratch),
            false => (slots.eval, 0),
        };
        let mut buf = vec![0.0; len + work];
        let (slots, scratch) = buf.split_at_mut(len);
        self.forward_in(
            input.as_seq_ref(),
            training,
            out.as_mut_slice(),
            slots,
            scratch,
        );
    }

    /// Forward pass into `out`, a buffer of the output shape. A training
    /// forward leaves every step's gates, the BPTT state its backward
    /// reads, in `slots` (at least the layer's training cache) and works on
    /// the rest — cell state, tanh(c), the zero state — in `scratch` (at
    /// least its backward scratch), which its backward recomputes. An eval
    /// forward works in `slots` alone, its eval slots.
    ///
    /// # Panics
    ///
    /// Panics if the input feature width differs from `input_dim`.
    pub(crate) fn forward_in(
        &mut self,
        input: SeqRef<'_>,
        training: bool,
        out: &mut [f64],
        slots: &mut [f64],
        scratch: &mut [f64],
    ) {
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
        // `t % group` of the pre-activations; the cell state of step `t`
        // and its tanh live in block `t % 2`, its h in block `t % h_blocks`
        // of `out`. A training forward keeps every step's gates for BPTT:
        // one GEMM, `T` blocks. An eval forward projects just enough steps
        // for a full register tile of rows.
        let (group, pre_all, state) = if training {
            (steps, &mut slots[..steps * b4h], scratch)
        } else {
            let group = eval_group(steps, batch);
            let (pre, state) = slots.split_at_mut(group * b4h);
            (group, pre, state)
        };
        let [c_all, tanh_all, zeros] = carve(state, self.state_blocks(batch));
        zeros.fill(0.0);

        // Input projection: accumulating the x-columns first and the
        // h-columns second reproduces the `[x|h] @ W` summation order, so
        // this is bitwise identical to the per-step concatenated product,
        // and each output row depends on its own input row only, so the
        // group size is not in the bits.
        let w_x = self.w.rows_view(0..i_dim);
        let w_h = self.w.rows_view(i_dim..i_dim + h_dim);
        let h_blocks = if self.return_sequences { steps } else { 1 };
        let h_buf = &mut out[..h_blocks * bh];

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
            let h_prev = match t {
                0 => &zeros[..],
                _ => &h_buf[(t - 1) % h_blocks * bh..][..bh],
            };
            kernels::matmul_acc_into(
                MatRef::new(batch, h_dim, h_prev),
                w_h,
                MatMut::new(batch, 4 * h_dim, pre_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, 4 * h_dim, pre_t), self.b.view());
            // Gate nonlinearities as slice passes over each row's in-place
            // bands, then the cell update.
            let (c_prev, c_t) = step_blocks(c_all, zeros, t, 2);
            for r in 0..batch {
                let gates = &mut pre_t[r * 4 * h_dim..(r + 1) * 4 * h_dim];
                vmath::sigmoid_f64(&mut gates[..2 * h_dim]);
                vmath::tanh_f64(&mut gates[2 * h_dim..3 * h_dim]);
                vmath::sigmoid_f64(&mut gates[3 * h_dim..]);
                let row = r * h_dim..(r + 1) * h_dim;
                cell_update(gates, &c_prev[row.clone()], &mut c_t[row]);
            }
            // tanh(c) for the whole step, then h = o ∘ tanh(c), over
            // h_{t-1} without `return_sequences` (its product above is
            // done).
            let tanh_t = &mut tanh_all[(t % 2) * bh..][..bh];
            tanh_of(c_t, tanh_t);
            let h_t = &mut h_buf[t % h_blocks * bh..][..bh];
            hidden_state(batch, h_dim, pre_t, tanh_t, h_t);
        }

        // An eval forward may overwrite a training cache's span.
        (self.cached_steps, self.cached_batch) = if training { (steps, batch) } else { (0, 0) };
    }

    /// Backward pass through time.
    ///
    /// `input` is the last training forward's, unchanged; `grad` has the
    /// output's shape and `cache` holds what that forward left in its
    /// slots. The output is not read: c and h are recomputed from the
    /// cached gates. Accumulates kernel/bias gradients and, when `dx` (a
    /// buffer of the input's shape) is given, writes the gradient with
    /// respect to the input sequence into it; `None` skips the
    /// `dpre @ W_x^T` product per step (the first layer of a model discards
    /// that gradient anyway). Everything the pass needs beyond its
    /// forward's cache lives in `scratch`, and each block is written before
    /// it is read.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward, or if `input` or
    /// `grad` is not of that pass's shape.
    pub(crate) fn backward(
        &mut self,
        input: SeqRef<'_>,
        grad: SeqRef<'_>,
        mut dx: Option<&mut [f64]>,
        cache: &[f64],
        scratch: &mut [f64],
    ) {
        let (steps, batch) = (self.cached_steps, self.cached_batch);
        assert!(steps > 0, "backward requires a training forward pass");
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let out_steps = if self.return_sequences { steps } else { 1 };
        input.expect_shape((steps, batch, i_dim), "LSTM input");
        grad.expect_shape((out_steps, batch, h_dim), "LSTM gradient");
        let (bi, bh, b4h) = (batch * i_dim, batch * h_dim, batch * 4 * h_dim);

        let pre_all = &cache[..steps * b4h];
        let [dpre, tw_x, tw_h, bsum, dh, dc, wxt, wht, h_prev, tanh_all, zeros, c_all] =
            carve(scratch, self.backward_blocks(steps, batch));
        dh.fill(0.0);
        dc.fill(0.0);
        zeros.fill(0.0);
        // Replay the forward's cell updates, step t's c into block t, and
        // the last step's tanh(c) into block `(T - 1) % 2`.
        for t in 0..steps {
            let (c_prev, c_t) = step_blocks(c_all, zeros, t, steps);
            for r in 0..batch {
                let gates = &pre_all[t * b4h + r * 4 * h_dim..][..4 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                cell_update(gates, &c_prev[row.clone()], &mut c_t[row]);
            }
        }
        let last = steps - 1;
        tanh_of(&c_all[last * bh..], &mut tanh_all[(last % 2) * bh..][..bh]);

        // Stage W_x^T / W_h^T once so the per-step `dpre @ W^T` products can
        // run through the streaming matmul kernel instead of the dot kernel
        // (bitwise identical: same terms in the same ascending-k order).
        let w_x = self.w.rows_view(0..i_dim);
        let w_h = self.w.rows_view(i_dim..i_dim + h_dim);
        kernels::transpose_into(w_x, MatMut::new(4 * h_dim, i_dim, wxt));
        kernels::transpose_into(w_h, MatMut::new(4 * h_dim, h_dim, wht));
        let wxt_ref = MatRef::new(4 * h_dim, i_dim, wxt);
        let wht_ref = MatRef::new(4 * h_dim, h_dim, wht);

        for t in (0..steps).rev() {
            // `grad` covers the last `grad.len()` steps (all of them, or
            // only the final one).
            if let Some(g_t) = (t + grad.len()).checked_sub(steps) {
                for (d, &g) in dh.iter_mut().zip(grad.step(g_t).as_slice()) {
                    *d += g;
                }
            }
            let pre_t = &pre_all[t * b4h..(t + 1) * b4h];
            // tanh(c_t) is in block `t % 2`: step T-1's from the replay,
            // step t+1 recomputed the others. Step t-1's goes into
            // the other block, from c_{t-1} by the forward's kernel, and
            // with it h_{t-1} by the forward's expression.
            let (lo, hi) = tanh_all.split_at_mut(bh);
            let (tanh_t, tanh_prev) = if t % 2 == 0 { (lo, hi) } else { (hi, lo) };
            let (c_prev, h_prev) = match t {
                0 => (&zeros[..], &zeros[..]),
                _ => {
                    let c_prev = &c_all[(t - 1) * bh..t * bh];
                    tanh_of(c_prev, tanh_prev);
                    let pre_prev = &pre_all[(t - 1) * b4h..t * b4h];
                    hidden_state(batch, h_dim, pre_prev, tanh_prev, h_prev);
                    (c_prev, &h_prev[..])
                }
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
            let dpre_ref = MatRef::new(batch, 4 * h_dim, dpre);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, &input.as_slice()[t * bi..(t + 1) * bi]),
                dpre_ref,
                MatMut::new(i_dim, 4 * h_dim, tw_x),
            );
            kernels::transpose_matmul_into(
                MatRef::new(batch, h_dim, h_prev),
                dpre_ref,
                MatMut::new(h_dim, 4 * h_dim, tw_h),
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
                let dx_t = MatMut::new(batch, i_dim, &mut dx[t * bi..(t + 1) * bi]);
                kernels::matmul_into(dpre_ref, wxt_ref, dx_t);
            }
            kernels::matmul_into(dpre_ref, wht_ref, MatMut::new(batch, h_dim, dh));
        }
    }

    /// Immutable access to `(kernel, bias)`.
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> [(&mut Matrix, &mut Matrix); 2] {
        [
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

    /// Forgets the pending training forward (a backward now needs a fresh
    /// one). Weights and their gradients stay.
    pub(crate) fn release_arenas(&mut self) {
        self.cached_steps = 0;
        self.cached_batch = 0;
    }

    /// The parameters without the gradients: what an eval forward reads,
    /// and nothing a trained layer merely carries.
    pub(crate) fn serving_copy(&self) -> Self {
        Self {
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: Matrix::default(),
            grad_b: Matrix::default(),
            cached_steps: 0,
            cached_batch: 0,
            ..*self
        }
    }
}

/// Steps an eval forward of `batch` rows projects per GEMM: enough for a
/// full register tile of rows.
fn eval_group(steps: usize, batch: usize) -> usize {
    kernels::TILE_ROWS.div_ceil(batch.max(1)).min(steps)
}

/// `tanh(c)` of one step's `B x H` block, by the one pass forward and
/// backward both run over such a block.
fn tanh_of(c: &[f64], tanh_c: &mut [f64]) {
    tanh_c.copy_from_slice(c);
    vmath::tanh_f64(tanh_c);
}

/// One row's cell update `c_t = f ∘ c_{t-1} + i ∘ g` from its activated
/// gates (`4H`, gate order `[i | f | g | o]`): the one expression the
/// forward runs and the backward replays.
#[inline]
fn cell_update(gates: &[f64], c_prev: &[f64], c_t: &mut [f64]) {
    let h_dim = c_t.len();
    let it = c_t
        .iter_mut()
        .zip(c_prev)
        .zip(&gates[..h_dim])
        .zip(&gates[h_dim..2 * h_dim])
        .zip(&gates[2 * h_dim..3 * h_dim]);
    for ((((ct, &cp), &i_v), &f_v), &g_v) in it {
        *ct = (f_v * cp) + (i_v * g_v);
    }
}

/// One step's `h = o ∘ tanh(c)` from its gates (`B x 4H`, `o` the last
/// band of each row) and `tanh(c)` (`B x H`).
fn hidden_state(batch: usize, h_dim: usize, gates: &[f64], tanh_c: &[f64], h: &mut [f64]) {
    for r in 0..batch {
        let go = &gates[(r * 4 + 3) * h_dim..(r + 1) * 4 * h_dim];
        let row = r * h_dim..(r + 1) * h_dim;
        for ((ht, &o_v), &tc) in h[row.clone()].iter_mut().zip(go).zip(&tanh_c[row]) {
            *ht = o_v * tc;
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
    use crate::layer::Layer;

    fn forward(l: &mut Lstm, x: &Seq, training: bool) -> Seq {
        let mut y = Seq::default();
        l.forward(x, training, &mut y);
        y
    }

    /// A training forward of `x` keeping its cache in a buffer of the
    /// declared length and working in a scratch of its own: the output and
    /// the cache.
    fn train_forward(l: &mut Lstm, x: &Seq) -> (Seq, Vec<f64>) {
        let slots = l.slots(x.shape());
        let (mut cache, mut scratch) = (vec![0.0; slots.cache], vec![0.0; slots.scratch]);
        let (t, b, h) = l.output_shape(x.shape());
        let mut y = Seq::default();
        y.reshape(t, b, h);
        l.forward_in(x.into(), true, y.as_mut_slice(), &mut cache, &mut scratch);
        (y, cache)
    }

    /// The backward of that forward in `scratch`; returns the input
    /// gradient.
    fn backward_in(
        l: &mut Lstm,
        x: &Seq,
        (_, cache): &mut (Seq, Vec<f64>),
        grad: &Seq,
        scratch: &mut [f64],
    ) -> Seq {
        let mut dx = x.clone();
        let dx_buf = Some(dx.as_mut_slice());
        l.backward(x.into(), grad.into(), dx_buf, cache, scratch);
        dx
    }

    /// [`backward_in`] a zeroed scratch of the declared length.
    fn backward(l: &mut Lstm, x: &Seq, fwd: &mut (Seq, Vec<f64>), grad: &Seq) -> Seq {
        let mut scratch = vec![0.0; l.slots(x.shape()).scratch];
        backward_in(l, x, fwd, grad, &mut scratch)
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
        let mut fwd = train_forward(&mut l, &x);
        let dx = backward(&mut l, &x, &mut fwd, &Seq::single(Matrix::ones(2, 4)));
        assert_eq!(dx.shape(), (3, 2, 1));
        assert!(dx.is_finite());
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
        let mut fwd = train_forward(&mut a, &x);
        let (_, cache) = train_forward(&mut b, &x);
        let _ = backward(&mut a, &x, &mut fwd, &g);
        let mut scratch = vec![0.0; b.slots(x.shape()).scratch];
        b.backward(x.as_seq_ref(), g.as_seq_ref(), None, &cache, &mut scratch);
        let ga: Vec<f64> = a.params_and_grads_mut()[0].1.as_slice().to_vec();
        let gb: Vec<f64> = b.params_and_grads_mut()[0].1.as_slice().to_vec();
        assert_eq!(ga, gb);
    }

    /// Two samples of three steps of three features: 18 input values, a
    /// length no slot of a 4-unit layer has.
    fn three_by_three() -> Seq {
        Seq::from_samples(&[
            Matrix::from_fn(3, 3, |t, i| 0.1 * (t + i) as f64),
            Matrix::from_fn(3, 3, |t, i| -0.2 * (t * i) as f64),
        ])
    }

    /// What a training forward of `T x B` rows keeps: the gates of every
    /// step. No hidden state, no cell state and no tanh(c): backward
    /// recomputes them.
    fn training_cache(l: &Lstm, x: &Seq) -> usize {
        x.len() * x.batch_size() * 4 * l.hidden_dim()
    }

    /// The blocks a backward works in, in order: one step's dpre, the x^T
    /// / h^T staging, bias sums, dh and dc, W_x^T and W_h^T, the
    /// recomputed h_{t-1}, two steps of tanh(c), the zero state and every
    /// step's cell state replayed from the gates.
    fn scratch_blocks(l: &Lstm, x: &Seq) -> [usize; 12] {
        let (t, b, i, h) = (x.len(), x.batch_size(), l.input_dim(), l.hidden_dim());
        [
            b * 4 * h,
            i * 4 * h,
            h * 4 * h,
            4 * h,
            b * h,
            b * h,
            4 * h * i,
            4 * h * h,
            b * h,
            2 * b * h,
            b * h,
            t * b * h,
        ]
    }

    fn assert_caches_only_its_own_state(return_sequences: bool) {
        let x = three_by_three();
        let mut l = Lstm::new_seeded(3, 4, return_sequences, 8);
        let (t, b) = (x.len(), x.batch_size());
        assert_eq!(l.backward_blocks(t, b), scratch_blocks(&l, &x));
        let slots = l.slots(x.shape());
        assert_eq!(slots.cache, training_cache(&l, &x));
        assert_eq!(slots.scratch, scratch_blocks(&l, &x).iter().sum::<usize>());
        // The forward's c, tanh(c) and zero state fit in that scratch.
        assert!(l.state_blocks(b).iter().sum::<usize>() <= slots.scratch);
        // Backward reads the input back from the caller and works in a
        // scratch of exactly the declared length (carving a shorter one
        // panics), poisoned: it writes every value before reading it, the
        // forward's state included.
        let mut fwd = train_forward(&mut l, &x);
        assert_eq!(fwd.1.len(), slots.cache);
        let grad = fwd.0.clone();
        let mut poisoned = vec![f64::NAN; slots.scratch];
        let dx = backward_in(&mut l, &x, &mut fwd, &grad, &mut poisoned);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.is_finite());
    }

    #[test]
    fn a_training_forward_with_return_sequences_keeps_no_input_or_output_copy() {
        assert_caches_only_its_own_state(true);
    }

    #[test]
    fn a_training_forward_without_return_sequences_keeps_no_input_or_output_copy() {
        assert_caches_only_its_own_state(false);
    }

    /// A training forward's parameter gradients and input gradient, as bit
    /// patterns, with the layer's output span NaN-poisoned between its
    /// forward and its backward when `poison`.
    fn gradient_bits(return_sequences: bool, poison: bool) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x = three_by_three();
        let mut layer = Layer::from(Lstm::new_seeded(3, 4, return_sequences, 8));
        let slots = layer.slots(x.shape());
        let (mut cache, mut scratch) = (vec![0.0; slots.cache], vec![0.0; slots.scratch]);
        let (t, b, h) = layer.output_shape(x.shape());
        let mut y = Seq::default();
        y.reshape(t, b, h);
        layer.forward_in(
            x.as_seq_ref(),
            true,
            y.as_mut_slice(),
            &mut cache,
            &mut scratch,
        );
        let grad = y.clone();
        if poison {
            y.as_mut_slice().fill(f64::NAN);
        }
        let mut dx = x.clone();
        let dx_buf = Some(dx.as_mut_slice());
        layer.backward(
            x.as_seq_ref(),
            y.as_seq_ref(),
            grad.as_seq_ref(),
            dx_buf,
            &mut cache,
            &mut scratch,
        );
        let mut out: Vec<Vec<u64>> = layer
            .params_and_grads_mut()
            .map(|(_, g)| bits(g.as_slice()))
            .collect();
        out.push(bits(dx.as_slice()));
        out
    }

    /// Backward recomputes every h and c it reads from the cached gates, so
    /// a layer after it may write over its output: NaN there between the
    /// forward and the backward leaves every gradient bit as it was.
    #[test]
    fn backward_reads_nothing_from_the_output_span() {
        for return_sequences in [true, false] {
            assert_eq!(
                gradient_bits(return_sequences, true),
                gradient_bits(return_sequences, false),
                "return_sequences = {return_sequences}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "LSTM input is not the forward's")]
    fn backward_on_another_batch_panics() {
        let x = three_by_three();
        let mut l = Lstm::new_seeded(3, 4, true, 8);
        let mut fwd = train_forward(&mut l, &x);
        let grad = fwd.0.clone();
        let shorter = Seq::from_samples(&[Matrix::ones(2, 3), Matrix::ones(2, 3)]);
        let _ = backward(&mut l, &shorter, &mut fwd, &grad);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_feature_width_panics() {
        let mut l = Lstm::new_seeded(2, 3, false, 1);
        let x = Seq::single(Matrix::ones(1, 5));
        let _ = forward(&mut l, &x, false);
    }
}

//! GRU layer with full backpropagation through time.
//!
//! Like [`Lstm`](crate::Lstm), the hot path is fused and workspace-backed:
//! both input projections (`x W_gx`, `x W_cx`) are one GEMM each over the
//! input [`Seq`]'s own buffer, the combined kernels are addressed through
//! zero-copy row views, the per-step state lives in reusable arena slots,
//! and the output and the input gradient are written into caller-owned
//! `Seq`s, which BPTT reads the input and the output back from. Sums and
//! products keep the order of the original allocating implementation; σ
//! runs as one [`vmath`] slice pass over a step's gate block and tanh as
//! one over its candidate block.

use crate::seq::Seq;
use crate::workspace::Workspace;
use evfad_tensor::{kernels, vmath, Initializer, MatMut, MatRef, Matrix};
use rand::Rng;

// Workspace slot layout; forward slots double as the BPTT cache and
// eval-mode forwards shift to `EVAL_BASE`.
const PREG_ALL: usize = 0; // (T*B) x 2H  gate pre-activations, then [z|r]
const CAND_ALL: usize = 1; // (T*B) x H   candidate pre, then tanh (h~)
const RH_ALL: usize = 2; // (T*B) x H   r ∘ h_prev
const H_ALL: usize = 3; // (T*B) x H   hidden states (empty with return_sequences)
const ZEROS: usize = 4; // B x H       zero h_-1 (re-zeroed per call)
const DH: usize = 5; // B x H       running dh
const DHP: usize = 6; // B x H       dh_prev accumulator
const DPRE_C: usize = 7; // B x H
const DPRE_G: usize = 8; // B x 2H
const TGX: usize = 9; // I x 2H      x^T @ dpre_g staging
const TGH: usize = 10; // H x 2H      h^T @ dpre_g staging
const TCX: usize = 11; // I x H       x^T @ dpre_c staging
const TCH: usize = 12; // H x H       rh^T @ dpre_c staging
const BSUM_G: usize = 13; // 1 x 2H
const BSUM_C: usize = 14; // 1 x H
const DRH: usize = 15; // B x H
const DXG: usize = 16; // B x I       gate-path input gradient staging
const EVAL_BASE: usize = 24;

/// A Gated Recurrent Unit layer (Cho et al., 2014).
///
/// ```text
/// z = sigmoid([x | h] W_z + b_z)      r = sigmoid([x | h] W_r + b_r)
/// h~ = tanh([x | r∘h] W_h + b_h)      h' = (1 - z)∘h + z∘h~
/// ```
///
/// Provided as the architecture-ablation counterpart to [`Lstm`](crate::Lstm)
/// (the paper motivates LSTMs; GRUs are the standard lighter alternative in
/// the related federated-forecasting literature). API and `return_sequences`
/// semantics match [`Lstm`](crate::Lstm).
///
/// # Examples
///
/// ```
/// use evfad_nn::{Gru, Seq};
/// use evfad_tensor::Matrix;
///
/// let mut gru = Gru::new_seeded(1, 6, false, 3);
/// let x = Seq::from_samples(&[Matrix::column_vector(&[0.1, -0.4, 0.2])]);
/// let mut h = Seq::default();
/// gru.forward(&x, false, &mut h);
/// assert_eq!(h.shape(), (1, 1, 6));
/// ```
#[derive(Debug, Clone)]
pub struct Gru {
    input_dim: usize,
    hidden_dim: usize,
    return_sequences: bool,
    /// Gate kernel over `[x | h]`, shape `(input+hidden) x 2*hidden`,
    /// gate order `[z | r]`.
    w_gates: Matrix,
    /// Gate bias, `1 x 2*hidden`.
    b_gates: Matrix,
    /// Candidate kernel over `[x | r∘h]`, shape `(input+hidden) x hidden`.
    w_cand: Matrix,
    /// Candidate bias, `1 x hidden`.
    b_cand: Matrix,
    grad_w_gates: Matrix,
    grad_b_gates: Matrix,
    grad_w_cand: Matrix,
    grad_b_cand: Matrix,
    ws: Workspace,
    cached_steps: usize,
    cached_batch: usize,
}

impl Gru {
    /// Creates a GRU seeded from the thread RNG; prefer [`Gru::new_seeded`].
    pub fn new(input_dim: usize, hidden_dim: usize, return_sequences: bool) -> Self {
        Self::new_with_rng(
            input_dim,
            hidden_dim,
            return_sequences,
            &mut rand::thread_rng(),
        )
    }

    /// Creates a GRU initialised from `rng` (Glorot-uniform kernels).
    pub fn new_with_rng(
        input_dim: usize,
        hidden_dim: usize,
        return_sequences: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let z_dim = input_dim + hidden_dim;
        Self {
            input_dim,
            hidden_dim,
            return_sequences,
            w_gates: Initializer::GlorotUniform.init(z_dim, 2 * hidden_dim, rng),
            b_gates: Matrix::zeros(1, 2 * hidden_dim),
            w_cand: Initializer::GlorotUniform.init(z_dim, hidden_dim, rng),
            b_cand: Matrix::zeros(1, hidden_dim),
            grad_w_gates: Matrix::zeros(z_dim, 2 * hidden_dim),
            grad_b_gates: Matrix::zeros(1, 2 * hidden_dim),
            grad_w_cand: Matrix::zeros(z_dim, hidden_dim),
            grad_b_cand: Matrix::zeros(1, hidden_dim),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
        }
    }

    /// Creates a GRU initialised from a fixed seed.
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
        let fresh = Gru::new_with_rng(self.input_dim, self.hidden_dim, self.return_sequences, rng);
        self.w_gates = fresh.w_gates;
        self.b_gates = fresh.b_gates;
        self.w_cand = fresh.w_cand;
        self.b_cand = fresh.b_cand;
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

    /// Forward pass into `out`; shapes, caching and the eval slot range are
    /// as for [`Lstm::forward`](crate::Lstm::forward).
    ///
    /// # Panics
    ///
    /// Panics if the input feature width differs from `input_dim`.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        assert_eq!(
            input.features(),
            self.input_dim,
            "GRU expected {} input features, got {}",
            self.input_dim,
            input.features()
        );
        let base = if training { 0 } else { EVAL_BASE };
        let steps = input.len();
        let batch = input.batch_size();
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let (bh, b2h) = (batch * h_dim, batch * 2 * h_dim);

        let mut preg_all = self.ws.take(base + PREG_ALL, steps * b2h);
        let mut cand_all = self.ws.take(base + CAND_ALL, steps * bh);
        let mut rh_all = self.ws.take(base + RH_ALL, steps * bh);
        let seq = self.return_sequences;
        let h_len = if seq { 0 } else { steps * bh };
        let mut h_all = self.ws.take(base + H_ALL, h_len);
        let mut zeros = self.ws.take(base + ZEROS, bh);
        zeros.fill(0.0);
        out.reshape(if seq { steps } else { 1 }, batch, h_dim);
        let h_buf: &mut [f64] = if seq { out.as_mut_slice() } else { &mut h_all };

        // Batched input projections for both kernels (the x-columns of the
        // combined products accumulate first, so this is bitwise identical
        // to the per-step `[x|h] @ W` / `[x|r∘h] @ W` forms).
        kernels::matmul_into(
            input.view(),
            self.w_gates.rows_view(0..i_dim),
            MatMut::new(steps * batch, 2 * h_dim, &mut preg_all),
        );
        kernels::matmul_into(
            input.view(),
            self.w_cand.rows_view(0..i_dim),
            MatMut::new(steps * batch, h_dim, &mut cand_all),
        );
        let w_gh = self.w_gates.rows_view(i_dim..i_dim + h_dim);
        let w_ch = self.w_cand.rows_view(i_dim..i_dim + h_dim);

        for t in 0..steps {
            let (h_done, h_rest) = h_buf.split_at_mut(t * bh);
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_done[(t - 1) * bh..]
            };
            let preg_t = &mut preg_all[t * b2h..(t + 1) * b2h];
            kernels::matmul_acc_into(
                MatRef::new(batch, h_dim, h_prev),
                w_gh,
                MatMut::new(batch, 2 * h_dim, preg_t),
            );
            kernels::add_row_broadcast_into(
                MatMut::new(batch, 2 * h_dim, preg_t),
                self.b_gates.view(),
            );
            vmath::sigmoid_f64(preg_t);
            let rh_t = &mut rh_all[t * bh..(t + 1) * bh];
            for r in 0..batch {
                let r_gate = &preg_t[(r * 2 + 1) * h_dim..(r + 1) * 2 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                for ((rh, &r_v), &hp) in rh_t[row.clone()].iter_mut().zip(r_gate).zip(&h_prev[row])
                {
                    *rh = r_v * hp;
                }
            }
            let cand_t = &mut cand_all[t * bh..(t + 1) * bh];
            kernels::matmul_acc_into(
                MatRef::new(batch, h_dim, rh_t),
                w_ch,
                MatMut::new(batch, h_dim, cand_t),
            );
            kernels::add_row_broadcast_into(MatMut::new(batch, h_dim, cand_t), self.b_cand.view());
            vmath::tanh_f64(cand_t);
            let preg_t = &preg_all[t * b2h..(t + 1) * b2h];
            let h_t = &mut h_rest[..bh];
            for r in 0..batch {
                let gates = &preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                let it = gates[..h_dim]
                    .iter()
                    .zip(&cand_t[row.clone()])
                    .zip(&h_prev[row.clone()])
                    .zip(&mut h_t[row]);
                for (((&z_v, &ht_v), &hp), ht) in it {
                    // h' = (1 - z)∘h_prev + z∘h~
                    *ht = (hp * (1.0 - z_v)) + (ht_v * z_v);
                }
            }
        }

        if !seq {
            out.as_mut_slice().copy_from_slice(&h_all[h_len - bh..]);
        }

        self.ws.put(base + PREG_ALL, preg_all);
        self.ws.put(base + CAND_ALL, cand_all);
        self.ws.put(base + RH_ALL, rh_all);
        self.ws.put(base + H_ALL, h_all);
        self.ws.put(base + ZEROS, zeros);
        if training {
            self.cached_steps = steps;
            self.cached_batch = batch;
        }
    }

    /// Backward pass through time; see [`Lstm::backward`](crate::Lstm::backward)
    /// for the operands' shape contract and the optional input gradient.
    ///
    /// # Panics
    ///
    /// Panics as [`Lstm::backward`](crate::Lstm::backward) does.
    pub fn backward(&mut self, input: &Seq, output: &Seq, grad: &Seq, mut dx: Option<&mut Seq>) {
        let (steps, batch) = (self.cached_steps, self.cached_batch);
        assert!(steps > 0, "backward requires a training forward pass");
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let seq = self.return_sequences;
        let out_steps = if seq { steps } else { 1 };
        input.expect_shape((steps, batch, i_dim), "GRU input");
        output.expect_shape((out_steps, batch, h_dim), "GRU output");
        assert_eq!(grad.len(), out_steps, "gradient length mismatch");
        let (bi, bh, b2h) = (batch * i_dim, batch * h_dim, batch * 2 * h_dim);

        let preg_all = self.ws.take(PREG_ALL, steps * b2h);
        let cand_all = self.ws.take(CAND_ALL, steps * bh);
        let rh_all = self.ws.take(RH_ALL, steps * bh);
        let h_all = self.ws.take(H_ALL, if seq { 0 } else { steps * bh });
        let h_seq = if seq { output.as_slice() } else { &h_all[..] };
        let zeros = self.ws.take(ZEROS, bh);
        let mut dh = self.ws.take(DH, bh);
        let mut dhp = self.ws.take(DHP, bh);
        let mut dpre_c = self.ws.take(DPRE_C, bh);
        let mut dpre_g = self.ws.take(DPRE_G, b2h);
        let mut tgx = self.ws.take(TGX, i_dim * 2 * h_dim);
        let mut tgh = self.ws.take(TGH, h_dim * 2 * h_dim);
        let mut tcx = self.ws.take(TCX, i_dim * h_dim);
        let mut tch = self.ws.take(TCH, h_dim * h_dim);
        let mut bsum_g = self.ws.take(BSUM_G, 2 * h_dim);
        let mut bsum_c = self.ws.take(BSUM_C, h_dim);
        let mut drh = self.ws.take(DRH, bh);
        let mut dxg = self.ws.take(DXG, bi);
        dh.fill(0.0);

        let w_gx = self.w_gates.rows_view(0..i_dim);
        let w_gh = self.w_gates.rows_view(i_dim..i_dim + h_dim);
        let w_cx = self.w_cand.rows_view(0..i_dim);
        let w_ch = self.w_cand.rows_view(i_dim..i_dim + h_dim);
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
            let preg_t = &preg_all[t * b2h..(t + 1) * b2h];
            let cand_t = &cand_all[t * bh..(t + 1) * bh];
            let rh_t = &rh_all[t * bh..(t + 1) * bh];
            let x_t = &input.as_slice()[t * bi..(t + 1) * bi];
            let h_prev = if t == 0 {
                &zeros[..]
            } else {
                &h_seq[(t - 1) * bh..t * bh]
            };
            // Candidate path: dpre_c = (dh∘z) * (1 - h~²), dh_prev = dh∘(1-z).
            for r in 0..batch {
                let gates = &preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                let row = r * h_dim..(r + 1) * h_dim;
                let it = gates[..h_dim]
                    .iter()
                    .zip(&cand_t[row.clone()])
                    .zip(&dh[row.clone()])
                    .zip(&mut dpre_c[row.clone()])
                    .zip(&mut dhp[row]);
                for ((((&z_v, &ht_v), &dh_v), dpc), dp) in it {
                    *dpc = (dh_v * z_v) * (1.0 - ht_v * ht_v);
                    *dp = dh_v * (1.0 - z_v);
                }
            }
            let dpre_c_ref = MatRef::new(batch, h_dim, &dpre_c);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, x_t),
                dpre_c_ref,
                MatMut::new(i_dim, h_dim, &mut tcx),
            );
            kernels::transpose_matmul_into(
                MatRef::new(batch, h_dim, rh_t),
                dpre_c_ref,
                MatMut::new(h_dim, h_dim, &mut tch),
            );
            let gwc = self.grad_w_cand.as_mut_slice();
            for (g, &v) in gwc[..i_dim * h_dim].iter_mut().zip(tcx.iter()) {
                *g += v;
            }
            for (g, &v) in gwc[i_dim * h_dim..].iter_mut().zip(tch.iter()) {
                *g += v;
            }
            bsum_c.fill(0.0);
            for r in 0..batch {
                let row = &dpre_c[r * h_dim..(r + 1) * h_dim];
                for (o, &x) in bsum_c.iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            for (g, &v) in self
                .grad_b_cand
                .as_mut_slice()
                .iter_mut()
                .zip(bsum_c.iter())
            {
                *g += v;
            }
            kernels::matmul_transpose_into(dpre_c_ref, w_ch, MatMut::new(batch, h_dim, &mut drh));
            // dh_prev += drh∘r; gate gradients from dz and dr = drh∘h_prev.
            for r in 0..batch {
                let gates = &preg_t[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                let dpre_row = &mut dpre_g[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                for j in 0..h_dim {
                    let idx = r * h_dim + j;
                    let (z_v, r_v) = (gates[j], gates[h_dim + j]);
                    let drh_v = drh[idx];
                    dhp[idx] += drh_v * r_v;
                    let dz_v = dh[idx] * (cand_t[idx] - h_prev[idx]);
                    dpre_row[j] = (dz_v * z_v) * (1.0 - z_v);
                    let dr_v = drh_v * h_prev[idx];
                    dpre_row[h_dim + j] = (dr_v * r_v) * (1.0 - r_v);
                }
            }
            let dpre_g_ref = MatRef::new(batch, 2 * h_dim, &dpre_g);
            kernels::transpose_matmul_into(
                MatRef::new(batch, i_dim, x_t),
                dpre_g_ref,
                MatMut::new(i_dim, 2 * h_dim, &mut tgx),
            );
            kernels::transpose_matmul_into(
                MatRef::new(batch, h_dim, h_prev),
                dpre_g_ref,
                MatMut::new(h_dim, 2 * h_dim, &mut tgh),
            );
            let gwg = self.grad_w_gates.as_mut_slice();
            for (g, &v) in gwg[..i_dim * 2 * h_dim].iter_mut().zip(tgx.iter()) {
                *g += v;
            }
            for (g, &v) in gwg[i_dim * 2 * h_dim..].iter_mut().zip(tgh.iter()) {
                *g += v;
            }
            bsum_g.fill(0.0);
            for r in 0..batch {
                let row = &dpre_g[r * 2 * h_dim..(r + 1) * 2 * h_dim];
                for (o, &x) in bsum_g.iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            for (g, &v) in self
                .grad_b_gates
                .as_mut_slice()
                .iter_mut()
                .zip(bsum_g.iter())
            {
                *g += v;
            }
            if let Some(dx) = dx.as_deref_mut() {
                // dx_t = dx_c + dx_g, summed in that order.
                let dx_t = dx.step_data_mut(t);
                kernels::matmul_transpose_into(dpre_c_ref, w_cx, MatMut::new(batch, i_dim, dx_t));
                kernels::matmul_transpose_into(
                    dpre_g_ref,
                    w_gx,
                    MatMut::new(batch, i_dim, &mut dxg),
                );
                for (o, &v) in dx_t.iter_mut().zip(dxg.iter()) {
                    *o += v;
                }
            }
            // dh_prev += dpre_g @ W_gh^T (full dots, then added).
            kernels::matmul_transpose_acc_into(
                dpre_g_ref,
                w_gh,
                MatMut::new(batch, h_dim, &mut dhp),
            );
            std::mem::swap(&mut dh, &mut dhp);
        }

        self.ws.put(PREG_ALL, preg_all);
        self.ws.put(CAND_ALL, cand_all);
        self.ws.put(RH_ALL, rh_all);
        self.ws.put(H_ALL, h_all);
        self.ws.put(ZEROS, zeros);
        self.ws.put(DH, dh);
        self.ws.put(DHP, dhp);
        self.ws.put(DPRE_C, dpre_c);
        self.ws.put(DPRE_G, dpre_g);
        self.ws.put(TGX, tgx);
        self.ws.put(TGH, tgh);
        self.ws.put(TCX, tcx);
        self.ws.put(TCH, tch);
        self.ws.put(BSUM_G, bsum_g);
        self.ws.put(BSUM_C, bsum_c);
        self.ws.put(DRH, drh);
        self.ws.put(DXG, dxg);
    }

    /// Immutable access to the parameter tensors
    /// (`w_gates, b_gates, w_cand, b_cand`).
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w_gates, &self.b_gates, &self.w_cand, &self.b_cand]
    }

    /// Parameter/gradient pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.w_gates, &mut self.grad_w_gates),
            (&mut self.b_gates, &mut self.grad_b_gates),
            (&mut self.w_cand, &mut self.grad_w_cand),
            (&mut self.b_cand, &mut self.grad_b_cand),
        ]
    }

    /// Clears accumulated gradients (in place once correctly shaped).
    pub fn zero_grads(&mut self) {
        let pairs = [
            (&mut self.grad_w_gates, self.w_gates.shape()),
            (&mut self.grad_b_gates, self.b_gates.shape()),
            (&mut self.grad_w_cand, self.w_cand.shape()),
            (&mut self.grad_b_cand, self.b_cand.shape()),
        ];
        for (grad, shape) in pairs {
            if grad.shape() == shape {
                grad.as_mut_slice().fill(0.0);
            } else {
                *grad = Matrix::zeros(shape.0, shape.1);
            }
        }
    }

    /// Drops the workspace, and with it any pending training cache (a
    /// backward now needs a fresh training forward). Weights and their
    /// gradients stay; the next forward regrows the slots it uses.
    pub(crate) fn release_arenas(&mut self) {
        self.ws = Workspace::new();
        self.cached_steps = 0;
        self.cached_batch = 0;
    }

    /// The parameters without the gradients or the workspace: what an
    /// eval forward reads, and nothing a trained layer merely carries.
    pub(crate) fn serving_copy(&self) -> Self {
        Self {
            w_gates: self.w_gates.clone(),
            b_gates: self.b_gates.clone(),
            w_cand: self.w_cand.clone(),
            b_cand: self.b_cand.clone(),
            grad_w_gates: Matrix::default(),
            grad_b_gates: Matrix::default(),
            grad_w_cand: Matrix::default(),
            grad_b_cand: Matrix::default(),
            ws: Workspace::new(),
            cached_steps: 0,
            cached_batch: 0,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(g: &mut Gru, x: &Seq, training: bool) -> Seq {
        let mut y = Seq::default();
        g.forward(x, training, &mut y);
        y
    }

    #[test]
    fn output_shapes() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3]),
            Matrix::column_vector(&[0.4, 0.5, 0.6]),
        ]);
        let mut last = Gru::new_seeded(1, 4, false, 1);
        assert_eq!(forward(&mut last, &x, false).shape(), (1, 2, 4));
        let mut all = Gru::new_seeded(1, 4, true, 1);
        assert_eq!(forward(&mut all, &x, false).shape(), (3, 2, 4));
    }

    #[test]
    fn final_step_equal_between_modes() {
        let x = Seq::from_samples(&[Matrix::column_vector(&[0.3, -0.1, 0.7])]);
        let mut a = Gru::new_seeded(1, 4, false, 9);
        let mut b = Gru::new_seeded(1, 4, true, 9);
        assert_eq!(
            forward(&mut a, &x, false).step(0).as_slice(),
            forward(&mut b, &x, false).step(2).as_slice()
        );
    }

    #[test]
    fn batch_independence() {
        let s1 = Matrix::column_vector(&[0.2, 0.4, -0.3]);
        let s2 = Matrix::column_vector(&[-0.6, 0.1, 0.9]);
        let mut g = Gru::new_seeded(1, 4, false, 5);
        let joint = forward(&mut g, &Seq::from_samples(&[s1.clone(), s2.clone()]), false);
        let solo1 = forward(&mut g, &Seq::from_samples(&[s1]), false);
        let solo2 = forward(&mut g, &Seq::from_samples(&[s2]), false);
        let solo = solo1.as_slice().iter().chain(solo2.as_slice());
        for (j, s) in joint.as_slice().iter().zip(solo) {
            assert!((j - s).abs() < 1e-12);
        }
    }

    #[test]
    fn outputs_bounded() {
        // h is a convex combination of tanh values: |h| < 1 always.
        let x = Seq::from_samples(&[Matrix::column_vector(&[50.0, -50.0, 50.0, -50.0])]);
        let mut g = Gru::new_seeded(1, 6, true, 7);
        let y = forward(&mut g, &x, false);
        assert!(y.as_slice().iter().all(|h| h.abs() <= 1.0));
    }

    #[test]
    fn eval_forward_does_not_clobber_training_cache() {
        let x = Seq::from_samples(&[
            Matrix::column_vector(&[0.1, 0.2, 0.3]),
            Matrix::column_vector(&[0.4, 0.5, 0.6]),
        ]);
        let mut with_eval = Gru::new_seeded(1, 4, false, 6);
        let mut plain = Gru::new_seeded(1, 4, false, 6);
        let y = forward(&mut with_eval, &x, true);
        let _ = forward(&mut plain, &x, true);
        let other = Seq::from_samples(&[Matrix::column_vector(&[0.9, -0.9])]);
        let _ = forward(&mut with_eval, &other, false);
        let g = Seq::single(Matrix::ones(2, 4));
        let (mut dx1, mut dx2) = (Seq::default(), Seq::default());
        with_eval.backward(&x, &y, &g, Some(&mut dx1));
        plain.backward(&x, &y, &g, Some(&mut dx2));
        assert_eq!(dx1.shape(), (3, 2, 1));
        assert_eq!(dx1, dx2);
    }

    #[test]
    fn a_training_forward_keeps_no_input_or_output_copy() {
        // 2 samples x 3 steps x 3 features: 18 input values, a length no
        // slot of a 4-unit layer has.
        let x = Seq::from_samples(&[
            Matrix::from_fn(3, 3, |t, i| 0.1 * (t + i) as f64),
            Matrix::from_fn(3, 3, |t, i| -0.2 * (t * i) as f64),
        ]);
        let (t, b, h) = (3, 2, 4);
        for return_sequences in [true, false] {
            let mut g = Gru::new_seeded(3, h, return_sequences, 8);
            let y = forward(&mut g, &x, true);
            // In slot order: gate pre-activations, candidates and r∘h_prev
            // for every step, every hidden state only when they are not the
            // output, the zero state.
            let mut slots = vec![t * b * 2 * h, t * b * h, t * b * h, b * h];
            if !return_sequences {
                slots.insert(3, t * b * h);
            }
            assert_eq!(g.ws.slot_lens(), slots);
            assert_eq!(g.ws.allocated_bytes(), 8 * slots.iter().sum::<usize>());
            assert!(!slots.contains(&x.element_count()), "a copy of the input");
            let mut dx = Seq::default();
            g.backward(&x, &y, &y, Some(&mut dx));
            assert_eq!(dx.shape(), x.shape());
        }
    }

    #[test]
    fn param_count() {
        let g = Gru::new_seeded(1, 5, false, 0);
        // w_gates (6x10) + b_gates (10) + w_cand (6x5) + b_cand (5).
        let total: usize = g.params().iter().map(|m| m.len()).sum();
        assert_eq!(total, 60 + 10 + 30 + 5);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_width_panics() {
        let mut g = Gru::new_seeded(2, 3, false, 1);
        let _ = forward(&mut g, &Seq::single(Matrix::ones(1, 5)), false);
    }
}

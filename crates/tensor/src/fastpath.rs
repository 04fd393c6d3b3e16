//! Serving-side GEMM operands: the int8 lane, and a frozen f64 operand
//! that only the benchmark probes still call.
//!
//! Everything in [`kernels`](crate::kernels) is bitwise-pinned: training,
//! the golden fixture, and the federation all depend on one exact
//! summation order. The f64 serving snapshot runs the layers' own eval
//! forward over those kernels, so nothing here is on its path:
//!
//! - [`PackedB`] owns one row-major f64 operand, and
//!   [`matmul_into_blocked`] runs the exact
//!   [`kernels::matmul_into`](crate::kernels::matmul_into) over it. They
//!   have no product caller; `bench_e2e`'s `tensor.fastpath_gflops` probe
//!   is the last one, and they go when it does.
//! - The int8 lane is *always* approximate and therefore never routed
//!   implicitly: callers opt in per model snapshot
//!   (`evfad_nn::infer::Precision::Int8`, which then packs
//!   [`QuantizedPanel`]s), and the bench gates assert its end-to-end error
//!   bounds.
//!
//! # The int8 lane
//!
//! Weights are quantized per tensor with the shared EVQ8 range fold
//! ([`QuantRange`]) — the *same* fold the federated uplink codec uses —
//! and stored as one byte per coefficient. Activations stay `f32` and the
//! accumulate is `f32`. The kernel never materialises dequantized weights;
//! it uses the affine decomposition
//!
//! ```text
//! out[i][j] = Σ_k a[i][k]·(min + step·code[k][j])
//!           = min·(Σ_k a[i][k]) + step·(Σ_k a[i][k]·code[k][j])
//! ```
//!
//! so the inner loop is a pure f32 dot against the *codes*, held in
//! `NR_Q8`-wide column panels so the micro-kernel reads one contiguous
//! vector per `k` step. The byte codes are additionally mirrored as f32 at
//! pack time — integer-valued, still not dequantized — because a per-step
//! `u8 → f32` widen in the inner loop defeats vectorisation; the one-byte
//! form remains the storage/wire representation. The per-row input sum
//! `Σ_k a[i][k]` is computed once and shared by every output column.
//! Per-output error is bounded by `Σ_k |a[i][k]| · step/2` from
//! quantization plus `f32` rounding — the serving tier's bench gate
//! measures and asserts the end-to-end consequence of that bound.

use crate::kernels::{MatMut, MatRef};
use crate::quant::QuantRange;

/// Rows of `A` per register tile (independent FMA chains per column).
const MR: usize = 4;
/// Panel width for int8 code operands (one register tile of f32 lanes).
const NR_Q8: usize = 16;

/// A frozen right-hand GEMM operand: an owned row-major `k × n` copy.
/// (The names `PackedB`, `pack` and `*_blocked` outlived the packed FMA
/// tile they were coined for — the exact tile measured faster — because
/// `bench_e2e`'s probes call them; no product code does.)
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    orig: Vec<f64>,
}

impl PackedB {
    /// Copies a row-major `k × n` operand.
    pub fn pack(b: MatRef<'_>) -> Self {
        Self {
            k: b.rows(),
            n: b.cols(),
            orig: b.as_slice().to_vec(),
        }
    }

    /// The row-major operand.
    fn orig_view(&self) -> MatRef<'_> {
        MatRef::new(self.k, self.n, &self.orig)
    }
}

/// `out = a · b`: the exact [`kernels::matmul_into`](crate::kernels::matmul_into).
pub fn matmul_into_blocked(a: MatRef<'_>, b: &PackedB, out: MatMut<'_>) {
    crate::kernels::matmul_into(a, b.orig_view(), out);
}

/// A right-hand GEMM operand quantized to int8 with the shared EVQ8 range
/// fold, packed into register-tile panels for the f32-accumulate kernels.
///
/// Codes are stored as consecutive `NR_Q8`-wide (16) column panels, each
/// row-major `k × w`: `codes[j0·k + kk·w + jj]` is coefficient
/// `(kk, j0 + jj)`. The range parameters are carried in `f32` because the
/// lane accumulates in `f32`; `max_error` reports the f64 half-step bound
/// of the underlying fold. Intended for *finite* inference weights —
/// non-finite coefficients would already have poisoned training long
/// before serving; one that gets here packs as code 0, as on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPanel {
    k: usize,
    n: usize,
    min: f32,
    step: f32,
    /// Register-tile code panels (see struct docs for the layout). This
    /// is the storage/wire representation — one byte per coefficient.
    codes: Vec<u8>,
    /// The same codes widened to f32 at pack time, identical layout: the
    /// kernel's operand. Integer-valued (0..=255), *not* dequantized —
    /// the affine decomposition still happens in the epilogue. Trades
    /// 4 bytes/coefficient of snapshot memory for a convert-free inner
    /// loop (a per-`k`-step `u8 → f32` widen defeats vectorisation).
    codes_f32: Vec<f32>,
    /// Half-step round-trip bound of the f64 fold.
    max_error: f64,
}

impl QuantizedPanel {
    /// Quantizes and packs a row-major `k × n` operand.
    pub fn quantize(b: MatRef<'_>) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let src = b.as_slice();
        let range = QuantRange::from_values(src);
        let mut codes = vec![0u8; k * n];
        let mut j0 = 0;
        while j0 < n {
            let w = NR_Q8.min(n - j0);
            let dst = &mut codes[j0 * k..j0 * k + k * w];
            for (kk, seg) in dst.chunks_exact_mut(w).enumerate() {
                range.encode_slice(&src[kk * n + j0..kk * n + j0 + w], seg, |_, _| {});
            }
            j0 += w;
        }
        let codes_f32 = codes.iter().map(|&c| f32::from(c)).collect();
        Self {
            k,
            n,
            min: range.min as f32,
            step: range.step as f32,
            codes,
            codes_f32,
            max_error: range.max_error(),
        }
    }

    /// Contraction depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Worst-case absolute weight round-trip error (half a quantization
    /// step).
    pub fn max_error(&self) -> f64 {
        self.max_error
    }

    /// Payload bytes of the packed codes (one per coefficient).
    pub fn byte_size(&self) -> usize {
        self.codes.len()
    }
}

/// Reassociated f32 sum of a row (four independent chains) — the shared
/// `Σ_k a[i][k]` term of the int8 decomposition.
#[inline]
fn row_sum_f32(a: &[f32]) -> f32 {
    let mut s0 = 0.0f32;
    let mut s1 = 0.0f32;
    let mut s2 = 0.0f32;
    let mut s3 = 0.0f32;
    let mut ch = a.chunks_exact(4);
    for p in &mut ch {
        s0 += p[0];
        s1 += p[1];
        s2 += p[2];
        s3 += p[3];
    }
    for &v in ch.remainder() {
        s0 += v;
    }
    (s0 + s1) + (s2 + s3)
}

/// Int8 GEMM core: an `MR`-row register-tiled micro-kernel, `NR_Q8`
/// columns wide, accumulating `Σ_k a·code` in f32 and applying the affine
/// decomposition in the writeback, which stores straight into the
/// row-major output (`a (rows × k) · dequant(b)`), adding when `ACC`.
/// Weights are never materialised. The store is a const flag rather than a
/// per-element `FnMut(i, j, v)` epilogue on purpose: the closure blocks the
/// writeback from vectorizing and costs the micro-kernel about 3×
/// (measured on the serving shapes). A consumer that wants bias and
/// activation runs its own `O(m·n)` pass over the output.
#[inline]
fn q8_store<const ACC: bool>(a: &[f32], rows: usize, b: &QuantizedPanel, dst: &mut [f32]) {
    let k = b.k;
    assert_eq!(a.len(), rows * k, "int8 matmul input shape");
    let (min, step) = (b.min, b.step);
    let n = b.n;
    assert_eq!(dst.len(), rows * n, "int8 matmul output shape");
    let mut i0 = 0;
    while i0 < rows {
        let mr = MR.min(rows - i0);
        let mut base = [0.0f32; MR];
        for (mm, bv) in base.iter_mut().enumerate().take(mr) {
            *bv = min * row_sum_f32(&a[(i0 + mm) * k..(i0 + mm + 1) * k]);
        }
        let mut j0 = 0;
        while j0 < n {
            let w = NR_Q8.min(n - j0);
            let panel = &b.codes_f32[j0 * k..j0 * k + k * w];
            if mr == MR && w == NR_Q8 {
                // Hot tile: four named accumulator rows (nesting them in
                // one array spills to the stack), fixed-size inner loop,
                // explicit FMA.
                let r0 = &a[i0 * k..(i0 + 1) * k];
                let r1 = &a[(i0 + 1) * k..(i0 + 2) * k];
                let r2 = &a[(i0 + 2) * k..(i0 + 3) * k];
                let r3 = &a[(i0 + 3) * k..(i0 + 4) * k];
                let mut a0 = [0.0f32; NR_Q8];
                let mut a1 = [0.0f32; NR_Q8];
                let mut a2 = [0.0f32; NR_Q8];
                let mut a3 = [0.0f32; NR_Q8];
                for ((((bw, &x0), &x1), &x2), &x3) in
                    panel.chunks_exact(NR_Q8).zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    for j in 0..NR_Q8 {
                        a0[j] = x0.mul_add(bw[j], a0[j]);
                        a1[j] = x1.mul_add(bw[j], a1[j]);
                        a2[j] = x2.mul_add(bw[j], a2[j]);
                        a3[j] = x3.mul_add(bw[j], a3[j]);
                    }
                }
                for (mm, am) in [&a0, &a1, &a2, &a3].into_iter().enumerate() {
                    let o = (i0 + mm) * n + j0;
                    for (s, &v) in dst[o..o + NR_Q8].iter_mut().zip(am) {
                        let val = base[mm] + step * v;
                        if ACC {
                            *s += val;
                        } else {
                            *s = val;
                        }
                    }
                }
            } else {
                // Edge tile: same accumulation order, partial extents.
                let mut acc = [[0.0f32; NR_Q8]; MR];
                for kk in 0..k {
                    let cw = &panel[kk * w..kk * w + w];
                    for (mm, am) in acc.iter_mut().enumerate().take(mr) {
                        let x = a[(i0 + mm) * k + kk];
                        for (s, &c) in am.iter_mut().zip(cw) {
                            *s = x.mul_add(c, *s);
                        }
                    }
                }
                for (mm, am) in acc.iter().enumerate().take(mr) {
                    let o = (i0 + mm) * n + j0;
                    for (s, &v) in dst[o..o + w].iter_mut().zip(am.iter()) {
                        let val = base[mm] + step * v;
                        if ACC {
                            *s += val;
                        } else {
                            *s = val;
                        }
                    }
                }
            }
            j0 += w;
        }
        i0 += mr;
    }
}

/// `out = a · dequant(b)` with f32 accumulate; `a` is row-major
/// `rows × k`, `out` is row-major `rows × n` for a `k × n` panel.
///
/// Always approximate: the int8 lane is opt-in by construction.
pub fn matmul_q8_into(a: &[f32], rows: usize, b: &QuantizedPanel, out: &mut [f32]) {
    q8_store::<false>(a, rows, b, out);
}

/// `out += a · dequant(b)` with f32 accumulate.
pub fn matmul_q8_acc_into(a: &[f32], rows: usize, b: &QuantizedPanel, out: &mut [f32]) {
    q8_store::<true>(a, rows, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn blocked_entry_points_are_the_exact_kernels() {
        let a = mat(7, 53, |i, j| ((i * 31 + j * 7) % 19) as f64 * 0.05 - 0.4);
        let b = mat(53, 10, |i, j| ((i * 13 + j * 3) % 23) as f64 * 0.03 - 0.3);
        let p = PackedB::pack(b.view());
        assert_eq!((p.k, p.n), (53, 10));
        assert_eq!(p.orig_view().as_slice(), b.as_slice());
        let mut exact = vec![1.0; 7 * 10];
        let mut served = exact.clone();
        crate::kernels::matmul_into(a.view(), b.view(), MatMut::new(7, 10, &mut exact));
        matmul_into_blocked(a.view(), &p, MatMut::new(7, 10, &mut served));
        assert_eq!(exact, served);
    }

    #[test]
    fn int8_matmul_error_is_bounded_by_weight_quantization() {
        let a = mat(6, 40, |i, j| ((i * 17 + j * 5) % 21) as f64 * 0.04 - 0.4);
        let b = mat(40, 8, |i, j| ((i * 11 + j * 13) % 29) as f64 * 0.02 - 0.28);
        let q = QuantizedPanel::quantize(b.view());
        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let mut fast = vec![0.0f32; 6 * 8];
        matmul_q8_into(&a32, 6, &q, &mut fast);
        let mut exact = vec![0.0; 6 * 8];
        crate::kernels::matmul_into(a.view(), b.view(), MatMut::new(6, 8, &mut exact));
        // Per-output bound: Σ|a| · (half step) for quantization, plus
        // f32 accumulation slack.
        for i in 0..6 {
            let abs_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            let bound = abs_sum * q.max_error() + 1e-4 * (1.0 + abs_sum);
            for j in 0..8 {
                let d = (exact[i * 8 + j] - fast[i * 8 + j] as f64).abs();
                assert!(d <= bound, "({i},{j}): delta {d} > bound {bound}");
            }
        }
    }

    #[test]
    fn int8_matmul_covers_full_and_edge_tiles() {
        // 7 × 21 output: one full 4-row band plus a 3-row edge, one full
        // 16-col code panel plus a 5-col edge.
        let a = mat(7, 30, |i, j| ((i * 19 + j * 3) % 23) as f64 * 0.03 - 0.3);
        let b = mat(30, 21, |i, j| ((i * 5 + j * 7) % 27) as f64 * 0.02 - 0.26);
        let q = QuantizedPanel::quantize(b.view());
        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let mut fast = vec![0.0f32; 7 * 21];
        matmul_q8_into(&a32, 7, &q, &mut fast);
        let mut exact = vec![0.0; 7 * 21];
        crate::kernels::matmul_into(a.view(), b.view(), MatMut::new(7, 21, &mut exact));
        for i in 0..7 {
            let abs_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            let bound = abs_sum * q.max_error() + 1e-4 * (1.0 + abs_sum);
            for j in 0..21 {
                let d = (exact[i * 21 + j] - fast[i * 21 + j] as f64).abs();
                assert!(d <= bound, "({i},{j}): delta {d} > bound {bound}");
            }
        }
    }

    #[test]
    fn int8_acc_agrees_with_plain() {
        let a = mat(3, 10, |i, j| (i + j) as f64 * 0.09 - 0.3);
        let b = mat(10, 5, |i, j| (2 * i + j) as f64 * 0.03 - 0.2);
        let q = QuantizedPanel::quantize(b.view());
        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let mut plain = vec![0.0f32; 15];
        matmul_q8_into(&a32, 3, &q, &mut plain);
        let mut acc = vec![0.5f32; 15];
        matmul_q8_acc_into(&a32, 3, &q, &mut acc);
        for (&p, &ac) in plain.iter().zip(&acc) {
            assert!((ac - (p + 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn quantized_panel_reuses_the_shared_fold() {
        // The panel's range parameters and codes must be exactly the shared
        // fold's — same min, same step, same level per coefficient — so the
        // codec and the inference lane can never disagree on the grid.
        // 21 columns: one full NR_Q8 panel and a 5-wide tail.
        let (k, n) = (4, NR_Q8 + 5);
        let b = mat(k, n, |i, j| (i * n + j) as f64 * 0.35 - 2.0);
        let q = QuantizedPanel::quantize(b.view());
        let r = QuantRange::from_values(b.view().as_slice());
        assert_eq!(q.min, r.min as f32);
        assert_eq!(q.step, r.step as f32);
        assert_eq!(q.max_error(), r.max_error());
        assert_eq!(q.byte_size(), k * n);
        for (j0, w) in [(0, NR_Q8), (NR_Q8, 5)] {
            for kk in 0..k {
                for jj in 0..w {
                    let code = r.encode(b[(kk, j0 + jj)]);
                    assert_eq!(q.codes[j0 * k + kk * w + jj], code, "({kk}, {})", j0 + jj);
                    assert_eq!(q.codes_f32[j0 * k + kk * w + jj], f32::from(code));
                }
            }
        }
    }
}

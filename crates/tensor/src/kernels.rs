//! In-place and accumulating dense kernels over borrowed buffers.
//!
//! This module is the workspace's matrix algebra: every layer's forward and
//! backward and the serving lanes' exact path run here, over *caller-owned*
//! storage — lightweight [`MatRef`]/[`MatMut`] views plus a family of
//! `*_into` (overwrite) and `*_acc_into` (accumulate) kernels, so a
//! recurrent training step allocates nothing.
//!
//! # Bitwise contract
//!
//! A kernel's result is fixed element by element: which terms an output
//! element takes, in which order, and the `a == 0.0` skip in the
//! `matmul`/`transpose_matmul` accumulation. The plain serial loops of
//! [`Matrix`](crate::Matrix) (`matmul`, `transpose_matmul`,
//! `matmul_transpose`, `transpose`, `add_row_broadcast`) are the oracle:
//! they write those chains out with no tiling, unrolling or threads, and
//! the test suites hold every kernel to them bit for bit. The three GEMM
//! families split their output rows across [`crate::parallel`]'s worker
//! pool when the product is large enough; no element's chain depends on
//! which block it fell into, so the bits are the same for every thread
//! count.
//!
//! The accumulating forms continue the running sum *element by element* in
//! ascending `k` order. That gives the splitting identity the recurrent
//! layers rely on: for row-blocked operands,
//!
//! ```text
//! matmul_into(x, W_x, out); matmul_acc_into(h, W_h, out)
//!   ==  [x | h] · [W_x ; W_h]     (bitwise)
//! ```
//!
//! because the combined product accumulates over the `x` columns first and
//! the `h` columns second — exactly the order the two-call form replays.
//! Note this is *not* the same as `out += x·W_x` computed separately and
//! added afterwards (that would regroup the floating-point sums).
//!
//! # Why the register tile stays bitwise
//!
//! [`matmul_acc_into`] and [`transpose_matmul_acc_into`] work on groups of
//! four output rows. A group's tile — four rows by 16 columns, then 8, 4,
//! 2 and 1 for what is left of the row — is loaded from `out` once, held
//! in accumulators across the *whole* `k` range and stored once, and each
//! vector of `b` is loaded once for the four rows instead of once per
//! row. Every element is updated as `acc = acc + a·b` in ascending `k`,
//! the multiply and the add rounded separately (Rust never contracts them
//! into a fused multiply-add): the very chain of `+=` the reference loop
//! performs on that element. Tiling changes which elements are in flight
//! together and nothing about any one of them.
//!
//! The zero rule is decided per group, before its tile runs. A group of
//! `a` holding no exact `0.0` has no term to skip and takes the tile. A
//! group holding one — that group alone — streams row by row through the
//! four-step chain `(((o + a0·v0) + a1·v1) + a2·v2) + a3·v3` (the same
//! successive updates, taken only when all four multipliers are nonzero)
//! and the reference skip loop, which keep the skip's observable effects
//! (`-0.0` signs, `0·inf`, `0·NaN`). Skipping term by term inside the tile
//! was measured and is the wrong trade (DESIGN.md §6b, notes).
//!
//! [`transpose_matmul_acc_into`] stages the group's four columns of `a` as
//! rows in a fixed stack buffer, 128 `k` steps at a time, and runs the
//! same tile on them: staging is a copy, and a chunk boundary is a store
//! and reload of the running sums through `out` — neither rounds. The dot
//! kernels unroll across *output elements* instead: each accumulator is a
//! complete, untouched scalar dot product.
//!
//! # Streaming a transposed product
//!
//! `dpre · Wᵀ` can be computed either with the dot kernel
//! ([`matmul_transpose_into`]) or by staging `Wᵀ` once
//! ([`transpose_into`]) and streaming [`matmul_into`] over it. Both forms
//! add the same terms in the same ascending-`k` order; they can differ
//! only through the streaming kernel's `== 0.0` skip, and a skipped term
//! `0.0 · w` is `±0.0` for every finite `w`, which never changes an
//! accumulator that started at `+0.0`. The recurrent layers use the
//! streaming form for `dh`/`dx` (weights are finite by construction —
//! non-finite weights would already have poisoned the loss).
//!
//! # Examples
//!
//! ```
//! use evfad_tensor::{kernels, Matrix};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
//! let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
//! let mut out = vec![0.0];
//! kernels::matmul_into(a.view(), b.view(), kernels::MatMut::new(1, 1, &mut out));
//! assert_eq!(out[0], 11.0);
//! ```

/// Borrowed, immutable row-major matrix view.
///
/// A view is just `(rows, cols, &[f64])`; it can wrap a whole
/// [`Matrix`](crate::Matrix) ([`Matrix::view`](crate::Matrix::view)), a
/// contiguous row range of one
/// ([`Matrix::rows_view`](crate::Matrix::rows_view)), or any caller-owned
/// scratch buffer.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatRef<'a> {
    /// Wraps a row-major buffer as a `rows x cols` view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot view a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major contents.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Borrow of one row.
    fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// Borrowed, mutable row-major matrix view (the output of a kernel).
#[derive(Debug)]
pub struct MatMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f64],
}

impl<'a> MatMut<'a> {
    /// Wraps a mutable row-major buffer as a `rows x cols` view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a mut [f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot view a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }
}

/// `out = a · b`, overwriting `out`.
///
/// The output is zeroed, then accumulated by [`matmul_acc_into`]; held
/// bitwise to the reference loop [`Matrix::matmul`](crate::Matrix::matmul).
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn matmul_into(a: MatRef<'_>, b: MatRef<'_>, out: MatMut<'_>) {
    out.data.fill(0.0);
    matmul_acc_into(a, b, out);
}

/// `out += a · b`, continuing the element sums in ascending-`k` order.
///
/// Together with [`matmul_into`] this reproduces a concatenated product
/// bitwise (see the [module docs](self) for the splitting identity).
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn matmul_acc_into(a: MatRef<'_>, b: MatRef<'_>, out: MatMut<'_>) {
    assert_eq!(
        a.cols, b.rows,
        "matmul_acc_into: {}x{} vs {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "matmul_acc_into: output is {}x{}, expected {}x{}",
        out.rows,
        out.cols,
        a.rows,
        b.cols
    );
    let (k, n) = (a.cols, b.cols);
    if k == 0 || n == 0 {
        return; // nothing to add, and `chunks` of width zero panics
    }
    let flops = a.rows * k * n;
    crate::parallel::row_partitioned(flops, out.data, a.rows, n, |r0, r1, block| {
        let lhs = &a.data[r0 * k..r1 * k];
        let groups = block.chunks_mut(TILE_ROWS * n);
        for (out_g, lhs_g) in groups.zip(lhs.chunks(TILE_ROWS * k)) {
            acc_group(lhs_g, k, b, 0, out_g);
        }
    });
}

/// Output rows held in registers by `tile`. With its widest 16 columns
/// that is 8 AVX-512 (16 AVX2) accumulators plus four broadcasts and the
/// `b` vectors — no spills; 4 x 32 spilled and ran a third slower. A GEMM
/// with fewer rows streams them one by one, so a caller that can batch
/// rows gives the tile at least this many.
pub const TILE_ROWS: usize = 4;
/// `k` steps of `a`'s columns staged as rows per pass of
/// [`transpose_matmul_acc_into`] (4 KiB of stack).
const K_CHUNK: usize = 128;

/// `out (r x n) += lhs (r x kc) · b[k0..k0 + kc]` for `r <= TILE_ROWS`.
///
/// The zero rule is decided here, once per group: a full group with no
/// exact `0.0` in `lhs` has no term to skip and takes the register tile;
/// any other group streams row by row through the skipping kernels.
fn acc_group(lhs: &[f64], kc: usize, b: MatRef<'_>, k0: usize, out: &mut [f64]) {
    let n = b.cols;
    // Counted, not `contains`: without the early exit the scan vectorises.
    if lhs.len() == TILE_ROWS * kc && lhs.iter().filter(|&&v| v == 0.0).count() == 0 {
        let rows: [&[f64]; TILE_ROWS] = std::array::from_fn(|r| &lhs[r * kc..(r + 1) * kc]);
        let b_rows = &b.data[k0 * n..];
        let j = tile::<4, 4>(rows, b_rows, n, 0, out);
        let j = tile::<4, 2>(rows, b_rows, n, j, out);
        let j = tile::<4, 1>(rows, b_rows, n, j, out);
        let j = tile::<2, 1>(rows, b_rows, n, j, out);
        tile::<1, 1>(rows, b_rows, n, j, out);
    } else {
        for (out_row, lhs_row) in out.chunks_exact_mut(n).zip(lhs.chunks_exact(kc)) {
            let mut quads = lhs_row.chunks_exact(4);
            let mut k = k0;
            for lhs4 in &mut quads {
                acc_rows_x4(out_row, lhs4, b, k);
                k += 4;
            }
            acc_rows(out_row, quads.remainder(), b, k);
        }
    }
}

/// The register tile, swept over columns `j..` of `out` (row stride `n`)
/// while a whole `L * V` wide tile fits; returns the first column left.
///
/// `TILE_ROWS x V` vectors of `L` lanes live in `acc` across the whole `k`
/// range, and each `b` vector is loaded once for all four rows.
#[inline(always)]
fn tile<const L: usize, const V: usize>(
    lhs: [&[f64]; TILE_ROWS],
    b_rows: &[f64],
    n: usize,
    mut j: usize,
    out: &mut [f64],
) -> usize {
    let w = L * V;
    let [l0, l1, l2, l3] = lhs;
    while j + w <= n {
        let mut acc = [[[0.0; L]; V]; TILE_ROWS];
        for (acc_row, out_row) in acc.iter_mut().zip(out.chunks_exact(n)) {
            let acc_row = acc_row.as_flattened_mut();
            acc_row.copy_from_slice(&out_row[j..j + w]);
        }
        for ((((b_row, &a0), &a1), &a2), &a3) in
            b_rows.chunks_exact(n).zip(l0).zip(l1).zip(l2).zip(l3)
        {
            let (b_vecs, _) = b_row[j..j + w].as_chunks::<L>();
            for (v, bv) in b_vecs.iter().enumerate() {
                acc[0][v] = add_scaled(acc[0][v], a0, bv);
                acc[1][v] = add_scaled(acc[1][v], a1, bv);
                acc[2][v] = add_scaled(acc[2][v], a2, bv);
                acc[3][v] = add_scaled(acc[3][v], a3, bv);
            }
        }
        for (acc_row, out_row) in acc.iter().zip(out.chunks_exact_mut(n)) {
            out_row[j..j + w].copy_from_slice(acc_row.as_flattened());
        }
        j += w;
    }
    j
}

/// `acc + a * b` per lane — a separate multiply and add, never `mul_add`.
/// By-value lanes are what LLVM keeps in one vector register.
#[inline(always)]
fn add_scaled<const L: usize>(mut acc: [f64; L], a: f64, b: &[f64; L]) -> [f64; L] {
    for (s, &v) in acc.iter_mut().zip(b) {
        *s += a * v;
    }
    acc
}

/// Four ascending k-steps into one output row: the fused left-associative
/// chain when all four multipliers are nonzero, the reference skip loop
/// otherwise.
fn acc_rows_x4(out_row: &mut [f64], lhs4: &[f64], b: MatRef<'_>, k0: usize) {
    let (a0, a1, a2, a3) = (lhs4[0], lhs4[1], lhs4[2], lhs4[3]);
    if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
        let (b0, b1, b2, b3) = (b.row(k0), b.row(k0 + 1), b.row(k0 + 2), b.row(k0 + 3));
        for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
        }
    } else {
        acc_rows(out_row, lhs4, b, k0);
    }
}

/// Reference ascending-k accumulation of `lhs[kk] * b.row(k0 + kk)` into one
/// output row, with the `== 0.0` skip (the tail/fallback of the unrolled
/// kernels).
fn acc_rows(out_row: &mut [f64], lhs: &[f64], b: MatRef<'_>, k0: usize) {
    for (kk, &av) in lhs.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let rhs_row = b.row(k0 + kk);
        for (o, &bv) in out_row.iter_mut().zip(rhs_row.iter()) {
            *o += av * bv;
        }
    }
}

/// `out = a · bᵀ`, overwriting `out` (no transpose is materialised).
///
/// Each output element is one full dot product in ascending `k`, assigned
/// once; held bitwise to the reference loop
/// [`Matrix::matmul_transpose`](crate::Matrix::matmul_transpose).
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn matmul_transpose_into(a: MatRef<'_>, b: MatRef<'_>, out: MatMut<'_>) {
    assert_eq!(
        a.cols, b.cols,
        "matmul_transpose_into: {}x{} vs {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.rows),
        "matmul_transpose_into: output is {}x{}, expected {}x{}",
        out.rows,
        out.cols,
        a.rows,
        b.rows
    );
    let n = b.rows;
    let flops = a.rows * n * a.cols;
    crate::parallel::row_partitioned(flops, out.data, a.rows, n, |r0, r1, block| {
        // 2x4 register tile: eight accumulator chains, each an independent
        // scalar dot product evaluated exactly as the reference single-dot
        // loop (ascending k, full dot formed before the one store) — the
        // tiling only amortises loads and adds instruction-level
        // parallelism across output elements.
        let rows = r1 - r0;
        let mut bi = 0;
        while bi + 2 <= rows {
            let (row0, row1) = block[bi * n..(bi + 2) * n].split_at_mut(n);
            let l0 = a.row(r0 + bi);
            let l1 = a.row(r0 + bi + 1);
            let mut j = 0;
            while j + 4 <= n {
                let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
                let (mut s00, mut s01, mut s02, mut s03) = (0.0, 0.0, 0.0, 0.0);
                let (mut s10, mut s11, mut s12, mut s13) = (0.0, 0.0, 0.0, 0.0);
                for (((((&x0, &x1), &y0), &y1), &y2), &y3) in
                    l0.iter().zip(l1).zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    s00 += x0 * y0;
                    s01 += x0 * y1;
                    s02 += x0 * y2;
                    s03 += x0 * y3;
                    s10 += x1 * y0;
                    s11 += x1 * y1;
                    s12 += x1 * y2;
                    s13 += x1 * y3;
                }
                store4(&mut row0[j..j + 4], [s00, s01, s02, s03]);
                store4(&mut row1[j..j + 4], [s10, s11, s12, s13]);
                j += 4;
            }
            dot_tail(l0, b, &mut row0[j..], j);
            dot_tail(l1, b, &mut row1[j..], j);
            bi += 2;
        }
        if bi < rows {
            let lhs_row = a.row(r0 + bi);
            let out_row = &mut block[bi * n..(bi + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for ((((&x, &y0), &y1), &y2), &y3) in lhs_row.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    s0 += x * y0;
                    s1 += x * y1;
                    s2 += x * y2;
                    s3 += x * y3;
                }
                store4(&mut out_row[j..j + 4], [s0, s1, s2, s3]);
                j += 4;
            }
            dot_tail(lhs_row, b, &mut out_row[j..], j);
        }
    });
}

/// Writes four completed dot products into the output slice.
fn store4(out: &mut [f64], sums: [f64; 4]) {
    for (o, s) in out.iter_mut().zip(sums) {
        *o = s;
    }
}

/// Reference single-dot loop for the trailing `< 4` output columns.
fn dot_tail(lhs_row: &[f64], b: MatRef<'_>, out: &mut [f64], j0: usize) {
    for (o, j) in out.iter_mut().zip(j0..) {
        let rhs_row = b.row(j);
        let mut acc = 0.0;
        for (x, y) in lhs_row.iter().zip(rhs_row.iter()) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// `out = aᵀ · b`, overwriting `out` (no transpose is materialised).
///
/// The output is zeroed, then accumulated by [`transpose_matmul_acc_into`];
/// held bitwise to the reference loop
/// [`Matrix::transpose_matmul`](crate::Matrix::transpose_matmul).
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn transpose_matmul_into(a: MatRef<'_>, b: MatRef<'_>, out: MatMut<'_>) {
    out.data.fill(0.0);
    transpose_matmul_acc_into(a, b, out);
}

/// `out += aᵀ · b`, continuing the element sums in ascending-`k` order
/// (`k` runs over the shared row dimension).
///
/// Splitting the operands by rows and accumulating block after block
/// reproduces the stacked product bitwise, mirroring the
/// [`matmul_acc_into`] identity.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn transpose_matmul_acc_into(a: MatRef<'_>, b: MatRef<'_>, out: MatMut<'_>) {
    assert_eq!(
        a.rows, b.rows,
        "transpose_matmul_acc_into: {}x{} vs {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        (out.rows, out.cols),
        (a.cols, b.cols),
        "transpose_matmul_acc_into: output is {}x{}, expected {}x{}",
        out.rows,
        out.cols,
        a.cols,
        b.cols
    );
    let n = b.cols;
    if a.rows == 0 || n == 0 {
        return;
    }
    let flops = a.rows * a.cols * n;
    crate::parallel::row_partitioned(flops, out.data, a.cols, n, |r0, _r1, block| {
        // Out-row-group outer, k-chunk inner (the reference is k-outer):
        // every element still takes its `a[k][r] * b[k][j]` terms in
        // ascending k, and elements are independent.
        let mut staged = [0.0; TILE_ROWS * K_CHUNK];
        for (g, out_g) in block.chunks_mut(TILE_ROWS * n).enumerate() {
            let (c0, w) = (r0 + g * TILE_ROWS, out_g.len() / n);
            for k0 in (0..a.rows).step_by(K_CHUNK) {
                let kc = K_CHUNK.min(a.rows - k0);
                for (kk, a_row) in (k0..k0 + kc).map(|k| a.row(k)).enumerate() {
                    for (r, &v) in a_row[c0..c0 + w].iter().enumerate() {
                        staged[r * kc + kk] = v;
                    }
                }
                acc_group(&staged[..w * kc], kc, b, k0, out_g);
            }
        }
    });
}

/// Adds a `1 x cols` row vector to every row of `out`, in place: one `+=`
/// per element (the reference is
/// [`Matrix::add_row_broadcast`](crate::Matrix::add_row_broadcast)).
///
/// # Panics
///
/// Panics if `bias` is not `1 x out.cols()`.
pub fn add_row_broadcast_into(out: MatMut<'_>, bias: MatRef<'_>) {
    assert_eq!(bias.rows, 1, "bias must be a row vector");
    assert_eq!(bias.cols, out.cols, "bias width mismatch");
    let n = out.cols;
    for i in 0..out.rows {
        let row = &mut out.data[i * n..(i + 1) * n];
        for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
            *o += b;
        }
    }
}

/// `out = aᵀ`, overwriting `out`.
///
/// A pure data movement — every output element is a copy of one input
/// element, so there is nothing floating-point about it. Used to stage a
/// transposed weight matrix once per backward pass so that `dpre · Wᵀ`
/// products can run through the streaming [`matmul_into`] kernel instead
/// of the latency-bound dot kernel (see the module docs for why the two
/// forms are bitwise identical for finite weights).
///
/// # Panics
///
/// Panics if `out` is not `a.cols x a.rows`.
pub fn transpose_into(a: MatRef<'_>, out: MatMut<'_>) {
    assert_eq!(out.rows, a.cols, "transpose rows mismatch");
    assert_eq!(out.cols, a.rows, "transpose cols mismatch");
    for i in 0..a.rows {
        let src = a.row(i);
        for (j, &v) in src.iter().enumerate() {
            out.data[j * out.cols + i] = v;
        }
    }
}

/// `out[i] = src[rows[i]]` row-wise: gathers the listed rows of `src`
/// into `out` in order.
///
/// Pure data movement: each output row is one `copy_from_slice` from the
/// source row, i.e.
/// `Matrix::from_fn(rows.len(), src.cols(), |i, j| src[(rows[i], j)])`.
/// This is the marshalling primitive behind `BatchPlan`: a shuffled epoch
/// becomes an index permutation consumed here instead of per-sample
/// clones.
///
/// # Panics
///
/// Panics if `out.rows() != rows.len()`, if the column counts differ, or
/// if any index is out of bounds for `src`.
pub fn gather_rows_into(src: MatRef<'_>, rows: &[usize], out: MatMut<'_>) {
    assert_eq!(out.rows, rows.len(), "gather: out rows != index count");
    assert_eq!(out.cols, src.cols, "gather: column mismatch");
    for (i, &r) in rows.iter().enumerate() {
        assert!(
            r < src.rows,
            "gather: row index {r} out of bounds ({})",
            src.rows
        );
        out.data[i * out.cols..(i + 1) * out.cols].copy_from_slice(src.row(r));
    }
}

/// `out[rows[i]] = src[i]` row-wise: scatters the rows of `src` to the
/// listed positions in `out`.
///
/// The inverse data movement of [`gather_rows_into`]; rows of `out` not
/// named in `rows` are left untouched. If `rows` contains duplicates the
/// writes land in index order, so the last occurrence wins.
///
/// # Panics
///
/// Panics if `src.rows() != rows.len()`, if the column counts differ, or
/// if any index is out of bounds for `out`.
pub fn scatter_rows_into(src: MatRef<'_>, rows: &[usize], out: MatMut<'_>) {
    assert_eq!(src.rows, rows.len(), "scatter: src rows != index count");
    assert_eq!(out.cols, src.cols, "scatter: column mismatch");
    for (i, &r) in rows.iter().enumerate() {
        assert!(
            r < out.rows,
            "scatter: row index {r} out of bounds ({})",
            out.rows
        );
        out.data[r * out.cols..(r + 1) * out.cols].copy_from_slice(src.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn m(rows: usize, cols: usize, scale: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) as f64).sin() * scale)
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = m(5, 7, 1.0);
        let b = m(7, 4, 0.5);
        let mut out = vec![f64::NAN; 20];
        matmul_into(a.view(), b.view(), MatMut::new(5, 4, &mut out));
        assert_eq!(out, a.matmul(&b).as_slice());
    }

    #[test]
    fn split_matmul_reproduces_concatenated_product() {
        // [x | h] @ [Wx ; Wh] == matmul_into(x, Wx) then matmul_acc_into(h, Wh).
        let x = m(6, 3, 1.0);
        let h = m(6, 5, 0.7);
        let wx = m(3, 8, 0.9);
        let wh = m(5, 8, 1.1);
        let combined = x.hstack(&h).matmul(&wx.vstack(&wh));
        let mut out = vec![0.0; 48];
        matmul_into(x.view(), wx.view(), MatMut::new(6, 8, &mut out));
        matmul_acc_into(h.view(), wh.view(), MatMut::new(6, 8, &mut out));
        assert_eq!(out, combined.as_slice());
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = m(5, 7, 1.3);
        let mut out = vec![f64::NAN; 35];
        transpose_into(a.view(), MatMut::new(7, 5, &mut out));
        assert_eq!(out, a.transpose().as_slice());
    }

    #[test]
    fn streamed_transposed_product_matches_dot_kernel_bitwise() {
        // dpre @ W^T via the streaming kernel over a staged transpose must
        // match the dot kernel bitwise (same terms, same ascending-k order).
        let dpre = m(6, 12, 1.0);
        let w = m(4, 12, 0.9);
        let mut wt = vec![0.0; 48];
        transpose_into(w.view(), MatMut::new(12, 4, &mut wt));
        let mut via_stream = vec![f64::NAN; 24];
        matmul_into(
            dpre.view(),
            MatRef::new(12, 4, &wt),
            MatMut::new(6, 4, &mut via_stream),
        );
        let mut via_dot = vec![f64::NAN; 24];
        matmul_transpose_into(dpre.view(), w.view(), MatMut::new(6, 4, &mut via_dot));
        assert_eq!(via_stream, via_dot);
    }

    #[test]
    fn matmul_transpose_into_matches() {
        let a = m(4, 6, 1.0);
        let b = m(3, 6, 0.8);
        let mut out = vec![0.0; 12];
        matmul_transpose_into(a.view(), b.view(), MatMut::new(4, 3, &mut out));
        assert_eq!(out, a.matmul_transpose(&b).as_slice());
    }

    #[test]
    fn transpose_matmul_into_matches() {
        let a = m(7, 3, 1.0);
        let b = m(7, 5, 0.6);
        let mut out = vec![1.0; 15];
        transpose_matmul_into(a.view(), b.view(), MatMut::new(3, 5, &mut out));
        assert_eq!(out, a.transpose_matmul(&b).as_slice());
    }

    #[test]
    fn row_split_transpose_matmul_accumulates_in_order() {
        // [a1 ; a2]ᵀ[b1 ; b2] == acc(a1, b1) then acc(a2, b2).
        let a1 = m(4, 3, 1.0);
        let a2 = m(2, 3, 0.5);
        let b1 = m(4, 5, 0.9);
        let b2 = m(2, 5, 1.3);
        let combined = a1.vstack(&a2).transpose_matmul(&b1.vstack(&b2));
        let mut out = vec![0.0; 15];
        transpose_matmul_acc_into(a1.view(), b1.view(), MatMut::new(3, 5, &mut out));
        transpose_matmul_acc_into(a2.view(), b2.view(), MatMut::new(3, 5, &mut out));
        assert_eq!(out, combined.as_slice());
    }

    #[test]
    fn rows_view_addresses_contiguous_blocks() {
        let w = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let top = w.rows_view(0..2);
        let bottom = w.rows_view(2..6);
        assert_eq!(top.rows(), 2);
        assert_eq!(bottom.rows(), 4);
        assert_eq!(top.as_slice()[7], 7.0);
        assert_eq!(bottom.as_slice()[0], 8.0);
    }

    #[test]
    fn add_row_broadcast_into_matches_the_matrix_form() {
        let a = m(3, 4, 1.0);
        let bias = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.25]);
        let mut buf = a.as_slice().to_vec();
        add_row_broadcast_into(MatMut::new(3, 4, &mut buf), bias.view());
        assert_eq!(buf, a.add_row_broadcast(&bias).as_slice());
    }

    #[test]
    fn degenerate_shapes_are_accepted() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut out = vec![7.0; 12];
        matmul_into(a.view(), b.view(), MatMut::new(3, 4, &mut out));
        assert!(out.iter().all(|&x| x == 0.0));

        let mut empty: Vec<f64> = Vec::new();
        matmul_into(
            Matrix::zeros(0, 4).view(),
            Matrix::zeros(4, 3).view(),
            MatMut::new(0, 3, &mut empty),
        );
    }

    #[test]
    #[should_panic(expected = "matmul_acc_into")]
    fn shape_mismatch_panics() {
        let a = m(2, 3, 1.0);
        let b = m(4, 2, 1.0);
        let mut out = vec![0.0; 4];
        matmul_acc_into(a.view(), b.view(), MatMut::new(2, 2, &mut out));
    }

    #[test]
    fn gather_rows_matches_from_fn() {
        let src = m(6, 3, 1.0);
        let idx = [4usize, 0, 4, 2];
        let mut out = vec![f64::NAN; 12];
        gather_rows_into(src.view(), &idx, MatMut::new(4, 3, &mut out));
        let expect = Matrix::from_fn(4, 3, |i, j| src[(idx[i], j)]);
        assert_eq!(out, expect.as_slice());
    }

    #[test]
    fn scatter_rows_inverts_gather_and_last_write_wins() {
        let src = m(3, 2, 1.0);
        let idx = [2usize, 0, 2];
        let mut out = vec![9.0; 8];
        scatter_rows_into(src.view(), &idx, MatMut::new(4, 2, &mut out));
        // Row 1 and 3 untouched, row 0 = src row 1, row 2 = src row 2 (last wins).
        assert_eq!(&out[2..4], &[9.0, 9.0]);
        assert_eq!(&out[6..8], &[9.0, 9.0]);
        assert_eq!(&out[0..2], src.row(1));
        assert_eq!(&out[4..6], src.row(2));
    }

    #[test]
    #[should_panic(expected = "gather: row index")]
    fn gather_out_of_bounds_panics() {
        let src = m(2, 2, 1.0);
        let mut out = vec![0.0; 2];
        gather_rows_into(src.view(), &[2], MatMut::new(1, 2, &mut out));
    }
}

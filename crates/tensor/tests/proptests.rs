//! Property-based tests for the tensor substrate.

use evfad_tensor::{stats, Matrix};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-100.0f64..100.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(4, 2),
    ) {
        let left = a.matmul(&b.zip_map(&c, |x, y| x + y));
        let right = a.matmul(&b).zip_map(&a.matmul(&c), |x, y| x + y);
        prop_assert!(approx_eq(&left, &right, 1e-9));
    }

    #[test]
    fn transpose_of_product_swaps(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
    ) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-9));
    }

    #[test]
    fn fused_transpose_products_agree(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(5, 4),
    ) {
        prop_assert!(approx_eq(&a.matmul_transpose(&b), &a.matmul(&b.transpose()), 1e-9));
        let c = Matrix::from_vec(3, 6, vec![0.5; 18]);
        prop_assert!(approx_eq(&a.transpose_matmul(&c), &a.transpose().matmul(&c), 1e-9));
    }

    #[test]
    fn scale_is_linear(a in matrix_strategy(4, 4), s in -10.0f64..10.0) {
        let left = a.scale(s).sum();
        let right = a.sum() * s;
        prop_assert!((left - right).abs() < 1e-6 * (1.0 + right.abs()));
    }

    #[test]
    fn hstack_preserves_elements(a in matrix_strategy(3, 2), b in matrix_strategy(3, 5)) {
        let h = a.hstack(&b);
        prop_assert_eq!(h.shape(), (3, 7));
        for i in 0..3 {
            prop_assert_eq!(&h.row(i)[..2], a.row(i));
            prop_assert_eq!(&h.row(i)[2..], b.row(i));
        }
    }

    #[test]
    fn percentile_within_min_max(v in prop::collection::vec(-1e6f64..1e6, 1..200), p in 0.0f64..100.0) {
        let q = stats::percentile(&v, p);
        prop_assert!(q >= stats::min(&v) - 1e-9);
        prop_assert!(q <= stats::max(&v) + 1e-9);
    }

    #[test]
    fn percentile_monotone_in_p(v in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        let q25 = stats::percentile(&v, 25.0);
        let q50 = stats::percentile(&v, 50.0);
        let q98 = stats::percentile(&v, 98.0);
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q98 + 1e-12);
    }

    #[test]
    fn mean_within_bounds(v in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let m = stats::mean(&v);
        prop_assert!(m >= stats::min(&v) - 1e-9 && m <= stats::max(&v) + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// In-place kernels (`evfad_tensor::kernels`): every `*_into` / `*_acc_into`
// form must be bitwise equal to the serial `Matrix` reference loop for
// random, tall/thin, and degenerate (rx0 / 0xc) shapes, at threads=1 AND
// threads=4 — only the kernel moves between the two modes, the reference
// has no dispatch. The golden fixture depends on this equality, so these
// are exact (`as_slice() ==`) comparisons, not approx.
// ---------------------------------------------------------------------------

use evfad_tensor::{kernels, parallel, MatMut};

/// Maps a raw draw to a dimension covering degenerate (0), small, and
/// tall/thin (31) sizes. (The vendored proptest has no union strategies.)
fn dim(raw: usize) -> usize {
    if raw == 7 {
        31
    } else {
        raw
    }
}

/// Runs `f` under forced-serial and forced-parallel dispatch and returns
/// both results. Holds a file-local guard so concurrent tests in this
/// binary don't interleave their process-wide thread-count overrides.
fn under_both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = parallel::serial_flop_threshold();
    parallel::set_threads(1);
    let serial = f();
    parallel::set_serial_flop_threshold(0);
    parallel::set_threads(4);
    let par = f();
    parallel::set_threads(0);
    parallel::set_serial_flop_threshold(before);
    (serial, par)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_into_bitwise_equals_matmul(
        mr in 0usize..=7,
        kr in 0usize..=7,
        nr in 0usize..=7,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (dim(mr), dim(kr), dim(nr));
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + seed as usize) as f64).sin());
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11 + seed as usize) as f64).cos());
        let (serial, par) = under_both_modes(|| {
            let reference = a.matmul(&b);
            let mut out = vec![f64::NAN; m * n];
            kernels::matmul_into(a.view(), b.view(), MatMut::new(m, n, &mut out));
            (reference, out)
        });
        prop_assert_eq!(serial.0.as_slice(), &serial.1[..]);
        prop_assert_eq!(par.0.as_slice(), &par.1[..]);
        prop_assert_eq!(&serial.1[..], &par.1[..]);
    }

    #[test]
    fn split_matmul_acc_reproduces_concat_bitwise(
        rr in 0usize..=7,
        ixr in 0usize..=7,
        ihr in 0usize..=7,
        nr in 0usize..=7,
    ) {
        // [x | h] @ [Wx ; Wh] == into(x, Wx) then acc_into(h, Wh), exactly.
        let (rows, ix, ih, n) = (dim(rr), dim(ixr), dim(ihr), dim(nr));
        let xm = Matrix::from_fn(rows, ix, |i, j| ((i * 13 + j) as f64).sin());
        let hm = Matrix::from_fn(rows, ih, |i, j| ((i + j * 17) as f64).cos());
        let wx = Matrix::from_fn(ix, n, |i, j| ((i * 3 + j * 7) as f64).sin());
        let wh = Matrix::from_fn(ih, n, |i, j| ((i * 11 + j) as f64).cos());
        let (serial, par) = under_both_modes(|| {
            let combined = xm.hstack(&hm).matmul(&wx.vstack(&wh));
            let mut out = vec![0.0; rows * n];
            kernels::matmul_into(xm.view(), wx.view(), MatMut::new(rows, n, &mut out));
            kernels::matmul_acc_into(hm.view(), wh.view(), MatMut::new(rows, n, &mut out));
            (combined, out)
        });
        prop_assert_eq!(serial.0.as_slice(), &serial.1[..]);
        prop_assert_eq!(par.0.as_slice(), &par.1[..]);
    }

    #[test]
    fn matmul_transpose_kernels_bitwise_equal(
        mr in 0usize..=7,
        kr in 0usize..=7,
        nr in 0usize..=7,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (dim(mr), dim(kr), dim(nr));
        let a = Matrix::from_fn(m, k, |i, j| ((i + j * 9 + seed as usize) as f64).sin());
        let b = Matrix::from_fn(n, k, |i, j| ((i * 2 + j + seed as usize) as f64).cos());
        let (serial, par) = under_both_modes(|| {
            let reference = a.matmul_transpose(&b);
            let mut out = vec![f64::NAN; m * n];
            kernels::matmul_transpose_into(a.view(), b.view(), MatMut::new(m, n, &mut out));
            (reference, out)
        });
        for r in [&serial, &par] {
            prop_assert_eq!(r.0.as_slice(), &r.1[..]);
        }
        prop_assert_eq!(&serial.1[..], &par.1[..]);
    }

    #[test]
    fn transpose_matmul_kernels_bitwise_equal(
        k1r in 0usize..=7,
        k2r in 0usize..=7,
        mr in 0usize..=7,
        nr in 0usize..=7,
        seed in 0u64..1000,
    ) {
        let (k1, k2, m, n) = (dim(k1r), dim(k2r), dim(mr), dim(nr));
        // Row-blocked accumulation: [a1;a2]^T [b1;b2] == acc(a1,b1); acc(a2,b2).
        let a1 = Matrix::from_fn(k1, m, |i, j| ((i * 3 + j + seed as usize) as f64).sin());
        let a2 = Matrix::from_fn(k2, m, |i, j| ((i + j * 5 + seed as usize) as f64).cos());
        let b1 = Matrix::from_fn(k1, n, |i, j| ((i * 7 + j) as f64).sin());
        let b2 = Matrix::from_fn(k2, n, |i, j| ((i + j * 11) as f64).cos());
        let (serial, par) = under_both_modes(|| {
            let whole = a1.vstack(&a2).transpose_matmul(&b1.vstack(&b2));
            let single = a1.transpose_matmul(&b1);
            let mut out = vec![f64::NAN; m * n];
            kernels::transpose_matmul_into(a1.view(), b1.view(), MatMut::new(m, n, &mut out));
            let mut acc = vec![0.0; m * n];
            kernels::transpose_matmul_acc_into(a1.view(), b1.view(), MatMut::new(m, n, &mut acc));
            kernels::transpose_matmul_acc_into(a2.view(), b2.view(), MatMut::new(m, n, &mut acc));
            (whole, single, out, acc)
        });
        for r in [&serial, &par] {
            prop_assert_eq!(r.1.as_slice(), &r.2[..]);
            prop_assert_eq!(r.0.as_slice(), &r.3[..]);
        }
        prop_assert_eq!(&serial.3[..], &par.3[..]);
    }

    #[test]
    fn add_row_broadcast_kernel_bitwise_equal(
        mr in 0usize..=7,
        nr in 0usize..=7,
        seed in 0u64..1000,
    ) {
        let (m, n) = (dim(mr), dim(nr));
        let a = Matrix::from_fn(m, n, |i, j| ((i * 3 + j + seed as usize) as f64).sin());
        let bias = Matrix::from_fn(1, n, |_, j| ((j + seed as usize) as f64).sin());
        let mut biased = a.as_slice().to_vec();
        kernels::add_row_broadcast_into(MatMut::new(m, n, &mut biased), bias.view());
        prop_assert_eq!(a.add_row_broadcast(&bias).into_vec(), biased);
    }
}

// ---------------------------------------------------------------------------
// Gather/scatter kernels: the zero-copy batch pipeline assembles shuffled
// mini-batches and chunked outputs with these, so they must be bitwise equal
// to the allocating `from_fn` / indexed-copy forms they replace.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_rows_matches_indexed_from_fn(
        src in matrix_strategy(9, 4),
        rows in prop::collection::vec(0usize..9, 1..16),
    ) {
        let reference = Matrix::from_fn(rows.len(), 4, |i, j| src[(rows[i], j)]);
        let mut out = vec![f64::NAN; rows.len() * 4];
        kernels::gather_rows_into(src.view(), &rows, MatMut::new(rows.len(), 4, &mut out));
        prop_assert_eq!(reference.as_slice(), &out[..]);
    }

    #[test]
    fn scatter_rows_matches_indexed_writes(
        src in matrix_strategy(6, 3),
        rows in prop::collection::vec(0usize..11, 6),
    ) {
        // Reference: sequential indexed writes into a pre-filled buffer
        // (last write wins on duplicate indices, untouched rows keep their
        // old contents) — exactly the contract `scatter_rows_into` promises.
        let mut reference = Matrix::from_fn(11, 3, |i, j| (i * 3 + j) as f64);
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..3 {
                reference[(r, j)] = src[(i, j)];
            }
        }
        let mut out: Vec<f64> = (0..33).map(|k| k as f64).collect();
        kernels::scatter_rows_into(src.view(), &rows, MatMut::new(11, 3, &mut out));
        prop_assert_eq!(reference.as_slice(), &out[..]);
    }

    #[test]
    fn gather_then_scatter_round_trips(
        src in matrix_strategy(8, 5),
        perm_seed in 0u64..1000,
    ) {
        // A permutation gathered out and scattered back must reproduce the
        // source exactly (the shuffle-is-an-index-permutation invariant the
        // batch planner relies on).
        let mut rows: Vec<usize> = (0..8).collect();
        let mut state = perm_seed.wrapping_add(1);
        for i in (1..rows.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rows.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut gathered = vec![f64::NAN; 8 * 5];
        kernels::gather_rows_into(src.view(), &rows, MatMut::new(8, 5, &mut gathered));
        let mut restored = vec![f64::NAN; 8 * 5];
        let g = Matrix::from_vec(8, 5, gathered);
        kernels::scatter_rows_into(g.view(), &rows, MatMut::new(8, 5, &mut restored));
        prop_assert_eq!(src.as_slice(), &restored[..]);
    }
}

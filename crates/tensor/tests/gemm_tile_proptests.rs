//! Bitwise gate for the register-tiled GEMM under the train step.
//!
//! `kernels::matmul_acc_into` and `kernels::transpose_matmul_acc_into`
//! (and through them the `_into` forms) keep four output rows in registers
//! across the whole `k` range. The contract is **bitwise identity** with
//! the untouched reference loops `Matrix::matmul` and
//! `Matrix::transpose_matmul`, for every shape, every placement of exact
//! zeros (the `a == 0.0` skip is observable: `-0.0`, `0·inf`, `0·NaN`),
//! every starting accumulator and every thread count.
//!
//! The accumulating forms start from a caller's `out`, which the `Matrix`
//! oracles cannot; they are checked against [`reference_acc`], the
//! definition written out element by element, and every case first pins
//! that definition to the two oracles from a zero start.

use evfad_tensor::kernels::{self, MatMut};
use evfad_tensor::{parallel, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output rows: every count around one and two row groups, and 31–33.
const ROWS: [usize; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33];
/// Output columns around every tile width (16, 8, 4, 2, 1) and its
/// multiples, plus the LSTM's gate width.
const COLS: [usize; 17] = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 40, 41, 200];
/// Contraction depths around the x4 row kernel, the paper's hidden size,
/// and one step past the transposed kernel's 128-step staging chunk.
const DEPTHS: [usize; 7] = [0, 1, 3, 4, 5, 50, 129];

/// A nonzero value in `±[0.25, 2)` with a random mantissa, so a fused
/// multiply-add or a regrouped sum rounds differently somewhere.
fn value(rng: &mut StdRng) -> f64 {
    let magnitude = rng.gen_range(0.25..2.0);
    if rng.gen_bool(0.5) {
        magnitude
    } else {
        -magnitude
    }
}

fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| value(rng))
}

/// An exact zero of either sign.
fn zero(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        0.0
    } else {
        -0.0
    }
}

/// `out[i][j] += a[i][k] * b[k][j]` in ascending `k`, an exact-zero
/// `a[i][k]` skipped: what both reference loops compute per element.
fn reference_acc(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let n = b.cols();
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[(k, j)];
            }
        }
    }
}

/// Bit patterns, every NaN folded to one: which operand's payload an
/// `x + NaN` keeps is the instruction selector's choice, not the kernel's.
fn bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
        .collect()
}

#[track_caller]
fn assert_bits(got: &[f64], want: &[f64], what: &str, a: &Matrix, b: &Matrix) {
    assert!(
        bits(got) == bits(want),
        "{what}: {}x{} · {}x{} differs from the reference",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// All four tiled entry points on `a · b`: the overwriting forms against
/// `Matrix::matmul` / `Matrix::transpose_matmul`, the accumulating forms
/// onto `start` against [`reference_acc`].
fn check(a: &Matrix, b: &Matrix, start: &[f64]) {
    let (m, n) = (a.rows(), b.cols());
    let at = a.transpose();

    let mut defined = vec![0.0; m * n];
    reference_acc(a, b, &mut defined);
    let oracle = a.matmul(b);
    assert_bits(&defined, oracle.as_slice(), "definition vs matmul", a, b);
    let oracle_t = at.transpose_matmul(b);
    assert_bits(
        &defined,
        oracle_t.as_slice(),
        "definition vs transpose_matmul",
        a,
        b,
    );

    // Poisoned, so an element the kernel never wrote shows.
    let mut got = vec![f64::NAN; m * n];
    kernels::matmul_into(a.view(), b.view(), MatMut::new(m, n, &mut got));
    assert_bits(&got, oracle.as_slice(), "matmul_into", a, b);
    let mut got = vec![f64::NAN; m * n];
    kernels::transpose_matmul_into(at.view(), b.view(), MatMut::new(m, n, &mut got));
    assert_bits(&got, oracle_t.as_slice(), "transpose_matmul_into", a, b);

    let mut want = start.to_vec();
    reference_acc(a, b, &mut want);
    let mut got = start.to_vec();
    kernels::matmul_acc_into(a.view(), b.view(), MatMut::new(m, n, &mut got));
    assert_bits(&got, &want, "matmul_acc_into", a, b);
    let mut got = start.to_vec();
    kernels::transpose_matmul_acc_into(at.view(), b.view(), MatMut::new(m, n, &mut got));
    assert_bits(&got, &want, "transpose_matmul_acc_into", a, b);
}

/// Every shape of the grid, with the operands and the starting `out` that
/// `case` builds for it.
fn for_each_shape(seed: u64, mut case: impl FnMut(&mut StdRng, usize, usize, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for m in ROWS {
        for n in COLS {
            for k in DEPTHS {
                case(&mut rng, m, k, n);
            }
        }
    }
}

/// Runs `f` with every dispatch eligible for the pool at `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = parallel::serial_flop_threshold();
    parallel::set_serial_flop_threshold(0);
    parallel::set_threads(threads);
    let result = f();
    parallel::set_threads(0);
    parallel::set_serial_flop_threshold(before);
    result
}

#[test]
fn dense_operands_over_the_shape_grid() {
    for_each_shape(1, |rng, m, k, n| {
        let (a, b) = (matrix(rng, m, k), matrix(rng, k, n));
        let start = matrix(rng, m, n);
        check(&a, &b, &vec![0.0; m * n]);
        check(&a, &b, start.as_slice());
    });
}

#[test]
fn whole_zero_rows_and_columns_of_a() {
    for_each_shape(2, |rng, m, k, n| {
        if m == 0 || k == 0 {
            return;
        }
        let (dense, b) = (matrix(rng, m, k), matrix(rng, k, n));
        let start = matrix(rng, m, n);
        let (zero_row, zero_col) = (rng.gen_range(0..m), rng.gen_range(0..k));
        let hole = zero(rng);
        let rows = Matrix::from_fn(
            m,
            k,
            |i, j| if i == zero_row { hole } else { dense[(i, j)] },
        );
        let cols = Matrix::from_fn(
            m,
            k,
            |i, j| if j == zero_col { hole } else { dense[(i, j)] },
        );
        check(&rows, &b, start.as_slice());
        check(&cols, &b, start.as_slice());
        check(&Matrix::zeros(m, k), &b, start.as_slice());
    });
}

#[test]
fn one_zero_in_each_row_of_each_group_in_turn() {
    // The group whose zero sends it down the skipping path must be that
    // group alone: the ones before and after it still owe their rows.
    for (m, k, n) in [(4, 5, 17), (9, 50, 41), (33, 4, 200), (32, 129, 9)] {
        let mut rng = StdRng::seed_from_u64(3);
        let (dense, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
        let start = matrix(&mut rng, m, n);
        for row in 0..m {
            let col = rng.gen_range(0..k);
            let mut a = dense.clone();
            a[(row, col)] = 0.0;
            check(&a, &b, start.as_slice());
        }
    }
}

#[test]
fn negative_zero_accumulators() {
    // `-0.0 + 0.0 * b` is `+0.0`: a skipped term must stay skipped for the
    // sign of an untouched accumulator to survive.
    for_each_shape(4, |rng, m, k, n| {
        let (dense, b) = (matrix(rng, m, k), matrix(rng, k, n));
        let sparse = Matrix::from_fn(m, k, |i, j| match rng.gen_range(0..3) {
            0 => 0.0,
            1 => -0.0,
            _ => dense[(i, j)],
        });
        let start = vec![-0.0; m * n];
        check(&Matrix::zeros(m, k), &b, &start);
        check(&sparse, &b, &start);
        check(&dense, &b, &start);
    });
}

#[test]
fn non_finite_b_opposite_a_zero_in_a() {
    // `0 * inf` and `0 * NaN` are NaN: the reference never forms them.
    for_each_shape(5, |rng, m, k, n| {
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let (mut a, mut b) = (matrix(rng, m, k), matrix(rng, k, n));
        let start = matrix(rng, m, n);
        let poisoned = rng.gen_range(0..k);
        for j in 0..n {
            b[(poisoned, j)] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3)];
        }
        // One row still multiplies the non-finite row of `b`; every other
        // row skips it and must stay finite.
        let live = rng.gen_range(0..m);
        for i in (0..m).filter(|&i| i != live) {
            a[(i, poisoned)] = zero(rng);
        }
        check(&a, &b, start.as_slice());
    });
}

#[test]
fn split_products_at_the_lstm_shapes() {
    // `[x | h] · [W_x ; W_h]` as `matmul_into` then `matmul_acc_into`, and
    // `[a1 ; a2]ᵀ · [b1 ; b2]` as two `transpose_matmul_acc_into` calls:
    // (batch, input, hidden) of the forecaster and of each autoencoder layer.
    let mut rng = StdRng::seed_from_u64(6);
    for (batch, input, hidden) in [
        (32, 1, 50),
        (32, 50, 25),
        (32, 25, 25),
        (32, 25, 50),
        (8, 1, 50),
    ] {
        let gates = 4 * hidden;
        let (x, h) = (
            matrix(&mut rng, batch, input),
            matrix(&mut rng, batch, hidden),
        );
        let (wx, wh) = (
            matrix(&mut rng, input, gates),
            matrix(&mut rng, hidden, gates),
        );
        let combined = x.hstack(&h).matmul(&wx.vstack(&wh));
        let mut out = vec![f64::NAN; batch * gates];
        kernels::matmul_into(x.view(), wx.view(), MatMut::new(batch, gates, &mut out));
        kernels::matmul_acc_into(h.view(), wh.view(), MatMut::new(batch, gates, &mut out));
        assert_bits(&out, combined.as_slice(), "[x|h]·[Wx;Wh]", &h, &wh);

        let dz = matrix(&mut rng, batch, gates);
        let split = batch / 2 + 1;
        let combined = h.transpose_matmul(&dz);
        let mut out = vec![f64::NAN; hidden * gates];
        kernels::transpose_matmul_into(
            h.rows_view(0..split),
            dz.rows_view(0..split),
            MatMut::new(hidden, gates, &mut out),
        );
        kernels::transpose_matmul_acc_into(
            h.rows_view(split..batch),
            dz.rows_view(split..batch),
            MatMut::new(hidden, gates, &mut out),
        );
        assert_bits(&out, combined.as_slice(), "[h1;h2]ᵀ·[dz1;dz2]", &h, &dz);
    }
}

#[test]
fn k_longer_than_the_staging_chunk() {
    // The transposed kernel stages 128 `k` steps at a time and carries the
    // running sums across chunks through `out`.
    let mut rng = StdRng::seed_from_u64(7);
    for k in [127, 128, 129, 255, 256, 257, 300] {
        for (m, n) in [(4, 16), (5, 17), (8, 50), (3, 9)] {
            let (a, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
            let start = matrix(&mut rng, m, n);
            check(&a, &b, start.as_slice());
            let mut holed = a.clone();
            holed[(rng.gen_range(0..m), 128.min(k - 1))] = 0.0;
            check(&holed, &b, start.as_slice());
        }
    }
}

#[test]
fn threads_1_2_4_with_the_threshold_forced_low() {
    // Row blocks move the group boundaries; no element's chain may notice.
    let mut rng = StdRng::seed_from_u64(8);
    for (m, k, n) in [
        (2, 5, 9),
        (9, 50, 41),
        (33, 129, 17),
        (32, 50, 200),
        (7, 4, 1),
    ] {
        let (dense, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
        let start = matrix(&mut rng, m, n);
        let mut holed = dense.clone();
        holed[(rng.gen_range(0..m), rng.gen_range(0..k))] = 0.0;
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                check(&dense, &b, start.as_slice());
                check(&holed, &b, start.as_slice());
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exact zeros of either sign at random positions and densities, on a
    /// random shape of the grid, from a random start.
    #[test]
    fn zeros_at_random_positions(
        mi in 0usize..ROWS.len(),
        ni in 0usize..COLS.len(),
        ki in 0usize..DEPTHS.len(),
        seed in any::<u64>(),
        zero_percent in 0usize..60,
    ) {
        let (m, k, n) = (ROWS[mi], DEPTHS[ki], COLS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let (dense, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
        let start = matrix(&mut rng, m, n);
        let a = Matrix::from_fn(m, k, |i, j| {
            if rng.gen_range(0..100) >= zero_percent {
                dense[(i, j)]
            } else {
                zero(&mut rng)
            }
        });
        check(&a, &b, start.as_slice());
    }
}

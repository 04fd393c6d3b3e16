//! Row-major dense matrix of `f64`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{AddAssign, Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the single tensor type used throughout the workspace; vectors
/// are represented as `1 x n` or `n x 1` matrices, and batched sequence data
/// as one matrix per timestep.
///
/// Shape-mismatched operations **panic** (`-`, [`Matrix::matmul`]) — this
/// matches the workspace's internal invariant that all shapes are decided at
/// model-construction time.
///
/// The products here ([`Matrix::matmul`], [`Matrix::transpose_matmul`],
/// [`Matrix::matmul_transpose`]) and [`Matrix::transpose`] are plain serial
/// loops: the definition that [`crate::kernels`] — what the layers run — is
/// held to bit for bit.
///
/// # Examples
///
/// ```
/// use evfad_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
/// let b = a.transpose();
/// assert_eq!(b.shape(), (3, 1));
/// assert_eq!(a.matmul(&b)[(0, 0)], 14.0);
/// ```
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

// Manual impl so that clones hit the allocation counters (see `alloc_stats`);
// `clone` of a matrix is a fresh heap buffer like any constructor.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        crate::alloc::record_alloc(self.data.len());
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = evfad_tensor::Matrix::zeros(2, 3);
    /// assert_eq!(m.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        crate::alloc::record_alloc(rows * cols);
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot form a {rows}x{cols} matrix",
            data.len()
        );
        crate::alloc::record_alloc(data.len());
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        crate::alloc::record_alloc(data.len());
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        crate::alloc::record_alloc(data.len());
        Self { rows, cols, data }
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row as a slice (panics if out of bounds).
    fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies one column into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, col)]).collect()
    }

    /// Matrix product `self * rhs`: the i-k-j reference loop.
    ///
    /// Every output element takes its `a[i][k] * b[k][j]` terms in ascending
    /// `k`, a term whose `a[i][k]` is exactly `0.0` skipped.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * rhs^T` without materialising the transpose: each output
    /// element is one dot product in ascending `k`, assigned once.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        Matrix::from_fn(self.rows, rhs.rows, |i, j| {
            let mut acc = 0.0;
            for (x, y) in self.row(i).iter().zip(rhs.row(j)) {
                acc += x * y;
            }
            acc
        })
    }

    /// `self^T * rhs` without materialising the transpose: `k` (the shared
    /// row dimension) outermost, so every output element accumulates in
    /// ascending `k`, with the same exact-zero skip as [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.cols, n);
        for k in 0..self.rows {
            let b = rhs.row(k);
            for (i, &a) in self.row(k).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &bj) in out.data[i * n..(i + 1) * n].iter_mut().zip(b) {
                    *o += a * bj;
                }
            }
        }
        out
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.data[j * self.cols + i])
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equally-shaped matrices elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_map shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b));
        Matrix::from_vec(self.rows, self.cols, data.collect())
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `rhs`, scaled by `alpha`, into `self` (`self += alpha * rhs`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds a `1 x cols` row vector to every row (broadcast add).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for (o, &b) in out.row_mut(i).iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute element. Returns `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Horizontally concatenates `self` and `rhs` (`[self | rhs]`).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        out
    }

    /// Vertically concatenates `self` on top of `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vstack col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        crate::alloc::record_alloc(data.len());
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns `true` if every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Borrows the whole matrix as a [`crate::kernels::MatRef`] view.
    pub fn view(&self) -> crate::kernels::MatRef<'_> {
        crate::kernels::MatRef::new(self.rows, self.cols, &self.data)
    }

    /// Borrows a contiguous row range as a [`crate::kernels::MatRef`] view
    /// without copying (rows are contiguous in row-major storage).
    ///
    /// This is how the recurrent layers address the `W_x` / `W_h` blocks of
    /// a combined `(I+H) x 4H` kernel without materialising the split.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn rows_view(&self, range: std::ops::Range<usize>) -> crate::kernels::MatRef<'_> {
        assert!(range.end <= self.rows, "row range out of bounds");
        crate::kernels::MatRef::new(
            range.end - range.start,
            self.cols,
            &self.data[range.start * self.cols..range.end * self.cols],
        )
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{}) [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for (j, v) in self.row(i).iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64 * 0.3 - 1.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64) - (j as f64) * 0.7);
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        for i in 0..3 {
            for j in 0..4 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 * 0.1);
        let b = Matrix::from_fn(5, 4, |i, j| (i as f64 * j as f64) - 2.0);
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for i in 0..3 {
            for j in 0..4 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 7, |i, j| (i * 13 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_assign_adds_elementwise() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, a.zip_map(&b, |x, y| x + y));
    }

    #[test]
    fn broadcast_bias_adds_per_row() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y, Matrix::from_rows(&[vec![11.0, 22.0], vec![13.0, 24.0]]));
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
        let h = a.hstack(&b);
        assert_eq!(h, Matrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]));
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.column(0), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a, Matrix::filled(2, 2, 7.0));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_fn(3, 2, |i, j| i as f64 - j as f64 * 0.5);
        let json = serde_json::to_string(&m).expect("serialize");
        let back: Matrix = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_panics_on_mismatch() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix(1x1)"));
    }

    #[test]
    fn max_abs_known() {
        let m = Matrix::from_rows(&[vec![-4.0, 1.0], vec![2.0, 1.0]]);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn transpose_degenerate_shapes() {
        assert_eq!(Matrix::zeros(3, 0).transpose().shape(), (0, 3));
        assert_eq!(Matrix::zeros(0, 4).transpose().shape(), (4, 0));
        assert_eq!(Matrix::zeros(0, 0).transpose().shape(), (0, 0));
    }

    #[test]
    fn matmul_parallel_matches_serial_bitwise() {
        use crate::kernels::{self, MatMut};
        use crate::parallel;
        let _guard = parallel::test_config_guard();
        // The `Matrix` products are the serial reference; threshold 0 and
        // four threads send every kernel dispatch through the pool.
        let a = Matrix::from_fn(33, 17, |i, j| ((i * 31 + j * 7) as f64).sin());
        let b = Matrix::from_fn(17, 29, |i, j| ((i * 13 + j * 3) as f64).cos());
        let c = Matrix::from_fn(33, 29, |i, j| ((i * 5 + j * 11) as f64).sin());
        let d = Matrix::from_fn(21, 17, |i, j| (i + j) as f64);
        let before = parallel::serial_flop_threshold();
        parallel::set_serial_flop_threshold(0);
        parallel::set_threads(4);
        let mut par = vec![f64::NAN; 33 * 29];
        kernels::matmul_into(a.view(), b.view(), MatMut::new(33, 29, &mut par));
        let mut par_t = vec![f64::NAN; 17 * 29];
        kernels::transpose_matmul_into(a.view(), c.view(), MatMut::new(17, 29, &mut par_t));
        let mut par_mt = vec![f64::NAN; 33 * 21];
        kernels::matmul_transpose_into(a.view(), d.view(), MatMut::new(33, 21, &mut par_mt));
        parallel::set_threads(0);
        parallel::set_serial_flop_threshold(before);
        assert_eq!(
            a.matmul(&b).as_slice(),
            par,
            "matmul must be bitwise stable"
        );
        assert_eq!(a.transpose_matmul(&c).as_slice(), par_t);
        assert_eq!(a.matmul_transpose(&d).as_slice(), par_mt);
    }
}

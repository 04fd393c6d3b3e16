//! Time-major batched sequences: one contiguous buffer plus a shape.
//!
//! Every layer computes on a row-major `(time * batch) x features` operand —
//! the input projection of all timesteps is one GEMM, a timestep is a
//! contiguous row block — so that is how a [`Seq`] is stored. A layer reads
//! its input as a borrowed [`MatRef`] ([`Seq::view`], [`Seq::step`]) and
//! writes its output straight into a caller-owned `Seq` that
//! [`Seq::reshape`] re-dimensions in place, which is what lets one
//! activation arena serve training, evaluation and every batch size.

use evfad_tensor::{MatRef, Matrix};

/// `(time, batch, features)` of a sequence.
pub(crate) type Shape = (usize, usize, usize);

/// A batch of equally long sequences in time-major layout.
///
/// Row `t * batch + b` of the `(time * batch) x features` buffer holds
/// timestep `t` of sequence `b`, so step `t` is the contiguous
/// `batch x features` block [`Seq::step`] borrows. A non-sequential
/// activation (e.g. the output of an `Lstm` with `return_sequences = false`)
/// is a `Seq` with exactly one step.
///
/// Every constructor and [`Seq::reshape`] reject zero timesteps;
/// `Seq::default()` is the one exception — the unshaped buffer (no steps,
/// no storage) a reusable output starts as.
///
/// # Examples
///
/// ```
/// use evfad_nn::Seq;
/// use evfad_tensor::Matrix;
///
/// // Two samples, three timesteps, one feature each.
/// let samples = [
///     Matrix::column_vector(&[1.0, 2.0, 3.0]),
///     Matrix::column_vector(&[4.0, 5.0, 6.0]),
/// ];
/// let seq = Seq::from_samples(&samples);
/// assert_eq!(seq.shape(), (3, 2, 1));
/// assert_eq!(seq.step(1).as_slice(), &[2.0, 5.0]);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Seq {
    time: usize,
    batch: usize,
    features: usize,
    /// Row-major `(time * batch) x features`.
    data: Vec<f64>,
}

// Manual impl so that a clone's backing storage hits the allocation counters
// like any other fresh `Seq` (see `reshape`).
impl Clone for Seq {
    fn clone(&self) -> Self {
        let mut out = Seq::default();
        if self.time > 0 {
            out.copy_from(self);
        }
        out
    }
}

impl Seq {
    /// Creates a sequence batch from time-major `batch x features` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or the step shapes are inconsistent.
    #[cfg(test)]
    pub(crate) fn from_steps(steps: Vec<Matrix>) -> Self {
        assert!(!steps.is_empty(), "a Seq needs at least one step");
        let (batch, features) = steps[0].shape();
        assert!(
            steps.iter().all(|s| s.shape() == (batch, features)),
            "all steps must share the same batch x features shape"
        );
        let mut seq = Seq::default();
        seq.reshape(steps.len(), batch, features);
        for (t, step) in steps.iter().enumerate() {
            seq.step_data_mut(t).copy_from_slice(step.as_slice());
        }
        seq
    }

    /// Creates a single-step sequence (a plain batch of feature vectors),
    /// taking over the matrix's buffer.
    pub fn single(step: Matrix) -> Self {
        let (batch, features) = step.shape();
        Self {
            time: 1,
            batch,
            features,
            data: step.into_vec(),
        }
    }

    /// Builds a time-major batch from per-sample `time x features` matrices.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, the samples disagree on shape, or they
    /// have zero timesteps.
    pub fn from_samples(samples: &[Matrix]) -> Self {
        let mut seq = Seq::default();
        seq.load_samples(samples, |m| m);
        seq
    }

    /// The reusable form of [`Seq::from_samples`]: reshapes to
    /// `time x items.len() x features` and copies `matrix_of(&items[b])`
    /// into batch row `b` of every step. Pure data movement, and no allocation
    /// once the buffer has held a shape this large.
    ///
    /// # Panics
    ///
    /// As [`Seq::from_samples`].
    pub fn load_samples<T>(&mut self, items: &[T], matrix_of: impl Fn(&T) -> &Matrix) {
        let (time, batch, features) = staged_shape(items, &matrix_of);
        self.reshape(time, batch, features);
        stage(items, matrix_of, &mut self.data);
    }

    /// Splits the batch back into per-sample `time x features` matrices.
    pub fn to_samples(&self) -> Vec<Matrix> {
        self.as_seq_ref().to_samples()
    }

    /// Re-dimensions the buffer in place, reusing its capacity. Contents
    /// are unspecified afterwards (the previous values, zero-extended):
    /// every caller overwrites the whole sequence.
    ///
    /// Storage is only acquired when the new shape exceeds every shape the
    /// buffer has held, and then through a [`Matrix`], so
    /// [`alloc_stats`](evfad_tensor::alloc_stats) counts it exactly as it
    /// counts a matrix of that size.
    ///
    /// # Panics
    ///
    /// Panics if `time == 0`.
    pub fn reshape(&mut self, time: usize, batch: usize, features: usize) {
        assert!(time > 0, "a Seq needs at least one step");
        let len = time * batch * features;
        if len > self.data.capacity() {
            self.data = Matrix::zeros(time * batch, features).into_vec();
        } else {
            self.data.resize(len, 0.0);
        }
        (self.time, self.batch, self.features) = (time, batch, features);
    }

    /// Makes `self` a copy of `src` (shape and contents), reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics if `src` is the unshaped default.
    pub fn copy_from(&mut self, src: &Seq) {
        self.reshape(src.time, src.batch, src.features);
        self.data.copy_from_slice(&src.data);
    }

    /// Number of timesteps.
    #[allow(clippy::len_without_is_empty)] // only the unshaped default is empty
    pub fn len(&self) -> usize {
        self.time
    }

    /// Batch size (rows of every step).
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Feature width (columns of every step).
    pub fn features(&self) -> usize {
        self.features
    }

    /// `(time, batch, features)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.time, self.batch, self.features)
    }

    /// Total number of scalar elements (`time * batch * features`).
    pub fn element_count(&self) -> usize {
        self.data.len()
    }

    /// The sequence borrowed: the read side every layer and loss takes.
    pub fn as_seq_ref(&self) -> SeqRef<'_> {
        SeqRef::new(self.shape(), &self.data)
    }

    /// The whole sequence as one `(time * batch) x features` operand.
    pub fn view(&self) -> MatRef<'_> {
        self.as_seq_ref().view()
    }

    /// Flat row-major contents, step after step.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major contents, step after step.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of the `batch x features` step at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn step(&self, t: usize) -> MatRef<'_> {
        self.as_seq_ref().step(t)
    }

    /// Mutable flat row-major contents of the step at time `t`: the
    /// fill-side of every marshalling path (gathers, strided window copies)
    /// and of the layers' per-step input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn step_data_mut(&mut self, t: usize) -> &mut [f64] {
        let block = self.batch * self.features;
        &mut self.data[t * block..(t + 1) * block]
    }

    /// Iterator over the steps in time order.
    pub fn iter(&self) -> impl Iterator<Item = MatRef<'_>> {
        self.as_seq_ref().iter()
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.as_seq_ref().is_finite()
    }
}

/// The shape `items` stage to: each item's `time x features` matrix is a
/// batch row.
///
/// # Panics
///
/// Panics if `items` is empty.
pub(crate) fn staged_shape<T>(items: &[T], matrix_of: impl Fn(&T) -> &Matrix) -> Shape {
    assert!(!items.is_empty(), "from_samples requires samples");
    let (time, features) = matrix_of(&items[0]).shape();
    (time, items.len(), features)
}

/// Copies `matrix_of(&items[b])` into batch row `b` of every step of
/// `dst`, laid out in [`staged_shape`]: pure data movement.
///
/// # Panics
///
/// Panics if the items disagree on shape, or have zero timesteps.
pub(crate) fn stage<T>(items: &[T], matrix_of: impl Fn(&T) -> &Matrix, dst: &mut [f64]) {
    let (time, batch, features) = staged_shape(items, &matrix_of);
    assert!(time > 0, "a Seq needs at least one step");
    for (b, item) in items.iter().enumerate() {
        let sample = matrix_of(item);
        assert_eq!(
            sample.shape(),
            (time, features),
            "all samples must share the same time x features shape"
        );
        let src = sample.as_slice();
        for t in 0..time {
            let at = (t * batch + b) * features;
            dst[at..at + features].copy_from_slice(&src[t * features..(t + 1) * features]);
        }
    }
}

impl<'a> From<&'a Seq> for SeqRef<'a> {
    fn from(seq: &'a Seq) -> Self {
        seq.as_seq_ref()
    }
}

/// A borrowed [`Seq`]: the same time-major layout over storage someone
/// else owns — a caller's `Seq`, or a span of a
/// [`Sequential`](crate::Sequential)'s arena, which is what
/// [`Sequential::forward`](crate::Sequential::forward) returns.
///
/// # Examples
///
/// ```
/// use evfad_nn::{Seq, SeqRef};
/// use evfad_tensor::Matrix;
///
/// let seq = Seq::from_samples(&[Matrix::column_vector(&[1.0, 2.0])]);
/// let view: SeqRef<'_> = seq.as_seq_ref();
/// assert_eq!(view.shape(), (2, 1, 1));
/// assert_eq!(view.to_samples(), seq.to_samples());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqRef<'a> {
    time: usize,
    batch: usize,
    features: usize,
    data: &'a [f64],
}

impl<'a> SeqRef<'a> {
    /// `data` read as a `time x batch x features` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly that many values.
    pub(crate) fn new((time, batch, features): Shape, data: &'a [f64]) -> Self {
        assert_eq!(
            data.len(),
            time * batch * features,
            "sequence buffer length"
        );
        Self {
            time,
            batch,
            features,
            data,
        }
    }

    /// Number of timesteps.
    #[allow(clippy::len_without_is_empty)] // a sequence has at least one step
    pub fn len(&self) -> usize {
        self.time
    }

    /// Batch size (rows of every step).
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Feature width (columns of every step).
    pub fn features(&self) -> usize {
        self.features
    }

    /// `(time, batch, features)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.time, self.batch, self.features)
    }

    /// Total number of scalar elements (`time * batch * features`).
    pub fn element_count(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major contents, step after step.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// The whole sequence as one `(time * batch) x features` operand.
    pub fn view(&self) -> MatRef<'a> {
        MatRef::new(self.time * self.batch, self.features, self.data)
    }

    /// Borrow of the `batch x features` step at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn step(&self, t: usize) -> MatRef<'a> {
        let block = self.batch * self.features;
        MatRef::new(
            self.batch,
            self.features,
            &self.data[t * block..(t + 1) * block],
        )
    }

    /// Iterator over the steps in time order.
    pub fn iter(&self) -> impl Iterator<Item = MatRef<'a>> + 'a {
        let this = *self;
        (0..self.time).map(move |t| this.step(t))
    }

    /// Splits the batch back into per-sample `time x features` matrices.
    pub fn to_samples(&self) -> Vec<Matrix> {
        (0..self.batch)
            .map(|b| {
                Matrix::from_fn(self.time, self.features, |t, f| {
                    self.data[(t * self.batch + b) * self.features + f]
                })
            })
            .collect()
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Panics unless the shape is `shape`: a layer's backward checking that
    /// `what` is its training forward's.
    pub(crate) fn expect_shape(&self, shape: Shape, what: &str) {
        assert_eq!(self.shape(), shape, "{what} is not the forward's");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_round_trips() {
        let samples = vec![
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]),
            Matrix::from_rows(&[vec![9.0, 10.0], vec![11.0, 12.0]]),
        ];
        let seq = Seq::from_samples(&samples);
        assert_eq!(seq.shape(), (2, 3, 2));
        assert_eq!(seq.to_samples(), samples);
    }

    #[test]
    fn time_major_layout() {
        let samples = vec![
            Matrix::column_vector(&[1.0, 2.0]),
            Matrix::column_vector(&[3.0, 4.0]),
        ];
        let seq = Seq::from_samples(&samples);
        // step 0 holds t=0 of both samples; the view stacks the steps.
        assert_eq!(seq.step(0).as_slice(), &[1.0, 3.0]);
        assert_eq!(seq.step(1).as_slice(), &[2.0, 4.0]);
        assert_eq!(seq.view().as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!((seq.view().rows(), seq.view().cols()), (4, 1));
    }

    #[test]
    fn single_has_one_step() {
        let s = Seq::single(Matrix::zeros(4, 2));
        assert_eq!(s.shape(), (1, 4, 2));
        assert_eq!(s.element_count(), 8);
    }

    #[test]
    fn from_steps_equals_from_samples() {
        let seq = Seq::from_steps(vec![Matrix::filled(1, 1, 0.0), Matrix::filled(1, 1, 1.0)]);
        assert_eq!(
            seq,
            Seq::from_samples(&[Matrix::column_vector(&[0.0, 1.0])])
        );
        let vals: Vec<f64> = seq.iter().map(|m| m.as_slice()[0]).collect();
        assert_eq!(vals, vec![0.0, 1.0]);
    }

    #[test]
    fn reshape_keeps_the_buffer_usable_at_every_shape() {
        let mut seq = Seq::default();
        seq.reshape(4, 3, 2);
        seq.reshape(1, 3, 2);
        seq.reshape(2, 4, 3);
        seq.step_data_mut(1).fill(7.0);
        assert_eq!(seq.step(1).as_slice(), &[7.0; 12]);
        assert_eq!(seq.element_count(), 24);
    }

    #[test]
    fn clone_and_copy_from_preserve_shape_and_contents() {
        let seq = Seq::from_samples(&[Matrix::column_vector(&[1.0, 2.0, 3.0])]);
        assert_eq!(seq.clone(), seq);
        let mut other = Seq::single(Matrix::zeros(5, 5));
        other.copy_from(&seq);
        assert_eq!(other, seq);
        assert_eq!(Seq::default().clone(), Seq::default());
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_steps_panic() {
        let _ = Seq::from_steps(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_timestep_samples_panic() {
        let _ = Seq::from_samples(&[Matrix::zeros(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "same time x features")]
    fn mismatched_samples_panic() {
        let _ = Seq::from_samples(&[Matrix::zeros(2, 1), Matrix::zeros(3, 1)]);
    }

    #[test]
    fn is_finite_propagates() {
        let mut m = Matrix::ones(1, 1);
        m[(0, 0)] = f64::INFINITY;
        assert!(!Seq::single(m).is_finite());
    }
}

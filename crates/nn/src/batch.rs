//! One-time epoch marshalling: time-major sample stacks consumed by gathers.

use crate::model::Sample;
use crate::seq::Seq;
use evfad_tensor::{kernels, MatMut};

/// A time-major stack of every training sample, built once per
/// [`fit`](crate::Sequential::fit).
///
/// The stack is a [`Seq`] whose batch axis is the whole training set: row
/// `i` of step `t` holds timestep `t` of sample `i` (likewise for targets).
/// A shuffled mini-batch is then just an index slice consumed by
/// [`BatchPlan::gather_into`]: one
/// [`gather_rows_into`](evfad_tensor::kernels::gather_rows_into) per step
/// replaces the per-batch clone + [`Seq::from_samples`] marshalling.
///
/// # Bitwise contract
///
/// `from_samples` puts sample `b`'s timestep `t` in row `b` of step `t`;
/// the gather copies row `idx[b]` of the stack's step `t`, which is sample
/// `idx[b]`'s timestep `t`. Both are pure copies of the same values into
/// the same positions, so the gathered batch is byte-identical to the
/// clone + `from_samples` batch for every shuffle order.
///
/// # Examples
///
/// ```
/// use evfad_nn::{BatchPlan, Sample, Seq};
/// use evfad_tensor::Matrix;
///
/// let samples: Vec<Sample> = (0..4)
///     .map(|i| Sample::autoencoding(Matrix::column_vector(&[i as f64, -(i as f64)])))
///     .collect();
/// let plan = BatchPlan::new(&samples);
/// let (mut bin, mut btg) = (Seq::default(), Seq::default());
/// plan.gather_into(&[3, 1], &mut bin, &mut btg);
/// let expect = Seq::from_samples(&[samples[3].input.clone(), samples[1].input.clone()]);
/// assert_eq!(bin, expect);
/// ```
#[derive(Debug, Clone)]
pub struct BatchPlan {
    inputs: Seq,
    targets: Seq,
}

impl BatchPlan {
    /// Stacks `samples` time-major, once.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, if any sample disagrees on input or
    /// target shape, or if either shape has zero timesteps.
    pub fn new(samples: &[Sample]) -> Self {
        let (mut inputs, mut targets) = (Seq::default(), Seq::default());
        inputs.load_samples(samples, |s| &s.input);
        targets.load_samples(samples, |s| &s.target);
        Self { inputs, targets }
    }

    /// Number of stacked samples.
    pub fn len(&self) -> usize {
        self.inputs.batch_size()
    }

    /// Always `false`: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers the samples listed in `idx` into time-major input/target
    /// batches, reshaping the two buffers in place (zero matrix
    /// allocations once they have held a batch this large).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or contains an index `>= self.len()`.
    pub fn gather_into(&self, idx: &[usize], input: &mut Seq, target: &mut Seq) {
        assert!(!idx.is_empty(), "gather_into requires a non-empty batch");
        for (stack, out) in [(&self.inputs, input), (&self.targets, target)] {
            let (time, feat) = (stack.len(), stack.features());
            out.reshape(time, idx.len(), feat);
            for t in 0..time {
                kernels::gather_rows_into(
                    stack.step(t),
                    idx,
                    MatMut::new(idx.len(), feat, out.step_data_mut(t)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evfad_tensor::Matrix;

    fn samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let xs: Vec<f64> = (0..5).map(|t| ((i * 5 + t) as f64 * 0.3).sin()).collect();
                Sample::new(
                    Matrix::column_vector(&xs),
                    Matrix::from_vec(1, 1, vec![(i as f64).cos()]),
                )
            })
            .collect()
    }

    #[test]
    fn gather_matches_clone_plus_from_samples() {
        let train = samples(7);
        let plan = BatchPlan::new(&train);
        assert_eq!(plan.len(), 7);
        let idx = [6usize, 2, 2, 0, 5];
        let (mut bin, mut btg) = (Seq::default(), Seq::default());
        plan.gather_into(&idx, &mut bin, &mut btg);
        let inputs: Vec<Matrix> = idx.iter().map(|&i| train[i].input.clone()).collect();
        let targets: Vec<Matrix> = idx.iter().map(|&i| train[i].target.clone()).collect();
        assert_eq!(bin, Seq::from_samples(&inputs));
        assert_eq!(btg, Seq::from_samples(&targets));
    }

    #[test]
    fn gather_reuses_buffers_across_batches() {
        let train = samples(6);
        let plan = BatchPlan::new(&train);
        let (mut bin, mut btg) = (Seq::default(), Seq::default());
        plan.gather_into(&[0, 1, 2], &mut bin, &mut btg);
        plan.gather_into(&[5, 4], &mut bin, &mut btg);
        let inputs: Vec<Matrix> = [5, 4].iter().map(|&i| train[i].input.clone()).collect();
        assert_eq!(bin, Seq::from_samples(&inputs));
    }

    #[test]
    #[should_panic(expected = "same time x features")]
    fn mismatched_samples_panic() {
        let mut s = samples(3);
        s[1].input = Matrix::zeros(2, 1);
        let _ = BatchPlan::new(&s);
    }
}

//! Weight initialisers.
//!
//! The paper's models are Keras `Sequential` stacks, whose kernels default
//! to Glorot-uniform initialisation. [`Initializer`] reproduces that family
//! plus the simple schemes used in tests.

use crate::matrix::Matrix;
use rand::Rng;

/// Returns the Glorot-uniform limit `sqrt(6 / (fan_in + fan_out))`.
///
/// # Examples
///
/// ```
/// let l = evfad_tensor::glorot_limit(3, 3);
/// assert!((l - 1.0).abs() < 1e-12);
/// ```
pub fn glorot_limit(fan_in: usize, fan_out: usize) -> f64 {
    (6.0 / (fan_in + fan_out) as f64).sqrt()
}

/// A strategy for filling a freshly created weight matrix.
///
/// # Examples
///
/// ```
/// use evfad_tensor::Initializer;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let w = Initializer::GlorotUniform.init(4, 8, &mut rng);
/// assert_eq!(w.shape(), (4, 8));
/// let limit = evfad_tensor::glorot_limit(4, 8);
/// assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Initializer {
    /// All zeros (used for biases).
    Zeros,
    /// Every element equal to the given constant.
    Constant(f64),
    /// Uniform in `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f64,
    },
    /// Glorot/Xavier uniform: `U(-l, l)` with `l = sqrt(6/(fan_in+fan_out))`.
    ///
    /// `fan_in`/`fan_out` are taken from the matrix shape (`rows`/`cols`).
    #[default]
    GlorotUniform,
}

impl Initializer {
    /// Creates a `rows x cols` matrix filled according to the strategy.
    pub fn init(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        match self {
            Initializer::Zeros => Matrix::zeros(rows, cols),
            Initializer::Constant(c) => Matrix::filled(rows, cols, c),
            Initializer::Uniform { limit } => {
                Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
            }
            Initializer::GlorotUniform => {
                let l = glorot_limit(rows, cols);
                Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-l..=l))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Initializer::Zeros.init(3, 3, &mut rng);
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn constant_fills() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Initializer::Constant(2.5).init(2, 2, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn glorot_respects_limit() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Initializer::GlorotUniform.init(10, 20, &mut rng);
        let l = glorot_limit(10, 20);
        assert!(m.max_abs() <= l);
        // With 200 samples the spread should actually use the range.
        assert!(m.max_abs() > l * 0.5);
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Initializer::Uniform { limit: 0.1 }.init(5, 5, &mut rng);
        assert!(m.max_abs() <= 0.1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = Initializer::GlorotUniform.init(4, 4, &mut StdRng::seed_from_u64(9));
        let b = Initializer::GlorotUniform.init(4, 4, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn glorot_limit_formula() {
        assert!((glorot_limit(50, 200) - (6.0_f64 / 250.0).sqrt()).abs() < 1e-15);
    }
}

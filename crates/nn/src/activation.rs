//! Pointwise activation functions.

use evfad_tensor::vmath;
use serde::{Deserialize, Serialize};

/// Pointwise activation applied by [`Dense`](crate::Dense) layers.
///
/// The derivative is expressed in terms of the *output* value, which is what
/// the layer caches (matching the usual sigmoid/tanh backprop identities).
///
/// # Examples
///
/// ```
/// use evfad_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(2.0), 2.0);
/// let y = Activation::Sigmoid.apply(0.0);
/// assert!((y - 0.5).abs() < 1e-12);
/// assert!((Activation::Sigmoid.derivative_from_output(y) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Identity.
    #[default]
    Linear,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Logistic sigmoid `1 / (1 + e^{-x})`: [`vmath::sigmoid1_f64`], the
    /// function the recurrent gates use. Positive for every finite input.
    Sigmoid,
    /// Hyperbolic tangent: [`vmath::tanh1_f64`].
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => vmath::sigmoid1_f64(x),
            Activation::Tanh => vmath::tanh1_f64(x),
        }
    }

    /// Derivative of the activation expressed via its output `y = f(x)`.
    ///
    /// For ReLU the subgradient at zero is taken as `0`.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Stable human-readable name (used in model summaries).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Linear => "linear",
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(Activation::Sigmoid.apply(1e4), 1.0);
        // The kernel clamps at ±40: the low side saturates at σ(−40), it
        // does not reach 0.
        for x in [-1e4, -745.0, f64::NEG_INFINITY] {
            let y = Activation::Sigmoid.apply(x);
            assert!(y > 0.0 && y < 1e-17, "σ({x}) = {y}");
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 0.5, 2.0, 10.0] {
            let p = Activation::Sigmoid.apply(x);
            let n = Activation::Sigmoid.apply(-x);
            assert!((p + n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
        ] {
            for &x in &[-1.5, -0.3, 0.4, 2.0] {
                let y = act.apply(x);
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let ana = act.derivative_from_output(y);
                assert!(
                    (num - ana).abs() < 1e-5,
                    "{}: x={x} num={num} ana={ana}",
                    act.name()
                );
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }

    #[test]
    fn tanh_range() {
        assert!(Activation::Tanh.apply(100.0) <= 1.0);
        assert!(Activation::Tanh.apply(-100.0) >= -1.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Activation::Relu.name(), "relu");
        assert_eq!(Activation::default(), Activation::Linear);
    }
}

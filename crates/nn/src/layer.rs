//! Enum dispatch over the concrete layer types.
//!
//! Every layer kind has exactly one `forward(input, training, out)` and one
//! crate-private `backward(input, output, grad, dx, scratch)`: activations
//! and input gradients land in caller-owned [`Seq`]s —
//! [`Sequential`](crate::Sequential)'s arena in practice — that the layer
//! reshapes in place, so training and inference are the same code and
//! neither allocates once the buffers are warm; backward reads its
//! forward's input and output back from the caller and works in the one
//! scratch the model lends every layer's backward in turn.

use crate::layers::{Dense, Dropout, Lstm, RepeatVector};
use crate::seq::Seq;
use crate::workspace::Workspace;
use evfad_tensor::Matrix;

/// Any layer a [`Sequential`](crate::Sequential) model can contain.
///
/// Enum dispatch (rather than trait objects) keeps models `Clone`; the
/// federated stack moves only their weights, as `EVFD` records.
///
/// # Examples
///
/// ```
/// use evfad_nn::{Activation, Dense, Layer};
///
/// let layer: Layer = Dense::new_seeded(4, 2, Activation::Relu, 0).into();
/// assert_eq!(layer.params().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected (time-distributed) layer.
    Dense(Dense),
    /// LSTM recurrent layer.
    Lstm(Lstm),
    /// Inverted dropout.
    Dropout(Dropout),
    /// Keras-style RepeatVector.
    RepeatVector(RepeatVector),
}

impl Layer {
    /// Forward pass into `out`, which is reshaped to the layer's output
    /// shape with its storage reused. Backward caches are populated when
    /// `training` is `true`; an eval forward never disturbs them.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        match self {
            Layer::Dense(l) => l.forward(input, training, out),
            Layer::Lstm(l) => l.forward(input, training, out),
            Layer::Dropout(l) => l.forward(input, training, out),
            Layer::RepeatVector(l) => l.forward(input, training, out),
        }
    }

    /// Backward pass: accumulates parameter gradients and, when `dx` is
    /// given, writes the gradient with respect to the layer input into it
    /// (reshaped, storage reused). `None` skips the input-gradient product
    /// — the first layer of a model has no consumer for it — and leaves
    /// the parameter gradients identical. `input` and `output` are the
    /// `input` and `out` of the layer's last training forward, unchanged;
    /// a recurrent or dense layer panics if they are not of its shape.
    /// No layer reads a `scratch` slot before writing it, so one scratch
    /// serves every layer in turn.
    pub(crate) fn backward(
        &mut self,
        input: &Seq,
        output: &Seq,
        grad: &Seq,
        dx: Option<&mut Seq>,
        scratch: &mut Workspace,
    ) {
        match self {
            Layer::Dense(l) => l.backward(input, output, grad, dx, scratch),
            Layer::Lstm(l) => l.backward(input, output, grad, dx, scratch),
            Layer::Dropout(l) => l.backward(grad, dx),
            Layer::RepeatVector(l) => l.backward(grad, dx),
        }
    }

    /// Immutable views of the trainable parameter tensors.
    pub fn params(&self) -> Vec<&Matrix> {
        match self {
            Layer::Dense(l) => l.params(),
            Layer::Lstm(l) => l.params(),
            Layer::Dropout(_) | Layer::RepeatVector(_) => Vec::new(),
        }
    }

    /// Mutable `(parameter, gradient)` pairs for the optimiser, in
    /// [`Layer::params`] order; walking them allocates nothing.
    pub fn params_and_grads_mut(&mut self) -> impl Iterator<Item = (&mut Matrix, &mut Matrix)> {
        let pairs = match self {
            Layer::Dense(l) => Some(l.params_and_grads_mut()),
            Layer::Lstm(l) => Some(l.params_and_grads_mut()),
            Layer::Dropout(_) | Layer::RepeatVector(_) => None,
        };
        pairs.into_iter().flatten()
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        match self {
            Layer::Dense(l) => l.zero_grads(),
            Layer::Lstm(l) => l.zero_grads(),
            Layer::Dropout(_) | Layer::RepeatVector(_) => {}
        }
    }

    /// Drops the layer's arenas — workspace, training cache, dropout
    /// mask — and keeps its weights, gradients and dropout RNG state.
    pub(crate) fn release_arenas(&mut self) {
        match self {
            Layer::Dense(l) => l.release_arenas(),
            Layer::Lstm(l) => l.release_arenas(),
            Layer::Dropout(l) => l.release_arenas(),
            Layer::RepeatVector(_) => {}
        }
    }

    /// The layer as a serving replica holds it: parameters and shape, no
    /// gradients or workspace; `None` for dropout, the identity at
    /// inference.
    pub(crate) fn serving_copy(&self) -> Option<Layer> {
        Some(match self {
            Layer::Dense(l) => Layer::Dense(l.serving_copy()),
            Layer::Lstm(l) => Layer::Lstm(l.serving_copy()),
            Layer::Dropout(_) => return None,
            Layer::RepeatVector(l) => Layer::RepeatVector(l.clone()),
        })
    }
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Self {
        Layer::Dense(l)
    }
}

impl From<Lstm> for Layer {
    fn from(l: Lstm) -> Self {
        Layer::Lstm(l)
    }
}

impl From<Dropout> for Layer {
    fn from(l: Dropout) -> Self {
        Layer::Dropout(l)
    }
}

impl From<RepeatVector> for Layer {
    fn from(l: RepeatVector) -> Self {
        Layer::RepeatVector(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    #[test]
    fn kinds_and_param_counts() {
        let d: Layer = Dense::new_seeded(2, 2, Activation::Linear, 0).into();
        let l: Layer = Lstm::new_seeded(1, 2, false, 0).into();
        let p: Layer = Dropout::new(0.1).into();
        let r: Layer = RepeatVector::new(2).into();
        assert_eq!(d.params().len(), 2);
        assert_eq!(l.params().len(), 2);
        assert_eq!(p.params().len(), 0);
        assert_eq!(r.params().len(), 0);
    }

    #[test]
    fn forward_dispatches() {
        let mut d: Layer = Dense::new_seeded(2, 3, Activation::Linear, 0).into();
        let mut y = Seq::default();
        d.forward(&Seq::single(Matrix::ones(1, 2)), false, &mut y);
        assert_eq!(y.shape(), (1, 1, 3));
    }
}

//! Enum dispatch over the concrete layer types.
//!
//! Every layer kind has exactly one `forward(input, training, out)` and one
//! `backward(grad, dx)`: activations and input gradients land in
//! caller-owned [`Seq`]s — [`Sequential`](crate::Sequential)'s arena in
//! practice — that the layer reshapes in place, so training and inference
//! are the same code and neither allocates once the buffers are warm.

use crate::layers::{Dense, Dropout, Gru, Lstm, RepeatVector};
use crate::seq::Seq;
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
/// assert_eq!(layer.kind(), "dense");
/// ```
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected (time-distributed) layer.
    Dense(Dense),
    /// LSTM recurrent layer.
    Lstm(Lstm),
    /// GRU recurrent layer.
    Gru(Gru),
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
            Layer::Gru(l) => l.forward(input, training, out),
            Layer::Dropout(l) => l.forward(input, training, out),
            Layer::RepeatVector(l) => l.forward(input, training, out),
        }
    }

    /// Backward pass: accumulates parameter gradients and, when `dx` is
    /// given, writes the gradient with respect to the layer input into it
    /// (reshaped, storage reused). `None` skips the input-gradient product
    /// — the first layer of a model has no consumer for it — and leaves
    /// the parameter gradients identical.
    pub fn backward(&mut self, grad: &Seq, dx: Option<&mut Seq>) {
        match self {
            Layer::Dense(l) => l.backward(grad, dx),
            Layer::Lstm(l) => l.backward(grad, dx),
            Layer::Gru(l) => l.backward(grad, dx),
            Layer::Dropout(l) => l.backward(grad, dx),
            Layer::RepeatVector(l) => l.backward(grad, dx),
        }
    }

    /// Immutable views of the trainable parameter tensors.
    pub fn params(&self) -> Vec<&Matrix> {
        match self {
            Layer::Dense(l) => l.params(),
            Layer::Lstm(l) => l.params(),
            Layer::Gru(l) => l.params(),
            Layer::Dropout(_) | Layer::RepeatVector(_) => Vec::new(),
        }
    }

    /// Mutable `(parameter, gradient)` pairs for the optimiser.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        match self {
            Layer::Dense(l) => l.params_and_grads_mut(),
            Layer::Lstm(l) => l.params_and_grads_mut(),
            Layer::Gru(l) => l.params_and_grads_mut(),
            Layer::Dropout(_) | Layer::RepeatVector(_) => Vec::new(),
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        match self {
            Layer::Dense(l) => l.zero_grads(),
            Layer::Lstm(l) => l.zero_grads(),
            Layer::Gru(l) => l.zero_grads(),
            Layer::Dropout(_) | Layer::RepeatVector(_) => {}
        }
    }

    /// Short stable identifier for summaries (`"dense"`, `"lstm"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Dense(_) => "dense",
            Layer::Lstm(_) => "lstm",
            Layer::Gru(_) => "gru",
            Layer::Dropout(_) => "dropout",
            Layer::RepeatVector(_) => "repeat_vector",
        }
    }

    /// The layer as a serving replica holds it: parameters and shape, no
    /// gradients or workspace; `None` for dropout, the identity at
    /// inference.
    pub(crate) fn serving_copy(&self) -> Option<Layer> {
        Some(match self {
            Layer::Dense(l) => Layer::Dense(l.serving_copy()),
            Layer::Lstm(l) => Layer::Lstm(l.serving_copy()),
            Layer::Gru(l) => Layer::Gru(l.serving_copy()),
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

impl From<Gru> for Layer {
    fn from(l: Gru) -> Self {
        Layer::Gru(l)
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
        assert_eq!(d.kind(), "dense");
        assert_eq!(l.kind(), "lstm");
        assert_eq!(p.kind(), "dropout");
        assert_eq!(r.kind(), "repeat_vector");
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

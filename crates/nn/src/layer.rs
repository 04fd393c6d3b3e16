//! Enum dispatch over the concrete layer types.
//!
//! Every layer kind declares its output shape and its slots — what its
//! training forward keeps for its backward, what its backward works in,
//! what its eval forward works in — and owns no buffer for them. It has one
//! crate-private `forward_in(input, training, out, slots)` and one
//! `backward(input, output, grad, dx, cache, scratch)`, each writing into
//! spans of [`Sequential`](crate::Sequential)'s arena that the model's plan
//! lays out from those declarations, so training and inference are the
//! same code and neither allocates once the arena is warm; backward reads
//! its forward's input and output back from the caller. The public
//! `forward(input, training, out)` runs one layer on its own, in slots
//! sized for the call.

use crate::arena::Slots;
use crate::layers::{Dense, Dropout, Lstm, RepeatVector};
use crate::seq::{Seq, SeqRef, Shape};
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
    /// Forward pass of the layer on its own into `out`, which is reshaped
    /// to the layer's output shape with its storage reused; whatever slots
    /// it works in are sized for the call and dropped with it.
    pub fn forward(&mut self, input: &Seq, training: bool, out: &mut Seq) {
        match self {
            Layer::Dense(l) => l.forward(input, training, out),
            Layer::Lstm(l) => l.forward(input, training, out),
            Layer::Dropout(l) => l.forward(input, training, out),
            Layer::RepeatVector(l) => l.forward(input, training, out),
        }
    }

    /// The layer's output shape for an input of `input`.
    pub(crate) fn output_shape(&self, input: Shape) -> Shape {
        match self {
            Layer::Dense(l) => l.output_shape(input),
            Layer::Lstm(l) => l.output_shape(input),
            Layer::Dropout(_) => input,
            Layer::RepeatVector(l) => l.output_shape(input),
        }
    }

    /// The slots the layer declares at an input of `input`.
    pub(crate) fn slots(&self, input: Shape) -> Slots {
        match self {
            Layer::Dense(l) => l.slots(input),
            Layer::Lstm(l) => l.slots(input),
            Layer::Dropout(_) | Layer::RepeatVector(_) => Slots::default(),
        }
    }

    /// Forward pass into `out`, a buffer of the output shape, working in
    /// `slots`: its span of the training caches when `training`, else the
    /// eval slots. A training forward leaves its BPTT state there; an eval
    /// forward may overwrite what a training forward left, so a layer
    /// forgets its training shape on an eval forward.
    pub(crate) fn forward_in(
        &mut self,
        input: SeqRef<'_>,
        training: bool,
        out: &mut [f64],
        slots: &mut [f64],
    ) {
        match self {
            Layer::Dense(l) => l.forward_in(input, training, out),
            Layer::Lstm(l) => l.forward_in(input, training, out, slots),
            Layer::Dropout(l) => l.forward_in(input, training, out),
            Layer::RepeatVector(l) => l.forward_in(input, out),
        }
    }

    /// Backward pass: accumulates parameter gradients and, when `dx` is
    /// given, writes the gradient with respect to the layer input into it
    /// (a buffer of the input's shape). `None` skips the input-gradient
    /// product — the first layer of a model has no consumer for it — and
    /// leaves the parameter gradients identical. `input` and `output` are
    /// the `input` and `out` of the layer's last training forward and
    /// `cache` the slots it worked in, all unchanged; a recurrent or dense
    /// layer panics if they are not of its shape. No layer reads a
    /// `scratch` value before writing it, so one scratch serves every layer
    /// in turn.
    pub(crate) fn backward(
        &mut self,
        input: SeqRef<'_>,
        output: SeqRef<'_>,
        grad: SeqRef<'_>,
        dx: Option<&mut [f64]>,
        cache: &mut [f64],
        scratch: &mut [f64],
    ) {
        match self {
            Layer::Dense(l) => l.backward(input, output, grad, dx, scratch),
            Layer::Lstm(l) => l.backward(input, output, grad, dx, cache, scratch),
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

    /// Forgets the layer's pending training forward and drops its dropout
    /// mask; keeps its weights, gradients and dropout RNG state.
    pub(crate) fn release_arenas(&mut self) {
        match self {
            Layer::Dense(l) => l.release_arenas(),
            Layer::Lstm(l) => l.release_arenas(),
            Layer::Dropout(l) => l.release_arenas(),
            Layer::RepeatVector(_) => {}
        }
    }

    /// The layer as a serving replica holds it: parameters and shape, no
    /// gradients; `None` for dropout, the identity at inference.
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

//! The model's one arena and the plan that lays a call out in it.
//!
//! A [`Sequential`](crate::Sequential) keeps every `f64` buffer a call
//! works in — activations, BPTT caches, backward scratch, eval slots,
//! gradient and staging buffers — in one `Vec<f64>`. Before each call a
//! [`Plan`] walks the layers with the call's phase and input shape. Each
//! layer declares its output shape and its [`Slots`]: what its training
//! forward keeps for its backward (its cache), what its backward works in
//! while it runs (scratch) and what its eval forward works in (eval
//! slots). The plan places them in five regions:
//!
//! * a training step: `[outputs | caches | scratch | gradient | gradient]`
//!   — every layer's output and cache in layer order, one scratch as long
//!   as the widest layer's, and the two input-gradient buffers the backward
//!   chain alternates between, the loss gradient in the first;
//! * an eval pass: `[staged input | staged target | output | output | eval
//!   slots]` — the batch `predict` or `evaluate` stages, two output buffers
//!   the layers alternate between, one eval scratch as long as the widest
//!   layer's.
//!
//! Both start at offset 0. That is safe because no training cache outlives
//! the call that wrote it: the backward pass is crate-private and runs
//! straight after its forward, so an eval pass may overwrite what the step
//! before it left, and the arena is as long as the larger layout, not the
//! two together. No region is read before its call writes it, so the arena
//! grows into fresh zeroed memory and a warm call fills nothing.

use crate::layer::Layer;
use crate::seq::Shape;
use evfad_tensor::Matrix;

/// The one buffer a model's calls are laid out in. It only grows, and
/// only a release or a drop frees it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    buf: Vec<f64>,
    /// `f64`s zero-filled growing.
    #[cfg(test)]
    pub zero_filled: usize,
}

impl Arena {
    /// The first `len` values of the arena, grown first if it is shorter:
    /// into fresh zeroed memory, the old buffer freed before — nothing in
    /// it outlives a call, so nothing is copied.
    pub fn lay_out(&mut self, len: usize) -> &mut [f64] {
        if self.buf.len() < len {
            self.free();
            // Through a `Matrix`, so `alloc_stats` counts the growth.
            self.buf = Matrix::zeros(1, len).into_vec();
            #[cfg(test)]
            {
                self.zero_filled += len;
            }
        }
        &mut self.buf[..len]
    }

    /// Frees the buffer, shrunk to one value first. Handed back a large
    /// block it had mapped on its own, glibc's malloc raises its mmap
    /// threshold to that block's size and from then on serves every smaller
    /// request — the next model's arena among them — from per-thread heaps
    /// that keep freed pages resident; shrinking the mapping in place moves
    /// no threshold.
    pub fn free(&mut self) {
        self.buf.truncate(1);
        self.buf.shrink_to_fit();
        self.buf = Vec::new();
    }

    /// Every value the arena holds.
    #[cfg(test)]
    pub fn values(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        self.free();
    }
}

/// Splits `buf` into consecutive blocks of the given lengths; what is left
/// over is not handed out.
///
/// # Panics
///
/// Panics if `buf` is shorter than the lengths together.
pub(crate) fn carve<const N: usize>(mut buf: &mut [f64], lens: [usize; N]) -> [&mut [f64]; N] {
    lens.map(|len| {
        let (block, rest) = std::mem::take(&mut buf).split_at_mut(len);
        buf = rest;
        block
    })
}

/// Elements of a sequence of `shape`.
pub(crate) fn elems((time, batch, features): Shape) -> usize {
    time * batch * features
}

/// The `f64`s one layer declares at one input shape, by lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Slots {
    /// Kept by a training forward for its backward.
    pub cache: usize,
    /// Worked in by a backward while it runs.
    pub scratch: usize,
    /// Worked in by an eval forward while it runs.
    pub eval: usize,
}

/// One layer's place in a call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// Shape of the layer's input.
    pub input: Shape,
    /// Shape of its output.
    pub output: Shape,
    /// What it declares at `input`.
    pub slots: Slots,
    /// Offset of its output in a training step's output region.
    pub act: usize,
    /// Offset of its cache in a training step's cache region.
    pub cache: usize,
}

/// The layout of one call in the arena: a span per layer and the lengths
/// of the five regions, in arena order. Rebuilt before every call into the
/// same table, so a warm call allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plan {
    pub spans: Vec<Span>,
    pub regions: [usize; 5],
}

impl Plan {
    /// Lays out a training step of an `input`-shaped batch; returns the
    /// arena length it needs.
    pub fn train(&mut self, layers: &[Layer], input: Shape) -> usize {
        let widest = self.walk(layers, input);
        let (mut acts, mut caches, mut scratch) = (0, 0, 0);
        for span in &mut self.spans {
            (span.act, span.cache) = (acts, caches);
            acts += elems(span.output);
            caches += span.slots.cache;
            scratch = scratch.max(span.slots.scratch);
        }
        // Layer i > 0 writes its input gradient, layer i - 1's output
        // shape, and the loss gradient has the last output's: the widest
        // output bounds both buffers.
        self.regions = [acts, caches, scratch, widest, widest];
        self.len()
    }

    /// Lays out an eval pass of an `input`-shaped batch behind `staged`
    /// `f64` of staged input and target; returns the arena length it needs.
    pub fn eval(&mut self, layers: &[Layer], input: Shape, staged: [usize; 2]) -> usize {
        let widest = self.walk(layers, input);
        let slots = self.spans.iter().map(|s| s.slots.eval).max().unwrap_or(0);
        self.regions = [staged[0], staged[1], widest, widest, slots];
        self.len()
    }

    /// The arena length the plan needs.
    pub fn len(&self) -> usize {
        self.regions.iter().sum()
    }

    /// The shape of the last layer's output, `input`'s for no layer.
    pub fn output(&self, input: Shape) -> Shape {
        self.spans.last().map_or(input, |s| s.output)
    }

    /// One span per layer with its shapes and slots; returns the widest
    /// output.
    fn walk(&mut self, layers: &[Layer], input: Shape) -> usize {
        self.spans.clear();
        let (mut shape, mut widest) = (input, 0);
        for layer in layers {
            let output = layer.output_shape(shape);
            self.spans.push(Span {
                input: shape,
                output,
                slots: layer.slots(shape),
                act: 0,
                cache: 0,
            });
            widest = widest.max(elems(output));
            shape = output;
        }
        widest
    }
}

/// The bytes a model's arena holds for one input shape, per layer and by
/// lifetime: what [`Sequential::arena_plan`](crate::Sequential::arena_plan)
/// reports. Both totals come from the plan the model lays its calls out
/// by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaPlan {
    /// One row per layer, in model order.
    pub layers: Vec<LayerBytes>,
    /// The arena of a training step: every output and training cache, the
    /// widest backward scratch and the two gradient buffers.
    pub training: usize,
    /// The arena of an `evaluate` pass: the staged inputs and targets, two
    /// output buffers and the widest eval slots.
    pub eval: usize,
}

/// One layer's row of an [`ArenaPlan`], in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBytes {
    /// Its output: live from its training forward until its backward.
    pub output: usize,
    /// What its training forward keeps for its backward.
    pub training_cache: usize,
    /// What its backward works in while it runs.
    pub backward_scratch: usize,
    /// What its eval forward works in while it runs.
    pub eval: usize,
}

impl ArenaPlan {
    /// The report of a training plan and an eval plan of the same layers.
    pub(crate) fn new(train: &Plan, eval: &Plan) -> Self {
        let layers = train
            .spans
            .iter()
            .map(|span| LayerBytes {
                output: 8 * elems(span.output),
                training_cache: 8 * span.slots.cache,
                backward_scratch: 8 * span.slots.scratch,
                eval: 8 * span.slots.eval,
            })
            .collect();
        Self {
            layers,
            training: 8 * train.len(),
            eval: 8 * eval.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_hands_out_consecutive_blocks() {
        let mut buf: Vec<f64> = (0..6).map(f64::from).collect();
        let [a, b, c] = carve(&mut buf, [1, 3, 0]);
        assert_eq!(
            (&a[..], &b[..], c.len()),
            (&[0.0][..], &[1.0, 2.0, 3.0][..], 0)
        );
    }
}

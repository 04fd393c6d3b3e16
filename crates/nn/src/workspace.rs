//! Reusable scratch arena for the fused recurrent hot path.
//!
//! A [`Workspace`] is a small vector of `Vec<f64>` buffers addressed by slot
//! index. A buffer is allocated the first time its slot is requested at a
//! given size and then reused across timesteps, batches, epochs, and
//! federated rounds — the warm-path cost of `take` is a `mem::take` plus a
//! length check, no allocator traffic.
//!
//! Two kinds of owner hold one. Each recurrent layer owns a workspace for
//! what its forward passes keep: a training forward leaves the state its
//! layer computes — not its input or output, which the backward pass is
//! handed, and nothing backward can recompute exactly — in its slots and
//! the backward pass takes it back out. `take` therefore **preserves
//! contents** when the requested length already matches — callers that
//! need a zeroed buffer must `fill(0.0)` explicitly. And
//! [`Sequential`](crate::Sequential) owns one workspace of backward
//! scratch, lent to each layer's backward in turn: it holds nothing
//! between two layers' passes, since every backward writes a slot before
//! reading it.
//!
//! The take/put protocol (rather than handing out `&mut` slices) exists so a
//! layer can hold several buffers from the *same* workspace simultaneously
//! without fighting the borrow checker: each buffer is moved out, used, and
//! moved back.
//!
//! Buffers live until their owner releases them: a workspace keeps the
//! size of the largest batch it has served — a training batch's BPTT
//! caches included — until
//! [`Sequential::release_arenas`](crate::Sequential::release_arenas) drops
//! it. No forward reads a slot before writing it, so a released arena and a
//! stale one give the same bits.

/// Scratch arena of reusable `f64` buffers, addressed by slot.
///
/// Cloning a `Workspace` deep-copies its buffers; layer caches live in these
/// slots, so a cloned layer keeps a usable cache exactly as it did when
/// caches were owned `Matrix` fields.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    bufs: Vec<Vec<f64>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers materialise on first `take`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the buffer in `slot` out of the arena, sized to exactly `len`.
    ///
    /// If the stored buffer already has length `len`, its contents are
    /// preserved (this is how forward-pass caches survive until backward).
    /// Otherwise it is cleared and resized to `len` zeros. Pair every `take`
    /// with a [`Workspace::put`] to return the buffer for reuse.
    pub fn take(&mut self, slot: usize, len: usize) -> Vec<f64> {
        if slot >= self.bufs.len() {
            self.bufs.resize_with(slot + 1, Vec::new);
        }
        let mut buf = std::mem::take(&mut self.bufs[slot]);
        if buf.len() != len {
            buf.clear();
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a buffer previously obtained from [`Workspace::take`].
    pub fn put(&mut self, slot: usize, buf: Vec<f64>) {
        if slot >= self.bufs.len() {
            self.bufs.resize_with(slot + 1, Vec::new);
        }
        self.bufs[slot] = buf;
    }

    /// Total bytes of `f64` payload currently parked in the arena.
    #[cfg(test)]
    pub(crate) fn allocated_bytes(&self) -> usize {
        8 * self.slot_lens().iter().sum::<usize>()
    }

    /// The lengths of the slots holding a buffer, in slot order.
    #[cfg(test)]
    pub(crate) fn slot_lens(&self) -> Vec<usize> {
        self.bufs.iter().map(Vec::len).filter(|&l| l > 0).collect()
    }

    /// Overwrites every buffer with `value`, keeping its length, so a
    /// `take` at that length hands the value back.
    #[cfg(test)]
    pub(crate) fn fill(&mut self, value: f64) {
        for buf in &mut self.bufs {
            buf.fill(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_preserves_contents_at_same_len() {
        let mut ws = Workspace::new();
        let mut b = ws.take(0, 4);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.put(0, b);
        let again = ws.take(0, 4);
        assert_eq!(again, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn take_rezeroes_on_resize() {
        let mut ws = Workspace::new();
        let mut b = ws.take(0, 2);
        b.copy_from_slice(&[9.0, 9.0]);
        ws.put(0, b);
        assert_eq!(ws.take(0, 3), vec![0.0; 3]);
    }

    #[test]
    fn slots_are_independent_and_bytes_tracked() {
        let mut ws = Workspace::new();
        let a = ws.take(0, 8);
        let b = ws.take(5, 2);
        ws.put(0, a);
        ws.put(5, b);
        assert_eq!(ws.allocated_bytes(), 8 * 10);
        let clone = ws.clone();
        assert_eq!(clone.allocated_bytes(), 8 * 10);
    }
}

//! Reusable per-layer scratch arena for the fused recurrent hot path.
//!
//! Every recurrent/dense layer owns a [`Workspace`]: a small vector of
//! `Vec<f64>` buffers addressed by slot index. A buffer is allocated the
//! first time its slot is requested at a given size and then reused across
//! timesteps, batches, epochs, and federated rounds — the warm-path cost of
//! `take` is a `mem::take` plus a length check, no allocator traffic.
//!
//! The take/put protocol (rather than handing out `&mut` slices) exists so a
//! layer can hold several buffers from the *same* workspace simultaneously
//! without fighting the borrow checker: each buffer is moved out, used, and
//! moved back.
//!
//! Buffers double as the forward cache: a forward pass leaves activations in
//! its slots and the backward pass takes them back out. `take` therefore
//! **preserves contents** when the requested length already matches — callers
//! that need a zeroed buffer must `fill(0.0)` explicitly.

/// Per-layer scratch arena of reusable `f64` buffers.
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
    fn allocated_bytes(&self) -> usize {
        self.bufs.iter().map(|b| 8 * b.len()).sum()
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

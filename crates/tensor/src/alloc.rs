//! Always-on matrix-allocation accounting.
//!
//! Every [`Matrix`](crate::Matrix) construction that obtains a fresh backing
//! buffer (constructors, `clone`, and the combinators that return a new
//! matrix, such as `map`/`zip_map`) bumps a pair of process-wide atomic
//! counters. The counters are monotonic; callers measure a region of
//! interest by taking a snapshot before and after and diffing (see
//! [`AllocStats::since`]).
//!
//! The counters exist so the test suite can *enforce* allocation behaviour
//! — a warm train step, inference chunk or scoring push allocates no matrix
//! at all (`crates/nn/tests/alloc_regression.rs`) — and so the end-to-end
//! benchmark can report it (`tensor.matrix_allocs`), rather than merely
//! hoping the hot path stays allocation-free. Relaxed atomics keep the
//! overhead to a couple of nanoseconds per construction, negligible next
//! to the buffer zeroing itself.

use std::sync::atomic::{AtomicU64, Ordering};

static MATRICES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide matrix-allocation counters.
///
/// # Examples
///
/// ```
/// use evfad_tensor::{alloc_stats, Matrix};
///
/// let before = alloc_stats();
/// let _m = Matrix::zeros(8, 8);
/// let delta = alloc_stats().since(&before);
/// assert!(delta.matrices >= 1);
/// assert!(delta.bytes >= 8 * 8 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Number of matrix buffers allocated since process start.
    pub matrices: u64,
    /// Total bytes of `f64` payload those buffers hold.
    pub bytes: u64,
}

impl AllocStats {
    /// Counters accumulated between `earlier` and `self`.
    ///
    /// Saturates at zero rather than wrapping if the snapshots are passed
    /// in the wrong order.
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            matrices: self.matrices.saturating_sub(earlier.matrices),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current totals of the process-wide matrix-allocation counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        matrices: MATRICES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Records one fresh matrix buffer of `elements` `f64`s.
pub(crate) fn record_alloc(elements: usize) {
    MATRICES.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(8 * elements as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let a = alloc_stats();
        record_alloc(4);
        let b = alloc_stats();
        assert!(b.matrices > a.matrices);
        assert!(b.bytes >= a.bytes + 32);
    }

    #[test]
    fn since_saturates() {
        let late = AllocStats {
            matrices: 5,
            bytes: 40,
        };
        let early = AllocStats {
            matrices: 2,
            bytes: 16,
        };
        assert_eq!(
            late.since(&early),
            AllocStats {
                matrices: 3,
                bytes: 24
            }
        );
        assert_eq!(early.since(&late), AllocStats::default());
    }
}

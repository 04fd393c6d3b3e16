//! Heap-allocation gate for the frozen serving forward.
//!
//! `evfad_tensor::alloc_stats()` counts `Matrix` buffers only; the serving
//! forward works in plain `Vec` arenas it cannot see. This binary installs a
//! counting global allocator instead, so it holds one test and nothing else
//! shares its process.

use evfad_nn::infer::{InferenceModel, Precision};
use evfad_nn::{Activation, Dense, Dropout, Lstm, RepeatVector, Sequential};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations and reallocations made by a thread while it is armed.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only an atomic and a
// const-initialised thread-local without a destructor, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The paper's LSTM autoencoder (`FilterConfig::paper`: 24-step windows,
/// encoder units 50 → 25, dropout 0.2).
fn paper_autoencoder() -> Sequential {
    Sequential::new(42)
        .with(Lstm::new(1, 50, true))
        .with(Dropout::new(0.2))
        .with(Lstm::new(50, 25, false))
        .with(Dropout::new(0.2))
        .with(RepeatVector::new(24))
        .with(Lstm::new(25, 25, true))
        .with(Lstm::new(25, 50, true))
        .with(Dense::new(50, 1, Activation::Linear))
}

/// Once the arenas are sized, a batched forward allocates nothing at all on
/// either lane — no per-call zero state, no per-layer temporaries.
#[test]
fn warm_forward_performs_no_heap_allocation() {
    // One thread, as a `ScoringService` worker runs its clone: the tensor
    // pool's task lists for a split GEMM are the pool's, not the forward's.
    evfad_tensor::parallel::set_threads(1);
    let model = paper_autoencoder();
    let windows: Vec<f64> = (0..32 * 24)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.37).sin())
        .collect();
    for precision in [Precision::F64, Precision::Int8] {
        let mut frozen = InferenceModel::freeze(&model, precision).expect("freeze");
        let mut out = Vec::new();
        for _ in 0..2 {
            frozen.forward_batch_into(&windows, 32, &mut out);
        }
        ARMED.with(|a| a.set(true));
        let shape = frozen.forward_batch_into(&windows, 32, &mut out);
        ARMED.with(|a| a.set(false));
        assert_eq!(shape, (24, 1));
        assert_eq!(
            ALLOCS.swap(0, Ordering::Relaxed),
            0,
            "{precision:?} lane allocated on a warm forward"
        );
    }
}

//! Heap-allocation gate for the warm train step.
//!
//! `evfad_tensor::alloc_stats()` counts `Matrix` buffers only; a train step
//! also walks the parameter/gradient pairs (for the clip norm, the clip and
//! the Adam update) and works in plain `Vec` arenas it cannot see. This
//! binary installs a counting global allocator instead, so it holds one
//! test and nothing else shares its process.

use evfad_nn::{autoencoder_model, forecaster_model, Loss, Seq, Sequential};
use evfad_tensor::Matrix;
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

/// `batch` windows of `seq_len` steps and their next values.
fn batch(seq_len: usize, batch: usize) -> (Seq, Seq) {
    let inputs: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(seq_len, 1, |t, _| ((i * 7 + t) as f64 * 0.31).sin()))
        .collect();
    let targets: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::from_fn(1, 1, |_, _| ((i * 7 + seq_len) as f64 * 0.31).sin()))
        .collect();
    (Seq::from_samples(&inputs), Seq::from_samples(&targets))
}

/// Heap allocations of a third `train_batch` on `model`, once the first two
/// have sized its arenas and Adam's moments.
fn warm_step_allocs(mut model: Sequential, x: &Seq, y: &Seq) -> usize {
    for _ in 0..2 {
        model.train_batch(x, y, Loss::Mse, Some(5.0));
    }
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    model.train_batch(x, y, Loss::Mse, Some(5.0));
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed)
}

/// A warm train step allocates nothing at all for the paper's forecaster
/// and autoencoder (dropout drawing masks) at its batch size of 32: no
/// per-layer list of parameter/gradient pairs, no per-step scratch. While
/// each walk over the pairs collected them into a `Vec` the forecaster
/// made 8 allocations a step and the autoencoder 13.
#[test]
fn warm_train_step_performs_no_heap_allocation() {
    // One thread: the tensor pool's task lists for a split GEMM are the
    // pool's, not the step's.
    evfad_tensor::parallel::set_threads(1);
    let (x, y) = batch(24, 32);
    let forecaster = warm_step_allocs(forecaster_model(50, 7), &x, &y);
    let autoencoder = warm_step_allocs(autoencoder_model(24, 7), &x, &x);
    assert_eq!(
        (forecaster, autoencoder),
        (0, 0),
        "warm train steps allocated (forecaster, autoencoder)"
    );
}

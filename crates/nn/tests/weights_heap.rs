//! Heap-allocation gate for installing weights.
//!
//! Every federated client calls `Sequential::set_weights` each round (the
//! broadcast global), and early stopping calls it to restore the best
//! epoch. It copies each tensor into the parameter buffer it replaces, so
//! a call allocates nothing; cloning the model to count and check its
//! tensors, then replacing every parameter with a fresh clone, cost three
//! model-sized copies a call. This binary installs a counting global
//! allocator, so it holds one test and nothing else shares its process.

use evfad_nn::forecaster_model;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations and reallocations made by a thread while it is armed, and
/// the largest of them.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local without a destructor, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A warm `set_weights` on the paper's LSTM(50) forecaster allocates
/// nothing — no buffer the size of a weight tensor, and no other — and
/// leaves the model holding exactly the weights it was handed.
#[test]
fn a_warm_set_weights_copies_in_place() {
    let mut model = forecaster_model(50, 1);
    let global = forecaster_model(50, 7).weights();
    assert_ne!(model.weights(), global);
    model.set_weights(&global).expect("same architecture");

    ALLOCS.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let installed = model.set_weights(&global);
    ARMED.with(|a| a.set(false));
    installed.expect("same architecture");

    let (allocs, largest) = (
        ALLOCS.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    assert_eq!(
        (allocs, largest),
        (0, 0),
        "allocations of a warm set_weights, and the largest one's bytes"
    );
    assert_eq!(model.weights(), global);
}

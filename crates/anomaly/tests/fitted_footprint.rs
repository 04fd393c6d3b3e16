//! Heap footprint of a fitted filter.
//!
//! A fitted detector serves next to the station it guards, and the scoring
//! service clones one per worker, so it should cost about its model: the
//! weights, their gradients and Adam's two moments — four times the
//! parameter bytes — not the training-sized arenas its fit ran through.
//! The fit releases those once its training ends, before the threshold
//! calibration, and again after it, so the last thing it frees is the
//! calibration's scoring arena; what the fit peaks at on the way is
//! `fit_peak.rs`'s to bound. This binary installs a counting global allocator, so it holds one test
//! and nothing else shares its process.

use evfad_anomaly::{AnomalyFilter, FilterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated (a reallocation counts its new size) by a thread while
/// it is armed.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// Bytes freed (a reallocation counts its old size) by a thread while it is
/// armed.
static FREED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count(counter: &AtomicUsize, bytes: usize) {
    if ARMED.with(Cell::get) {
        counter.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local without a destructor, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&FREED, layout.size());
        count(&ALLOCATED, new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `counter` grows by while this thread runs `f` armed.
fn counted<T>(counter: &AtomicUsize, f: impl FnOnce() -> T) -> (T, usize) {
    let before = counter.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, counter.load(Ordering::Relaxed) - before)
}

/// The paper's autoencoder fitted at the serving benchmark's set-up shape
/// (one epoch, every fourth window of a 720-point series) owns, and clones
/// into, at most five times its parameter bytes.
#[test]
fn a_fitted_filter_owns_about_its_model() {
    let series: Vec<f64> = (0..720)
        .map(|i| {
            let hour = i as f64 * std::f64::consts::TAU / 24.0;
            0.45 + 0.3 * hour.sin() + 0.05 * (i as f64 * 0.37).sin()
        })
        .collect();
    let mut filter = AnomalyFilter::new(FilterConfig {
        epochs: 1,
        train_stride: 4,
        ..FilterConfig::paper(42)
    });
    filter.fit(&series).expect("fit");
    let param_bytes = 8 * filter.model().expect("fitted").scalar_param_count();
    let bound = 5 * param_bytes;

    let (copy, cloned) = counted(&ALLOCATED, || filter.clone());
    let ((), owned) = counted(&FREED, || drop(filter));
    let ratio = |bytes: usize| bytes as f64 / param_bytes as f64;
    assert!(
        owned <= bound,
        "a fitted filter owns {owned} B, {:.2}x its {param_bytes} parameter bytes (bound 5x)",
        ratio(owned)
    );
    assert!(
        cloned <= bound,
        "cloning a fitted filter allocates {cloned} B, {:.2}x its {param_bytes} parameter \
         bytes (bound 5x)",
        ratio(cloned)
    );
    // The clone is a whole model: it scores.
    let mut copy = copy;
    assert_eq!(copy.score(&series[..48]).expect("score").len(), 48);
}

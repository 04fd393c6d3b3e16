//! Heap high-water mark of a detector fit.
//!
//! The paper trains its autoencoder on the charging station it guards, so
//! what a fit holds at its peak is edge memory. The model works in one
//! arena that a training step and the validation pass after it both lay
//! out from offset 0, so the arena is the larger of the two layouts —
//! `Sequential::arena_plan` reports both, from the plan every call is laid
//! out by. Next to it sit the dropout masks, the fit's gathered batch, the
//! model — weights, gradients, Adam's two moments and early stopping's
//! best-weights snapshot — and the fit's samples. The calibration pass
//! that follows the training scores the training series after the arena is
//! released, so it is never stacked on it. This binary installs a counting
//! global allocator that tracks the bytes live at once, so it holds one
//! test and nothing else shares its process.

use evfad_anomaly::{AnomalyFilter, FilterConfig};
use evfad_nn::{Layer, Sample};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated and not yet freed since the counter was armed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has held since the counter was armed.
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn grow(bytes: usize) {
    if ARMED.with(Cell::get) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ARMED.with(Cell::get) {
        // Saturating: a block allocated before arming may be freed while
        // armed.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(bytes))
        });
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local without a destructor, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the allocation of the new block before the old one is
        // freed, as a moving reallocation holds both.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The high-water mark of live bytes this thread allocates while it runs
/// `f`, counted from zero.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, PEAK.load(Ordering::Relaxed))
}

/// The fit's data shapes, as `AnomalyFilter::fit` and `Sequential::fit`
/// cut them from the configuration: `(samples, largest training batch,
/// validation batch)`.
fn batch_shapes(config: &FilterConfig, series_len: usize) -> (usize, usize, usize) {
    let windows = series_len - config.seq_len + 1;
    let samples = windows.div_ceil(config.train_stride);
    let val = (samples as f64 * config.validation_split).round() as usize;
    let train = samples - val;
    (samples, train.min(config.batch_size), val)
}

/// A fit's measured peak, the bound its shapes give and the training
/// layout of its arena, in bytes.
struct Fit {
    peak: usize,
    bound: usize,
    training: usize,
}

/// Fits the paper's autoencoder to `points` points of a daily-cycle series
/// under `config`.
fn fit(points: usize, config: FilterConfig) -> Fit {
    let series: Vec<f64> = (0..points)
        .map(|i| {
            let hour = i as f64 * std::f64::consts::TAU / 24.0;
            0.45 + 0.3 * hour.sin() + 0.05 * (i as f64 * 0.37).sin()
        })
        .collect();
    let mut filter = AnomalyFilter::new(config.clone());
    let (fitted, peak) = peak_of(|| filter.fit(&series));
    fitted.expect("fit");
    let model = filter.model().expect("fitted");

    let t = config.seq_len;
    let (samples, b, bv) = batch_shapes(&config, series.len());
    let train = samples - bv;
    let training = model.arena_plan(t, b, 1);
    let validation = model.arena_plan(t, bv, 1);
    let arena = training.training.max(validation.eval);
    // One keep flag per element of a dropout layer's output.
    let masks: usize = model
        .layers()
        .iter()
        .zip(&training.layers)
        .filter(|(layer, _)| matches!(layer, Layer::Dropout(_)))
        .map(|(_, bytes)| bytes.output / 8)
        .sum();
    // The fit's gathered batch: its input and its target.
    let batch = 2 * 8 * t * b;
    // Weights, gradients, Adam's two moments, the best-weights snapshot.
    let model_bytes = 5 * 8 * model.scalar_param_count();
    // The samples (input and target each), cut straight from the series,
    // and the fit's time-major stack of the training samples, with their
    // headers. No all-windows copy of the series is live beside them.
    let sample_bytes = 8 * t * (2 * samples + 2 * train) + samples * size_of::<Sample>();
    // The containers' own headers (the layer and tensor vectors, the plan's
    // table, the optimiser's moment vectors, the order permutation) and the
    // thread RNG the layers are built with.
    let headers = 32 << 10;
    let bound = arena + masks + batch + model_bytes + sample_bytes + headers;
    eprintln!(
        "{points} points: fit peak {peak} B; bound {bound} B = arena {arena} (training {}, \
         eval {}) + masks {masks} + batch {batch} + model {model_bytes} + samples \
         {sample_bytes} + headers {headers}",
        training.training, validation.eval
    );
    Fit {
        peak,
        bound,
        training: training.training,
    }
}

/// The paper's autoencoder fitted at the serving benchmark's set-up shape
/// (one epoch, every fourth window of a 720-point series) and at the study
/// benchmark's detector shape (three epochs, every second window of a
/// 1080-point series, a validation pass wider than the batch) peaks at no
/// more than its arena plan plus the masks, the batch, the model and the
/// fit's samples.
#[test]
fn a_fit_peaks_at_one_training_batch_plus_its_model_and_samples() {
    for (points, epochs, train_stride) in [(720, 1, 4), (1080, 3, 2)] {
        let config = FilterConfig {
            epochs,
            train_stride,
            ..FilterConfig::paper(42)
        };
        let Fit {
            peak,
            bound,
            training,
        } = fit(points, config);
        assert!(
            peak <= bound,
            "{points} points: a fit peaks at {peak} B, over its arena plan, masks, batch, \
             model, samples and headers ({bound} B)"
        );
        if points == 720 {
            // Neither the bound nor the training layout may outgrow what
            // the per-layer workspaces' slot layout gave at this shape.
            assert!(bound <= 9_027_936, "bound {bound} B");
            assert!(training <= 7_169_088, "training arena {training} B");
        }
    }
}

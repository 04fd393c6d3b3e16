//! Heap high-water mark of a detector fit.
//!
//! The paper trains its autoencoder on the charging station it guards, so
//! what a fit holds at its peak is edge memory. One training batch's BPTT
//! state is the largest thing a fit needs: the model's activation arena
//! (each layer's output, once), each layer's own caches (gates, cell
//! states, dropout masks), the backward pass's gradient buffers and the one
//! scratch every layer's backward borrows in turn. Next to it sit the
//! model — weights, gradients, Adam's two moments and early stopping's
//! best-weights snapshot — and the fit's samples. The calibration pass that follows the training scores the
//! training series after the training arenas are released, so it is never
//! stacked on them. This binary installs a counting global allocator that
//! tracks the bytes live at once, so it holds one test and nothing else
//! shares its process.

use evfad_anomaly::{AnomalyFilter, FilterConfig};
use evfad_nn::{Layer, Sample};
use evfad_tensor::kernels;
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
/// cut them from the configuration: `(windows, samples, largest training
/// batch, validation batch)`.
fn batch_shapes(config: &FilterConfig, series_len: usize) -> (usize, usize, usize, usize) {
    let windows = series_len - config.seq_len + 1;
    let samples = windows.div_ceil(config.train_stride);
    let val = (samples as f64 * config.validation_split).round() as usize;
    let train = samples - val;
    (windows, samples, train.min(config.batch_size), val)
}

/// `f64`s a model holds for one training batch of `t x b` rows, and for the
/// validation pass of `bv` rows that follows it with the training caches
/// still in place, by the slot layout of each layer: every layer's output
/// once, in the model's activation arena; each recurrent layer's BPTT cache
/// (gates and cell states per row, two steps of tanh(c), the zero state);
/// the backward scratch, as long as the widest layer's, plus the widest
/// recomputed hidden-state block; the eval slots of the validation
/// forward; the two ping-pong input-gradient buffers. Dropout masks are
/// returned apart, in bytes.
fn batch_floats(layers: &[Layer], t: usize, b: usize, bv: usize) -> (usize, usize) {
    let (mut floats, mut mask_bytes) = (0, 0);
    let (mut steps, mut width) = (t, 1);
    let (mut widest_dx, mut scratch, mut h_prev) = (0, 0, 0);
    for (i, layer) in layers.iter().enumerate() {
        if i > 0 {
            widest_dx = widest_dx.max(steps * b * width);
        }
        match layer {
            Layer::Lstm(l) => {
                let (x, h, seq) = (l.input_dim(), l.hidden_dim(), l.return_sequences());
                // Gates and c per row, two tanh(c) blocks, zero state.
                floats += steps * b * 5 * h + 2 * b * h + b * h;
                // Backward: dh, dc, one step's gate gradient, the x^T/h^T
                // dpre staging and W_x^T/W_h^T, bias sums; and h_{t-1}
                // when the output is the last step only.
                scratch = scratch.max(2 * b * h + 4 * b * h + 2 * (x + h) * 4 * h + 4 * h);
                if !seq {
                    h_prev = h_prev.max(b * h);
                }
                // The eval forward: a register tile of projected steps, two
                // steps of c and tanh(c), zero state.
                let group = kernels::TILE_ROWS.div_ceil(bv).min(steps);
                floats += group * bv * 4 * h + 4 * bv * h + bv * h;
                (steps, width) = (if seq { steps } else { 1 }, h);
            }
            Layer::Dense(d) => {
                // Backward: one step's gradient, the x^T dpre staging, bias
                // sums, in the slots the LSTM's gate gradient, x^T staging
                // and bias sums use.
                let (x, o) = (d.input_dim(), d.output_dim());
                scratch = scratch.max(b * o + x * o + o);
                width = o;
            }
            Layer::Dropout(_) => mask_bytes += steps * b * width,
            Layer::RepeatVector(r) => steps = r.n(),
        }
        floats += steps * b * width;
    }
    (floats + scratch + h_prev + 2 * widest_dx, mask_bytes)
}

/// The paper's autoencoder fitted at the serving benchmark's set-up shape
/// (one epoch, every fourth window of a 720-point series) peaks at no more
/// than one training batch's BPTT state plus the model and the fit's
/// samples, each derived from the shapes alone.
#[test]
fn a_fit_peaks_at_one_training_batch_plus_its_model_and_samples() {
    let series: Vec<f64> = (0..720)
        .map(|i| {
            let hour = i as f64 * std::f64::consts::TAU / 24.0;
            0.45 + 0.3 * hour.sin() + 0.05 * (i as f64 * 0.37).sin()
        })
        .collect();
    let config = FilterConfig {
        epochs: 1,
        train_stride: 4,
        ..FilterConfig::paper(42)
    };
    let mut filter = AnomalyFilter::new(config.clone());
    let (fitted, peak) = peak_of(|| filter.fit(&series));
    fitted.expect("fit");
    let model = filter.model().expect("fitted");

    let t = config.seq_len;
    let (windows, samples, b, bv) = batch_shapes(&config, series.len());
    let train = samples - bv;
    let (batch, mask_bytes) = batch_floats(model.layers(), t, b, bv);
    // The batch's input and target, the loss gradient, the validation
    // pass's staged inputs and targets.
    let staging = 2 * t * b + t * b + 2 * t * bv;
    let batch_bytes = 8 * (batch + staging) + mask_bytes;
    // Weights, gradients, Adam's two moments, the best-weights snapshot.
    let model_bytes = 5 * 8 * model.scalar_param_count();
    // The windows, the samples (input and target each) and the fit's
    // time-major stack of the training samples, with their headers.
    let sample_bytes = 8 * t * (windows + 2 * samples + 2 * train)
        + windows * size_of::<Vec<f64>>()
        + samples * size_of::<Sample>();
    // The containers' own headers (the layer and tensor vectors, the
    // workspaces' slot tables, the optimiser's moment vectors, the order
    // permutation) and the thread RNG the layers are built with.
    let headers = 32 << 10;
    let bound = batch_bytes + model_bytes + sample_bytes + headers;
    eprintln!(
        "fit peak {peak} B; bound {bound} B = batch {batch_bytes} + model {model_bytes} \
         + samples {sample_bytes} + headers {headers}"
    );
    assert!(
        peak <= bound,
        "a fit peaks at {peak} B, over one training batch ({batch_bytes} B) plus the model \
         ({model_bytes} B) and its samples ({sample_bytes} B) and {headers} B of headers"
    );
}

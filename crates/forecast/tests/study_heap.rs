//! Heap high-water mark of a whole study.
//!
//! The paper fits one autoencoder per charging station and then trains
//! the forecaster on the filtered windows, so what a study holds at its
//! peak is what a station and the coordinator pay. A study holds each
//! scenario's training windows once, in the job that trains on them: a
//! training prepares its own clients when it starts and moves their
//! windows into the model it fits, so no prepared set is live while a
//! detector fits, and none outlives its training. Then the study's peak is
//! its heaviest phase run alone — a detector fit or a federation — on top
//! of the series every phase shares: the generated clients, their injected
//! series and the detectors' filtered ones.
//!
//! `parallel::set_threads(1)` makes the study the serial loop on the
//! calling thread, so the job order, and with it the peak, is the same on
//! every run. This binary installs a counting global allocator that tracks
//! the bytes live at once on the armed thread, so it holds one test and
//! nothing else shares its process.

use evfad_data::ShenzhenGenerator;
use evfad_federated::{FederatedConfig, FederatedSimulation};
use evfad_forecast::experiment::{build_forecaster, ReadOut};
use evfad_forecast::pipeline::PreparedClient;
use evfad_forecast::scenario::{build_all, ClientScenarios, Scenario};
use evfad_forecast::{run_study, Scale, StudyConfig};
use evfad_tensor::parallel;
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

/// What `f` allocates on this thread, counted from zero: its result, the
/// high-water mark of live bytes while it ran and the bytes still live
/// when it returned (what its result holds).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (
        out,
        PEAK.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    )
}

/// One of the study's federations run alone: its clients prepared from
/// `scenario`'s series, their training windows moved into the federation,
/// each client's test windows predicted. Returns the predictions.
fn federation(scens: &[ClientScenarios], scenario: Scenario, cfg: &StudyConfig) -> Vec<Vec<f64>> {
    assert_eq!(cfg.read_out, ReadOut::Local, "the study's preset");
    let mut prepared: Vec<PreparedClient> = scens
        .iter()
        .map(|s| {
            PreparedClient::prepare(
                s.label.as_str(),
                s.series(scenario),
                cfg.seq_len,
                cfg.train_fraction,
            )
            .expect("prepare")
        })
        .collect();
    let fed_cfg = FederatedConfig {
        rounds: cfg.rounds,
        epochs_per_round: cfg.epochs_per_round,
        batch_size: cfg.batch_size,
        aggregator: cfg.aggregator,
        parallel: cfg.parallel,
        ..FederatedConfig::default()
    };
    let template = build_forecaster(cfg.lstm_units, cfg.learning_rate, cfg.seed);
    let mut sim = FederatedSimulation::new(template, fed_cfg);
    for p in &mut prepared {
        sim.add_client(p.label.clone(), std::mem::take(&mut p.train));
    }
    sim.run().expect("federation");
    prepared
        .iter()
        .zip(sim.clients_mut())
        .map(|(p, client)| {
            p.evaluate_raw(client.model_mut())
                .expect("evaluate")
                .predicted
        })
        .collect()
}

/// At `Scale::Small`, serial: the study peaks at no more than its heavier
/// isolated phase plus the series it shares between phases, its report
/// and its bookkeeping. At the parent, which prepared the clean and
/// attacked clients before the fan-out, it peaked 1.9 MB over.
#[test]
fn a_study_peaks_at_its_heaviest_phase_plus_its_series() {
    parallel::set_threads(1);
    let cfg = StudyConfig::at_scale(Scale::Small, 42);

    let (clients, _, generated) =
        counted(|| ShenzhenGenerator::new(cfg.dataset.clone()).generate_all());
    // Each client's detector alone — inject, fit, detect, mitigate — under
    // the study's seeds for that client; what it returns is the client's
    // injected and filtered series.
    let mut detector = 0;
    let mut series = generated;
    let mut scens = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter().enumerate() {
        // `build_all` derives client 0's seeds from `seed`: the attack's
        // is `seed`, the filter's `seed + 1000`, as the study's client `i`.
        let seed = cfg.seed.wrapping_add(i as u64);
        let (built, peak, held) = counted(|| {
            build_all(std::slice::from_ref(client), &cfg.attack, &cfg.filter, seed)
                .expect("detector")
        });
        detector = detector.max(peak);
        series += held;
        scens.extend(built);
    }
    let mut fed = 0;
    for scenario in [Scenario::Clean, Scenario::Attacked, Scenario::Filtered] {
        let (_, peak, _) = counted(|| federation(&scens, scenario, &cfg));
        fed = fed.max(peak);
    }
    drop((clients, scens));

    // What the report holds, the study holds piece by piece as its jobs
    // finish: the metrics and Fig. 2's predictions of each finished
    // training.
    let (report, study, report_bytes) = counted(|| run_study(&cfg));
    report.expect("study");
    parallel::set_threads(0);
    // The study's own bookkeeping: its seven job slots, the per-client
    // filter configurations and labels, the detectors' counts and the
    // finished federations' round records (3.6 kB at this shape).
    let bookkeeping = 8 << 10;
    let bound = detector.max(fed) + series + report_bytes + bookkeeping;
    eprintln!(
        "study peak {study} B; bound {bound} B = max(detector {detector}, federation {fed}) \
         + series {series} (generated {generated}) + report {report_bytes} + bookkeeping \
         {bookkeeping}"
    );
    assert!(
        study <= bound,
        "the study peaks at {study} B, over its heaviest phase and its series ({bound} B)"
    );
}

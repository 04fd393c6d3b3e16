//! Deterministic parallel execution for the dense kernels.
//!
//! The three GEMM families of [`crate::kernels`] (`matmul`,
//! `matmul_transpose` and `transpose_matmul`, each `_into` and `_acc_into`)
//! partition their **output** into disjoint, contiguous row blocks and hand
//! each block to a lazily-initialised process-wide worker pool. Every block
//! runs the *same inner loop in the same order* as the serial kernel, and
//! no two blocks share an output element, so the result is **bitwise
//! identical** to the serial computation for every thread count —
//! floating-point summation order never changes, only who computes which
//! rows. Nothing else in the crate dispatches here: the `Matrix` reference
//! loops the kernels are tested against are serial by construction.
//!
//! Small operations stay serial: a dispatch only goes parallel when its
//! estimated FLOP count reaches [`serial_flop_threshold`] (tunable via
//! [`set_serial_flop_threshold`]) and the effective thread count
//! ([`threads`], tunable via [`set_threads`], `0` = one per CPU) is at
//! least two.
//!
//! The pool itself is plain `std` — a shared injector queue drained by
//! long-lived workers, plus the calling thread, which works through the
//! jobs of its own dispatch instead of blocking idle. Worker threads are
//! started on first parallel dispatch and live for the rest of the process.
//!
//! Beyond the row-partitioned kernels, [`distribute`] exposes the same
//! pool for *heterogeneous* work units (the federated scale engine's
//! edge-shard folds, the study's detector fits and trainings): disjoint
//! slots, contiguous chunks, each chunk processed strictly in index order.
//! On a machine with fewer CPUs than requested chunks the calling thread
//! simply drains its chunks itself — oversubscription is deterministic by
//! construction, never a fallback.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Requested thread count; `0` means "one per available CPU".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum estimated FLOPs before a kernel goes parallel.
///
/// The default corresponds to a 128x128x128 GEMM. Waking a worker costs
/// 15–20 µs, so on a 2-CPU host the pool first pays at about that size
/// (128³: 102 µs serial, 89 µs on two threads) and below it loses: the
/// paper's per-timestep gate GEMM (32x50x200) takes 15 µs serial and 32 µs
/// split, which the earlier default of 64³ did to every recurrent step.
static SERIAL_FLOP_THRESHOLD: AtomicUsize = AtomicUsize::new(128 * 128 * 128);

/// Sets the thread count used by parallel kernels (`0` = one per CPU).
///
/// Affects how many row blocks future dispatches are split into; results
/// are bitwise identical for every setting. Safe to call at any time,
/// including after the pool has started.
pub fn set_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

/// Effective thread count for the next parallel dispatch.
pub fn threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured != 0 {
        configured
    } else {
        available_cpus()
    }
}

/// Sets the serial-fallback threshold in estimated FLOPs.
pub fn set_serial_flop_threshold(flops: usize) {
    SERIAL_FLOP_THRESHOLD.store(flops, Ordering::Relaxed);
}

/// Current serial-fallback threshold in estimated FLOPs.
pub fn serial_flop_threshold() -> usize {
    SERIAL_FLOP_THRESHOLD.load(Ordering::Relaxed)
}

fn available_cpus() -> usize {
    // `available_parallelism` is a syscall; cache it — the hot kernels
    // consult the thread count on every dispatch.
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared queue: every job tagged with the latch of the dispatch that
/// pushed it, so a dispatcher can tell its own jobs from a stranger's.
struct Injector {
    queue: Mutex<VecDeque<(Arc<Latch>, Job)>>,
    ready: Condvar,
}

impl Injector {
    fn push(&self, dispatch: &Arc<Latch>, job: Job) {
        self.queue
            .lock()
            .expect("injector lock")
            .push_back((Arc::clone(dispatch), job));
        self.ready.notify_one();
    }

    /// The oldest queued job of `dispatch`, if any is still unclaimed.
    fn try_pop_of(&self, dispatch: &Arc<Latch>) -> Option<Job> {
        let mut queue = self.queue.lock().expect("injector lock");
        let at = queue.iter().position(|(d, _)| Arc::ptr_eq(d, dispatch))?;
        queue.remove(at).map(|(_, job)| job)
    }
}

struct Pool {
    injector: Arc<Injector>,
    #[allow(dead_code)]
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Starts (on first call) and returns the process-wide worker pool.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        // The calling thread participates in every dispatch, so `cpus - 1`
        // workers saturate the machine. Capped to keep a huge box from
        // spawning hundreds of mostly-idle threads.
        let workers = available_cpus().saturating_sub(1).min(63);
        for w in 0..workers {
            let injector = Arc::clone(&injector);
            std::thread::Builder::new()
                .name(format!("evfad-par-{w}"))
                .spawn(move || worker_loop(&injector))
                .expect("spawn parallel worker");
        }
        Pool { injector, workers }
    })
}

fn worker_loop(injector: &Injector) {
    loop {
        let mut queue = injector.queue.lock().expect("injector lock");
        loop {
            if let Some((_, job)) = queue.pop_front() {
                drop(queue);
                job();
                break;
            }
            queue = injector.ready.wait(queue).expect("injector wait");
        }
    }
}

/// Completion latch for one dispatch: counts outstanding jobs and keeps the
/// panic payload of the lowest-index job that panicked.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    done: Mutex<bool>,
    all_done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            all_done: Condvar::new(),
        }
    }

    fn complete_one(&self, index: usize, outcome: std::thread::Result<()>) {
        if let Err(payload) = outcome {
            let mut first = self.panic.lock().expect("latch panic lock");
            if first.as_ref().is_none_or(|(i, _)| index < *i) {
                *first = Some((index, payload));
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect("latch lock") = true;
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("latch lock");
        while !*done {
            done = self.all_done.wait(done).expect("latch wait");
        }
    }
}

/// Runs `kernel(row_start, row_end, block)` over disjoint, contiguous row
/// blocks of `out`, in parallel when the work is large enough.
///
/// `out` must hold exactly `out_rows * out_cols` elements; each block it is
/// split into covers rows `row_start..row_end`. The serial path invokes the
/// kernel once over the full range, so parallel and serial execute the same
/// per-row code — combined with disjoint blocks, that makes the output
/// bitwise independent of the thread count.
pub(crate) fn row_partitioned<K>(
    estimated_flops: usize,
    out: &mut [f64],
    out_rows: usize,
    out_cols: usize,
    kernel: K,
) where
    K: Fn(usize, usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(out.len(), out_rows * out_cols);
    // Cheap gates first: the threshold test keeps small dispatches off the
    // atomics/thread-count lookups entirely.
    if estimated_flops < serial_flop_threshold() || out_rows < 2 {
        kernel(0, out_rows, out);
        return;
    }
    let threads = threads();
    if threads < 2 {
        kernel(0, out_rows, out);
        return;
    }

    // Balanced contiguous split: the first `rows % blocks` blocks get one
    // extra row. Block boundaries depend only on (out_rows, blocks), never
    // on scheduling.
    let blocks = threads.min(out_rows);
    let base = out_rows / blocks;
    let extra = out_rows % blocks;

    let kernel = &kernel;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(blocks);
    let mut rest = out;
    let mut row = 0;
    for b in 0..blocks {
        let height = base + usize::from(b < extra);
        let (chunk, tail) = rest.split_at_mut(height * out_cols);
        jobs.push(Box::new(move || kernel(row, row + height, chunk)));
        row += height;
        rest = tail;
    }

    run_jobs(jobs);
}

/// Runs `task(i, &mut slots[i])` for every slot, distributing contiguous
/// chunks of the slot range across the worker pool plus the calling
/// thread, and returns once every slot has been processed.
///
/// Guarantees callers can build on:
///
/// - **Determinism.** Chunk boundaries depend only on
///   `(slots.len(), max_tasks)` — the same balanced split
///   `row_partitioned` uses — and every slot is written by exactly one
///   task, so for a pure `task` the contents of `slots` afterwards are
///   identical for every thread count and scheduling order.
/// - **Bounded concurrency.** At most `min(max_tasks, slots.len())`
///   chunks exist, each processed strictly in slot-index order by a
///   single thread. A caller whose task holds transient state (e.g. a
///   streaming aggregator accumulator) therefore has at most one live
///   instance per chunk — the federated scale engine relies on this for
///   its O(model · workers) peak-memory bound.
/// - **Oversubscription is fine.** `max_tasks` may exceed the CPU count;
///   excess chunks queue and are drained by whichever thread (including
///   the caller) frees up first. Results are unaffected.
/// - **Tasks do not run inside one another.** A task that dispatches in
///   turn (a pooled kernel, a nested `distribute`) helps only with the
///   jobs of that inner dispatch while it waits, never with another slot
///   of this one — so a task that times itself measures its own work, and
///   at most one task is live per pool thread.
/// - **Panics keep their message.** Every chunk runs to its end or its
///   first panic; the caller then unwinds with the payload of the
///   lowest-index chunk that panicked.
///
/// `max_tasks < 2` or fewer than two slots short-circuits to a serial
/// in-place loop with no pool interaction.
pub fn distribute<T, F>(slots: &mut [T], max_tasks: usize, task: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slots.len();
    let chunks = max_tasks.min(n);
    if chunks < 2 {
        for (i, slot) in slots.iter_mut().enumerate() {
            task(i, slot);
        }
        return;
    }

    // Balanced contiguous split, identical in shape to `row_partitioned`:
    // the first `n % chunks` chunks get one extra slot.
    let base = n / chunks;
    let extra = n % chunks;

    let task = &task;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks);
    let mut rest: &mut [T] = slots;
    let mut start = 0usize;
    for b in 0..chunks {
        let len = base + usize::from(b < extra);
        let (chunk, tail) = rest.split_at_mut(len);
        jobs.push(Box::new(move || {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                task(start + offset, slot);
            }
        }));
        start += len;
        rest = tail;
    }

    run_jobs(jobs);
}

/// Pushes every job onto the pool's injector queue, works through them
/// from the calling thread too, and returns once all have completed.
///
/// The calling thread helps with the jobs of *this* dispatch only; idle
/// workers take any. A job may run for seconds (a detector fit, a whole
/// federation) and time itself: were a nested kernel dispatch inside it to
/// drain the shared queue, it would pop another such job and run it inside
/// the first one's clock.
///
/// A panicking job fails the caller rather than killing a pool thread: the
/// payload of the lowest-index one is re-raised here once every job has
/// finished. Nested dispatches (a job that itself calls
/// [`row_partitioned`] or [`distribute`]) are safe: a thread only blocks on
/// its latch once none of its own jobs is left in the queue, so every
/// queued job is claimed — by an idle worker or, at the latest, by the
/// thread that pushed it — and that thread is still making progress.
#[allow(unsafe_code)]
fn run_jobs(jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let latch = Arc::new(Latch::new(jobs.len()));
    let pool = pool();

    for (index, job) in jobs.into_iter().enumerate() {
        let done = Arc::clone(&latch);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            done.complete_one(index, catch_unwind(AssertUnwindSafe(job)));
        });
        // SAFETY: the job borrows the caller's stack (the kernel/task
        // closure and the output slots), but `run_jobs` does not return
        // until `latch.wait()` has observed every job complete, so the
        // borrows outlive every use. Panics inside the job are caught
        // before the latch fires.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        pool.injector.push(&latch, job);
    }

    while let Some(job) = pool.injector.try_pop_of(&latch) {
        job();
    }
    latch.wait();

    let first_panic = latch.panic.lock().expect("latch panic lock").take();
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
}

/// Serialises tests that touch the process-wide thread configuration.
#[cfg(test)]
pub(crate) fn test_config_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_guard() -> std::sync::MutexGuard<'static, ()> {
        test_config_guard()
    }

    #[test]
    fn serial_below_threshold() {
        let _guard = config_guard();
        let mut out = vec![0.0; 8];
        let calls = AtomicUsize::new(0);
        // A 2-row output under the FLOP threshold must take the serial
        // path and see the full range in one invocation.
        row_partitioned(1, &mut out, 2, 4, |r0, r1, block| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((r0, r1), (0, 2));
            assert_eq!(block.len(), 8);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_covers_all_rows_exactly_once() {
        let _guard = config_guard();
        set_threads(4);
        let rows = 37;
        let cols = 3;
        let mut out = vec![0.0; rows * cols];
        row_partitioned(usize::MAX, &mut out, rows, cols, |r0, r1, block| {
            assert_eq!(block.len(), (r1 - r0) * cols);
            for (offset, v) in block.iter_mut().enumerate() {
                *v += (r0 * cols + offset) as f64;
            }
        });
        set_threads(0);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64, "row element {i} written wrongly");
        }
    }

    #[test]
    fn effective_threads_reflects_configuration() {
        let _guard = config_guard();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn threshold_is_tunable() {
        let _guard = config_guard();
        let before = serial_flop_threshold();
        set_serial_flop_threshold(10);
        assert_eq!(serial_flop_threshold(), 10);
        set_serial_flop_threshold(before);
    }

    #[test]
    fn distribute_visits_every_slot_exactly_once() {
        let _guard = config_guard();
        for max_tasks in [1usize, 2, 3, 4, 8, 64] {
            let mut slots: Vec<Option<usize>> = vec![None; 37];
            distribute(&mut slots, max_tasks, |i, slot| {
                assert!(slot.is_none(), "slot {i} visited twice");
                *slot = Some(i * i);
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, Some(i * i), "slot {i} at max_tasks={max_tasks}");
            }
        }
    }

    #[test]
    fn distribute_matches_serial_for_every_task_count() {
        let _guard = config_guard();
        let mut reference: Vec<u64> = vec![0; 23];
        distribute(&mut reference, 1, |i, slot| {
            *slot = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        for max_tasks in [2usize, 4, 8, 16, 23, 100] {
            let mut slots: Vec<u64> = vec![0; 23];
            distribute(&mut slots, max_tasks, |i, slot| {
                *slot = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            assert_eq!(slots, reference, "max_tasks={max_tasks}");
        }
    }

    #[test]
    fn distribute_handles_empty_and_single_slot() {
        let _guard = config_guard();
        let mut empty: Vec<usize> = Vec::new();
        distribute(&mut empty, 8, |_, _| unreachable!("no slots to visit"));
        let mut one = [0usize];
        distribute(&mut one, 8, |i, slot| *slot = i + 41);
        assert_eq!(one, [41]);
    }

    #[test]
    fn distribute_chunks_run_in_slot_order() {
        let _guard = config_guard();
        // Each chunk must process its slots strictly left-to-right: record
        // a per-chunk sequence number and check it increases with the
        // index inside every chunk (chunks of 10 slots at 4 tasks: sizes
        // 3,3,2,2 — boundaries are deterministic).
        let counters: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let bounds = [0usize, 3, 6, 8, 10];
        let mut slots: Vec<(usize, usize)> = vec![(0, 0); 10];
        distribute(&mut slots, 4, |i, slot| {
            let chunk = bounds.iter().take_while(|b| **b <= i).count() - 1;
            let seq = counters[chunk].fetch_add(1, Ordering::Relaxed);
            *slot = (chunk, seq);
        });
        for chunk in 0..4 {
            for (seq, i) in (bounds[chunk]..bounds[chunk + 1]).enumerate() {
                assert_eq!(slots[i], (chunk, seq), "slot {i} out of order");
            }
        }
    }

    #[test]
    fn distribute_panics_propagate_to_caller() {
        let _guard = config_guard();
        let result = std::panic::catch_unwind(|| {
            let mut slots = vec![0usize; 16];
            distribute(&mut slots, 4, |i, _slot| {
                if i == 11 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "task panic must reach the caller");
    }

    #[test]
    #[should_panic(expected = "slot 5 is the first to fail")]
    fn the_lowest_index_panic_keeps_its_message() {
        let _guard = config_guard();
        // 16 slots at 4 tasks: chunks of four, so slots 5 and 14 panic in
        // different jobs and whichever finishes first must not win.
        let mut slots = vec![0usize; 16];
        distribute(&mut slots, 4, |i, _slot| match i {
            5 => panic!("slot 5 is the first to fail"),
            14 => panic!("slot 14 fails too"),
            _ => {}
        });
    }

    /// A task that dispatches in turn must not pick up another slot's task
    /// while it waits: with second-long tasks that time themselves (the
    /// study's trainings, a federation's client fits) the inner one would
    /// run on the outer one's clock.
    #[test]
    fn tasks_never_run_inside_one_another() {
        use crate::kernels::{self, MatMut, MatRef};
        use std::cell::Cell;

        thread_local! {
            /// The outer task live on this thread, and whether a sub-task is.
            static OUTER: Cell<Option<usize>> = const { Cell::new(None) };
            static IN_SUB_TASK: Cell<bool> = const { Cell::new(false) };
        }
        fn as_a_task<R>(index: usize, body: impl FnOnce() -> R) -> R {
            let before = OUTER.with(|outer| outer.replace(Some(index)));
            assert_eq!(before, None, "task {index} started inside a running one");
            let result = body();
            OUTER.with(|outer| outer.set(None));
            result
        }
        /// A sub-task of `parent` runs on its parent's thread or on an idle
        /// one, never on the clock of another task or of a sibling.
        fn as_a_sub_task<R>(parent: usize, body: impl FnOnce() -> R) -> R {
            let host = OUTER.with(Cell::get);
            assert!(
                host.is_none() || host == Some(parent),
                "a sub-task of {parent} started inside task {host:?}"
            );
            assert!(
                !IN_SUB_TASK.with(|sub| sub.replace(true)),
                "a sub-task of {parent} started inside a running sub-task"
            );
            let result = body();
            IN_SUB_TASK.with(|sub| sub.set(false));
            result
        }
        const N: usize = 48;
        fn products(slot: usize) -> Vec<f64> {
            let a: Vec<f64> = (0..N * N).map(|i| ((i + slot) % 17) as f64 - 8.0).collect();
            let mut b = a.clone();
            let mut out = vec![0.0; N * N];
            for _ in 0..8 {
                kernels::matmul_into(
                    MatRef::new(N, N, &a),
                    MatRef::new(N, N, &b),
                    MatMut::new(N, N, &mut out),
                );
                for (b, o) in b.iter_mut().zip(&out) {
                    *b = o % 7.0;
                }
            }
            out
        }

        let _guard = config_guard();
        let threshold = serial_flop_threshold();
        set_serial_flop_threshold(0);
        set_threads(4);
        // More tasks than the pool has threads, so some are still queued
        // when the first running one dispatches its first product.
        let tasks = 2 * available_cpus().max(2);
        // A task's kernels dispatch from the task itself, or — a study
        // training whose federation fans its three clients out — from the
        // sub-tasks of a `distribute` of its own.
        for nested in [false, true] {
            let run = |max_tasks: usize| {
                let mut slots: Vec<Vec<f64>> = vec![Vec::new(); tasks];
                distribute(&mut slots, max_tasks, |i, slot| {
                    *slot = as_a_task(i, || {
                        if !nested {
                            return products(i);
                        }
                        let mut clients: [Vec<f64>; 3] = Default::default();
                        distribute(&mut clients, max_tasks, |c, client| {
                            *client = as_a_sub_task(i, || products(3 * i + c));
                        });
                        clients.concat()
                    });
                });
                slots
            };
            assert_eq!(run(tasks), run(1), "nested: {nested}");
        }
        set_threads(0);
        set_serial_flop_threshold(threshold);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let _guard = config_guard();
        set_threads(2);
        let result = std::panic::catch_unwind(|| {
            let mut out = vec![0.0; 64];
            row_partitioned(usize::MAX, &mut out, 64, 1, |r0, _r1, _block| {
                if r0 > 0 {
                    panic!("boom");
                }
            });
        });
        set_threads(0);
        assert!(result.is_err(), "worker panic must reach the caller");
    }
}

//! What the host can do, measured by code that belongs to the benchmark:
//! the context every other row is read against.

use std::hint::black_box;
use std::time::Instant;

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process, MB (`VmHWM` in `/proc/self/status`).
/// Zero where the file is missing (not Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Seconds per call of `f` over `batches` batches, ascending. Calls are
/// grouped into batches of at least `batch_s` seconds so the clock is
/// read rarely next to the work.
fn batch_times(batches: usize, batch_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm buffers and caches
    let mut calls = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = start.elapsed().as_secs_f64();
        if took >= batch_s || calls >= 1 << 20 {
            break;
        }
        // Aim a little past the target so the next try usually lands.
        calls = ((calls as f64 * batch_s / took.max(1e-9) * 1.2).ceil() as usize).max(calls * 2);
    }
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median seconds per call of `f`: what a layer probe reports. The
/// median over `batches` batches shrugs off a descheduled one.
pub fn seconds_per_call(batches: usize, batch_s: f64, f: impl FnMut()) -> f64 {
    let samples = batch_times(batches, batch_s, f);
    samples[samples.len() / 2]
}

/// Fastest batch's seconds per call: what a host ceiling reports. A
/// neighbour can only slow the loop down, so the best batch is the one
/// nearest to what the core can do.
fn fastest_seconds_per_call(batches: usize, batch_s: f64, f: impl FnMut()) -> f64 {
    batch_times(batches, batch_s, f)[0]
}

/// GFLOP/s of a plain f64 multiply-add loop, single thread: 256³
/// multiply-adds a call, done as 64 products of 64×64 tiles so the
/// working set (96 KB) stays in the core's own cache. Not a tuned GEMM: a
/// fixed yardstick the product's kernels are placed against, which moves
/// only when the core does. (Over whole 256×256 operands the same loop
/// swung ±13 % with the neighbours' use of the shared cache while the
/// workloads held still; tiled it stays within ±4 %.)
///
/// The multiply-add is fused where the build targets a CPU that has the
/// instruction (the repository's `.cargo/config.toml` asks for
/// `target-cpu=native`); without it `mul_add` would be a library call,
/// not a ceiling.
pub fn gemm_gflops() -> f64 {
    const N: usize = 64;
    const TILES: usize = (256 / N) * (256 / N) * (256 / N);
    let a: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.01).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.02).collect();
    let mut c = vec![0.0f64; N * N];
    let per_call = fastest_seconds_per_call(5, 0.02, || {
        for _ in 0..TILES {
            c.fill(0.0);
            for i in 0..N {
                let c_row = &mut c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = a[i * N + k];
                    let b_row = &b[k * N..(k + 1) * N];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv = if cfg!(target_feature = "fma") {
                            aik.mul_add(*bv, *cv)
                        } else {
                            aik * *bv + *cv
                        };
                    }
                }
            }
            black_box(&c);
        }
    });
    (2 * N * N * N * TILES) as f64 / per_call / 1e9
}

/// GB/s of copying a 32 MB buffer (larger than any cache here).
pub fn memcpy_gbs() -> f64 {
    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let per_call = fastest_seconds_per_call(5, 0.02, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    BYTES as f64 / per_call / 1e9
}

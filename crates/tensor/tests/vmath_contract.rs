//! The contract of `tensor::vmath`, the workspace's one σ and tanh.
//!
//! Three claims, each with its own test:
//!
//! - **Position independence.** A slice kernel gives every element the bits
//!   the `*1_*` scalar gives it, whatever the slice's length, wherever it
//!   starts (vector body, scalar tail, alignment). This is what lets
//!   training (row bands), serving (whole batches) and a dense layer's
//!   per-element epilogue agree bit for bit.
//! - **Accuracy.** The f64 kernels stay under 5e-15 absolute of the
//!   mathematical function over the whole line, the f32 kernels under 2e-6.
//!   libm's `exp`/`tanh` are the oracle here and nowhere else under a
//!   forward.
//! - **Portable bits.** Recorded `to_bits()` literals, taken once on an
//!   AVX-512 host at `target-cpu=native`. CI runs this file a second time at
//!   `-C target-cpu=x86-64`, where `mul_add` is a libm `fma` call and not an
//!   instruction: the same literals must hold.

use evfad_tensor::vmath;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// libm σ, in the overflow-free form the layers used before `vmath`.
fn sigmoid_libm(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Applies `slice` to every sub-slice `pool[offset..offset + len]`, offsets
/// 0..8 and lengths 0..=67, and holds each element inside it to `scalar`'s
/// bits and each element outside it to its own.
fn assert_slice_is_scalar<T: Copy>(
    name: &str,
    pool: &[T],
    slice: fn(&mut [T]),
    scalar: fn(T) -> T,
    bits: fn(T) -> u64,
) {
    assert!(pool.len() >= 7 + 67);
    for offset in 0..8 {
        for len in 0..=67 {
            let mut buf = pool.to_vec();
            slice(&mut buf[offset..offset + len]);
            for (i, (&got, &x)) in buf.iter().zip(pool).enumerate() {
                let want = if (offset..offset + len).contains(&i) {
                    scalar(x)
                } else {
                    x
                };
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{name}: offset {offset}, len {len}, element {i}"
                );
            }
        }
    }
}

#[test]
fn slice_kernels_equal_the_scalars_bitwise_at_every_length_and_offset() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    // Zeros, tiny and subnormal magnitudes, both clamp edges and beyond,
    // infinities; then random points across and past the clamp range.
    let mut pool = vec![0.0, 1e-300, f64::from_bits(1), 1e-9, 1e-3, 19.5, 40.0, 40.5];
    pool.extend([80.0, 1e6, f64::MAX, f64::INFINITY]);
    let negated: Vec<f64> = pool.iter().map(|x| -x).collect();
    pool.extend(negated);
    while pool.len() < 96 {
        pool.push(rng.gen_range(-45.0..45.0));
    }
    let pool32: Vec<f32> = pool.iter().map(|&x| x as f32).collect();

    let b64: fn(f64) -> u64 = f64::to_bits;
    let b32: fn(f32) -> u64 = |x| u64::from(x.to_bits());
    assert_slice_is_scalar(
        "sigmoid_f64",
        &pool,
        vmath::sigmoid_f64,
        vmath::sigmoid1_f64,
        b64,
    );
    assert_slice_is_scalar("tanh_f64", &pool, vmath::tanh_f64, vmath::tanh1_f64, b64);
    assert_slice_is_scalar(
        "sigmoid_f32",
        &pool32,
        vmath::sigmoid_f32,
        vmath::sigmoid1_f32,
        b32,
    );
    assert_slice_is_scalar("tanh_f32", &pool32, vmath::tanh_f32, vmath::tanh1_f32, b32);
}

/// The points the accuracy bound is checked at: ±40 at step 1e-3, 1e5
/// seeded random points, the tiny magnitudes and both sides of every clamp
/// and saturation edge.
fn accuracy_points() -> Vec<f64> {
    let mut xs: Vec<f64> = (-40_000..=40_000).map(|i| f64::from(i) * 1e-3).collect();
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    xs.extend((0..100_000).map(|_| rng.gen_range(-40.0..40.0)));
    for x in [
        1e-300,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        1e-9,
        1e-3,
        19.0,
        19.1,
        36.7,
        37.0,
        40.0f64.next_down(),
        40.0,
        40.0f64.next_up(),
        41.0,
        80.0,
        709.0,
        1e6,
        f64::MAX,
    ] {
        xs.extend([x, -x]);
    }
    xs
}

#[test]
fn f64_kernels_stay_within_5e15_of_libm() {
    let xs = accuracy_points();
    let (mut sig, mut tanh) = (xs.clone(), xs.clone());
    vmath::sigmoid_f64(&mut sig);
    vmath::tanh_f64(&mut tanh);
    let (mut worst_s, mut worst_t) = (0.0f64, 0.0f64);
    for ((&x, &s), &t) in xs.iter().zip(&sig).zip(&tanh) {
        worst_s = worst_s.max((s - sigmoid_libm(x)).abs());
        worst_t = worst_t.max((t - x.tanh()).abs());
    }
    assert!(worst_s < 5e-15, "sigmoid is {worst_s:e} from libm");
    assert!(worst_t < 5e-15, "tanh is {worst_t:e} from libm");
}

#[test]
fn f32_kernels_stay_within_2e6_of_libm() {
    let xs: Vec<f32> = (-3000..=3000).map(|i| i as f32 * 0.01).collect();
    let (mut sig, mut tanh) = (xs.clone(), xs.clone());
    vmath::sigmoid_f32(&mut sig);
    vmath::tanh_f32(&mut tanh);
    let (mut worst_s, mut worst_t) = (0.0f64, 0.0f64);
    for ((&x, &s), &t) in xs.iter().zip(&sig).zip(&tanh) {
        let x = f64::from(x);
        worst_s = worst_s.max((f64::from(s) - sigmoid_libm(x)).abs());
        worst_t = worst_t.max((f64::from(t) - x.tanh()).abs());
    }
    assert!(worst_s < 2e-6, "f32 sigmoid is {worst_s:e} from libm");
    assert!(worst_t < 2e-6, "f32 tanh is {worst_t:e} from libm");
}

#[test]
fn edges_are_exact() {
    // f64.
    assert_eq!(vmath::sigmoid1_f64(0.0).to_bits(), 0.5f64.to_bits());
    assert_eq!(vmath::tanh1_f64(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(vmath::tanh1_f64(-0.0).to_bits(), 0.0f64.to_bits());
    for x in [1e6, f64::MAX, f64::INFINITY] {
        assert_eq!(vmath::tanh1_f64(x), 1.0, "tanh({x})");
        assert_eq!(vmath::tanh1_f64(-x), -1.0, "tanh(-{x})");
        assert_eq!(vmath::sigmoid1_f64(x), 1.0, "σ({x})");
        // The low side saturates at σ(−40): positive, never 0.
        assert_eq!(
            vmath::sigmoid1_f64(-x).to_bits(),
            vmath::sigmoid1_f64(-40.0).to_bits(),
            "σ(-{x})"
        );
    }
    let floor = vmath::sigmoid1_f64(-40.0);
    assert!(floor > 4.2e-18 && floor < 4.3e-18, "σ(−40) = {floor:e}");
    assert_eq!(vmath::sigmoid1_f64(37.0), 1.0);
    assert!(vmath::sigmoid1_f64(36.0) < 1.0);
    // NaN in, NaN out, in the vector body and in the tail alike.
    let mut v = [f64::NAN; 19];
    vmath::sigmoid_f64(&mut v);
    assert!(v.iter().all(|y| y.is_nan()));
    let mut v = [f64::NAN; 19];
    vmath::tanh_f64(&mut v);
    assert!(v.iter().all(|y| y.is_nan()));

    // f32: clamps at ±30 (σ) and ±60 (2x of tanh).
    assert_eq!(vmath::sigmoid1_f32(0.0).to_bits(), 0.5f32.to_bits());
    assert_eq!(vmath::tanh1_f32(0.0).to_bits(), 0.0f32.to_bits());
    for x in [1e6f32, f32::MAX, f32::INFINITY] {
        assert_eq!(vmath::tanh1_f32(x), 1.0);
        assert_eq!(vmath::tanh1_f32(-x), -1.0);
        assert_eq!(vmath::sigmoid1_f32(x), 1.0);
        let low = vmath::sigmoid1_f32(-x);
        assert_eq!(low.to_bits(), vmath::sigmoid1_f32(-30.0).to_bits());
        assert!(low > 0.0 && low < 1e-12);
    }
    assert!(vmath::sigmoid1_f32(f32::NAN).is_nan());
    assert!(vmath::tanh1_f32(f32::NAN).is_nan());
}

/// Inputs of the recorded literals: both saturated ends, the clamp edge,
/// the bulk of a gate's range, tiny arguments, and values whose reduction
/// lands on every sign of `n` and `r`.
const RECORDED_AT: [f64; 22] = [
    -40.0,
    -20.5,
    -9.75,
    -7.25,
    -3.0,
    -1.0,
    -0.5,
    -0.1,
    -1e-3,
    -1e-9,
    1e-300,
    1e-9,
    0.1,
    0.333_333_333_333_333_3,
    0.5,
    1.0,
    std::f64::consts::E,
    7.25,
    12.5,
    18.7,
    36.7,
    40.0,
];

#[rustfmt::skip]
const SIGMOID_BITS: [u64; 22] = [
    0x3c539792499b1a24, 0x3e157a3afe79aea9, 0x3f0e8fb8a3233ab4, 0x3f47412593d98a3d,
    0x3fa848343c905445, 0x3fd136561454ba86, 0x3fd829a0565978de, 0x3fde66bdb1aca090,
    0x3fdffbe76c90fd99, 0x3fdfffffffbb47d0, 0x3fe0000000000000, 0x3fe0000000225c18,
    0x3fe0cca12729afb8, 0x3fe2a46a460c25c2, 0x3fe3eb2fd4d34391, 0x3fe764d4f5d5a2bd,
    0x3fee04e3a60de19c, 0x3feffa2fb69b099e, 0x3feffff82f4698c9, 0x3feffffffbf08d29,
    0x3feffffffffffffe, 0x3ff0000000000000,
];

#[rustfmt::skip]
const TANH_BITS: [u64; 22] = [
    0xbff0000000000000, 0xbff0000000000000, 0xbfeffffffc59e429, 0xbfeffffde2760a42,
    0xbfefd77d111a0b01, 0xbfe85efab514f394, 0xbfdd9353d7568af3, 0xbfb983d7795f413c,
    0xbf50624d77516cc6, 0xbe112e0be049c977, 0x0000000000000000, 0x3e112e0bdfb63688,
    0x3fb983d7795f413b, 0x3fd493aa293c8802, 0x3fdd9353d7568af3, 0x3fe85efab514f394,
    0x3fefb8f76b1e2ab6, 0x3feffffde2760a41, 0x3feffffffffc2eb9, 0x3feffffffffffffe,
    0x3ff0000000000000, 0x3ff0000000000000,
];

#[test]
fn f64_kernels_reproduce_the_recorded_bits() {
    let sig = RECORDED_AT.map(|x| vmath::sigmoid1_f64(x).to_bits());
    let tanh = RECORDED_AT.map(|x| vmath::tanh1_f64(x).to_bits());
    assert_eq!(sig, SIGMOID_BITS, "sigmoid moved: got {sig:#018x?}");
    assert_eq!(tanh, TANH_BITS, "tanh moved: got {tanh:#018x?}");
}

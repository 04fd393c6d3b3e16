//! Vectorizable elementwise transcendentals for the inference lanes.
//!
//! The training path calls libm's `tanh`/`exp` one scalar at a time —
//! bitwise-pinned, branchy, and ~15–20 ns per call (the f32 `tanh`
//! fallback on some libms is over 10× worse). For a served LSTM stack the
//! gate nonlinearities are thousands of calls per window, which makes
//! them the dominant cost of a batched forward once the GEMMs are
//! blocked. This module provides branch-free, polynomial sigmoid/tanh
//! over contiguous slices: every lane runs the same instruction sequence
//! (clamp, round, two-term Cody–Waite reduction, Horner with `mul_add`,
//! exponent reassembly via bit manipulation), so LLVM auto-vectorizes the
//! loops with the FMA units the exact kernels are not allowed to use.
//!
//! Accuracy: the f64 kernels are Taylor-to-degree-12 on the reduced
//! interval `|r| ≤ ln2/2` — absolute error under ~1e-15, far inside the
//! serving tier's 1e-9 end-to-end gate. The f32 kernels carry the same
//! structure to degree 7 (~1e-7 absolute — noise next to int8 weight
//! quantization). Like every approximate path in the workspace these are
//! **never** called from training code: the exact lanes keep libm.
//!
//! Inputs are clamped to the transcendentals' saturation range first, so
//! any finite input is safe; NaN propagates.

/// Cody–Waite high part of ln 2 (f64).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Cody–Waite low part of ln 2 (f64).
const LN2_LO: f64 = 1.908_214_929_270_588e-10;

/// `exp(x)` for `|x| ≤ ~700`, branch-free, ~1 ulp from the degree-12
/// Taylor core on the reduced interval. Callers clamp.
#[inline(always)]
fn exp_core_f64(x: f64) -> f64 {
    let n = (x * std::f64::consts::LOG2_E).round();
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    // Horner over 1/k!, k = 12 ..= 0; |r| ≤ 0.3466 keeps the truncation
    // under 2e-16 relative.
    let mut p: f64 = 2.087_675_698_786_81e-9; // 1/12!
    p = p.mul_add(r, 2.505_210_838_544_172e-8); // 1/11!
    p = p.mul_add(r, 2.755_731_922_398_589e-7); // 1/10!
    p = p.mul_add(r, 2.755_731_922_398_589e-6); // 1/9!
    p = p.mul_add(r, 2.480_158_730_158_73e-5); // 1/8!
    p = p.mul_add(r, 1.984_126_984_126_984e-4); // 1/7!
    p = p.mul_add(r, 1.388_888_888_888_889e-3); // 1/6!
    p = p.mul_add(r, 8.333_333_333_333_333e-3); // 1/5!
    p = p.mul_add(r, 4.166_666_666_666_666e-2); // 1/4!
    p = p.mul_add(r, 1.666_666_666_666_666_6e-1); // 1/3!
    p = p.mul_add(r, 0.5);
    p = p.mul_add(r, 1.0);
    p = p.mul_add(r, 1.0);
    // 2^n by exponent-field assembly (n is within ±1023 after clamping).
    let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
    p * scale
}

/// `exp(x)` for `|x| ≤ ~85`, f32, branch-free, degree-7 core.
#[inline(always)]
fn exp_core_f32(x: f32) -> f32 {
    let n = (x * std::f32::consts::LOG2_E).round();
    let r = (-n).mul_add(std::f32::consts::LN_2, x);
    let mut p = 1.984_127e-4f32; // 1/7!
    p = p.mul_add(r, 1.388_888_9e-3); // 1/6!
    p = p.mul_add(r, 8.333_334e-3); // 1/5!
    p = p.mul_add(r, 4.166_666_6e-2); // 1/4!
    p = p.mul_add(r, 1.666_666_7e-1); // 1/3!
    p = p.mul_add(r, 0.5);
    p = p.mul_add(r, 1.0);
    p = p.mul_add(r, 1.0);
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    p * scale
}

/// In-place logistic sigmoid over a slice, `σ(x) = 1/(1+e^(-x))`.
///
/// Absolute error under ~1e-15; saturates beyond `|x| ≈ 40` (to exactly
/// 1.0 on the high side, to `σ(-40) ≈ 4e-18` on the low side).
pub fn sigmoid_f64(xs: &mut [f64]) {
    for v in xs {
        let x = v.clamp(-40.0, 40.0);
        *v = 1.0 / (1.0 + exp_core_f64(-x));
    }
}

/// In-place `tanh` over a slice via `(e^(2x)-1)/(e^(2x)+1)`.
///
/// Absolute error under ~1e-15 across the full range (the `e^(2x)-1`
/// cancellation near zero is benign in absolute terms).
pub fn tanh_f64(xs: &mut [f64]) {
    for v in xs {
        let x2 = (2.0 * *v).clamp(-80.0, 80.0);
        let e = exp_core_f64(x2);
        *v = (e - 1.0) / (e + 1.0);
    }
}

/// In-place f32 logistic sigmoid; absolute error under ~1e-6.
pub fn sigmoid_f32(xs: &mut [f32]) {
    for v in xs {
        let x = v.clamp(-30.0, 30.0);
        *v = 1.0 / (1.0 + exp_core_f32(-x));
    }
}

/// In-place f32 `tanh`; absolute error under ~1e-6.
pub fn tanh_f32(xs: &mut [f32]) {
    for v in xs {
        let x2 = (2.0 * *v).clamp(-60.0, 60.0);
        let e = exp_core_f32(x2);
        *v = (e - 1.0) / (e + 1.0);
    }
}

/// Scalar f32 `tanh` (the slice kernel applied to one value) — for
/// per-element epilogues such as the int8 lane's dense activation, where
/// libm's `tanhf` would dominate.
#[inline]
pub fn tanh1_f32(x: f32) -> f32 {
    let mut v = [x];
    tanh_f32(&mut v);
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_sigmoid_matches_libm_tightly() {
        let mut worst = 0.0f64;
        for i in -4000..=4000 {
            let x = i as f64 * 0.01; // ±40
            let mut v = [x];
            sigmoid_f64(&mut v);
            let exact = 1.0 / (1.0 + (-x).exp());
            worst = worst.max((v[0] - exact).abs());
        }
        assert!(worst < 5e-15, "sigmoid drift {worst}");
    }

    #[test]
    fn f64_tanh_matches_libm_tightly() {
        let mut worst = 0.0f64;
        for i in -4000..=4000 {
            let x = i as f64 * 0.01;
            let mut v = [x];
            tanh_f64(&mut v);
            worst = worst.max((v[0] - x.tanh()).abs());
        }
        assert!(worst < 5e-15, "tanh drift {worst}");
    }

    #[test]
    fn f64_kernels_saturate_and_propagate_nan() {
        let mut v = [1e6, -1e6, f64::NAN];
        sigmoid_f64(&mut v);
        assert_eq!(v[0], 1.0);
        assert!(v[1] >= 0.0 && v[1] < 1e-17, "low saturation {}", v[1]);
        assert!(v[2].is_nan());
        let mut v = [1e6, -1e6, f64::NAN];
        tanh_f64(&mut v);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], -1.0);
        assert!(v[2].is_nan());
    }

    #[test]
    fn f32_kernels_stay_within_loose_bound() {
        let mut worst_s = 0.0f32;
        let mut worst_t = 0.0f32;
        for i in -3000..=3000 {
            let x = i as f32 * 0.01;
            let mut v = [x];
            sigmoid_f32(&mut v);
            worst_s = worst_s.max((v[0] - 1.0 / (1.0 + (-f64::from(x)).exp()) as f32).abs());
            let mut v = [x];
            tanh_f32(&mut v);
            worst_t = worst_t.max((v[0] - f64::from(x).tanh() as f32).abs());
        }
        assert!(worst_s < 2e-6, "f32 sigmoid drift {worst_s}");
        assert!(worst_t < 2e-6, "f32 tanh drift {worst_t}");
        assert!((tanh1_f32(0.5) - 0.5f32.tanh()).abs() < 2e-6);
    }
}

//! The workspace's σ and tanh: one branch-free polynomial per function,
//! over slices and over single values.
//!
//! Every sigmoid and tanh under a train step or a forward is one of the
//! functions below — the LSTM gate bands (training and both serving
//! lanes), `Activation::{Sigmoid, Tanh}` of a dense layer, the int8 lane's
//! `f32` epilogues. libm's `tanh`/`exp` are not called on any of those
//! paths; they survive only as the oracle the accuracy tests compare
//! against. Two things follow:
//!
//! - **Speed.** Every lane runs the same instruction sequence (clamp,
//!   round, two-term Cody–Waite reduction, Horner with `mul_add`, exponent
//!   reassembly via bit manipulation — no branch, no float-to-int
//!   conversion), so LLVM vectorizes the slice loops: ≈ 2 ns per element at
//!   256-bit vectors against 11–20 ns for a scalar libm call, five of which
//!   an LSTM spends per hidden unit per step.
//! - **Portable bits.** A result is a pure function of the input bits,
//!   built from `+ − × ÷`, `mul_add`, `round`, `clamp` and integer
//!   operations only — the same bits on any IEEE-754 host whose `fma` is
//!   correctly rounded, vector body, scalar tail and `*1_*` scalar alike.
//!   Without hardware FMA `mul_add` is a libm `fma` call: same bits, no
//!   speed. `tests/vmath_contract.rs` pins recorded `to_bits()` literals,
//!   and CI runs it at `-C target-cpu=x86-64` as well as natively.
//!
//! # Accuracy and edges
//!
//! The f64 kernels are Taylor-to-degree-12 on the reduced interval
//! `|r| ≤ ln2/2`: absolute error under 5e-15 from the mathematical function
//! over the whole line (the `e^(2x) − 1` cancellation of `tanh` near zero is
//! benign in absolute terms; the *relative* error of a tiny `tanh(x)` is
//! not bounded, and `tanh(x)` is `0` for `|x|` under ~5e-17). The f32 kernels
//! carry the same structure to degree 7, under 2e-6 absolute.
//!
//! - σ clamps its argument to ±40 (f32: ±30), so for every finite `x`
//!   `σ(x) ≥ σ(−40) ≈ 4.2e-18 > 0` — it never reaches exactly `0` — while
//!   `σ(x) == 1.0` exactly from `x ≈ 37` up. `σ(0) == 0.5` exactly.
//! - tanh clamps `2x` to ±80 (f32: ±60): `tanh(±1e6) == ±1.0` exactly,
//!   `tanh(0) == 0.0` exactly (`−0.0` gives `+0.0`).
//! - `±∞` give the saturation values; NaN gives NaN.

/// Cody–Waite high part of ln 2 (f64).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Cody–Waite low part of ln 2 (f64).
const LN2_LO: f64 = 1.908_214_929_270_588e-10;
/// 2^52: from here up an `f64` has a unit in the last place of 1.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
/// 2^23: the same for `f32`.
const TWO_POW_23: f32 = 8_388_608.0;

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
    // 2^n by exponent-field assembly. `n + 1023` is an integer in 0..2048
    // after clamping, so adding 2^52 leaves it, exactly, in the low mantissa
    // bits, and the shift moves it into the exponent field. A saturating
    // `n as i64` computes the same bits and keeps the whole loop scalar.
    let scale = f64::from_bits((n + (1023.0 + TWO_POW_52)).to_bits() << 52);
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
    // As in the f64 core: `n + 127` in 0..256, 2^23 the mantissa's unit.
    let scale = f32::from_bits((n + (127.0 + TWO_POW_23)).to_bits() << 23);
    p * scale
}

/// `σ(x) = 1/(1+e^(-x))` of one value: the definition [`sigmoid_f64`]
/// applies to every element, bit for bit — for per-element epilogues such as
/// a dense layer's activation. See the module docs for accuracy and edges.
#[inline(always)]
pub fn sigmoid1_f64(x: f64) -> f64 {
    1.0 / (1.0 + exp_core_f64(-x.clamp(-40.0, 40.0)))
}

/// `tanh` of one value via `(e^(2x) − 1) / (e^(2x) + 1)`: the definition
/// [`tanh_f64`] applies to every element.
#[inline(always)]
pub fn tanh1_f64(x: f64) -> f64 {
    let e = exp_core_f64((2.0 * x).clamp(-80.0, 80.0));
    (e - 1.0) / (e + 1.0)
}

/// f32 logistic sigmoid of one value, the definition behind
/// [`sigmoid_f32`]; absolute error under 2e-6.
#[inline(always)]
pub fn sigmoid1_f32(x: f32) -> f32 {
    1.0 / (1.0 + exp_core_f32(-x.clamp(-30.0, 30.0)))
}

/// f32 `tanh` of one value, the definition behind [`tanh_f32`]; absolute
/// error under 2e-6.
#[inline(always)]
pub fn tanh1_f32(x: f32) -> f32 {
    let e = exp_core_f32((2.0 * x).clamp(-60.0, 60.0));
    (e - 1.0) / (e + 1.0)
}

/// In-place logistic sigmoid over a slice: [`sigmoid1_f64`] of every
/// element, vectorized.
pub fn sigmoid_f64(xs: &mut [f64]) {
    for v in xs {
        *v = sigmoid1_f64(*v);
    }
}

/// In-place `tanh` over a slice: [`tanh1_f64`] of every element, vectorized.
pub fn tanh_f64(xs: &mut [f64]) {
    for v in xs {
        *v = tanh1_f64(*v);
    }
}

/// In-place f32 logistic sigmoid: [`sigmoid1_f32`] of every element.
pub fn sigmoid_f32(xs: &mut [f32]) {
    for v in xs {
        *v = sigmoid1_f32(*v);
    }
}

/// In-place f32 `tanh`: [`tanh1_f32`] of every element.
pub fn tanh_f32(xs: &mut [f32]) {
    for v in xs {
        *v = tanh1_f32(*v);
    }
}

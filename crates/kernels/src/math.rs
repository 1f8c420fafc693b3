//! `exp` and `tanh` as this crate defines them.
//!
//! Both are one fixed, branch-free sequence of `f32` `+ − × ÷`, `clamp` and
//! bit casts per element — no libm call, no `mul_add`, no `floor`/`round`
//! (baseline x86-64 has no `roundps`; rounding is the 1.5·2²³ magic add).
//! The value of an element therefore does not depend on whether the
//! compiler evaluated it in a scalar loop or in a vector lane, on the
//! target, or on the libm the binary links: the row kernels in
//! [`crate::fused`] auto-vectorise over these and stay bit-identical to
//! element-at-a-time calls by construction, with no reference twin.
//!
//! They are *definitions*, not approximations to be swapped: model outputs
//! depend on their bits, so changing a coefficient is a format change for
//! every trained checkpoint. Accuracy against the real functions is pinned
//! in `tests/math.rs`.

/// `1.5 · 2²³`: adding it to `|t| < 2²²` leaves `round_to_nearest_even(t)`
/// in the low mantissa bits, and subtracting it again yields that integer
/// as a float.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Inputs are clamped here, so `n = round(x·log₂e)` stays in `[-126, 127]`
/// and `2ⁿ` is a normal float: `exp` saturates at `exp(-87)` ≈ 1.6e-38 and
/// `exp(88)` ≈ 1.7e38 instead of reaching 0 or ∞.
const EXP_LO: f32 = -87.0;
const EXP_HI: f32 = 88.0;

/// `eˣ` — Cephes-style: `x = n·ln2 + r` with `|r| ≤ ln2/2` (two-constant
/// Cody–Waite reduction), a degree-5 polynomial for `eʳ`, and `2ⁿ` built by
/// shifting `n + 127` into the exponent field. Max relative error 8.1e-8
/// (under 1 ulp) on `[-87, 88]`, monotone on every grid tried;
/// `exp(0) == 1` exactly; NaN in → NaN out.
#[inline]
pub fn exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4; // 355/512 exactly, so n·LN2_HI is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(EXP_LO, EXP_HI);
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.0e-1;
    p = p * (r * r) + r + 1.0;
    // `shifted`'s low nine bits hold `n` in two's complement; after `+ 127`
    // they are the biased exponent (1..=254, bit 8 clear) and the shift
    // drops everything above them.
    p * f32::from_bits(shifted.to_bits().wrapping_add(127) << 23)
}

/// Beyond this `tanh` is ±1 to `f32` precision; the clamp is what makes the
/// rational below saturate instead of diverging.
const TANH_CLAMP: f32 = 7.905_311;

/// `tanh x` as an odd degree-13 over even degree-6 rational (the classic
/// single-precision minimax fit), clamped at ±7.905311. Max absolute
/// error 3.9e-7 on `[-9, 9]`; odd by construction, `tanh(0) == 0` and
/// `tanh(±large) == ±1` exactly; NaN in → NaN out.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = -2.760_768_4e-16;
    p = p * x2 + 2.000_188e-13;
    p = p * x2 + -8.604_672e-11;
    p = p * x2 + 5.122_297_3e-8;
    p = p * x2 + 1.485_722_35e-5;
    p = p * x2 + 6.372_619_5e-4;
    p = p * x2 + 4.893_524_6e-3;
    let mut q = 1.198_258_4e-6;
    q = q * x2 + 1.185_347_1e-4;
    q = q * x2 + 2.268_434_7e-3;
    q = q * x2 + 4.893_525e-3;
    x * p / q
}

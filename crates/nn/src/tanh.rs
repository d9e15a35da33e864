//! `tanh` owned by the crate, with the same bits on every host.
//!
//! [`Activation::Tanh`](crate::Activation::Tanh) used to call
//! `f64::tanh`, which is the platform libm's. glibc picks its `tanh` and
//! `expm1` code at load time by CPU feature, and its FMA build rounds
//! differently from its plain build, so trained networks (and every
//! result built on them) depended on the host. This module is a port of
//! glibc 2.36's fdlibm `s_tanh.c` and `s_expm1.c` exactly as glibc's FMA
//! build computes them, so it reproduces that build's bits everywhere.
//! Each contraction that build makes is an explicit [`f64::mul_add`]:
//!
//! * the three polynomial terms `R1 = 1 + hxs*Q1`, `R2 = Q2 + hxs*Q3`,
//!   `R3 = Q4 + hxs*Q5`, and both steps of `r1 = R1 + h2*R2 + h4*R3`;
//! * `t = 3 - r1*hfx` and the divisor `6 - x*t`;
//! * `x*e - hxs` (the `k == 0` return) and `e = x*(e - c) - c`;
//! * `1 + 2*(x - e)` (`k == 1`).
//!
//! The argument reduction (`hi`, `lo`, `k`) and tanh's own divisions are
//! not fused.
//!
//! The algorithm is written once, as a branch-free lane body: it computes
//! every `expm1` case and picks the result with selects, so a loop over a
//! slice vectorizes. The body is compiled three ways: for AVX-512, for
//! AVX2 with FMA, and plain, where `mul_add` is libm's correctly rounded
//! `fma`. Every IEEE operation is exact per lane in all three, so they
//! agree bit for bit; [`tanh_slice`] picks the widest one the CPU runs.
//! The crate's tests pin all of them against a committed table of input
//! and output bits taken from glibc's FMA build.

const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
// Scaled coefficients of expm1's rational approximation.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// expm1 reduces `x` when its high word exceeds `0x3fd62e42`
/// (|x| > 0.5·ln 2): the smallest such |x|.
const REDUCE: f64 = f64::from_bits(0x3fd6_2e43_0000_0000);
/// Below this |x| (high word `0x3ff0a2b2`, about 1.5·ln 2) the
/// reduction uses k = ±1.
const K_ONE: f64 = f64::from_bits(0x3ff0_a2b2_0000_0000);
/// 1.5·2⁵²: `(k + SHIFT).to_bits() - SHIFT.to_bits()` is the integer
/// `k` for any integral |k| < 2⁵¹.
const SHIFT: f64 = 6755399441055744.0;
/// 2⁻⁵⁵: below it tanh(x) is `x*(1 + x)`.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);

/// `tanh(x)`, bit for bit as glibc 2.36's FMA build computes it, on any
/// host. This is the plain build of the lane body.
pub fn tanh(x: f64) -> f64 {
    lane(x)
}

/// Replace every element of `xs` by its [`tanh`], in the widest build
/// this CPU runs. The result does not depend on the build.
pub fn tanh_slice(xs: &mut [f64]) {
    // SAFETY: `best` picks only a build this CPU runs.
    unsafe { Build::best().run_unchecked(xs) }
}

/// One compilation of the lane body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// No target features; `mul_add` is libm's `fma`. Runs everywhere.
    Plain,
    /// x86-64 with AVX2 and FMA: four lanes.
    Avx2,
    /// x86-64 with AVX-512F and AVX-512DQ: eight lanes.
    Avx512,
}

impl Build {
    /// Every build, narrowest first.
    pub const ALL: [Build; 3] = [Build::Plain, Build::Avx2, Build::Avx512];

    /// Whether this CPU runs the build.
    pub fn supported(self) -> bool {
        match self {
            Build::Plain => true,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => {
                Build::Avx2.supported()
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest build this CPU runs.
    pub fn best() -> Build {
        if Build::Avx512.supported() {
            Build::Avx512
        } else if Build::Avx2.supported() {
            Build::Avx2
        } else {
            Build::Plain
        }
    }

    /// Replace every element of `xs` by its [`tanh`] in this build.
    ///
    /// # Panics
    /// If the CPU does not run the build.
    pub fn run(self, xs: &mut [f64]) {
        assert!(self.supported(), "this CPU does not run the {self:?} build");
        // SAFETY: checked just above.
        unsafe { self.run_unchecked(xs) }
    }

    /// # Safety
    /// The CPU must run the build ([`Self::supported`]).
    unsafe fn run_unchecked(self, xs: &mut [f64]) {
        match self {
            Build::Plain => plain(xs),
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => avx2(xs),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => avx512(xs),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
    }
}

fn plain(xs: &mut [f64]) {
    for x in xs {
        *x = lane(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2(xs: &mut [f64]) {
    for x in xs {
        *x = lane(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
fn avx512(xs: &mut [f64]) {
    for x in xs {
        *x = lane(*x);
    }
}

/// glibc's `__tanh`: tanh(x) = expm1(2|x|) based for |x| ≥ 1, and
/// -expm1(-2|x|) based below, with the sign of `x` put back.
#[inline(always)]
fn lane(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let t = expm1(if big { 2.0 * ax } else { -2.0 * ax });
    // One division for both branches: 1 - 2/(t+2) or -t/(t+2).
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if ax >= 22.0 {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    let z = if x.is_sign_negative() { -z } else { z };
    // ±0 and subnormals are covered here too: x*(1 + x) is x.
    let z = if ax < TINY { x * (1.0 + x) } else { z };
    if x.is_nan() {
        x + x
    } else {
        z
    }
}

/// glibc's `__expm1` for the arguments [`lane`] gives it:
/// (−2, −2⁻⁵⁴] ∪ [2, 44). Its overflow and non-finite filter (|x| ≥
/// 56·ln 2 and negative, or ≥ 709.78) and its |x| < 2⁻⁵⁴ shortcut are
/// never reached from there, so they are left out; every reduction case
/// is kept, including `k == 1`, which tanh does not reach either.
#[inline(always)]
fn expm1(x: f64) -> f64 {
    let ax = x.abs();
    let neg = x.is_sign_negative();
    // Argument reduction: x = k·ln2 + r, |r| ≤ 0.5·ln2, with r = xr + c.
    // glibc truncates `invln2*x ± 0.5` to an int; the float `trunc` and
    // the integer read through SHIFT keep every step in 64-bit lanes.
    let kf = if ax < REDUCE {
        0.0
    } else if ax < K_ONE {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        (INVLN2 * x + if neg { -0.5 } else { 0.5 }).trunc()
    };
    let k = (kf + SHIFT).to_bits().wrapping_sub(SHIFT.to_bits()) as i64;
    // k·LN2_HI is exact, and for k = 0 and ±1 these are glibc's
    // `hi = x ∓ ln2_hi`, `lo = ±ln2_lo` (and `xr = x`, `c = 0` for k = 0).
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // xr is now in the primary range. r1_a, r1_b, r1_c are glibc's R1,
    // R2, R3.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1_a = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r1_b = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r1_c = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r1_c, h2.mul_add(r1_b, r1_a));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-xr).mul_add(t, 6.0));
    let y_k0 = xr - xr.mul_add(e, -hxs);

    let e = xr.mul_add(e - c, -c) - hxs;
    let y_km1 = 0.5 * (xr - e) - 0.5;
    let y_k1 = if xr < -0.25 {
        -2.0 * (e - (xr + 0.5))
    } else {
        2.0f64.mul_add(xr - e, 1.0)
    };
    // glibc's "add k to y's exponent" and its 2^-k, on the bits.
    let scale = |y: f64| f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52));
    let two_mk = f64::from_bits((0x3ff_i64.wrapping_sub(k) as u64) << 52);
    let y_wide = scale(1.0 - (e - xr)) - 1.0;
    let y_lt20 = scale((1.0 - two_mk) - (e - xr));
    let y_ge20 = scale((xr - (e + two_mk)) + 1.0);

    if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k == 1 {
        y_k1
    } else if k <= -2 || k > 56 {
        y_wide
    } else if k < 20 {
        y_lt20
    } else {
        y_ge20
    }
}

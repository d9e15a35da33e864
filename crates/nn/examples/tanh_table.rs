//! Print the table that pins `tunio_nn::tanh` to glibc's FMA build.
//!
//! Each line is an input and the host libm's `f64::tanh` of it, both as
//! the hex bits of an `f64`; a last `digest` line hashes `f64::tanh` over
//! a further 1.5M random inputs, which catches a rounding change too
//! rare for the rows to show. The committed table
//! (`crates/nn/tests/data/tanh_glibc_fma.txt`) was made with
//!
//! ```text
//! cargo run --release -p tunio-nn --example tanh_table > crates/nn/tests/data/tanh_glibc_fma.txt
//! ```
//!
//! on an x86-64 host with FMA and AVX2 under glibc 2.36, where glibc
//! loads the FMA builds of `tanh` and `expm1`. On any other libm the
//! output differs and is no reference.
//!
//! `--check N` instead compares the crate's `tanh` with this host's
//! `f64::tanh` on `N` random inputs and prints the mismatches: a way to
//! see whether a host's libm agrees with glibc's FMA build.

#[path = "../tests/common/tanh_inputs.rs"]
mod tanh_inputs;

use tanh_inputs::{digest, inputs, DIGEST_INPUTS, DIGEST_SEED};
use tunio_nn::tanh::tanh;

/// glibc's expm1 argument-reduction constant.
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// expm1's reduction index for tanh's argument `2x`, `x ≥ 1`.
fn k_of(x: f64) -> f64 {
    (INVLN2 * (2.0 * x) + 0.5).trunc()
}

/// The inputs: every edge the algorithm has, then random ones.
fn table_inputs() -> Vec<f64> {
    let mut bits: Vec<u64> = vec![
        0x0000_0000_0000_0000, // 0
        0x0000_0000_0000_0001, // smallest subnormal
        0x0000_0000_dead_beef,
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x3c7f_ffff_ffff_ffff, // 2^-55 - 1 ulp: x*(1 + x)
        0x3c80_0000_0000_0000, // 2^-55
        0x3c80_0000_0000_0001,
        // expm1's argument -2|x| at its high-word thresholds.
        0x3fc6_2e42_0000_0000,
        0x3fc6_2e42_ffff_ffff, // 2|x| high word 0x3fd62e42: k = 0
        0x3fc6_2e43_0000_0000, // 0x3fd62e43: reduced, k = -1
        0x3fe0_a2b1_ffff_ffff, // 2|x| high word 0x3ff0a2b1: k = -1
        0x3fe0_a2b2_0000_0000, // 0x3ff0a2b2: k from invln2*x
        0x3fef_ffff_ffff_ffff, // 1 - 1 ulp
        0x3ff0_0000_0000_0000, // 1
        0x3ff0_0000_0000_0001, // 1 + 1 ulp
        0x4035_ffff_ffff_ffff, // 22 - 1 ulp
        0x4036_0000_0000_0000, // 22
        0x4036_0000_0000_0001, // 22 + 1 ulp
        0x7fef_ffff_ffff_ffff, // largest finite
        0x7ff0_0000_0000_0000, // inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN
    ];
    // Each step of expm1's k: the last x below it and the first at it.
    // k runs 3..=63 for |x| in [1, 22); 20 and 57 switch between the
    // `k < 20`, `k ≥ 20` and `k > 56` returns.
    for k in 4..=63 {
        let (mut lo, mut hi) = (1.0f64.to_bits(), 22.0f64.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if k_of(f64::from_bits(mid)) >= k as f64 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        bits.extend([lo, hi]);
    }
    // The one step below 1: -2|x| crossing -2.5·ln2 moves k from -2 to -3.
    let (mut lo, mut hi) = (0.5f64.to_bits(), 1.0f64.to_bits());
    let k_neg = |x: f64| (INVLN2 * (-2.0 * x) - 0.5).trunc();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if k_neg(f64::from_bits(mid)) <= -3.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    bits.extend([lo, hi]);
    let mut xs: Vec<f64> = bits
        .iter()
        .flat_map(|&b| [f64::from_bits(b), -f64::from_bits(b)])
        .collect();
    xs.extend(inputs(2400, 0x7a6e_6874));
    xs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, n] = args.as_slice() {
        if flag == "--check" {
            let n: usize = n.parse().expect("--check N wants a count");
            let mut bad = 0usize;
            for x in inputs(n, 1) {
                let (ours, libm) = (tanh(x), x.tanh());
                if ours.to_bits() != libm.to_bits() && !(ours.is_nan() && libm.is_nan()) {
                    bad += 1;
                    if bad <= 20 {
                        println!(
                            "{:016x}: ours {:016x}, libm {:016x}",
                            x.to_bits(),
                            ours.to_bits(),
                            libm.to_bits()
                        );
                    }
                }
            }
            println!("{bad} of {n} inputs differ from this host's f64::tanh");
            return;
        }
    }
    println!("# tanh(x) as glibc 2.36's FMA build computes it: input bits, output bits.");
    println!("# Made by crates/nn/examples/tanh_table.rs; see there how.");
    for x in table_inputs() {
        println!("{:016x} {:016x}", x.to_bits(), x.tanh().to_bits());
    }
    let ys: Vec<f64> = inputs(DIGEST_INPUTS, DIGEST_SEED)
        .iter()
        .map(|x| x.tanh())
        .collect();
    println!("digest {DIGEST_INPUTS} {DIGEST_SEED} {:016x}", digest(&ys));
}

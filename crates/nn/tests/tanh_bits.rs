//! The crate's `tanh` against a committed table of glibc's FMA-build
//! bits (`data/tanh_glibc_fma.txt`, made by `examples/tanh_table.rs`),
//! and its builds against each other. Every build this CPU runs is
//! checked; the plain one runs everywhere, so the fallback that computes
//! `mul_add` in libm's `fma` is covered on FMA hardware too.

mod common;

use common::tanh_inputs::{digest, inputs, DIGEST_INPUTS, DIGEST_SEED};
use tunio_nn::tanh::{tanh, tanh_slice, Build};

const TABLE: &str = include_str!("data/tanh_glibc_fma.txt");

fn table() -> Vec<(f64, f64)> {
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("digest"))
        .map(|l| {
            let (x, y) = l.split_once(' ').expect("two hex words a line");
            let bits = |h: &str| u64::from_str_radix(h, 16).expect("hex bits");
            (f64::from_bits(bits(x)), f64::from_bits(bits(y)))
        })
        .collect()
}

/// Equal bits, or both NaN (glibc keeps the payload; the crate
/// promises only that NaN stays NaN).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn supported() -> Vec<Build> {
    Build::ALL.into_iter().filter(|b| b.supported()).collect()
}

#[test]
fn table_covers_the_edges() {
    let xs: Vec<f64> = table().iter().map(|&(x, _)| x).collect();
    assert!(xs.len() > 2_500, "{} rows", xs.len());
    for edge in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, 22.0] {
        assert!(
            xs.iter().any(|x| x.to_bits() == edge.to_bits()),
            "{edge} missing"
        );
    }
    assert!(xs.iter().any(|x| x.is_nan()));
    assert!(xs.iter().any(|x| x.is_subnormal()));
}

#[test]
fn scalar_tanh_matches_the_table() {
    for (x, want) in table() {
        let got = tanh(x);
        assert!(
            same(got, want),
            "tanh({x:e} = {:#018x}) = {:#018x}, table {:#018x}",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }
}

#[test]
fn every_build_matches_the_table() {
    let rows = table();
    let xs: Vec<f64> = rows.iter().map(|&(x, _)| x).collect();
    for build in supported() {
        // Odd lengths too, so vector bodies and scalar tails both run.
        for chunk in [1, 3, 8, 24, 37] {
            let mut ys = xs.clone();
            ys.chunks_mut(chunk).for_each(|c| build.run(c));
            for ((x, want), got) in rows.iter().zip(&ys) {
                assert!(
                    same(*got, *want),
                    "{build:?} (chunks of {chunk}): tanh({:#018x}) = {:#018x}, table {:#018x}",
                    x.to_bits(),
                    got.to_bits(),
                    want.to_bits()
                );
            }
        }
    }
}

/// The table's `digest` line: input count, seed and hash.
fn table_digest() -> (usize, u64, u64) {
    let line = TABLE
        .lines()
        .find(|l| l.starts_with("digest"))
        .expect("a digest line");
    let words: Vec<&str> = line.split(' ').collect();
    let [_, n, seed, hash] = words[..] else {
        panic!("bad digest line {line:?}")
    };
    (
        n.parse().unwrap(),
        seed.parse().unwrap(),
        u64::from_str_radix(hash, 16).unwrap(),
    )
}

#[test]
fn every_build_matches_the_digest_and_each_other() {
    let (n, seed, want) = table_digest();
    assert_eq!((n, seed), (DIGEST_INPUTS, DIGEST_SEED));
    let xs = inputs(n, seed);
    let plain: Vec<f64> = xs.iter().map(|&x| tanh(x)).collect();
    assert_eq!(digest(&plain), want, "tanh over the digest's {n} inputs");
    for build in supported() {
        let mut ys = xs.clone();
        ys.chunks_mut(24).for_each(|c| build.run(c));
        for ((x, p), y) in xs.iter().zip(&plain).zip(&ys) {
            assert!(
                same(*y, *p),
                "{build:?}: tanh({:#018x}) = {:#018x}, plain {:#018x}",
                x.to_bits(),
                y.to_bits(),
                p.to_bits()
            );
        }
    }
    let mut dispatched = xs.clone();
    tanh_slice(&mut dispatched);
    assert_eq!(digest(&dispatched), want, "tanh_slice");
}

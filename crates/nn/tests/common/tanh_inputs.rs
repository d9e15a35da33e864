//! The input stream behind the committed tanh table and its digest,
//! shared by `examples/tanh_table.rs`, which writes them, and
//! `tests/tanh_bits.rs`, which checks them.

/// splitmix64: a fixed stream, so the inputs are the same everywhere.
pub struct Mix(pub u64);

impl Mix {
    pub fn bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [−4, 4], log-uniform magnitude in 2⁻⁶⁰..2⁶ with a
    /// random sign, or a raw bit pattern, by turns.
    pub fn input(&mut self, i: usize) -> f64 {
        let u = (self.bits() >> 11) as f64 / (1u64 << 53) as f64;
        match i % 3 {
            0 => u * 8.0 - 4.0,
            1 => f64::from_bits((-60.0 + 66.0 * u).exp2().to_bits() | (self.bits() << 63)),
            _ => f64::from_bits(self.bits()),
        }
    }
}

/// `n` inputs from the stream seeded with `seed`.
pub fn inputs(n: usize, seed: u64) -> Vec<f64> {
    let mut mix = Mix(seed);
    (0..n).map(|i| mix.input(i)).collect()
}

/// The inputs the digest covers.
pub const DIGEST_INPUTS: usize = 1_500_000;
/// Their seed.
pub const DIGEST_SEED: u64 = 22;

/// FNV-1a over the output bits, in order: one flipped bit anywhere
/// changes it. NaNs count as one canonical NaN.
pub fn digest(ys: &[f64]) -> u64 {
    ys.iter().fold(0xcbf2_9ce4_8422_2325, |h, &y| {
        let bits = if y.is_nan() {
            f64::NAN.to_bits()
        } else {
            y.to_bits()
        };
        (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

//! Noise-robust racing evaluation.
//!
//! On a noisy cluster (heteroscedastic interference — see
//! `tunio_iosim::interference`) a fixed repeat count wastes simulations:
//! clear losers get the same averaging budget as near-ties with the
//! incumbent. Racing spends repeats where they buy discrimination:
//!
//! * every new key gets [`RacingConfig::min_samples`] independent runs
//!   up front (the *warm* phase, free to run on any worker thread);
//! * at the scheduler's **commit frontier** — the only place where the
//!   incumbent is a deterministic function of the committed history —
//!   the key is *settled*: while its confidence interval still overlaps
//!   the incumbent it receives top-up runs, a clear loser is discarded
//!   early (`mean + half_width < incumbent`), and the repeat count is
//!   capped at [`RacingConfig::max_samples`];
//! * the strategy observes only the settled aggregate (mean of the
//!   per-run objectives) with its sample count, so traces, checkpoints
//!   and resume proofs stay timing-independent.
//!
//! Per-key statistics use Welford's algorithm ([`Moments`]); the
//! (count, m2) pair plus the mean already stored as `perf` is exactly
//! what the checkpoint WAL persists to restore racing state bitwise.

use serde::{Deserialize, Serialize};

/// Racing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RacingConfig {
    /// Samples every key receives before any racing decision (≥ 2, so a
    /// variance estimate exists).
    pub min_samples: u32,
    /// Hard cap on samples per key; ties with the incumbent stop here.
    pub max_samples: u32,
    /// Half-width multiplier: the CI is `mean ± z·sd/√n`.
    pub z: f64,
}

impl Default for RacingConfig {
    fn default() -> Self {
        // Tuned on the storm profile (see the `noise01` bench): z = 1
        // discards clear losers after their 2 warm samples often
        // enough to beat fixed-3 averaging by >25% of the simulation
        // budget, while the 6-sample cap gives survivors a tighter
        // aggregate than fixed-3 ever had. A wider CI (z = 2) sounds
        // safer but merely tops ambiguous configs up to the cap —
        // most of the saving evaporates and the winner is unchanged.
        RacingConfig {
            min_samples: 2,
            max_samples: 6,
            z: 1.0,
        }
    }
}

/// Welford running mean/variance accumulator.
///
/// `push` is NaN-safe at the caller: the engine only feeds finite
/// per-run objectives (insane reports are excluded as failed samples),
/// so the moments themselves never go non-finite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Samples accumulated.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    pub m2: f64,
}

impl Moments {
    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance (0 until two samples exist).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
    }

    /// CI half-width `z·sd/√n` (0 until two samples exist).
    pub fn half_width(&self, z: f64) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            z * (self.variance() / self.n as f64).sqrt()
        }
    }
}

/// What settling a raced key decided, surfaced so the scheduler can
/// commit the aggregate and emit commit-ordered trace events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceOutcome {
    /// The settled objective the strategy observes (mean of per-run
    /// objectives; the penalty value if every sample failed).
    pub perf: f64,
    /// Cost charged to the tuning budget (one aggregated run's elapsed
    /// time, per the paper's §IV accounting; 0 for all-failed keys).
    pub cost_s: f64,
    /// Valid samples aggregated.
    pub samples: u32,
    /// Top-up samples run at settle time (beyond the warm phase).
    pub topups: u32,
    /// True when the key was discarded as a clear loser before reaching
    /// the sample cap.
    pub discarded: bool,
    /// Mean of the per-run objectives at the final decision.
    pub mean: f64,
    /// CI half-width at the final decision.
    pub half_width: f64,
}

/// One early-discard record: enough to audit (and property-test) that
/// the racing rule only drops genuine losers.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceDiscard {
    /// Gene key of the discarded configuration.
    pub key: Vec<usize>,
    /// Its mean objective when discarded.
    pub mean: f64,
    /// The CI half-width when discarded.
    pub half_width: f64,
    /// The incumbent objective it lost to.
    pub incumbent: f64,
    /// Samples it had received.
    pub samples: u32,
}

/// Racing activity counters (for benches, reports and metrics scrapes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RacingCounters {
    /// Raw single-run samples executed (warm + top-up). Warm samples of
    /// keys that never settle count too, so this depends on evaluator
    /// timing.
    pub samples: u64,
    /// Keys settled through the racing path.
    pub settled: u64,
    /// Samples the settled keys consumed (warm + top-up), summed at
    /// settle time. Settles run in commit order, so unlike `samples`
    /// this is the same for every thread count.
    pub settled_samples: u64,
    /// Top-up samples run at the commit frontier.
    pub topups: u64,
    /// Keys discarded early as clear losers.
    pub discards: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_mean_and_variance() {
        let xs = [3.0, 1.5, 4.25, 0.5, 2.0, 9.75, 2.5];
        let mut m = Moments::default();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((m.mean - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.n, xs.len() as u64);
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        let mut m = Moments::default();
        assert_eq!(m.half_width(2.0), 0.0, "undefined CI reads as zero");
        m.push(10.0);
        assert_eq!(m.half_width(2.0), 0.0);
        m.push(12.0);
        let at2 = m.half_width(2.0);
        assert!(at2 > 0.0);
        // More samples at the same spread tighten the interval.
        m.push(10.0);
        m.push(12.0);
        m.push(10.0);
        m.push(12.0);
        assert!(m.half_width(2.0) < at2);
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let mut m = Moments::default();
        for _ in 0..5 {
            m.push(7.0);
        }
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.half_width(3.0), 0.0);
    }
}

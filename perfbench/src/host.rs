//! Host-speed reference: a fixed piece of CPU work that shares no code with
//! the program under test, timed at intervals through a run.
//!
//! On a shared virtual machine the same campaign runs up to a third slower
//! for minutes at a time, and a 25 s run cannot average that out. The
//! reference slows down with the host but not with the program, so
//! dividing a timing by the reference's time around it (per campaign, or
//! the run's median) leaves the program's own speed. Timings scaled this
//! way are reported in seconds at the reference's nominal time per run,
//! its median on the baseline host, so on that host they read as plain
//! seconds.
//!
//! There are two references. [`kernel`] is single-threaded work. A
//! campaign that hands small jobs to two evaluator threads also waits on
//! every hand-off, and when the hypervisor takes time from the virtual
//! CPUs it slows down far more than single-threaded work does;
//! [`threaded_kernel`] has that shape.

use crate::stats;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Median time of one [`kernel`] run on the baseline host (a 2-vCPU Xeon
/// VM at 2.1 GHz), sampled between campaigns as the workloads do.
pub const NOMINAL_S: f64 = 0.0057;
/// Time of one [`threaded_kernel`] run on the baseline host, about its
/// median in the calm stretches of a five-minute run.
pub const NOMINAL_THREADED_S: f64 = 0.025;
/// Generations and jobs per generation of [`threaded_kernel`]: the shape
/// of a `search_storm` campaign (30 iterations x 8).
const GENERATIONS: u64 = 30;
const BATCH: u64 = 8;
/// Side of the matrices of one threaded job, and its product rounds.
const JOB_N: usize = 32;
const JOB_ROUNDS: usize = 3;
/// Matrix-product rounds per kernel run.
const ROUNDS: usize = 25;
/// Side of the square matrices.
const N: usize = 48;
/// Table slots the kernel updates at random, and updates per round.
const SLOTS: usize = 4096;
const UPDATES: usize = 2000;
/// Minimum gap between samples taken between campaigns.
const EVERY: Duration = Duration::from_millis(250);

/// Fixed work in the mix the tuner does: small dense `f64` matrix products
/// (the surrogate and Q-network fits) and random updates of a table
/// (Q-learning), driven by a xorshift generator.
pub fn kernel() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let a: Vec<f64> = (0..N * N)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let mut table = vec![0.0f64; SLOTS];
    let mut acc = 0.0;
    for round in 0..ROUNDS {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        for _ in 0..UPDATES {
            let slot = next() as usize % SLOTS;
            table[slot] = 0.9 * table[slot] + 0.1 * c[slot % (N * N)].tanh();
        }
        acc += c[round % (N * N)] + table[round % SLOTS];
        black_box(&mut c);
    }
    acc
}

/// One job of [`threaded_kernel`]: small dense matrix products seeded by
/// the job's number.
fn job(seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let a: Vec<f64> = (0..JOB_N * JOB_N).map(|_| next()).collect();
    let b: Vec<f64> = (0..JOB_N * JOB_N).map(|_| next()).collect();
    let mut c = vec![0.0f64; JOB_N * JOB_N];
    for _ in 0..JOB_ROUNDS {
        for i in 0..JOB_N {
            for k in 0..JOB_N {
                let aik = a[i * JOB_N + k];
                for j in 0..JOB_N {
                    c[i * JOB_N + j] += aik * b[k * JOB_N + j];
                }
            }
        }
        black_box(&mut c);
    }
    c[seed as usize % (JOB_N * JOB_N)]
}

/// Fixed work handed out in small jobs to two threads: [`GENERATIONS`]
/// rounds of [`BATCH`] jobs queued under a mutex, each round waiting for
/// all its results before the next is queued.
pub fn threaded_kernel() -> f64 {
    // The queue and the closing flag, under one mutex.
    let board = (Mutex::new((VecDeque::<u64>::new(), false)), Condvar::new());
    let lock = || board.0.lock().unwrap_or_else(PoisonError::into_inner);
    let (tx, rx) = mpsc::channel::<f64>();
    let mut acc = 0.0;
    std::thread::scope(|s| {
        for _ in 0..2 {
            let tx = tx.clone();
            let lock = &lock;
            let ready = &board.1;
            s.spawn(move || loop {
                let mut jobs = lock();
                let seed = loop {
                    if jobs.1 {
                        return;
                    }
                    if let Some(seed) = jobs.0.pop_front() {
                        break seed;
                    }
                    jobs = ready.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                };
                drop(jobs);
                if tx.send(job(seed)).is_err() {
                    return;
                }
            });
        }
        for g in 0..GENERATIONS {
            for b in 0..BATCH {
                lock().0.push_back(g * BATCH + b);
                board.1.notify_one();
            }
            for _ in 0..BATCH {
                acc += rx.recv().unwrap_or(0.0);
            }
        }
        lock().1 = true;
        board.1.notify_all();
    });
    acc
}

/// Which reference a run samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reference {
    /// [`kernel`].
    #[default]
    Single,
    /// [`threaded_kernel`].
    Threaded,
}

impl Reference {
    fn run(self) -> f64 {
        match self {
            Reference::Single => kernel(),
            Reference::Threaded => threaded_kernel(),
        }
    }

    /// The reference's time on the baseline host.
    pub fn nominal_s(self) -> f64 {
        match self {
            Reference::Single => NOMINAL_S,
            Reference::Threaded => NOMINAL_THREADED_S,
        }
    }

    /// How the `host:` line names it.
    pub fn name(self) -> &'static str {
        match self {
            Reference::Single => "reference kernel",
            Reference::Threaded => "threaded reference",
        }
    }
}

/// The reference's run times over one benchmark run, and what they scale
/// the run's timings by.
#[derive(Debug, Default)]
pub struct HostSpeed {
    reference: Reference,
    samples: Vec<f64>,
    last: Option<Instant>,
    /// Time spent sampling since the last [`HostSpeed::take_spent`].
    spent: Duration,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self::default()
    }

    /// A sampler of `reference`.
    pub fn of(reference: Reference) -> Self {
        HostSpeed {
            reference,
            ..Self::default()
        }
    }

    pub fn reference(&self) -> Reference {
        self.reference
    }

    /// Time one run of the reference.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(self.reference.run());
        let now = Instant::now();
        self.last = Some(now);
        self.spent += now - started;
        self.samples.push((now - started).as_secs_f64());
    }

    /// One sample if the last is older than [`EVERY`]: called between
    /// campaigns, when the evaluator threads are idle.
    pub fn between(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Sampling time since the last call, for subtracting from a window.
    pub fn take_spent(&mut self) -> Duration {
        std::mem::take(&mut self.spent)
    }

    /// Samples so far. A campaign that starts when this reads `k` is
    /// bracketed by samples `k - 1` and `k`.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Add another sampler's samples (one per client thread).
    pub fn merge(&mut self, other: HostSpeed) {
        self.samples.extend(other.samples);
    }

    /// Median reference time in this run.
    pub fn median_s(&self) -> f64 {
        let nominal = self.reference.nominal_s();
        stats::percentile(&self.samples, 0.5).map_or(nominal, |s| s.value)
    }

    /// What a time measured anywhere in this run multiplies by to read in
    /// baseline-host seconds: the nominal time over the run's median.
    pub fn scale(&self) -> f64 {
        self.reference.nominal_s() / self.median_s()
    }

    /// The scale for a campaign that started when [`HostSpeed::samples`]
    /// read `k`. With the threaded reference, the nominal time over the
    /// mean of the samples just before and just after it, which follows
    /// the host from one campaign to the next; without both, or with the
    /// single-threaded kernel, [`HostSpeed::scale`]. Single kernel samples
    /// are bimodal on a host with hyperthreads (the sibling busy or not),
    /// so only the run's median of them is steady.
    pub fn campaign_scale(&self, k: usize) -> f64 {
        match (
            self.reference,
            k.checked_sub(1).and_then(|b| self.samples.get(b)),
            self.samples.get(k),
        ) {
            (Reference::Threaded, Some(before), Some(after)) => {
                2.0 * self.reference.nominal_s() / (before + after)
            }
            _ => self.scale(),
        }
    }
}

/// The scale for a throughput: the per-campaign scales weighted by each
/// campaign's raw time, `sum(wall * scale) / sum(wall)`. `None` without
/// campaigns.
pub fn time_weighted(campaigns: &[(f64, f64)]) -> Option<f64> {
    let raw: f64 = campaigns.iter().map(|(wall, _)| wall).sum();
    (raw > 0.0).then(|| campaigns.iter().map(|(wall, s)| wall * s).sum::<f64>() / raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(reference: Reference, samples: &[f64]) -> HostSpeed {
        HostSpeed {
            reference,
            samples: samples.to_vec(),
            ..HostSpeed::default()
        }
    }

    #[test]
    fn threaded_campaigns_scale_by_the_samples_around_them() {
        let n = NOMINAL_THREADED_S;
        let host = with_samples(Reference::Threaded, &[n, 3.0 * n, 2.0 * n]);
        // Started after sample 0, followed by sample 1: mean 2x nominal.
        assert!((host.campaign_scale(1) - 0.5).abs() < 1e-12);
        assert!((host.campaign_scale(2) - 0.4).abs() < 1e-12);
        // Without a sample on both sides: the run's median.
        assert!((host.campaign_scale(0) - 0.5).abs() < 1e-12);
        assert!((host.campaign_scale(3) - 0.5).abs() < 1e-12);
        assert!((HostSpeed::new().scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_campaigns_scale_by_the_run_median() {
        let host = with_samples(
            Reference::Single,
            &[NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S],
        );
        for k in 0..4 {
            assert!((host.campaign_scale(k) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn throughput_scale_weights_campaigns_by_their_time() {
        // 3 s at scale 1 and 1 s at scale 2: (3 + 2) / 4.
        assert_eq!(time_weighted(&[(3.0, 1.0), (1.0, 2.0)]), Some(1.25));
        assert_eq!(time_weighted(&[]), None);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }

    #[test]
    fn threaded_kernel_does_every_job() {
        let all: f64 = (0..GENERATIONS * BATCH).map(job).sum();
        // The jobs finish in any order, so the sum may round differently.
        assert!((threaded_kernel() - all).abs() < 1e-9 * all.abs().max(1.0));
        let host = HostSpeed::of(Reference::Threaded);
        assert!((host.scale() - 1.0).abs() < 1e-12);
    }
}

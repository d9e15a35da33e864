//! Minimal `criterion` stand-in.
//!
//! The build container has no crates.io access, so this shim provides the
//! subset of criterion the workspace's benches use: `Criterion`,
//! `benchmark_group` with `sample_size` / `bench_function` /
//! `bench_with_input` / `finish`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple. Each sample times a batch of
//! calls, not one call, so that entries of a few nanoseconds rise above
//! the clock's resolution: the warm-up doubles the batch until one batch
//! takes at least 1 ms, then `sample_size` batches of that size are
//! timed, and the mean and best wall time per call go to stdout. No
//! statistical analysis, plotting or HTML reports.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Number of timed iterations when a group does not override it.
const DEFAULT_SAMPLE_SIZE: usize = 20;
/// The warm-up grows the batch until one batch takes at least this long.
const MIN_BATCH_TIME: Duration = Duration::from_millis(1);

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Build an id from the benchmark's parameter value.
    pub fn from_parameter(param: impl fmt::Display) -> Self {
        BenchmarkId(param.to_string())
    }

    /// Build an id from a function name and a parameter value.
    pub fn new(name: impl Into<String>, param: impl fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), param))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed batches for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        bencher.report(&self.name, &id.0);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher, input);
        bencher.report(&self.name, &id.0);
        self
    }

    /// Finish the group (reporting already happened per benchmark).
    pub fn finish(self) {}
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    /// Calls per timed batch, fixed by the warm-up.
    batch: u64,
    /// Wall time of each timed batch.
    samples: Vec<Duration>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            batch: 1,
            samples: Vec::new(),
        }
    }

    /// Measure `f`: warm up by doubling the batch until one batch takes
    /// at least 1 ms, then time `sample_size` batches.
    pub fn iter<R, F>(&mut self, mut f: F)
    where
        F: FnMut() -> R,
    {
        let mut batch = 1u64;
        while time_batch(&mut f, batch) < MIN_BATCH_TIME {
            batch *= 2;
        }
        self.batch = batch;
        self.samples = (0..self.sample_size)
            .map(|_| time_batch(&mut f, batch))
            .collect();
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples");
            return;
        }
        let per_call = |d: &Duration| d.as_nanos() as f64 / self.batch as f64;
        let mean = self.samples.iter().map(per_call).sum::<f64>() / self.samples.len() as f64;
        let best = self
            .samples
            .iter()
            .map(per_call)
            .fold(f64::INFINITY, f64::min);
        println!(
            "{group}/{id}: mean {} (best {}, {} samples of {} calls)",
            fmt_ns(mean),
            fmt_ns(best),
            self.samples.len(),
            self.batch
        );
    }
}

/// Wall time of `batch` back-to-back calls of `f`.
fn time_batch<R, F: FnMut() -> R>(f: &mut F, batch: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(f());
    }
    start.elapsed()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Group benchmark functions into a single runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim/self_test");
        group.sample_size(5);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        group.finish();
    }

    #[test]
    fn harness_runs_benches() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
    }

    #[test]
    fn samples_time_batches_of_the_size_the_warm_up_settled_on() {
        let mut calls = 0u64;
        let mut b = Bencher::new(3);
        b.iter(|| {
            calls += 1;
            (0..100u64).sum::<u64>()
        });
        assert!(b.batch.is_power_of_two());
        assert_eq!(b.samples.len(), 3);
        // Warm-up batches of 1, 2, …, batch calls, then three samples of
        // `batch` calls each.
        assert_eq!(calls, (2 * b.batch - 1) + 3 * b.batch);
    }
}

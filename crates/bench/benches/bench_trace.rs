//! Criterion benches: tracing overhead.
//!
//! The no-op-sink contract is that instrumentation costs nothing when no
//! sink is installed: `event()` and `span()` reduce to one relaxed atomic
//! load, metric handles to one atomic add. These benches pin that down at
//! two scales — the individual call sites, and a whole GA campaign with
//! and without tracing enabled (compare the campaign numbers against
//! `bench_ga`'s `ga/campaign_10_generations`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tunio_iosim::Simulator;
use tunio_params::ParameterSpace;
use tunio_trace as trace;
use tunio_tuner::{AllParams, EvalEngine, GaConfig, NoStop};
use tunio_workloads::{hacc, Variant, Workload};

fn campaign() -> f64 {
    let engine = EvalEngine::new(
        Simulator::cori_4node(1),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    );
    let cfg = GaConfig {
        max_iterations: 10,
        seed: 1,
        ..GaConfig::default()
    };
    tunio_bench::run_ga(&engine, cfg, &mut NoStop, &mut AllParams).best_perf
}

fn bench_disabled_calls(c: &mut Criterion) {
    // No sink installed: these must be near-free.
    trace::clear_sink();
    let mut group = c.benchmark_group("trace/disabled");
    group.bench_function("event", |b| {
        b.iter(|| trace::event(black_box("bench.event"), vec![("k", 1u64.into())]))
    });
    group.bench_function("span", |b| {
        b.iter(|| {
            let s = trace::span(black_box("bench.span"), vec![]);
            black_box(&s);
        })
    });
    group.bench_function("counter_inc", |b| {
        let counter = trace::counter("tunio.bench.counter");
        b.iter(|| counter.inc(black_box(1)))
    });
    group.finish();
}

fn bench_campaign_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace/campaign_10_generations");
    group.sample_size(20);

    trace::clear_sink();
    group.bench_function("no_sink", |b| b.iter(|| black_box(campaign())));

    let sink = trace::install_memory_sink();
    group.bench_function("memory_sink", |b| {
        b.iter(|| {
            let p = black_box(campaign());
            sink.take(); // keep the buffer from growing across samples
            p
        })
    });
    trace::clear_sink();
    group.finish();
}

criterion_group!(benches, bench_disabled_calls, bench_campaign_overhead);
criterion_main!(benches);

//! Criterion benches: GA tuning-pipeline cost and design ablations.
//!
//! Ablations cover the design choices DESIGN.md calls out: elitism size,
//! tournament size, and population size — each benched as a full short
//! campaign so the numbers reflect real pipeline cost (not just operator
//! microcost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tunio_iosim::Simulator;
use tunio_params::ParameterSpace;
use tunio_tuner::{AllParams, EvalEngine, GaConfig, NoStop};
use tunio_workloads::{hacc, Variant, Workload};

fn campaign(cfg: GaConfig) -> f64 {
    let engine = EvalEngine::new(
        Simulator::cori_4node(1),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    );
    tunio_bench::run_ga(&engine, cfg, &mut NoStop, &mut AllParams).best_perf
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga/campaign_10_generations");
    group.sample_size(20);
    group.bench_function("default", |b| {
        b.iter(|| {
            black_box(campaign(GaConfig {
                max_iterations: 10,
                seed: 1,
                ..GaConfig::default()
            }))
        })
    });
    group.finish();
}

fn bench_elitism_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga/ablation_elitism");
    group.sample_size(15);
    for elite in [0usize, 1, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(elite), &elite, |b, &elite| {
            b.iter(|| {
                black_box(campaign(GaConfig {
                    elite,
                    max_iterations: 8,
                    seed: 2,
                    ..GaConfig::default()
                }))
            })
        });
    }
    group.finish();
}

fn bench_tournament_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga/ablation_tournament");
    group.sample_size(15);
    for k in [2usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(campaign(GaConfig {
                    tournament: k,
                    max_iterations: 8,
                    seed: 3,
                    ..GaConfig::default()
                }))
            })
        });
    }
    group.finish();
}

fn bench_population_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga/ablation_population");
    group.sample_size(15);
    for pop in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, &pop| {
            b.iter(|| {
                black_box(campaign(GaConfig {
                    population: pop,
                    max_iterations: 8,
                    seed: 4,
                    ..GaConfig::default()
                }))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_campaign,
    bench_elitism_ablation,
    bench_tournament_ablation,
    bench_population_ablation
);
criterion_main!(benches);

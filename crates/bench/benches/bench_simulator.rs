//! Criterion benches: simulated I/O stack evaluation throughput.
//!
//! The tuner's inner loop is `Simulator::run_averaged`; these benches
//! establish its cost per configuration evaluation for each workload and
//! both machine scales, and the cost the storm interference model adds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tunio_iosim::interference::SLOT_S;
use tunio_iosim::{InterferenceModel, NoiseProfile, Simulator};
use tunio_params::{ParamId, ParameterSpace, StackConfig};
use tunio_workloads::{all_apps, bdcats, hacc, Variant, Workload};

fn bench_apps(c: &mut Criterion) {
    let space = ParameterSpace::tunio_default();
    let cfg = StackConfig::defaults(&space);
    let sim = Simulator::cori_4node(1);

    let mut group = c.benchmark_group("simulator/run_averaged_4node");
    group.sample_size(40);
    for app in all_apps() {
        let phases = Workload::new(app.clone(), Variant::Kernel).phases();
        group.bench_function(app.name.clone(), |b| {
            b.iter(|| black_box(sim.run_averaged(black_box(&phases), &cfg, 3)))
        });
    }
    group.finish();
}

fn bench_scales(c: &mut Criterion) {
    let space = ParameterSpace::tunio_default();
    let cfg = StackConfig::defaults(&space);
    let mut group = c.benchmark_group("simulator/scales");
    group.sample_size(40);

    let small = Simulator::cori_4node(1);
    let phases_small = Workload::new(hacc(), Variant::Full).phases();
    group.bench_function("hacc_full_4node", |b| {
        b.iter(|| black_box(small.run_averaged(&phases_small, &cfg, 3)))
    });

    let big = Simulator::cori_500node(1);
    let phases_big = Workload::new(bdcats(), Variant::Full).phases();
    group.bench_function("bdcats_full_500node", |b| {
        b.iter(|| black_box(big.run_averaged(&phases_big, &cfg, 3)))
    });
    group.finish();
}

fn bench_interference(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/interference");
    group.sample_size(200);

    // A storm campaign's mean `storage_slowdown` window is about 3 slots
    // over 57 OSTs; 100 slots overflows the per-slot stack buffer.
    let storm = InterferenceModel::new(NoiseProfile::Storm, 1);
    let t0 = 1000.0 * SLOT_S;
    group.bench_function("storage_slowdown_3slots_57osts", |b| {
        b.iter(|| black_box(storm.storage_slowdown(black_box(t0), 3.0 * SLOT_S, 17, 57)))
    });
    group.bench_function("storage_slowdown_100slots_57osts", |b| {
        b.iter(|| black_box(storm.storage_slowdown(black_box(t0), 100.0 * SLOT_S, 17, 57)))
    });

    // One run of a 64-OST stripe, with and without the storm attached.
    let space = ParameterSpace::tunio_default();
    let mut wide = space.default_config();
    wide.set_gene(ParamId::StripingFactor, 9);
    let cfg = wide.resolve(&space);
    let phases = Workload::new(hacc(), Variant::Kernel).phases();
    let plain = Simulator::cori_4node(1);
    let stormy = Simulator::cori_4node(1).with_interference(storm);
    group.bench_function("run_hacc_64osts_plain", |b| {
        b.iter(|| black_box(plain.run(black_box(&phases), &cfg, 0)))
    });
    group.bench_function("run_hacc_64osts_storm", |b| {
        b.iter(|| black_box(stormy.run(black_box(&phases), &cfg, 0)))
    });
    group.finish();
}

criterion_group!(benches, bench_apps, bench_scales, bench_interference);
criterion_main!(benches);

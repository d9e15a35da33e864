//! Criterion benches: NN and RL agent costs.
//!
//! The RL agents run inside the tuning loop (one subset decision and one
//! stop decision per generation) and during offline pre-training; these
//! benches quantify both, down to the single TD update that pre-training
//! repeats some 10⁵ times, plus the PCA used in offline impact analysis.
//! `tuner/bo_refit` times one refit of BO's surrogate ensemble, the cost
//! that dominates a BO campaign, on one and on two threads. `nn/tanh`
//! times 100 24-wide rows of a hidden layer's activation three ways:
//! the platform libm's `f64::tanh`, which the networks no longer call,
//! the crate's plain build, and the dispatched lane-wise kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tunio::EarlyStopAgent;
use tunio_nn::tanh::{tanh_slice, Build};
use tunio_nn::{Activation, Network, Optimizer, Pca};
use tunio_params::ParameterSpace;
use tunio_rl::logcurve::LogCurveEnv;
use tunio_rl::qlearn::{QAgent, QConfig};
use tunio_tuner::{BoConfig, BoStrategy, SearchStrategy};

fn bench_network(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Network::new(
        &[12, 24, 4],
        &[Activation::Tanh, Activation::Linear],
        Optimizer::Adam { lr: 0.01 },
        &mut rng,
    );
    let x: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
    let y = vec![0.1, 0.2, 0.3, 0.4];

    let mut group = c.benchmark_group("nn/network");
    group.bench_function("forward_12x24x4", |b| {
        b.iter(|| black_box(net.forward(black_box(&x))))
    });
    group.bench_function("train_step_12x24x4", |b| {
        b.iter(|| black_box(net.train_step(black_box(&x), &y)))
    });
    // The agents' Q-network shapes: the stop agent's 4→24→2 and the
    // subset picker's 6→24→12. Each call learns the next of 64 fixed,
    // varied transitions, as pretraining does; one transition repeated
    // would drive Adam's moments subnormal, a regime pretraining never
    // reaches.
    for (inputs, outputs) in [(4, 2), (6, 12)] {
        let mut q = Network::new(
            &[inputs, 24, outputs],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        let transitions = transitions(&mut rng, inputs, outputs);
        let mut next = transitions.iter().cycle();
        group.bench_function(format!("td_update_{inputs}x24x{outputs}"), |b| {
            b.iter(|| {
                let (state, action, value) = next.next().unwrap();
                black_box(q.td_update(black_box(state), *action, *value))
            })
        });
    }
    group.finish();
}

/// 64 (state, action, target value) triples, states in [-1, 1] and
/// values in [-0.5, 0.5].
fn transitions(rng: &mut StdRng, inputs: usize, actions: usize) -> Vec<(Vec<f64>, usize, f64)> {
    (0..64)
        .map(|_| {
            let state = (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (state, rng.gen_range(0..actions), rng.gen_range(-0.5..0.5))
        })
        .collect()
}

fn bench_tanh(c: &mut Criterion) {
    // 100 rows of a hidden layer's pre-activations, spread over [-3, 3];
    // each row is one activation call, as in `Network::forward_into`.
    let rows: Vec<f64> = (0..2400).map(|i| (i as f64 * 0.618).sin() * 3.0).collect();
    let mut out = rows.clone();
    let mut group = c.benchmark_group("nn/tanh");
    group.bench_function("libm_100x24", |b| {
        b.iter(|| {
            for (o, x) in out.iter_mut().zip(black_box(&rows)) {
                *o = x.tanh();
            }
            black_box(&out);
        })
    });
    group.bench_function("plain_100x24", |b| {
        b.iter(|| {
            out.copy_from_slice(black_box(&rows));
            out.chunks_mut(24).for_each(|row| Build::Plain.run(row));
            black_box(&out);
        })
    });
    group.bench_function(format!("dispatched_100x24_{:?}", Build::best()), |b| {
        b.iter(|| {
            out.copy_from_slice(black_box(&rows));
            out.chunks_mut(24).for_each(tanh_slice);
            black_box(&out);
        })
    });
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let samples: Vec<Vec<f64>> = (0..600)
        .map(|_| (0..13).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mut group = c.benchmark_group("nn/pca");
    group.sample_size(30);
    group.bench_function("fit_600x13", |b| {
        b.iter(|| black_box(Pca::fit(black_box(&samples))))
    });
    group.finish();
}

fn bench_qagent(c: &mut Criterion) {
    let agent = QAgent::new(4, 2, QConfig::default(), 7);
    let state = vec![0.5, 0.1, 0.3, 0.7];

    let mut group = c.benchmark_group("rl/qagent");
    group.bench_function("decision", |b| {
        b.iter(|| black_box(agent.best_action(black_box(&state))))
    });
    group.sample_size(10);
    group.bench_function("train_50_episodes_logcurve", |b| {
        b.iter(|| {
            let mut env = LogCurveEnv::new(30, 0.012, 3);
            let mut a = QAgent::new(4, 2, QConfig::default(), 9);
            black_box(a.train(&mut env, 50, 31))
        })
    });
    // Offline pretraining of the early-stop agent, the largest share of a
    // cold `tunio-tune` campaign: a fresh seed per iteration, as no
    // pretraining cache can serve a new seed.
    let mut seed = 0;
    group.bench_function("early_stop_pretrained_30", |b| {
        b.iter(|| {
            seed += 1;
            black_box(EarlyStopAgent::pretrained(30, seed).offline_episodes)
        })
    });
    group.finish();
}

fn bench_bo_refit(c: &mut Criterion) {
    // 64 observations of a synthetic objective, none fitted yet: the
    // first post-warmup proposal refits the 3-network ensemble once and
    // then scores one 48-candidate acquisition pool, which costs well
    // under 1% of the refit.
    let cfg = BoConfig {
        warmup: 64,
        ..BoConfig::for_budget(128, 8, 3)
    };
    let space = ParameterSpace::tunio_default();
    let mut bo = BoStrategy::new(cfg.clone(), space.clone());
    for c in bo.propose(64) {
        let perf = c
            .genes()
            .iter()
            .enumerate()
            .map(|(i, &g)| (i * g) as f64)
            .sum();
        bo.observe(&c, perf, 0.1);
    }
    let observed = bo.snapshot();

    let mut group = c.benchmark_group("tuner/bo_refit");
    group.sample_size(30);
    for threads in [1, 2] {
        group.bench_with_input(
            BenchmarkId::new("obs64_ensemble3", format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut bo =
                        BoStrategy::new(cfg.clone(), space.clone()).with_fit_threads(threads);
                    bo.restore(&observed).expect("own snapshot restores");
                    black_box(bo.propose(1))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_network,
    bench_tanh,
    bench_pca,
    bench_qagent,
    bench_bo_refit
);
criterion_main!(benches);

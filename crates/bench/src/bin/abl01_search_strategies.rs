//! Ablation — search strategies (§II-B background): the GA pipeline vs.
//! random search vs. hill climbing, on the HACC I/O kernel, equal
//! evaluation budgets (eight evaluations per iteration).

use serde::Serialize;
use tunio_iosim::Simulator;
use tunio_params::ParameterSpace;
use tunio_tuner::{
    run_strategy, AllParams, EvalEngine, GaConfig, HillClimb, NoObserver, NoStop, RandomStrategy,
};
use tunio_workloads::{hacc, Variant, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// Evaluations per iteration for the non-population searches, so their
/// budgets match a default-size GA generation.
const EVALS_PER_ITERATION: usize = 8;

#[derive(Serialize)]
struct Row {
    strategy: String,
    seed: u64,
    final_gibs: f64,
    minutes: f64,
}

fn engine(seed: u64) -> EvalEngine {
    EvalEngine::new(
        Simulator::cori_4node(seed),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    )
}

fn main() {
    const ITERS: u32 = 30;
    let seeds = [1u64, 2, 3, 4, 5];
    let mut rows = Vec::new();

    println!("=== Ablation: search strategies (HACC kernel, {ITERS} iterations, 5 seeds) ===\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "strategy", "mean GiB/s", "min", "max"
    );

    let summarize = |name: &str, finals: Vec<(u64, f64, f64)>, rows: &mut Vec<Row>| {
        let perfs: Vec<f64> = finals.iter().map(|(_, p, _)| *p).collect();
        let mean = perfs.iter().sum::<f64>() / perfs.len() as f64;
        let min = perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = perfs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!("{name:<14} {mean:>12.3} {min:>12.3} {max:>12.3}");
        for (seed, p, m) in finals {
            rows.push(Row {
                strategy: name.into(),
                seed,
                final_gibs: p,
                minutes: m,
            });
        }
    };

    let ga: Vec<(u64, f64, f64)> = seeds
        .iter()
        .map(|&seed| {
            let cfg = GaConfig {
                max_iterations: ITERS,
                seed,
                ..GaConfig::default()
            };
            let t = tunio_bench::run_ga(&engine(seed), cfg, &mut NoStop, &mut AllParams);
            (seed, t.best_perf / GIB, t.total_cost_min())
        })
        .collect();
    summarize("genetic", ga, &mut rows);

    let rs: Vec<(u64, f64, f64)> = seeds
        .iter()
        .map(|&seed| {
            let engine = engine(seed);
            let evals = ITERS as usize * EVALS_PER_ITERATION;
            let strategy = Box::new(RandomStrategy::new(engine.space.clone(), evals, seed));
            let t = run_strategy(
                &engine,
                strategy,
                &mut NoStop,
                &mut AllParams,
                EVALS_PER_ITERATION,
                1,
                &mut NoObserver,
            )
            .trace;
            (seed, t.best_perf / GIB, t.total_cost_min())
        })
        .collect();
    summarize("random", rs, &mut rows);

    let hc: Vec<(u64, f64, f64)> = seeds
        .iter()
        .map(|&seed| {
            let mut search = HillClimb::new(ITERS, seed);
            let t = search.run(&engine(seed), &mut NoStop, &mut AllParams);
            (seed, t.best_perf / GIB, t.total_cost_min())
        })
        .collect();
    summarize("hill-climb", hc, &mut rows);

    tunio_bench::write_json("abl01_search_strategies", &rows);
}

//! Ablation — fixed subset size: tune BD-CATS at 500 nodes with the
//! top-k prefix of the offline impact ranking, k ∈ {1, 3, 5, 7, 9, 12}.
//!
//! Quantifies the Impact-First trade-off (§III-F): small subsets converge
//! cheaply but can leave performance on the table; the knee sits near the
//! number of truly significant parameters.

use serde::Serialize;
use tunio::smart_config::offline_impact_analysis;
use tunio_iosim::Simulator;
use tunio_params::ParameterSpace;
use tunio_tuner::subset::FixedSubset;
use tunio_tuner::{EvalEngine, GaConfig, NoStop};
use tunio_workloads::{bdcats, Variant, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

#[derive(Serialize)]
struct Row {
    k: usize,
    final_gibs: f64,
    minutes: f64,
    iterations_to_90pct: Option<u32>,
}

fn main() {
    let space = ParameterSpace::tunio_default();
    let analysis = offline_impact_analysis(&space, 1111);
    println!(
        "impact ranking (offline sweep + PCA): {:?}",
        analysis.ranking
    );
    println!("significant parameters: {}\n", analysis.significant);
    println!(
        "{:>3} {:>12} {:>10} {:>18}",
        "k", "final GiB/s", "minutes", "iters to 90% final"
    );

    let mut rows = Vec::new();
    for k in [1usize, 3, 5, 7, 9, 12] {
        let engine = EvalEngine::new(
            Simulator::cori_500node(1111),
            Workload::new(bdcats(), Variant::Kernel),
            space.clone(),
            3,
        );
        let cfg = GaConfig {
            max_iterations: 25,
            seed: 1111,
            ..GaConfig::default()
        };
        let trace = tunio_bench::run_ga(
            &engine,
            cfg,
            &mut NoStop,
            &mut FixedSubset {
                subset: analysis.top(k),
            },
        );
        let target = 0.9 * trace.best_perf;
        let hit = trace
            .records
            .iter()
            .find(|r| r.best_perf >= target)
            .map(|r| r.iteration);
        println!(
            "{:>3} {:>12.2} {:>10.1} {:>18}",
            k,
            trace.best_perf / GIB,
            trace.total_cost_min(),
            hit.map(|h| h.to_string()).unwrap_or_else(|| "-".into())
        );
        rows.push(Row {
            k,
            final_gibs: trace.best_perf / GIB,
            minutes: trace.total_cost_min(),
            iterations_to_90pct: hit,
        });
    }
    tunio_bench::write_json("abl02_subset_size", &rows);
}

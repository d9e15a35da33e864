//! Ablation — reward-delay length in the Early Stopping agent.
//!
//! §III-D fixes "a 5-iteration delay on the reward function to avoid bias
//! introduced by short-term gains"; this sweeps the delay and measures the
//! resulting stop quality on HACC.

use serde::Serialize;
use tunio::early_stop::EarlyStopAgent;
use tunio_iosim::Simulator;
use tunio_params::ParameterSpace;
use tunio_tuner::{AllParams, EvalEngine, GaConfig};
use tunio_workloads::{hacc, Variant, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

#[derive(Serialize)]
struct Row {
    delay: usize,
    stop_iter: u32,
    final_gibs: f64,
    minutes: f64,
    roti: f64,
}

fn main() {
    println!("=== Ablation: early-stop reward delay (HACC, 40-iteration budget) ===\n");
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>14}",
        "delay", "stop iter", "final GiB/s", "minutes", "RoTI MB/s/min"
    );
    let mut rows = Vec::new();
    for delay in [0usize, 2, 5, 10] {
        let mut agent = EarlyStopAgent::pretrained_with_delay(40, 7, delay);
        agent.begin_campaign();
        let engine = EvalEngine::new(
            Simulator::cori_4node(7),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        );
        let cfg = GaConfig {
            max_iterations: 40,
            seed: 7,
            ..GaConfig::default()
        };
        let trace = tunio_bench::run_ga(&engine, cfg, &mut agent, &mut AllParams);
        let roti = tunio::roti::final_roti(&trace);
        println!(
            "{:>6} {:>10} {:>12.3} {:>10.1} {:>14.2}",
            delay,
            trace.iterations(),
            trace.best_perf / GIB,
            trace.total_cost_min(),
            roti
        );
        rows.push(Row {
            delay,
            stop_iter: trace.iterations(),
            final_gibs: trace.best_perf / GIB,
            minutes: trace.total_cost_min(),
            roti,
        });
    }
    tunio_bench::write_json("abl05_reward_delay", &rows);
}

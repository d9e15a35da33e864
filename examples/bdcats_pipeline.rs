//! End-to-end scenario: the Table-I API driving a GA campaign on BD-CATS
//! at 500 nodes — the way a downstream pipeline (e.g. a DEAP-style GA)
//! would consume TunIO's components directly: `subset_picker` chooses
//! each generation's parameters and `stop` ends the campaign.
//!
//! ```text
//! cargo run -p tunio-examples --bin bdcats_pipeline --release
//! ```

use std::cell::RefCell;
use tunio::api::StopDecision;
use tunio::TunIo;
use tunio_iosim::Simulator;
use tunio_params::{ParamId, ParameterSpace};
use tunio_rl::replay::Transition;
use tunio_tuner::{
    run_strategy, EvalEngine, GaConfig, GaStrategy, NoObserver, Stopper, SubsetProvider,
};
use tunio_workloads::{bdcats, Variant, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Adapter: drive the GA's subset hook through the public Table-I API.
struct ApiSubsets<'a> {
    tunio: &'a RefCell<TunIo>,
    current: Vec<ParamId>,
}

impl SubsetProvider for ApiSubsets<'_> {
    fn next_subset(
        &mut self,
        _iteration: u32,
        best_perf: f64,
        _space: &ParameterSpace,
    ) -> Vec<ParamId> {
        // Table I: subset_picker(perf, current_parameter_set) → next set.
        self.current = self
            .tunio
            .borrow_mut()
            .subset_picker(best_perf, &self.current);
        self.current.clone()
    }

    fn feedback(&mut self, _subset: &[ParamId], _best_perf: f64) {
        // subset_picker already consumed the feedback.
    }

    fn name(&self) -> &'static str {
        "table-i-api"
    }
}

/// Adapter: drive the GA's termination hook through the Table-I `stop`.
struct ApiStop<'a> {
    tunio: &'a RefCell<TunIo>,
}

impl Stopper for ApiStop<'_> {
    fn should_stop(&mut self, iteration: u32, best_perf: f64) -> bool {
        let decision = self.tunio.borrow_mut().stop(iteration, best_perf);
        println!(
            "generation {iteration:>2}: best {:.2} GiB/s → {decision:?}",
            best_perf / GIB
        );
        decision == StopDecision::Stop
    }

    fn name(&self) -> &str {
        "table-i-api"
    }
}

fn main() {
    let space = ParameterSpace::tunio_default();
    let sim = Simulator::cori_500node(3);
    let cluster = sim.cluster;

    println!("pre-training TunIO agents (offline sweep + PCA + log-curve RL)…");
    let tunio = RefCell::new(TunIo::pretrained(&space, cluster, 50, 3));
    println!(
        "impact ranking: {:?}\n",
        tunio.borrow().smart_config.analysis.ranking
    );

    let engine = EvalEngine::new(
        sim,
        Workload::new(bdcats(), Variant::Kernel),
        space.clone(),
        3,
    );
    let cfg = GaConfig {
        max_iterations: 50,
        seed: 3,
        ..GaConfig::default()
    };
    let run = run_strategy(
        &engine,
        Box::new(GaStrategy::new(cfg, space)),
        &mut ApiStop { tunio: &tunio },
        &mut ApiSubsets {
            tunio: &tunio,
            current: ParamId::ALL.to_vec(),
        },
        cfg.population,
        2,
        &mut NoObserver,
    );
    let trace = run.trace;
    println!(
        "\n{} after {} generations: {:.2} → {:.2} GiB/s (subset size {})",
        if trace.stopped_early {
            "Table-I stop() ended the campaign"
        } else {
            "budget exhausted"
        },
        trace.iterations(),
        trace.default_perf / GIB,
        trace.best_perf / GIB,
        trace.records.last().map(|r| r.subset_size).unwrap_or(0)
    );

    // The early-stop agent also keeps learning online; demonstrate the
    // replay type is exposed for custom integrations.
    let _example_transition = Transition {
        state: vec![0.0; 4],
        action: 0,
        reward: 0.0,
        next_state: vec![],
        done: true,
    };
}

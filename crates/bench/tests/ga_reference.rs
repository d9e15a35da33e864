//! Reference pin for the GA: `GaStrategy`, driven through the strategy
//! scheduler with one record window per generation, must reproduce
//! `tests/golden/ga_reference.json` byte for byte.
//!
//! The golden was produced by the generation-loop GA tuner that ran the
//! paper's pipeline before every campaign moved onto the scheduler, so
//! it preserves that implementation's trajectory (per-generation records,
//! evaluated populations, best configuration) as bytes. It covers the
//! plain full-space run, a heuristic early stop, a fixed high-impact
//! subset and one-point crossover. Never re-bless it: a diff here means
//! the GA changed.

use serde::Serialize;
use std::path::PathBuf;
use tunio_iosim::Simulator;
use tunio_params::{Configuration, Impact, ParameterSpace};
use tunio_tuner::subset::FixedSubset;
use tunio_tuner::{
    run_strategy, AllParams, CampaignObserver, Crossover, EvalEngine, GaConfig, GaStrategy,
    GenerationSnapshot, HeuristicStop, NoStop, Stopper, SubsetProvider, TuningTrace,
};
use tunio_workloads::{hacc, Variant, Workload};

#[derive(Serialize)]
struct Case {
    name: String,
    trace: TuningTrace,
    populations: Vec<Vec<Vec<usize>>>,
}

/// Records each generation's evaluated population.
struct Populations(Vec<Vec<Vec<usize>>>);

impl CampaignObserver for Populations {
    fn on_generation(&mut self, snap: &GenerationSnapshot<'_>) {
        self.0.push(
            snap.population
                .iter()
                .map(|c: &Configuration| c.genes().to_vec())
                .collect(),
        );
    }
}

fn engine(seed: u64) -> EvalEngine {
    EvalEngine::new(
        Simulator::cori_4node(seed),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    )
}

fn run(
    name: &str,
    cfg: GaConfig,
    threads: usize,
    stopper: &mut dyn Stopper,
    subsets: &mut dyn SubsetProvider,
) -> Case {
    let engine = engine(cfg.seed);
    let strategy = Box::new(GaStrategy::new(cfg, engine.space.clone()));
    let mut populations = Populations(Vec::new());
    let run = run_strategy(
        &engine,
        strategy,
        stopper,
        subsets,
        cfg.population,
        threads,
        &mut populations,
    );
    Case {
        name: name.to_string(),
        trace: run.trace,
        populations: populations.0,
    }
}

fn cases(threads: usize) -> Vec<Case> {
    let cfg = |seed, max_iterations, population| GaConfig {
        population,
        max_iterations,
        seed,
        ..GaConfig::default()
    };
    let high = ParameterSpace::tunio_default().with_impact(Impact::High);
    vec![
        run(
            "no_stop_all_params",
            cfg(11, 8, 6),
            threads,
            &mut NoStop,
            &mut AllParams,
        ),
        run(
            "heuristic_stop",
            cfg(4, 30, 6),
            threads,
            &mut HeuristicStop::paper_default(),
            &mut AllParams,
        ),
        run(
            "fixed_subset_high_impact",
            cfg(5, 10, 6),
            threads,
            &mut NoStop,
            &mut FixedSubset { subset: high },
        ),
        run(
            "one_point_crossover",
            GaConfig {
                crossover: Crossover::OnePoint,
                ..cfg(6, 10, 8)
            },
            threads,
            &mut NoStop,
            &mut AllParams,
        ),
    ]
}

#[test]
fn ga_strategy_matches_the_ga_reference_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ga_reference.json");
    let expected = std::fs::read_to_string(&path).expect("committed GA reference golden");
    for threads in [1, 2] {
        let cases = cases(threads);
        assert!(
            cases[1].trace.stopped_early,
            "the heuristic case must stop early"
        );
        // One case per line, so a divergence diff names its case.
        let lines: Vec<String> = cases
            .iter()
            .map(|c| serde_json::to_string(c).expect("case serializes"))
            .collect();
        let actual = format!("[\n{}\n]\n", lines.join(",\n"));
        assert!(
            expected == actual,
            "GaStrategy diverged from the GA reference at {threads} thread(s)"
        );
    }
}

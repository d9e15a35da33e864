//! Property tests for the evaluation engine.
//!
//! The invariants under test are the ones the deterministic-replay
//! harness depends on: memoized results are bitwise-identical and free,
//! each unique gene key is simulated at most once (even under concurrent
//! or duplicated requests), and a batch evaluated concurrently — one
//! thread per configuration, as the scheduler's evaluator slots run
//! them — equals a serial evaluation of the same configurations.

use proptest::prelude::*;
use tunio_iosim::Simulator;
use tunio_params::{Configuration, ParamId, ParameterSpace};
use tunio_tuner::{EvalEngine, Evaluation};
use tunio_workloads::{hacc, Variant, Workload};

fn engine(seed: u64) -> EvalEngine {
    EvalEngine::new(
        Simulator::cori_4node(seed),
        Workload::new(hacc(), Variant::Kernel),
        ParameterSpace::tunio_default(),
        3,
    )
}

/// Clamp raw gene draws into each parameter's domain.
fn config_from(raw: &[usize]) -> Configuration {
    let space = ParameterSpace::tunio_default();
    let mut cfg = space.default_config();
    for (i, &g) in raw.iter().enumerate().take(ParamId::ALL.len()) {
        let p = ParamId::ALL[i];
        cfg.set_gene(p, g % space.cardinality(p));
    }
    cfg
}

/// Evaluate every configuration on its own thread; results in input order.
fn evaluate_concurrently(ev: &EvalEngine, configs: &[Configuration]) -> Vec<Evaluation> {
    std::thread::scope(|s| {
        let handles: Vec<_> = configs.iter().map(|c| s.spawn(|| ev.evaluate(c))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_hits_are_identical_and_free(raw in proptest::collection::vec(0usize..64, 12)) {
        let ev = engine(1);
        let cfg = config_from(&raw);
        let miss = ev.evaluate(&cfg);
        let hit = ev.evaluate(&cfg);
        prop_assert_eq!(miss.perf, hit.perf);
        prop_assert_eq!(miss.report, hit.report);
        prop_assert!(miss.cost_s > 0.0);
        prop_assert_eq!(hit.cost_s, 0.0);
        prop_assert_eq!(ev.evaluations(), 1);
        prop_assert_eq!(ev.cache_hits(), 1);
    }

    #[test]
    fn concurrent_duplicates_simulate_at_most_once(
        raw in proptest::collection::vec(0usize..64, 12),
        threads in 2usize..6,
    ) {
        let ev = engine(2);
        let cfg = config_from(&raw);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| ev.evaluate(&cfg));
            }
        });
        prop_assert_eq!(ev.evaluations(), 1, "one unique gene key, one simulation");
        prop_assert_eq!(ev.cache_hits(), (threads - 1) as u64);
    }

    #[test]
    fn batch_simulates_each_unique_key_once(
        raws in proptest::collection::vec(proptest::collection::vec(0usize..64, 12), 1..8),
        dup_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 8),
    ) {
        let ev = engine(3);
        // Base configurations plus a duplicate of each masked entry.
        let mut configs: Vec<Configuration> = raws.iter().map(|r| config_from(r)).collect();
        for (i, &dup) in dup_mask.iter().enumerate().take(raws.len()) {
            if dup {
                configs.push(configs[i].clone());
            }
        }
        let evals = evaluate_concurrently(&ev, &configs);
        let unique: std::collections::HashSet<&Configuration> = configs.iter().collect();
        prop_assert_eq!(ev.evaluations(), unique.len() as u64);
        prop_assert_eq!(
            ev.cache_hits(),
            (configs.len() - unique.len()) as u64,
            "every occurrence but the simulating one is a cache hit"
        );
        // Each unique key is charged exactly once, by whichever occurrence
        // simulated it.
        for key in &unique {
            let charged = configs
                .iter()
                .zip(&evals)
                .filter(|(cfg, e)| cfg == key && e.cost_s > 0.0)
                .count();
            prop_assert_eq!(charged, 1, "one charged occurrence per key");
        }
    }

    #[test]
    fn batch_equals_serial_evaluation_bitwise(
        raws in proptest::collection::vec(proptest::collection::vec(0usize..64, 12), 1..10),
    ) {
        let configs: Vec<Configuration> = raws.iter().map(|r| config_from(r)).collect();
        let batch_engine = engine(4);
        let batch = evaluate_concurrently(&batch_engine, &configs);
        let serial_engine = engine(4);
        for (cfg, b) in configs.iter().zip(&batch) {
            let s = serial_engine.evaluate(cfg);
            prop_assert_eq!(b.perf, s.perf);
            prop_assert_eq!(b.report, s.report);
        }
        prop_assert_eq!(batch_engine.evaluations(), serial_engine.evaluations());
        prop_assert_eq!(batch_engine.cache_hits(), serial_engine.cache_hits());
        prop_assert_eq!(batch_engine.profile_snapshot(), serial_engine.profile_snapshot());
    }
}

//! # tunio-tuner — the genetic-algorithm tuning pipeline
//!
//! A from-scratch stand-in for the DEAP-driven HSTuner pipeline the paper
//! builds on: configurations are genomes over the twelve-parameter space,
//! evolved with tournament selection (size 3, best two carried forward as
//! parents — §III-A) and elitism (the best configuration found so far is
//! never lost).
//!
//! The pipeline is deliberately pluggable at the two points where TunIO
//! attaches (paper Fig 3):
//!
//! * [`subset::SubsetProvider`] — which parameters the genetic operators
//!   may touch this generation. HSTuner uses [`subset::AllParams`]; TunIO
//!   plugs in its Smart Configuration Generation agent.
//! * [`stoppers::Stopper`] — the termination condition. HSTuner variants
//!   use [`stoppers::NoStop`] / [`stoppers::HeuristicStop`]; TunIO plugs
//!   in its RL Early Stopping agent.
//!
//! [`engine::EvalEngine`] runs configurations on the simulated I/O stack
//! (averaging three runs, charging only one run's time to the tuning
//! budget, exactly as §IV's methodology describes) and memoizes repeat
//! evaluations behind a sharded cache. Every campaign — the GA
//! ([`strategy::GaStrategy`]) and the random, Latin-hypercube,
//! hill-climbing and Bayesian backends alike — runs through one driver,
//! [`scheduler::run_strategy`], which evaluates on parallel slots while
//! staying bitwise-deterministic (see the module docs for the
//! determinism argument) and produces a [`ga::TuningTrace`]: the
//! per-iteration best-perf / cumulative-cost series every figure in the
//! paper's evaluation is drawn from.

#![warn(missing_docs)]

pub mod bo;
pub mod engine;
pub mod ga;
pub mod racing;
pub mod scheduler;
pub mod stoppers;
pub mod strategy;
pub mod subset;

pub use bo::{BoConfig, BoStrategy};
pub use engine::{
    CacheEntry, EvalCounters, EvalEngine, Evaluation, FailurePolicy, ResilienceCounters,
};
pub use ga::{
    CampaignObserver, Crossover, GaConfig, GenerationSnapshot, IterationRecord, NoObserver,
    TuningTrace,
};
pub use racing::{Moments, RaceDiscard, RaceOutcome, RacingConfig, RacingCounters};
pub use scheduler::{
    run_strategy, run_strategy_opts, Hooks, Job, Scheduler, SchedulerStats, StrategyRun,
};
pub use stoppers::{HeuristicStop, NoStop, Stopper};
pub use strategy::{sanitize, GaStrategy, HillClimb, LhsStrategy, RandomStrategy, SearchStrategy};
pub use subset::{AllParams, SubsetProvider};

/// The hill-climbing search baseline ([`HillClimb`]), run end to end
/// through [`run_strategy`] one climb step per scheduler window.
#[cfg(test)]
mod search {
    mod tests {
        use crate::*;
        use tunio_iosim::Simulator;
        use tunio_params::ParameterSpace;
        use tunio_workloads::{hacc, Variant, Workload};

        fn climb(steps: u32, seed: u64, stop: &mut dyn Stopper) -> TuningTrace {
            let (sim, space) = (Simulator::cori_4node(seed), ParameterSpace::tunio_default());
            let e = EvalEngine::new(
                sim,
                Workload::new(hacc(), Variant::Kernel),
                space.clone(),
                3,
            );
            let hc = Box::new(HillClimb::new(space, steps, seed));
            run_strategy(
                &e,
                hc,
                stop,
                &mut AllParams,
                HillClimb::STEP,
                1,
                &mut NoObserver,
            )
            .trace
        }

        #[test]
        fn hill_climb_improves_over_default() {
            let trace = climb(25, 4, &mut NoStop);
            assert!(trace.best_perf > trace.default_perf);
        }

        #[test]
        fn best_so_far_is_monotone() {
            let trace = climb(15, 5, &mut NoStop);
            assert!(trace
                .records
                .windows(2)
                .all(|w| w[1].best_perf >= w[0].best_perf));
        }

        #[test]
        fn stoppers_attach_to_the_climber() {
            let trace = climb(50, 6, &mut HeuristicStop::paper_default());
            assert!(trace.iterations() < 50 && trace.stopped_early);
        }

        #[test]
        fn search_is_deterministic() {
            assert_eq!(
                climb(8, 9, &mut NoStop).best_perf,
                climb(8, 9, &mut NoStop).best_perf
            );
        }

        #[test]
        fn hill_climb_restarts_when_stuck() {
            // With a tiny budget the climber must still make progress thanks
            // to restarts rather than looping on a local optimum forever.
            let trace = climb(40, 10, &mut NoStop);
            assert_eq!(trace.iterations(), 40, "one record window per step");
            assert!(trace.best_perf > 1.2 * trace.default_perf);

            // On a flat objective no neighbour ever wins, so every step ends
            // in a restart that redraws the subset's genes.
            let mut hc = HillClimb::new(ParameterSpace::tunio_default(), 3, 10);
            for _ in 0..3 {
                let step = hc.propose(HillClimb::STEP);
                assert_eq!(step.len(), HillClimb::STEP - 1, "barrier before the move");
                step.iter().for_each(|c| hc.observe(c, 1.0, 0.1));
                let restart = hc.propose(HillClimb::STEP).remove(0);
                let genes = restart.genes().iter().zip(step[0].genes());
                assert!(genes.filter(|(a, b)| a != b).count() > 1, "not a neighbour");
                hc.observe(&restart, 1.0, 0.1);
            }
            assert!(hc.is_done());
        }
    }
}

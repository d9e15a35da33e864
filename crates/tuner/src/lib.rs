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
//! ([`strategy::GaStrategy`]) and the random, Latin-hypercube and
//! Bayesian backends alike — runs through one driver,
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
pub mod search;
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
pub use search::HillClimb;
pub use stoppers::{BudgetStop, HeuristicStop, MaxPerfStop, NoStop, Stopper};
pub use strategy::{sanitize, GaStrategy, LhsStrategy, RandomStrategy, SearchStrategy};
pub use subset::{AllParams, SubsetProvider};

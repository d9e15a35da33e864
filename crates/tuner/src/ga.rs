//! Genetic-algorithm hyperparameters and the campaign trace types.
//!
//! The GA itself — population-based search over configuration genomes
//! with elitism and tournament selection (size 3, best two become
//! parents — §III-A), the same structure the paper builds with DEAP — is
//! [`crate::strategy::GaStrategy`], driven like every other backend by
//! [`crate::scheduler::run_strategy`]. This module holds what all of
//! them share: the per-window [`IterationRecord`], the finished
//! [`TuningTrace`], and the [`CampaignObserver`] checkpoint hook.

use serde::Serialize;
use tunio_params::Configuration;

/// Crossover operator variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Crossover {
    /// Each masked gene comes from either parent with equal probability.
    #[default]
    Uniform,
    /// A single cut point within the masked genes; the child takes the
    /// prefix from one parent and the suffix from the other.
    OnePoint,
}

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Elite individuals carried over unchanged.
    pub elite: usize,
    /// Tournament size (3 in the paper).
    pub tournament: usize,
    /// Per-gene mutation probability within the active subset.
    pub mutation_rate: f64,
    /// Crossover operator.
    pub crossover: Crossover,
    /// Hard iteration budget (the tuning budget in generations).
    pub max_iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 8,
            elite: 1,
            tournament: 3,
            mutation_rate: 0.08,
            crossover: Crossover::Uniform,
            max_iterations: 50,
            seed: 0,
        }
    }
}

/// One generation's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct IterationRecord {
    /// Generation number (1-based).
    pub iteration: u32,
    /// Best perf seen so far (bytes/s).
    pub best_perf: f64,
    /// Best perf among configurations evaluated *this* generation.
    pub generation_best_perf: f64,
    /// Tuning time charged for this generation, seconds.
    pub cost_s: f64,
    /// Cumulative tuning time, seconds.
    pub cumulative_cost_s: f64,
    /// Size of the parameter subset tuned this generation.
    pub subset_size: usize,
}

/// A completed tuning campaign.
#[derive(Debug, Clone, Serialize)]
pub struct TuningTrace {
    /// Per-generation records.
    pub records: Vec<IterationRecord>,
    /// Best configuration found.
    pub best_config: Configuration,
    /// Best perf found (bytes/s).
    pub best_perf: f64,
    /// Perf of the default (untuned) configuration (bytes/s).
    pub default_perf: f64,
    /// Whether the stopper terminated before the budget.
    pub stopped_early: bool,
    /// Stopper that ended the campaign.
    pub stopper_name: String,
}

impl TuningTrace {
    /// Total tuning time in seconds.
    pub fn total_cost_s(&self) -> f64 {
        self.records
            .last()
            .map(|r| r.cumulative_cost_s)
            .unwrap_or(0.0)
    }

    /// Total tuning time in minutes (the paper's budget unit).
    pub fn total_cost_min(&self) -> f64 {
        self.total_cost_s() / 60.0
    }

    /// Number of generations run.
    pub fn iterations(&self) -> u32 {
        self.records.len() as u32
    }

    /// perf gain over the default configuration (bytes/s).
    pub fn gain(&self) -> f64 {
        (self.best_perf - self.default_perf).max(0.0)
    }

    /// Export the per-iteration series as CSV (header + one row per
    /// generation) for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "iteration,best_perf_bytes_per_s,generation_best_bytes_per_s,cost_s,cumulative_cost_s,subset_size\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.iteration,
                r.best_perf,
                r.generation_best_perf,
                r.cost_s,
                r.cumulative_cost_s,
                r.subset_size
            ));
        }
        out
    }
}

/// Everything a checkpoint writer needs to know about one finished
/// generation, handed to a [`CampaignObserver`] while the campaign runs.
#[derive(Debug)]
pub struct GenerationSnapshot<'a> {
    /// Generation number (1-based).
    pub iteration: u32,
    /// The generation's trace record.
    pub record: &'a IterationRecord,
    /// The population that was evaluated this generation.
    pub population: &'a [Configuration],
    /// Raw strategy RNG state after this window's last observation (for
    /// the GA: after breeding the next generation, when one follows) —
    /// the value a deterministic replay must reproduce to be trusted.
    pub rng_state: [u64; 4],
    /// Best perf so far.
    pub best_perf: f64,
    /// Best configuration so far.
    pub best_config: &'a Configuration,
    /// True when this is the campaign's final generation (stopper fired
    /// or budget exhausted).
    pub stopped: bool,
    /// Serialized [`crate::strategy::SearchStrategy`] state after this
    /// window.
    pub strategy_state: String,
    /// Gene keys of this window's commits that charged the simulator, in
    /// commit order (the first window leads with the incumbent-default
    /// evaluation) — the canonical attribution of engine-journal cache
    /// entries to windows when evaluations complete out of order.
    pub charged: Vec<Vec<usize>>,
}

/// Hook invoked after every completed generation — the write-ahead-log
/// attachment point for campaign checkpointing.
pub trait CampaignObserver {
    /// Called once per generation, in order, from the tuning thread.
    fn on_generation(&mut self, snapshot: &GenerationSnapshot<'_>);
}

/// Observer that does nothing (plain, checkpoint-free runs).
pub struct NoObserver;

impl CampaignObserver for NoObserver {
    fn on_generation(&mut self, _snapshot: &GenerationSnapshot<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::scheduler::run_strategy;
    use crate::stoppers::{HeuristicStop, NoStop, Stopper};
    use crate::strategy::GaStrategy;
    use crate::subset::{AllParams, FixedSubset, SubsetProvider};
    use tunio_iosim::Simulator;
    use tunio_params::{Impact, ParameterSpace};
    use tunio_workloads::{hacc, Variant, Workload};

    fn engine(seed: u64) -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(seed),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    fn quick_cfg(seed: u64, iters: u32) -> GaConfig {
        GaConfig {
            max_iterations: iters,
            seed,
            ..GaConfig::default()
        }
    }

    /// One GA campaign through the scheduler, one window per generation.
    fn run_ga_observed(
        engine: &EvalEngine,
        cfg: GaConfig,
        stopper: &mut dyn Stopper,
        subsets: &mut dyn SubsetProvider,
        observer: &mut dyn CampaignObserver,
    ) -> TuningTrace {
        let strategy = Box::new(GaStrategy::new(cfg, engine.space.clone()));
        run_strategy(
            engine,
            strategy,
            stopper,
            subsets,
            cfg.population,
            2,
            observer,
        )
        .trace
    }

    fn run_ga(
        engine: &EvalEngine,
        cfg: GaConfig,
        stopper: &mut dyn Stopper,
        subsets: &mut dyn SubsetProvider,
    ) -> TuningTrace {
        run_ga_observed(engine, cfg, stopper, subsets, &mut NoObserver)
    }

    #[test]
    fn tuning_improves_over_default() {
        let trace = run_ga(&engine(1), quick_cfg(1, 25), &mut NoStop, &mut AllParams);
        assert!(
            trace.best_perf > 1.5 * trace.default_perf,
            "best {} vs default {}",
            trace.best_perf,
            trace.default_perf
        );
    }

    #[test]
    fn best_so_far_is_monotone_elitism() {
        let trace = run_ga(&engine(2), quick_cfg(2, 20), &mut NoStop, &mut AllParams);
        for w in trace.records.windows(2) {
            assert!(
                w[1].best_perf >= w[0].best_perf,
                "elitism must keep best-so-far monotone"
            );
        }
    }

    #[test]
    fn costs_accumulate_and_are_positive() {
        let trace = run_ga(&engine(3), quick_cfg(3, 10), &mut NoStop, &mut AllParams);
        assert!(trace.total_cost_s() > 0.0);
        for w in trace.records.windows(2) {
            assert!(w[1].cumulative_cost_s >= w[0].cumulative_cost_s);
        }
        // First generation costs the most (nothing memoized yet).
        assert!(trace.records[0].cost_s > 0.0);
    }

    #[test]
    fn heuristic_stop_ends_before_budget_on_plateau() {
        let trace = run_ga(
            &engine(4),
            quick_cfg(4, 50),
            &mut HeuristicStop::paper_default(),
            &mut AllParams,
        );
        assert!(trace.iterations() < 50, "ran {}", trace.iterations());
        assert!(trace.stopped_early);
        assert_eq!(trace.stopper_name, "heuristic-5pct-5iter");
    }

    #[test]
    fn high_impact_subset_tunes_as_well_as_full_space_but_cheaper_search() {
        let space = ParameterSpace::tunio_default();
        let high = space.with_impact(Impact::High);

        let full = run_ga(&engine(5), quick_cfg(5, 30), &mut NoStop, &mut AllParams);
        let sub = run_ga(
            &engine(5),
            quick_cfg(5, 30),
            &mut NoStop,
            &mut FixedSubset { subset: high },
        );

        // The high-impact subset achieves ≥85% of the full-space perf.
        assert!(
            sub.best_perf > 0.85 * full.best_perf,
            "subset {} vs full {}",
            sub.best_perf,
            full.best_perf
        );
    }

    #[test]
    fn low_impact_subset_cannot_match_high_impact() {
        let space = ParameterSpace::tunio_default();
        let low = run_ga(
            &engine(6),
            quick_cfg(6, 20),
            &mut NoStop,
            &mut FixedSubset {
                subset: space.with_impact(Impact::Low),
            },
        );
        let high = run_ga(
            &engine(6),
            quick_cfg(6, 20),
            &mut NoStop,
            &mut FixedSubset {
                subset: space.with_impact(Impact::High),
            },
        );
        assert!(
            high.best_perf > 1.5 * low.best_perf,
            "high {} vs low {}",
            high.best_perf,
            low.best_perf
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || run_ga(&engine(7), quick_cfg(7, 8), &mut NoStop, &mut AllParams).best_perf;
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_metrics_are_consistent() {
        let trace = run_ga(&engine(8), quick_cfg(8, 5), &mut NoStop, &mut AllParams);
        assert_eq!(trace.iterations(), 5);
        assert!(trace.gain() >= 0.0);
        assert!((trace.total_cost_min() - trace.total_cost_s() / 60.0).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_every_generation_with_live_rng_state() {
        struct Recorder {
            iterations: Vec<u32>,
            states: Vec<[u64; 4]>,
            stops: Vec<bool>,
        }
        impl CampaignObserver for Recorder {
            fn on_generation(&mut self, snap: &GenerationSnapshot<'_>) {
                assert_eq!(snap.iteration, snap.record.iteration);
                assert!(!snap.population.is_empty());
                assert!(snap.best_perf >= snap.record.generation_best_perf * 0.0);
                self.iterations.push(snap.iteration);
                self.states.push(snap.rng_state);
                self.stops.push(snap.stopped);
            }
        }
        let mut rec = Recorder {
            iterations: Vec::new(),
            states: Vec::new(),
            stops: Vec::new(),
        };
        let trace = run_ga_observed(
            &engine(9),
            quick_cfg(9, 6),
            &mut NoStop,
            &mut AllParams,
            &mut rec,
        );
        assert_eq!(rec.iterations, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(rec.stops, vec![false, false, false, false, false, true]);
        // Breeding the next generation consumes draws, so consecutive
        // snapshots differ up to the last generation, which retires the
        // GA without breeding.
        for w in rec.states[..5].windows(2) {
            assert_ne!(w[0], w[1], "rng state must advance every generation");
        }
        assert_eq!(trace.iterations(), 6);
    }

    #[test]
    fn chaos_campaign_converges_to_finite_nonpenalty_best() {
        use crate::engine::FailurePolicy;
        use tunio_iosim::FaultPlan;

        // ≥10% transient failures plus stragglers, flaps and corrupted
        // reports — the acceptance scenario. The campaign must complete
        // with a real (finite, positive) best configuration.
        let engine = EvalEngine::new(
            Simulator::cori_4node(11).with_fault_plan(FaultPlan::chaos(11, 0.15)),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
        .with_policy(FailurePolicy {
            max_retries: 4,
            ..FailurePolicy::default()
        });
        let trace = run_ga(&engine, quick_cfg(11, 12), &mut NoStop, &mut AllParams);

        assert!(trace.best_perf.is_finite(), "NaN/Inf must never win");
        assert!(
            trace.best_perf > 0.0,
            "best must be a real result, not the penalty value"
        );
        for r in &trace.records {
            assert!(r.best_perf.is_finite());
            assert!(r.cost_s.is_finite() && r.cost_s >= 0.0);
        }
        let res = engine.resilience();
        assert!(res.faults_injected > 0, "the plan must actually fire");
    }

    #[test]
    fn corrupt_heavy_campaign_never_promotes_nan() {
        use tunio_iosim::FaultPlan;

        // Half of all runs return NaN-corrupted reports. Every corrupted
        // report must be rejected by the sanity gate, so nothing NaN can
        // reach best_perf — it stays finite even if it is the penalty.
        let plan = FaultPlan {
            corrupt_rate: 0.5,
            ..FaultPlan::disabled(13)
        };
        let engine = EvalEngine::new(
            Simulator::cori_4node(13).with_fault_plan(plan),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        );
        let trace = run_ga(&engine, quick_cfg(13, 8), &mut NoStop, &mut AllParams);
        assert!(trace.best_perf.is_finite());
        assert!(trace.default_perf.is_finite());
        assert!(trace.records.iter().all(|r| r.best_perf.is_finite()
            && r.generation_best_perf.is_finite()
            && r.cumulative_cost_s.is_finite()));
    }

    #[test]
    fn csv_has_header_plus_one_row_per_iteration() {
        let trace = run_ga(&engine(1), quick_cfg(1, 4), &mut NoStop, &mut AllParams);
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("iteration,"));
        assert!(lines[1].starts_with("1,"));
        // Each row has 6 comma-separated fields.
        assert!(lines.iter().all(|l| l.split(',').count() == 6));
    }

    #[test]
    fn one_point_crossover_also_tunes() {
        let cfg = GaConfig {
            crossover: Crossover::OnePoint,
            ..quick_cfg(6, 15)
        };
        let trace = run_ga(&engine(6), cfg, &mut NoStop, &mut AllParams);
        assert!(trace.best_perf > 1.5 * trace.default_perf);
    }
}

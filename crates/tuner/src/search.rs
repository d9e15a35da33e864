//! Hill climbing, the one search baseline outside the strategy trait.
//!
//! §II-B: "The search algorithms employed in user-level tuning have
//! usually been AI techniques such as genetic algorithms, random search,
//! hill climbing algorithms, and, more recently, reinforcement learning."
//! The GA and random search run as [`crate::strategy::SearchStrategy`]
//! backends; the steepest-ascent climber below keeps its own loop (it
//! has no asynchronous formulation) but shares the trace format,
//! stoppers and subset hooks so TunIO's components attach to it
//! unchanged.

use crate::engine::EvalEngine;
use crate::ga::{IterationRecord, TuningTrace};
use crate::scheduler::nonempty;
use crate::stoppers::Stopper;
use crate::subset::SubsetProvider;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tunio_params::Configuration;

/// How many configurations a non-population search evaluates per
/// "iteration" so budgets are comparable with a GA generation.
const EVALS_PER_ITERATION: usize = 8;

/// Steepest-ascent-with-restarts hill climbing: from the current best,
/// evaluate single-gene neighbours (one step up/down per parameter in the
/// active subset); move to the best improvement, or restart from a random
/// point when stuck.
#[derive(Debug)]
pub struct HillClimb {
    /// Iteration budget.
    pub max_iterations: u32,
    rng: StdRng,
}

impl HillClimb {
    /// Create a hill climber with a seed.
    pub fn new(max_iterations: u32, seed: u64) -> Self {
        HillClimb {
            max_iterations,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Run the search. The neighbourhood of the current point is fixed at
    /// the start of each iteration, so it is evaluated as one parallel
    /// batch; the steepest-ascent move picks the first-listed best
    /// neighbour exactly as the serial fold did.
    pub fn run(
        &mut self,
        engine: &EvalEngine,
        stopper: &mut dyn Stopper,
        subsets: &mut dyn SubsetProvider,
    ) -> TuningTrace {
        let space = engine.space.clone();
        let default_perf = engine.evaluate(&space.default_config()).perf;
        let mut current = space.default_config();
        let mut current_perf = default_perf;
        let mut best_config = current.clone();
        let mut best_perf = current_perf;
        let mut cumulative = 0.0;
        let mut records = Vec::new();
        let mut stopped_early = false;

        for iteration in 1..=self.max_iterations {
            let subset = nonempty(subsets.next_subset(iteration, best_perf, &space));
            let mut gen_cost = 0.0;
            let mut gen_best = f64::NEG_INFINITY;

            // Collect ±1-step neighbours (budget-capped), then evaluate
            // the whole neighbourhood as one batch.
            let mut neighbours: Vec<Configuration> = Vec::new();
            'outer: for &p in &subset {
                for delta in [-1isize, 1] {
                    if neighbours.len() >= EVALS_PER_ITERATION {
                        break 'outer;
                    }
                    let cur = current.gene(p) as isize;
                    let idx = cur + delta;
                    if idx < 0 || idx as usize >= space.cardinality(p) {
                        continue;
                    }
                    let mut n = current.clone();
                    n.set_gene(p, idx as usize);
                    neighbours.push(n);
                }
            }
            let mut best_neighbour: Option<(f64, Configuration)> = None;
            for e in engine.evaluate_batch(&neighbours) {
                gen_cost += e.cost_s;
                gen_best = gen_best.max(e.perf);
                if best_neighbour
                    .as_ref()
                    .map(|(bp, _)| e.perf > *bp)
                    .unwrap_or(true)
                {
                    best_neighbour = Some((e.perf, e.config));
                }
            }

            match best_neighbour {
                Some((perf, config)) if perf > current_perf => {
                    current = config;
                    current_perf = perf;
                }
                _ => {
                    // Stuck on a local optimum: restart within the subset.
                    let mut fresh = current.clone();
                    for &p in &subset {
                        fresh.set_gene(p, space.random_value(p, &mut self.rng));
                    }
                    let e = engine.evaluate(&fresh);
                    gen_cost += e.cost_s;
                    gen_best = gen_best.max(e.perf);
                    current = fresh;
                    current_perf = e.perf;
                }
            }
            if current_perf > best_perf {
                best_perf = current_perf;
                best_config = current.clone();
            }

            cumulative += gen_cost;
            records.push(IterationRecord {
                iteration,
                best_perf,
                generation_best_perf: gen_best,
                cost_s: gen_cost,
                cumulative_cost_s: cumulative,
                subset_size: subset.len(),
            });
            subsets.feedback(&subset, best_perf);
            if stopper.should_stop(iteration, best_perf) {
                stopped_early = iteration < self.max_iterations;
                break;
            }
        }

        TuningTrace {
            records,
            best_config,
            best_perf,
            default_perf,
            stopped_early,
            stopper_name: stopper.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stoppers::{HeuristicStop, NoStop};
    use crate::subset::AllParams;
    use tunio_iosim::Simulator;
    use tunio_params::ParameterSpace;
    use tunio_workloads::{hacc, Variant, Workload};

    fn engine(seed: u64) -> EvalEngine {
        EvalEngine::new(
            Simulator::cori_4node(seed),
            Workload::new(hacc(), Variant::Kernel),
            ParameterSpace::tunio_default(),
            3,
        )
    }

    #[test]
    fn hill_climb_improves_over_default() {
        let mut hc = HillClimb::new(25, 4);
        let trace = hc.run(&engine(4), &mut NoStop, &mut AllParams);
        assert!(trace.best_perf > trace.default_perf);
    }

    #[test]
    fn best_so_far_is_monotone() {
        let mut hc = HillClimb::new(15, 5);
        let trace = hc.run(&engine(5), &mut NoStop, &mut AllParams);
        for w in trace.records.windows(2) {
            assert!(w[1].best_perf >= w[0].best_perf);
        }
    }

    #[test]
    fn stoppers_attach_to_the_climber() {
        let mut hc = HillClimb::new(50, 6);
        let trace = hc.run(
            &engine(6),
            &mut HeuristicStop::paper_default(),
            &mut AllParams,
        );
        assert!(trace.iterations() < 50);
        assert!(trace.stopped_early);
    }

    #[test]
    fn search_is_deterministic() {
        let run = |seed| {
            let mut hc = HillClimb::new(8, seed);
            hc.run(&engine(seed), &mut NoStop, &mut AllParams).best_perf
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn hill_climb_restarts_when_stuck() {
        // With a tiny budget the climber must still make progress thanks
        // to restarts rather than looping on a local optimum forever.
        let mut hc = HillClimb::new(40, 10);
        let trace = hc.run(&engine(10), &mut NoStop, &mut AllParams);
        assert!(trace.best_perf > 1.2 * trace.default_perf);
    }
}

//! Pluggable search backends behind one `SearchStrategy` contract.
//!
//! The paper's tuner is a single fixed GA driven in lock-step
//! generations. SHAMan-style frameworks instead treat the optimization
//! engine as a plug-in: the driver asks the strategy for configurations
//! to evaluate (`propose`), reports results back (`observe`), and the
//! strategy is otherwise a black box. That contract is what makes
//! asynchronous evaluation possible — a strategy that can propose
//! without waiting for a full generation keeps every evaluator slot
//! busy (see [`crate::scheduler`]).
//!
//! Five backends implement it: the GA, random search, Latin-hypercube
//! sampling and hill climbing here, and Bayesian optimization in
//! [`crate::bo`]. The GA, random search and hill climbing are the
//! baselines §II-B names ("genetic algorithms, random search, hill
//! climbing algorithms").
//!
//! Every backend is held to the same conformance rules (enforced by
//! `tests/strategy_conformance.rs`):
//!
//! * **Determinism** — the proposal stream is a pure function of the
//!   constructor arguments and the sequence of `observe` calls. Wall
//!   clock, thread count and `propose` chunking must not leak in.
//! * **Bounds** — proposals only move genes inside the active subset,
//!   and every gene stays inside its domain cardinality.
//! * **Poison safety** — observing NaN/infinite perf (a failed
//!   evaluation's penalty) must not corrupt internal state; non-finite
//!   values are sanitized to the failure penalty (0.0) on entry.
//! * **Snapshot/restore** — `snapshot()` serializes the complete
//!   mutable state (RNG included); a fresh instance constructed with
//!   the same arguments plus `restore()` must continue byte-identically.

use crate::ga::{Crossover, GaConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tunio_params::{Configuration, ParamId, ParameterSpace};

/// A pluggable search backend.
///
/// The driver owns the evaluation loop; the strategy only decides
/// *which* configurations to try next. `propose` may return fewer
/// configurations than requested (a generation-synchronous strategy
/// like the GA returns none while it waits for outstanding results);
/// returning an empty vector while evaluations are in flight is how a
/// strategy expresses a barrier.
pub trait SearchStrategy {
    /// Stable identifier (`ga`, `random`, `lhs`, `bo`, `hill`).
    fn name(&self) -> &'static str;

    /// Set the active parameter subset. Proposals only vary genes in
    /// the subset; everything else stays at the incumbent value.
    fn set_subset(&mut self, subset: &[ParamId]);

    /// Inject warm-start seed configurations (e.g. derived from static
    /// workload inference) before the first proposal. Strategies fold
    /// the seeds into their starting state — the GA plants them in its
    /// initial population, the asynchronous backends adopt the first
    /// seed as the incumbent that proposals perturb. Must be called
    /// before any `propose`/`observe`; once the search has started (or
    /// state has been `restore`d from a snapshot) seeds are ignored, so
    /// resumed campaigns are unaffected. Default: no-op.
    fn warm_start(&mut self, _seeds: &[Configuration]) {}

    /// Propose up to `max` configurations to evaluate next.
    fn propose(&mut self, max: usize) -> Vec<Configuration>;

    /// Report one completed evaluation. `perf` is bytes/s (higher is
    /// better); `cost_s` is the simulated time charged. Observations
    /// arrive in a deterministic order (the scheduler commits them in
    /// proposal order), possibly long after the matching `propose`.
    fn observe(&mut self, config: &Configuration, perf: f64, cost_s: f64);

    /// Whether the evaluation budget is exhausted.
    fn is_done(&self) -> bool;

    /// Raw RNG state, for checkpoint divergence verification.
    fn rng_state(&self) -> [u64; 4];

    /// Serialize the complete mutable state to a JSON string.
    fn snapshot(&self) -> String;

    /// Restore state from a [`SearchStrategy::snapshot`] string.
    fn restore(&mut self, snapshot: &str) -> Result<(), String>;
}

/// Clamp a reported perf/cost to something safe to store: failed
/// evaluations surface as the failure-policy penalty (0.0 by default),
/// and NaN/infinities would otherwise poison sort orders, surrogate
/// training targets and JSON snapshots.
pub fn sanitize(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

pub(crate) fn rng_state_vec(rng: &StdRng) -> Vec<u64> {
    rng.state().to_vec()
}

pub(crate) fn rng_from_state_vec(state: &[u64]) -> Result<StdRng, String> {
    if state.len() != 4 {
        return Err(format!("rng state must have 4 words, got {}", state.len()));
    }
    // The all-zero state is xoshiro256++'s fixed point: a generator
    // restored from it emits zeros forever. It is unreachable from
    // `seed_from_u64`, so its presence means a corrupted snapshot.
    if state.iter().all(|&w| w == 0) {
        return Err("rng state is all zeros (xoshiro fixed point)".into());
    }
    Ok(StdRng::from_state([state[0], state[1], state[2], state[3]]))
}

pub(crate) fn subset_to_indices(subset: &[ParamId]) -> Vec<usize> {
    subset.iter().map(|p| p.index()).collect()
}

pub(crate) fn subset_from_indices(indices: &[usize]) -> Result<Vec<ParamId>, String> {
    indices
        .iter()
        .map(|&i| {
            ParamId::ALL
                .get(i)
                .copied()
                .ok_or_else(|| format!("subset index {i} out of range"))
        })
        .collect()
}

/// Check a restored genome against `space`: one gene per parameter,
/// each inside its domain.
pub(crate) fn check_genes(space: &ParameterSpace, genes: &[usize]) -> Result<(), String> {
    if genes.len() != ParamId::ALL.len() {
        return Err(format!(
            "{} genes, want {}",
            genes.len(),
            ParamId::ALL.len()
        ));
    }
    for p in ParamId::ALL {
        let (gene, card) = (genes[p.index()], space.cardinality(p));
        if gene >= card {
            return Err(format!("{} gene {gene} out of range 0..{card}", p.name()));
        }
    }
    Ok(())
}

fn genes_vec(configs: &[Configuration]) -> Vec<Vec<usize>> {
    configs.iter().map(|c| c.genes().to_vec()).collect()
}

fn configs_from_genes(genes: &[Vec<usize>]) -> Vec<Configuration> {
    genes
        .iter()
        .map(|g| Configuration::new(g.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// GA
// ---------------------------------------------------------------------------

/// Serialized [`GaStrategy`] state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GaState {
    rng: Vec<u64>,
    subset: Vec<usize>,
    population: Vec<Vec<usize>>,
    next_propose: usize,
    scored_perf: Vec<f64>,
    scored_genes: Vec<Vec<usize>>,
    generation: u32,
    done: bool,
    initialized: bool,
    seeds: Vec<Vec<usize>>,
}

/// The paper's genetic algorithm behind the [`SearchStrategy`] contract.
///
/// Initial population: the default configuration plus 0.12-rate partial
/// mutants within the first active subset. Each later generation keeps
/// the `elite` best and fills up with masked crossover + mutation of
/// tournament parents (best two of `tournament` draws). The committed
/// golden `crates/bench/tests/golden/ga_reference.json` pins its
/// trajectory to the generation-loop GA it replaced. It is *generation
/// synchronous*: `propose` returns nothing while any individual of the
/// current generation is unevaluated, which is precisely the barrier
/// the asynchronous backends exist to remove.
#[derive(Debug)]
pub struct GaStrategy {
    cfg: GaConfig,
    space: ParameterSpace,
    rng: StdRng,
    subset: Vec<ParamId>,
    population: Vec<Configuration>,
    next_propose: usize,
    scored: Vec<(f64, Configuration)>,
    generation: u32,
    done: bool,
    initialized: bool,
    seeds: Vec<Configuration>,
}

impl GaStrategy {
    /// Build a GA strategy over `space` with the given hyperparameters.
    pub fn new(cfg: GaConfig, space: ParameterSpace) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        GaStrategy {
            cfg,
            space,
            rng,
            subset: ParamId::ALL.to_vec(),
            population: Vec::new(),
            next_propose: 0,
            scored: Vec::new(),
            generation: 1,
            done: false,
            initialized: false,
            seeds: Vec::new(),
        }
    }

    fn pop_size(&self) -> usize {
        self.cfg.population.max(2)
    }

    fn breed(&mut self) {
        let pop_size = self.pop_size();
        let mut scored = std::mem::take(&mut self.scored);
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut next: Vec<Configuration> = scored
            .iter()
            .take(self.cfg.elite.min(scored.len()))
            .map(|(_, c)| c.clone())
            .collect();
        while next.len() < pop_size {
            let (p1, p2) = {
                let k = self.cfg.tournament.max(2).min(scored.len());
                let mut picks: Vec<&(f64, Configuration)> = (0..k)
                    .map(|_| &scored[self.rng.gen_range(0..scored.len())])
                    .collect();
                picks.sort_by(|a, b| b.0.total_cmp(&a.0));
                (&picks[0].1, &picks[1].1)
            };
            let mut child = match self.cfg.crossover {
                Crossover::Uniform => p1.crossover_masked(p2, &self.subset, &mut self.rng),
                Crossover::OnePoint => {
                    let cut = self.rng.gen_range(0..=self.subset.len());
                    let mut c = p1.clone();
                    for &p in &self.subset[cut..] {
                        c.set_gene(p, p2.gene(p));
                    }
                    c
                }
            };
            child.mutate_masked(
                &self.space,
                &self.subset,
                self.cfg.mutation_rate,
                &mut self.rng,
            );
            next.push(child);
        }
        self.population = next;
        self.next_propose = 0;
    }
}

impl SearchStrategy for GaStrategy {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn set_subset(&mut self, subset: &[ParamId]) {
        if !subset.is_empty() {
            self.subset = subset.to_vec();
        }
    }

    fn warm_start(&mut self, seeds: &[Configuration]) {
        if !self.initialized {
            self.seeds = seeds.to_vec();
        }
    }

    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        if self.done || max == 0 {
            return Vec::new();
        }
        if !self.initialized {
            self.initialized = true;
            self.population.push(self.space.default_config());
            // Warm-start seeds join the initial population right after
            // the default configuration (capped so at least one mutant
            // slot survives when pop_size is tiny); mutants fill the
            // rest exactly as in the cold-start stream.
            let seeds = std::mem::take(&mut self.seeds);
            for seed in seeds.into_iter().take(self.pop_size() - 1) {
                if self.population.len() < self.pop_size() {
                    self.population.push(seed);
                }
            }
            while self.population.len() < self.pop_size() {
                let mut c = self.space.default_config();
                c.mutate_masked(&self.space, &self.subset, 0.12, &mut self.rng);
                self.population.push(c);
            }
        }
        let remaining = self.population.len() - self.next_propose;
        let n = max.min(remaining);
        let out = self.population[self.next_propose..self.next_propose + n].to_vec();
        self.next_propose += n;
        out
    }

    fn observe(&mut self, config: &Configuration, perf: f64, _cost_s: f64) {
        if self.done {
            return;
        }
        self.scored.push((sanitize(perf), config.clone()));
        if self.scored.len() >= self.population.len() && self.next_propose == self.population.len()
        {
            // Generation complete: either retire or breed the next one.
            if self.generation >= self.cfg.max_iterations {
                self.done = true;
                return;
            }
            self.generation += 1;
            self.breed();
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn snapshot(&self) -> String {
        let state = GaState {
            rng: rng_state_vec(&self.rng),
            subset: subset_to_indices(&self.subset),
            population: genes_vec(&self.population),
            next_propose: self.next_propose,
            scored_perf: self.scored.iter().map(|(p, _)| *p).collect(),
            scored_genes: self
                .scored
                .iter()
                .map(|(_, c)| c.genes().to_vec())
                .collect(),
            generation: self.generation,
            done: self.done,
            initialized: self.initialized,
            seeds: genes_vec(&self.seeds),
        };
        serde_json::to_string(&state).expect("GA state serializes")
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let state: GaState = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        if state.scored_perf.len() != state.scored_genes.len() {
            return Err("scored perf/genes length mismatch".into());
        }
        let rng = rng_from_state_vec(&state.rng)?;
        self.subset = subset_from_indices(&state.subset)?;
        self.rng = rng;
        self.population = configs_from_genes(&state.population);
        self.next_propose = state.next_propose;
        self.scored = state
            .scored_perf
            .iter()
            .zip(&state.scored_genes)
            .map(|(&p, g)| (p, Configuration::new(g.clone())))
            .collect();
        self.generation = state.generation;
        self.done = state.done;
        self.initialized = state.initialized;
        self.seeds = configs_from_genes(&state.seeds);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Random search
// ---------------------------------------------------------------------------

/// Serialized [`RandomStrategy`] state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RandomState {
    rng: Vec<u64>,
    subset: Vec<usize>,
    proposed: usize,
    best_genes: Vec<usize>,
    best_perf: Option<f64>,
}

/// Asynchronous random search: every proposal redraws the active
/// subset's genes uniformly from the incumbent best configuration.
///
/// Fully asynchronous — `propose` never blocks on outstanding results,
/// so evaluator slots refill the moment a simulation completes.
#[derive(Debug)]
pub struct RandomStrategy {
    space: ParameterSpace,
    rng: StdRng,
    subset: Vec<ParamId>,
    max_evals: usize,
    proposed: usize,
    best: Configuration,
    best_perf: Option<f64>,
}

impl RandomStrategy {
    /// Random search over `space` with an evaluation budget and seed.
    pub fn new(space: ParameterSpace, max_evals: usize, seed: u64) -> Self {
        let best = space.default_config();
        RandomStrategy {
            space,
            rng: StdRng::seed_from_u64(seed),
            subset: ParamId::ALL.to_vec(),
            max_evals,
            proposed: 0,
            best,
            best_perf: None,
        }
    }
}

impl SearchStrategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn set_subset(&mut self, subset: &[ParamId]) {
        if !subset.is_empty() {
            self.subset = subset.to_vec();
        }
    }

    fn warm_start(&mut self, seeds: &[Configuration]) {
        // Adopt the first seed as the incumbent that proposals redraw
        // from — only before anything has been proposed or observed, so
        // restored campaigns keep their checkpointed incumbent.
        if let Some(seed) = seeds.first() {
            if self.best_perf.is_none() && self.proposed == 0 {
                self.best = seed.clone();
            }
        }
    }

    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        let n = max.min(self.max_evals.saturating_sub(self.proposed));
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut candidate = self.best.clone();
            for &p in &self.subset {
                candidate.set_gene(p, self.space.random_value(p, &mut self.rng));
            }
            out.push(candidate);
        }
        self.proposed += n;
        out
    }

    fn observe(&mut self, config: &Configuration, perf: f64, _cost_s: f64) {
        let perf = sanitize(perf);
        if self.best_perf.map(|b| perf > b).unwrap_or(true) {
            self.best_perf = Some(perf);
            self.best = config.clone();
        }
    }

    fn is_done(&self) -> bool {
        self.proposed >= self.max_evals
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn snapshot(&self) -> String {
        let state = RandomState {
            rng: rng_state_vec(&self.rng),
            subset: subset_to_indices(&self.subset),
            proposed: self.proposed,
            best_genes: self.best.genes().to_vec(),
            best_perf: self.best_perf,
        };
        serde_json::to_string(&state).expect("random state serializes")
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let state: RandomState = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        let rng = rng_from_state_vec(&state.rng)?;
        check_genes(&self.space, &state.best_genes).map_err(|e| format!("best_genes: {e}"))?;
        self.subset = subset_from_indices(&state.subset)?;
        self.rng = rng;
        self.proposed = state.proposed;
        self.best = Configuration::new(state.best_genes);
        self.best_perf = state.best_perf;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Latin-hypercube sampling
// ---------------------------------------------------------------------------

/// Serialized [`LhsStrategy`] state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LhsState {
    rng: Vec<u64>,
    subset: Vec<usize>,
    proposed: usize,
    buffer: Vec<Vec<usize>>,
    best_genes: Vec<usize>,
    best_perf: Option<f64>,
}

/// Latin-hypercube sampling over the discrete domains.
///
/// Proposals come in rounds of `strata` points: each active parameter's
/// domain is cut into `strata` equal slices, a fresh random permutation
/// assigns one slice per point, and the gene is drawn uniformly inside
/// its slice — so every round covers each parameter's whole range with
/// at most one point per slice. Rounds are independent, which keeps the
/// stream asynchronous: the next round is generated the moment the
/// buffer drains, never waiting on observations.
#[derive(Debug)]
pub struct LhsStrategy {
    space: ParameterSpace,
    rng: StdRng,
    subset: Vec<ParamId>,
    max_evals: usize,
    strata: usize,
    proposed: usize,
    buffer: Vec<Configuration>,
    best: Configuration,
    best_perf: Option<f64>,
}

impl LhsStrategy {
    /// LHS over `space`: `max_evals` budget, `strata` points per round.
    pub fn new(space: ParameterSpace, max_evals: usize, strata: usize, seed: u64) -> Self {
        let best = space.default_config();
        LhsStrategy {
            space,
            rng: StdRng::seed_from_u64(seed),
            subset: ParamId::ALL.to_vec(),
            max_evals,
            strata: strata.max(1),
            proposed: 0,
            buffer: Vec::new(),
            best,
            best_perf: None,
        }
    }

    fn refill_round(&mut self) {
        let n = self.strata.min(self.max_evals - self.proposed).max(1);
        // One independent permutation of the strata per parameter.
        let perms: Vec<Vec<usize>> = (0..self.subset.len())
            .map(|_| {
                let mut perm: Vec<usize> = (0..n).collect();
                // Fisher-Yates with the strategy RNG.
                for i in (1..n).rev() {
                    let j = self.rng.gen_range(0..=i);
                    perm.swap(i, j);
                }
                perm
            })
            .collect();
        // `point` indexes the *inner* vectors (`perms[pi][point]`), so an
        // iterator over `perms` would not fit.
        #[allow(clippy::needless_range_loop)]
        for point in 0..n {
            let mut candidate = self.best.clone();
            for (pi, &p) in self.subset.iter().enumerate() {
                let card = self.space.cardinality(p);
                let stratum = perms[pi][point];
                let lo = stratum * card / n;
                let hi = (((stratum + 1) * card / n).max(lo + 1)).min(card);
                let idx = if hi - lo <= 1 {
                    lo.min(card - 1)
                } else {
                    lo + self.rng.gen_range(0..hi - lo)
                };
                candidate.set_gene(p, idx);
            }
            self.buffer.push(candidate);
        }
        // Proposals pop from the back; reverse so stream order matches
        // generation order.
        self.buffer.reverse();
    }
}

impl SearchStrategy for LhsStrategy {
    fn name(&self) -> &'static str {
        "lhs"
    }

    fn set_subset(&mut self, subset: &[ParamId]) {
        if !subset.is_empty() && subset != self.subset.as_slice() {
            self.subset = subset.to_vec();
            // A pending round was stratified over the old subset; drop
            // it so the new round covers the right parameters.
            self.buffer.clear();
        }
    }

    fn warm_start(&mut self, seeds: &[Configuration]) {
        // Seeds set the incumbent the stratified points are built on
        // (its out-of-subset genes carry into every proposal).
        if let Some(seed) = seeds.first() {
            if self.best_perf.is_none() && self.proposed == 0 {
                self.best = seed.clone();
            }
        }
    }

    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        let mut out = Vec::new();
        while out.len() < max && self.proposed < self.max_evals {
            if self.buffer.is_empty() {
                self.refill_round();
            }
            let candidate = self.buffer.pop().expect("refilled round is non-empty");
            self.proposed += 1;
            out.push(candidate);
        }
        out
    }

    fn observe(&mut self, config: &Configuration, perf: f64, _cost_s: f64) {
        let perf = sanitize(perf);
        if self.best_perf.map(|b| perf > b).unwrap_or(true) {
            self.best_perf = Some(perf);
            self.best = config.clone();
        }
    }

    fn is_done(&self) -> bool {
        self.proposed >= self.max_evals
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn snapshot(&self) -> String {
        let state = LhsState {
            rng: rng_state_vec(&self.rng),
            subset: subset_to_indices(&self.subset),
            proposed: self.proposed,
            buffer: genes_vec(&self.buffer),
            best_genes: self.best.genes().to_vec(),
            best_perf: self.best_perf,
        };
        serde_json::to_string(&state).expect("LHS state serializes")
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let state: LhsState = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        let rng = rng_from_state_vec(&state.rng)?;
        check_genes(&self.space, &state.best_genes).map_err(|e| format!("best_genes: {e}"))?;
        for genes in &state.buffer {
            check_genes(&self.space, genes).map_err(|e| format!("buffer: {e}"))?;
        }
        self.subset = subset_from_indices(&state.subset)?;
        self.rng = rng;
        self.proposed = state.proposed;
        self.buffer = configs_from_genes(&state.buffer);
        self.best = Configuration::new(state.best_genes);
        self.best_perf = state.best_perf;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Hill climbing
// ---------------------------------------------------------------------------

/// A climber's progress through its steps.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Climb {
    steps: u32,
    current: Configuration,
    current_perf: f64,
    /// Proposals queued but not yet handed out.
    queue: Vec<Configuration>,
    proposed: usize,
    observed: usize,
    neighbours: usize,
    best_neighbour: Option<(f64, Configuration)>,
}

/// Serialized [`HillClimb`] state.
#[derive(Debug, Serialize, Deserialize)]
struct HillState {
    rng: Vec<u64>,
    subset: Vec<usize>,
    climb: Climb,
}

/// Steepest-ascent hill climbing with random restarts, one climb step
/// per [`HillClimb::STEP`] proposals:
///
/// 1. the incumbent, whose observation carries its perf (on the first
///    step the default configuration, which the driver's baseline
///    evaluation already cached);
/// 2. its ±1 single-gene neighbours within the active subset, at most
///    eight, padded with the incumbent;
/// 3. once those are observed, the best neighbour (first listed wins
///    ties) if it beats the incumbent, else a random restart of the
///    subset's genes from the incumbent.
///
/// Run with `batch = HillClimb::STEP`, each scheduler window is one
/// step, and because repeated keys commit at zero cost the window's cost
/// is the step's fresh neighbour and restart simulations summed in
/// proposal order. `propose` returns nothing while part 2 or part 3 is
/// unobserved: the climber's barrier.
#[derive(Debug)]
pub struct HillClimb {
    space: ParameterSpace,
    rng: StdRng,
    subset: Vec<ParamId>,
    max_iterations: u32,
    climb: Climb,
}

impl HillClimb {
    /// Proposals per climb step: the incumbent, eight neighbour slots
    /// and the move or restart.
    pub const STEP: usize = 10;
    const NEIGHBOURS: usize = Self::STEP - 2;

    /// A climber over `space` that takes `max_iterations` steps.
    pub fn new(space: ParameterSpace, max_iterations: u32, seed: u64) -> Self {
        let climb = Climb {
            steps: 0,
            current: space.default_config(),
            current_perf: 0.0,
            queue: Vec::new(),
            proposed: 0,
            observed: 0,
            neighbours: 0,
            best_neighbour: None,
        };
        HillClimb {
            space,
            rng: StdRng::seed_from_u64(seed),
            subset: ParamId::ALL.to_vec(),
            max_iterations,
            climb,
        }
    }

    /// Queue parts 1 and 2 of a step.
    fn open_step(&mut self) {
        let current = &self.climb.current;
        let mut queue = vec![current.clone()];
        'outer: for &p in &self.subset {
            for delta in [-1isize, 1] {
                if queue.len() > Self::NEIGHBOURS {
                    break 'outer;
                }
                let idx = current.gene(p) as isize + delta;
                if idx < 0 || idx as usize >= self.space.cardinality(p) {
                    continue;
                }
                let mut n = current.clone();
                n.set_gene(p, idx as usize);
                queue.push(n);
            }
        }
        self.climb.neighbours = queue.len() - 1;
        queue.resize(Self::NEIGHBOURS + 1, current.clone());
        self.climb.queue = queue;
    }
}

impl SearchStrategy for HillClimb {
    fn name(&self) -> &'static str {
        "hill"
    }

    fn set_subset(&mut self, subset: &[ParamId]) {
        if !subset.is_empty() {
            self.subset = subset.to_vec();
        }
    }

    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        if self.is_done() {
            return Vec::new();
        }
        if self.climb.proposed == 0 && self.climb.queue.is_empty() {
            self.open_step();
        }
        let c = &mut self.climb;
        let n = max.min(c.queue.len());
        c.proposed += n;
        c.queue.drain(..n).collect()
    }

    fn observe(&mut self, config: &Configuration, perf: f64, _cost_s: f64) {
        if self.is_done() {
            return;
        }
        let perf = sanitize(perf);
        let c = &mut self.climb;
        let slot = c.observed;
        c.observed += 1;
        if slot == 0 {
            c.current_perf = perf;
        } else if slot <= c.neighbours {
            if c.best_neighbour.as_ref().is_none_or(|(bp, _)| perf > *bp) {
                c.best_neighbour = Some((perf, config.clone()));
            }
        } else if slot == Self::STEP - 1 {
            c.current = config.clone();
            c.current_perf = perf;
            c.steps += 1;
            c.proposed = 0;
            c.observed = 0;
            return;
        }
        if c.observed == Self::NEIGHBOURS + 1 {
            let next = match c.best_neighbour.take() {
                Some((p, best)) if p > c.current_perf => best,
                _ => {
                    // Stuck on a local optimum: restart within the subset.
                    let mut fresh = c.current.clone();
                    for &p in &self.subset {
                        fresh.set_gene(p, self.space.random_value(p, &mut self.rng));
                    }
                    fresh
                }
            };
            c.queue.push(next);
        }
    }

    fn is_done(&self) -> bool {
        self.climb.steps >= self.max_iterations
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn snapshot(&self) -> String {
        let state = HillState {
            rng: rng_state_vec(&self.rng),
            subset: subset_to_indices(&self.subset),
            climb: self.climb.clone(),
        };
        serde_json::to_string(&state).expect("hill-climb state serializes")
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let state: HillState = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        let rng = rng_from_state_vec(&state.rng)?;
        self.subset = subset_from_indices(&state.subset)?;
        self.rng = rng;
        self.climb = state.climb;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParameterSpace {
        ParameterSpace::tunio_default()
    }

    #[test]
    fn ga_strategy_is_generation_synchronous() {
        let mut ga = GaStrategy::new(
            GaConfig {
                population: 4,
                max_iterations: 2,
                seed: 7,
                ..Default::default()
            },
            space(),
        );
        let first = ga.propose(16);
        assert_eq!(first.len(), 4, "one full generation");
        assert!(ga.propose(16).is_empty(), "barrier until observed");
        for c in &first {
            ga.observe(c, 1.0, 0.5);
        }
        let second = ga.propose(16);
        assert_eq!(second.len(), 4, "next generation after the barrier");
    }

    #[test]
    fn ga_budget_exhaustion_sets_done() {
        let mut ga = GaStrategy::new(
            GaConfig {
                population: 3,
                max_iterations: 1,
                seed: 1,
                ..Default::default()
            },
            space(),
        );
        for c in ga.propose(8) {
            ga.observe(&c, 2.0, 0.1);
        }
        assert!(ga.is_done());
        assert!(ga.propose(8).is_empty());
    }

    #[test]
    fn random_and_lhs_never_barrier() {
        let sp = space();
        let mut rs = RandomStrategy::new(sp.clone(), 10, 3);
        let mut lhs = LhsStrategy::new(sp, 10, 4, 3);
        // No observe calls at all: the full budget must still stream out.
        assert_eq!(rs.propose(10).len(), 10);
        assert_eq!(lhs.propose(10).len(), 10);
        assert!(rs.is_done() && lhs.is_done());
    }

    #[test]
    fn lhs_rounds_stratify_each_parameter() {
        let sp = space();
        let strata = 4;
        let mut lhs = LhsStrategy::new(sp.clone(), strata, strata, 11);
        let round = lhs.propose(strata);
        assert_eq!(round.len(), strata);
        // Every parameter with cardinality >= strata must see exactly
        // one point per stratum slice (the same floor-division bounds
        // the generator uses).
        for &p in ParamId::ALL.iter() {
            let card = sp.cardinality(p);
            if card < strata {
                continue;
            }
            for stratum in 0..strata {
                let lo = stratum * card / strata;
                let hi = ((stratum + 1) * card / strata).max(lo + 1).min(card);
                let hits = round
                    .iter()
                    .filter(|c| (lo..hi).contains(&c.gene(p)))
                    .count();
                assert_eq!(hits, 1, "{} stratum {stratum} hit {hits} times", p.name());
            }
        }
    }

    fn seed_config(sp: &ParameterSpace) -> Configuration {
        let mut c = sp.default_config();
        for p in ParamId::ALL {
            c.set_gene(p, sp.cardinality(p) - 1);
        }
        c
    }

    #[test]
    fn ga_warm_start_plants_seeds_in_initial_population() {
        let sp = space();
        let seed = seed_config(&sp);
        let mut ga = GaStrategy::new(
            GaConfig {
                population: 4,
                max_iterations: 2,
                seed: 7,
                ..Default::default()
            },
            sp.clone(),
        );
        ga.warm_start(std::slice::from_ref(&seed));
        let first = ga.propose(16);
        assert_eq!(first[0], sp.default_config(), "default config still leads");
        assert_eq!(first[1], seed, "seed follows the default");
        assert_ne!(first[2], seed, "mutants fill the rest");
    }

    #[test]
    fn ga_warm_start_after_init_is_ignored() {
        let sp = space();
        let mk = || {
            GaStrategy::new(
                GaConfig {
                    population: 4,
                    max_iterations: 2,
                    seed: 7,
                    ..Default::default()
                },
                sp.clone(),
            )
        };
        let mut cold = mk();
        let mut late = mk();
        let a = cold.propose(16);
        let _ = late.propose(16);
        late.warm_start(&[seed_config(&sp)]);
        for c in &a {
            cold.observe(c, 1.0, 0.1);
            late.observe(c, 1.0, 0.1);
        }
        assert_eq!(
            cold.propose(16),
            late.propose(16),
            "late seeds must not fork the stream"
        );
    }

    #[test]
    fn ga_snapshot_roundtrips_pending_seeds() {
        let sp = space();
        let seed = seed_config(&sp);
        let mut a = GaStrategy::new(
            GaConfig {
                population: 4,
                max_iterations: 2,
                seed: 3,
                ..Default::default()
            },
            sp.clone(),
        );
        a.warm_start(std::slice::from_ref(&seed));
        let snap = a.snapshot();
        let mut b = GaStrategy::new(
            GaConfig {
                population: 4,
                max_iterations: 2,
                seed: 3,
                ..Default::default()
            },
            sp,
        );
        b.restore(&snap).expect("restore");
        assert_eq!(
            a.propose(16),
            b.propose(16),
            "seeds survive snapshot/restore"
        );
    }

    #[test]
    fn async_warm_start_sets_incumbent_only_before_first_proposal() {
        let sp = space();
        let seed = seed_config(&sp);
        let mut rs = RandomStrategy::new(sp.clone(), 10, 3);
        rs.warm_start(std::slice::from_ref(&seed));
        assert_eq!(rs.best, seed, "random adopts the seed incumbent");
        let mut lhs = LhsStrategy::new(sp.clone(), 10, 4, 3);
        lhs.warm_start(std::slice::from_ref(&seed));
        assert_eq!(lhs.best, seed, "lhs adopts the seed incumbent");
        // Once anything was proposed, seeds are ignored.
        let mut started = RandomStrategy::new(sp.clone(), 10, 3);
        let _ = started.propose(1);
        started.warm_start(std::slice::from_ref(&seed));
        assert_eq!(started.best, sp.default_config(), "late seed ignored");
    }

    #[test]
    fn sanitize_clamps_non_finite() {
        assert_eq!(sanitize(f64::NAN), 0.0);
        assert_eq!(sanitize(f64::INFINITY), 0.0);
        assert_eq!(sanitize(-3.5), -3.5);
    }

    #[test]
    fn restore_rejects_zero_rng_state() {
        let sp = space();
        let mut rs = RandomStrategy::new(sp, 4, 1);
        let snap = rs.snapshot().replace(
            &format!("{:?}", rs.rng_state().to_vec()).replace(' ', ""),
            "[0,0,0,0]",
        );
        assert!(rs.restore(&snap).is_err(), "zero state must be rejected");
    }
}

//! End-to-end tuning campaigns (the pipelines compared in §IV).
//!
//! Campaigns run fault-free by default. [`CampaignOptions`] adds the
//! robustness machinery: a seeded [`FaultPlan`] for chaos runs, whose
//! failures the engine's default [`tunio_tuner::FailurePolicy`]
//! retries, quarantines and degrades, and a write-ahead-log checkpoint
//! ([`crate::checkpoint`]) enabling kill-and-resume with
//! bitwise-identical outcomes.

use crate::checkpoint::{
    self, CheckpointError, CheckpointGeneration, CheckpointHeader, CheckpointWriter,
    CHECKPOINT_VERSION,
};
use crate::early_stop::EarlyStopAgent;
use crate::pretrain::PretrainCache;
use crate::smart_config::{warm_seed_configs, SmartConfigAgent};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tunio_iosim::{ClusterSpec, FaultPlan, InterferenceModel, NoiseProfile, Simulator};
use tunio_params::ParameterSpace;
use tunio_trace as trace;
use tunio_tuner::stoppers::NoStop;
use tunio_tuner::{
    AllParams, BoConfig, BoStrategy, CacheEntry, CampaignObserver, EvalCounters, EvalEngine,
    GaConfig, GaStrategy, GenerationSnapshot, HeuristicStop, LhsStrategy, NoObserver, RacingConfig,
    RacingCounters, RandomStrategy, ResilienceCounters, SchedulerStats, SearchStrategy, Stopper,
    SubsetProvider, TuningTrace,
};
use tunio_workloads::{AppSpec, Variant, Workload, WorkloadFeatures};

/// Which tuning pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PipelineKind {
    /// HSTuner: all parameters, full budget (no early stop).
    HsTunerNoStop,
    /// HSTuner with the 5%/5-iteration heuristic stopper.
    HsTunerHeuristic,
    /// Full TunIO: Smart Configuration Generation + RL Early Stopping.
    TunIo,
    /// Ablation: Impact-First tuning only (no early stop) — Fig 9.
    ImpactFirstOnly,
    /// Ablation: RL Early Stopping only (all parameters) — Fig 10.
    RlStopOnly,
}

impl PipelineKind {
    /// Every pipeline, in figure order.
    pub const ALL: [PipelineKind; 5] = [
        PipelineKind::HsTunerNoStop,
        PipelineKind::HsTunerHeuristic,
        PipelineKind::TunIo,
        PipelineKind::ImpactFirstOnly,
        PipelineKind::RlStopOnly,
    ];

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            PipelineKind::HsTunerNoStop => "HSTuner (No Stop)",
            PipelineKind::HsTunerHeuristic => "HSTuner (Heuristic Stop)",
            PipelineKind::TunIo => "TunIO",
            PipelineKind::ImpactFirstOnly => "Impact-First Tuning",
            PipelineKind::RlStopOnly => "TunIO Early Stopping",
        }
    }

    /// Reverse of [`PipelineKind::label`] — how WAL headers name the
    /// pipeline they belong to.
    pub fn from_label(label: &str) -> Option<PipelineKind> {
        PipelineKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// The command-line and submission name (`tunio-tune --pipeline`,
    /// the daemon's `pipeline` field).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineKind::HsTunerNoStop => "hstuner",
            PipelineKind::HsTunerHeuristic => "hstuner-heuristic",
            PipelineKind::TunIo => "tunio",
            PipelineKind::ImpactFirstOnly => "impact-first",
            PipelineKind::RlStopOnly => "rl-stop",
        }
    }

    /// Reverse of [`PipelineKind::name`].
    pub fn from_name(name: &str) -> Option<PipelineKind> {
        PipelineKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Why a campaign could not produce an outcome. This is the per-campaign
/// failure boundary: a library caller (the CLI, the `tunio-serve` daemon)
/// decides what one campaign's failure means — the process itself never
/// dies for it.
#[derive(Debug)]
pub enum CampaignError {
    /// The write-ahead log could not be used: I/O failure, header
    /// mismatch, or a resumed replay diverging from the recorded
    /// trajectory.
    Checkpoint(CheckpointError),
    /// Every evaluation the campaign attempted failed (fault injection
    /// with no surviving attempt), so there is no real result to report
    /// — only penalty values. Callers must treat the campaign as failed
    /// rather than trust a trace of zeros.
    NoViableEvaluations {
        /// Whole evaluations that exhausted their retries.
        failed_evaluations: u64,
        /// Faults the simulator injected while trying.
        faults_injected: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::NoViableEvaluations {
                failed_evaluations,
                faults_injected,
            } => write!(
                f,
                "no evaluation survived: {failed_evaluations} evaluations failed \
                 ({faults_injected} faults injected) and none succeeded"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::NoViableEvaluations { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// The all-failed check: a campaign in which not a single evaluation
/// succeeded has nothing trustworthy to report.
fn ensure_viable(engine: &EvalEngine) -> Result<(), CampaignError> {
    let resilience = engine.resilience();
    if engine.evaluations() == 0 && resilience.failed_evaluations > 0 {
        return Err(CampaignError::NoViableEvaluations {
            failed_evaluations: resilience.failed_evaluations,
            faults_injected: resilience.faults_injected,
        });
    }
    Ok(())
}

/// A tuning campaign description.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Application under tuning.
    pub app: AppSpec,
    /// Full application, extracted kernel, or reduced kernel.
    pub variant: Variant,
    /// Pipeline to run.
    pub kind: PipelineKind,
    /// Generation budget.
    pub max_iterations: u32,
    /// GA population size.
    pub population: usize,
    /// Seed for everything (GA, agents, simulator noise).
    pub seed: u64,
    /// `false` = 4 nodes / 128 procs; `true` = 500 nodes / 1600 procs.
    pub large_scale: bool,
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Pipeline that ran.
    pub kind: PipelineKind,
    /// The tuning trace (per-iteration perf and cost).
    pub trace: TuningTrace,
    /// Per-layer cost attribution pooled over every charged evaluation
    /// (see [`tunio_iosim::Profile`]), summed in configuration-key order
    /// so it is bitwise identical for every thread count.
    pub profile: tunio_iosim::Profile,
    /// What the failure machinery did: faults injected, retries,
    /// exhausted evaluations, quarantined keys, penalties served. All
    /// zero for a fault-free campaign.
    pub resilience: ResilienceCounters,
    /// Async-scheduler counters (proposals, aliases, barrier stalls).
    /// Every campaign runs through the scheduler, so this is always
    /// `Some`.
    pub scheduler: Option<SchedulerStats>,
    /// Racing-evaluation counters (samples, settles, top-ups, early
    /// discards). All zero unless [`CampaignOptions::racing`] was set.
    /// Excluded from [`outcome_json`]: a resumed campaign replays
    /// settled keys from the WAL instead of re-racing them, so these
    /// counters depend on where the kill landed even though the trace
    /// does not.
    pub racing: RacingCounters,
    /// Engine work counters. `counters.sim_wall_s == 0.0` means the
    /// campaign never touched the simulator — every evaluation was
    /// served from preloaded or replayed cache entries. The serve layer
    /// uses this to prove per-tenant cache namespacing. Excluded from
    /// [`outcome_json`] (wall-clock is not deterministic).
    pub counters: EvalCounters,
    /// Exclusive wall-clock breakdown of the campaign (queue wait,
    /// propose, simulation, surrogate, WAL, trace overhead, scheduler
    /// stall) plus its critical path, reconstructed from the campaign's
    /// span DAG. `None` when tracing is disabled. Excluded from
    /// [`outcome_json`] — wall-clock is not deterministic.
    pub wall_breakdown: Option<trace::Timeline>,
}

/// Robustness options for a campaign: fault injection and
/// checkpoint/resume. The default is a plain fault-free campaign
/// with no checkpoint — exactly the historical behaviour.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Write a JSONL write-ahead log of completed generations here.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if it already exists (a fresh file is
    /// started otherwise, so `resume: true` is always safe to pass).
    pub resume: bool,
    /// Attach a fault-injection plan to the simulator.
    pub fault_plan: Option<FaultPlan>,
    /// Exit the process (status 0) once this generation's checkpoint
    /// line is durable — the kill switch for crash/resume testing.
    pub abort_after: Option<u32>,
    /// Parallel evaluator slots, and the most threads a BO surrogate
    /// refit trains its ensemble on (`None` = one per host core, capped
    /// at 8). The trace is bitwise identical for every value; only
    /// wall-clock time changes.
    pub threads: Option<usize>,
    /// Statically inferred workload features to warm-start the search
    /// from (see `tunio_discovery::infer`). When set, the smart subset
    /// agent derives its impact ranking from the features instead of the
    /// offline simulator sweep, and strategy backends are handed
    /// feature-guided seed configurations before their first proposal.
    /// Like `fault_plan`, this is not recorded in checkpoints — resumed
    /// campaigns must pass the same value (a restored strategy ignores
    /// seeds anyway, so a mismatch cannot fork a resumed trace).
    pub warm_start: Option<WorkloadFeatures>,
    /// Cache entries to seed the engine's memo cache with before the
    /// campaign starts (e.g. a tenant's prior results for the identical
    /// simulator/workload/seed). Entries already present in a resumed
    /// WAL win — the WAL is preloaded first. Preloaded entries replay
    /// deterministically, exactly like WAL entries, so they cannot fork
    /// a trace; entries from a *different* simulator seed would, which
    /// is why callers must namespace them by campaign fingerprint.
    pub preload: Vec<CacheEntry>,
    /// Attach a heteroscedastic interference model to the simulator
    /// (noisy-shared-machine realism — see `tunio_iosim::interference`).
    /// Like `fault_plan`, the profile is not recorded in checkpoints:
    /// resumed campaigns must pass the same profile and seed, or replay
    /// verification will catch the fork and refuse to extend the WAL.
    pub noise_profile: Option<NoiseProfile>,
    /// Interference seed; defaults to the campaign seed when a profile
    /// is set.
    pub noise_seed: Option<u64>,
    /// Noise-robust racing evaluation: adaptive repeat-sampling against
    /// the commit-frontier incumbent instead of fixed-repeat averaging.
    /// Racing state (per-key sample counts + moments) persists in the
    /// WAL, so kill/resume stays bitwise — but like the noise flags, a
    /// resumed campaign must pass the same racing policy.
    pub racing: Option<RacingConfig>,
    /// Draw the TunIO agents from this shared cache instead of
    /// pretraining them for this campaign alone (see
    /// [`crate::pretrain`]). A cached agent is a clone of what the
    /// pretraining would return, so the outcome is identical; only the
    /// wall time changes. `None` pretrains in place.
    pub pretrain_cache: Option<Arc<PretrainCache>>,
}

/// Attach the options' interference model (if any) to a fresh simulator
/// and record the active profile as a labeled metric.
fn apply_noise(sim: Simulator, spec: &CampaignSpec, opts: &CampaignOptions) -> Simulator {
    match opts.noise_profile {
        Some(profile) => {
            let seed = opts.noise_seed.unwrap_or(spec.seed);
            trace::labeled_gauge("tunio.noise.profile", &[("profile", profile.as_str())]).set(1.0);
            sim.with_interference(InterferenceModel::new(profile, seed))
        }
        None => sim,
    }
}

/// Run one campaign with default options (fault-free, no checkpoint) on
/// the paper's search backend, the GA.
///
/// Even this path is fallible: a campaign is a unit of work that can
/// fail on its own (fault injection leaving no viable evaluation, a
/// checkpoint that cannot be written) without that being fatal to the
/// process hosting it.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignOutcome, CampaignError> {
    run_strategy_campaign_opts(spec, StrategyKind::Ga, &CampaignOptions::default())
}

/// The checkpoint header a campaign binds to: the pipeline label is
/// extended with the search backend, so a WAL written by one strategy
/// can never silently resume under another.
fn spec_header(spec: &CampaignSpec, strategy: StrategyKind) -> CheckpointHeader {
    CheckpointHeader {
        version: CHECKPOINT_VERSION,
        app: spec.app.name.clone(),
        variant: format!("{:?}", spec.variant),
        kind: format!("{} [strategy={}]", spec.kind.label(), strategy.label()),
        max_iterations: spec.max_iterations,
        population: spec.population,
        seed: spec.seed,
        large_scale: spec.large_scale,
    }
}

/// Parse a [`Variant`] back from the `{:?}` string WAL headers store.
fn variant_from_str(s: &str) -> Option<Variant> {
    match s {
        "Full" => Some(Variant::Full),
        "Kernel" => Some(Variant::Kernel),
        _ => {
            let frac = s
                .strip_prefix("ReducedKernel { keep_fraction: ")?
                .strip_suffix(" }")?;
            Some(Variant::ReducedKernel {
                keep_fraction: frac.parse().ok()?,
            })
        }
    }
}

/// Reconstruct the campaign a WAL header describes — the inverse of
/// `spec_header`. This is what lets a restarted daemon resume every
/// in-flight campaign from nothing but its WAL directory. Returns the
/// spec plus its search backend. Errs with a human-readable reason when
/// this build cannot host the campaign (another checkpoint version, or
/// an unknown app, variant, pipeline, or strategy) — callers quarantine
/// such WALs instead of refusing to boot.
pub fn spec_from_header(header: &CheckpointHeader) -> Result<(CampaignSpec, StrategyKind), String> {
    if header.version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {} (this build writes {})",
            header.version, CHECKPOINT_VERSION
        ));
    }
    let app = tunio_workloads::app_by_name(&header.app)
        .ok_or_else(|| format!("unknown application `{}`", header.app))?;
    let variant = variant_from_str(&header.variant)
        .ok_or_else(|| format!("unknown variant `{}`", header.variant))?;
    let (kind_label, strategy) = header
        .kind
        .split_once(" [strategy=")
        .and_then(|(label, rest)| Some((label, rest.strip_suffix(']')?)))
        .ok_or_else(|| format!("malformed kind `{}`", header.kind))?;
    let strategy =
        StrategyKind::parse(strategy).ok_or_else(|| format!("unknown strategy `{strategy}`"))?;
    let kind = PipelineKind::from_label(kind_label)
        .ok_or_else(|| format!("unknown pipeline `{kind_label}`"))?;
    Ok((
        CampaignSpec {
            app,
            variant,
            kind,
            max_iterations: header.max_iterations,
            population: header.population,
            seed: header.seed,
            large_scale: header.large_scale,
        },
        strategy,
    ))
}

/// Which search backend drives a campaign (see
/// [`run_strategy_campaign_opts`]). All four run through the
/// asynchronous scheduler and share the stopper / subset-provider /
/// checkpoint toolchain; they differ only in how the next configuration
/// is chosen. The GA is the paper's pipeline and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StrategyKind {
    /// The genetic algorithm, ported onto the strategy trait. Keeps its
    /// generation barrier (population breeds only when fully scored).
    Ga,
    /// Uniform random search over the active subset — fully async.
    Random,
    /// Latin-hypercube sampling: each round of proposals stratifies
    /// every active parameter's range — fully async.
    Lhs,
    /// Bayesian optimization: a neural-surrogate ensemble ranks
    /// candidates by expected improvement — fully async.
    Bo,
}

impl StrategyKind {
    /// Every backend, in CLI/report order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Ga,
        StrategyKind::Random,
        StrategyKind::Lhs,
        StrategyKind::Bo,
    ];

    /// The CLI flag value (`--strategy <label>`).
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Ga => "ga",
            StrategyKind::Random => "random",
            StrategyKind::Lhs => "lhs",
            StrategyKind::Bo => "bo",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Build the backend for a spec. The evaluation budget is
/// `max_iterations * population` — the same simulation count the GA
/// gets — and the record-window width is `population`, so traces from
/// different backends line up generation-for-generation. BO trains its
/// surrogate ensemble on up to `threads` threads.
fn build_strategy(
    kind: StrategyKind,
    spec: &CampaignSpec,
    space: &ParameterSpace,
    threads: usize,
) -> Box<dyn SearchStrategy> {
    let evals = spec.max_iterations as usize * spec.population.max(1);
    match kind {
        StrategyKind::Ga => Box::new(GaStrategy::new(
            GaConfig {
                population: spec.population,
                max_iterations: spec.max_iterations,
                seed: spec.seed,
                ..GaConfig::default()
            },
            space.clone(),
        )),
        StrategyKind::Random => Box::new(RandomStrategy::new(space.clone(), evals, spec.seed)),
        StrategyKind::Lhs => Box::new(LhsStrategy::new(
            space.clone(),
            evals,
            spec.population.max(1),
            spec.seed,
        )),
        StrategyKind::Bo => Box::new(
            BoStrategy::new(
                BoConfig::for_budget(evals, spec.population.max(1), spec.seed),
                space.clone(),
            )
            .with_fit_threads(threads),
        ),
    }
}

/// Default evaluator-slot count: one per host core, capped at 8 (the
/// simulator is CPU-bound; more slots just adds scheduling noise).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The stopper and subset provider a [`PipelineKind`] tunes with. The
/// TunIO agents are pretrained here, inside the campaign span, each in a
/// `pretrain` span saying which agent and whether the options' cache
/// served it (`cache=hit|miss`, or `none` without a cache).
fn pipeline_agents(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    space: &ParameterSpace,
    cluster: ClusterSpec,
) -> (Box<dyn Stopper>, Box<dyn SubsetProvider>) {
    let subsets: Box<dyn SubsetProvider> = match spec.kind {
        PipelineKind::TunIo | PipelineKind::ImpactFirstOnly => {
            let mut span = trace::span("pretrain", vec![("agent", "subsets".into())]);
            let train = || SmartConfigAgent::pretrained(space, cluster, spec.seed);
            let (agent, cache) = match (&opts.warm_start, &opts.pretrain_cache) {
                (Some(features), _) => (
                    SmartConfigAgent::from_features(features, space, cluster, spec.seed),
                    "none",
                ),
                (None, Some(cache)) => {
                    let (agent, lookup) = cache.subset_agent(spec.seed, spec.large_scale, train);
                    (agent, lookup.label())
                }
                (None, None) => (train(), "none"),
            };
            span.add_field("cache", cache.into());
            Box::new(agent)
        }
        _ => Box::new(AllParams),
    };
    let stopper: Box<dyn Stopper> = match spec.kind {
        PipelineKind::TunIo | PipelineKind::RlStopOnly => {
            let mut span = trace::span("pretrain", vec![("agent", "stop".into())]);
            let (mut agent, cache) = match &opts.pretrain_cache {
                Some(cache) => {
                    let (agent, lookup) = cache.stop_agent(spec.max_iterations, spec.seed);
                    (agent, lookup.label())
                }
                None => (
                    EarlyStopAgent::pretrained(spec.max_iterations, spec.seed),
                    "none",
                ),
            };
            span.add_field("cache", cache.into());
            agent.begin_campaign();
            Box::new(agent)
        }
        PipelineKind::HsTunerHeuristic => Box::new(HeuristicStop::paper_default()),
        PipelineKind::HsTunerNoStop | PipelineKind::ImpactFirstOnly => Box::new(NoStop),
    };
    (stopper, subsets)
}

/// Run one campaign through the asynchronous strategy scheduler — the
/// one campaign driver.
///
/// Builds the engine, the stopper and smart subset wiring per
/// [`PipelineKind`] and the checkpoint/resume WAL, then lets the chosen
/// [`StrategyKind`] search with `opts.threads` parallel evaluator slots,
/// refilled as soon as a simulation completes. The outcome (trace,
/// profile, checkpoint trajectory) is bitwise identical for every
/// thread count.
pub fn run_strategy_campaign_opts(
    spec: &CampaignSpec,
    strategy: StrategyKind,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    let space = ParameterSpace::tunio_default();
    let mut sim = if spec.large_scale {
        Simulator::cori_500node(spec.seed)
    } else {
        Simulator::cori_4node(spec.seed)
    };
    if let Some(plan) = opts.fault_plan {
        sim = sim.with_fault_plan(plan);
    }
    sim = apply_noise(sim, spec, opts);
    let cluster = sim.cluster;
    let workload = Workload::new(spec.app.clone(), spec.variant);
    let engine = EvalEngine::new(sim, workload, space.clone(), 3);
    // Open the campaign span before warm-start seeding and agent
    // pretraining: both run real simulations, and those spans must join
    // the campaign's trace rather than each minting a root of their own.
    let span = campaign_span(spec);

    let threads = opts.threads.unwrap_or_else(default_threads).max(1);
    let mut backend = build_strategy(strategy, spec, &space, threads);
    if let Some(features) = &opts.warm_start {
        let seeds = warm_seed_configs(features, &space);
        trace::event(
            "campaign.warm_start",
            vec![
                ("app", features.app.clone().into()),
                ("confidence", features.confidence.into()),
                ("seeds", seeds.len().into()),
            ],
        );
        backend.warm_start(&seeds);
    }

    let (mut stopper, mut subsets) = pipeline_agents(spec, opts, &space, cluster);

    let mut checkpointer = match &opts.checkpoint {
        Some(path) => Some(CheckpointObserver::open(
            path,
            opts.resume,
            &spec_header(spec, strategy),
            &engine,
            opts.abort_after,
        )?),
        None => None,
    };
    if !opts.preload.is_empty() {
        engine.preload(opts.preload.clone());
    }

    let mut no_observer = NoObserver;
    let observer: &mut dyn CampaignObserver = match checkpointer.as_mut() {
        Some(obs) => obs,
        None => &mut no_observer,
    };
    let run = tunio_tuner::run_strategy_opts(
        &engine,
        backend,
        stopper.as_mut(),
        subsets.as_mut(),
        spec.population.max(1),
        threads,
        observer,
        opts.racing,
    );
    if let Some(obs) = checkpointer {
        if let Some(e) = obs.error {
            return Err(e.into());
        }
    }
    ensure_viable(&engine)?;
    let wall_breakdown = finish_campaign(span, spec, &engine, &run.trace);
    Ok(CampaignOutcome {
        kind: spec.kind,
        trace: run.trace,
        profile: engine.profile_snapshot(),
        resilience: engine.resilience(),
        scheduler: Some(run.stats),
        racing: engine.racing_counters(),
        counters: engine.counters(),
        wall_breakdown,
    })
}

/// Deterministic JSON dump of a campaign outcome. Floats use Rust's
/// shortest round-trip formatting, so two bitwise-identical outcomes
/// produce byte-identical files — the CI crash/resume jobs assert
/// equality with a plain `diff`. The `profile` attribution is not part
/// of the dump.
pub fn outcome_json(outcome: &CampaignOutcome) -> String {
    let t = &outcome.trace;
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"pipeline\": \"{}\",\n", outcome.kind.label()));
    s.push_str("  \"records\": [\n");
    for (i, r) in t.records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"iteration\": {}, \"best_perf\": {:?}, \"generation_best_perf\": {:?}, \
             \"cost_s\": {:?}, \"cumulative_cost_s\": {:?}, \"subset_size\": {}}}{}\n",
            r.iteration,
            r.best_perf,
            r.generation_best_perf,
            r.cost_s,
            r.cumulative_cost_s,
            r.subset_size,
            if i + 1 == t.records.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    let genes: Vec<String> = t
        .best_config
        .genes()
        .iter()
        .map(|g| g.to_string())
        .collect();
    s.push_str(&format!("  \"best_genes\": [{}],\n", genes.join(", ")));
    s.push_str(&format!("  \"best_perf\": {:?},\n", t.best_perf));
    s.push_str(&format!("  \"default_perf\": {:?},\n", t.default_perf));
    s.push_str(&format!("  \"stopped_early\": {},\n", t.stopped_early));
    s.push_str(&format!("  \"stopper\": \"{}\",\n", t.stopper_name));
    let res = &outcome.resilience;
    s.push_str(&format!(
        "  \"resilience\": {{\"faults_injected\": {}, \"retries\": {}, \
         \"failed_evaluations\": {}, \"quarantined_keys\": {}, \"penalties_served\": {}}}\n",
        res.faults_injected,
        res.retries,
        res.failed_evaluations,
        res.quarantined_keys,
        res.penalties_served
    ));
    s.push_str("}\n");
    s
}

/// What a resumed campaign must reproduce for one replayed generation
/// before it may extend the log.
struct ReplayCheck {
    rng_state: [u64; 4],
    best_perf: f64,
    cumulative_cost_s: f64,
    entry_keys: Vec<Vec<usize>>,
    strategy_state: String,
}

/// The write-ahead-log attachment: drains the engine's cache journal
/// after every generation, verifies replayed generations against the
/// stored trajectory, and appends new ones.
struct CheckpointObserver<'a> {
    engine: &'a EvalEngine,
    writer: CheckpointWriter,
    replay: Vec<ReplayCheck>,
    abort_after: Option<u32>,
    error: Option<CheckpointError>,
    written: trace::Counter,
    /// Drained-but-unattributed journal entries, keyed by gene key: under
    /// threaded evaluation an entry can be charged before its window
    /// closes *or* drain during a later window, so entries park here
    /// until the scheduler's charged-key list claims them.
    pool: HashMap<Vec<usize>, CacheEntry>,
}

impl<'a> CheckpointObserver<'a> {
    fn open(
        path: &Path,
        resume: bool,
        header: &CheckpointHeader,
        engine: &'a EvalEngine,
        abort_after: Option<u32>,
    ) -> Result<Self, CheckpointError> {
        engine.enable_journal();
        let (writer, replay) = if resume && path.exists() {
            // Header first: a foreign format version is a spec mismatch
            // on `version`, which `load` itself would only call a bad
            // header.
            checkpoint::read_header(path)?.ensure_matches(header)?;
            let (stored, generations) = checkpoint::load(path)?;
            // Heal the file down to its trusted prefix (a kill mid-append
            // leaves a torn final line that must not be appended after).
            let writer = CheckpointWriter::rewrite(path, &stored, &generations)?;
            let mut replay = Vec::with_capacity(generations.len());
            for g in generations {
                replay.push(ReplayCheck {
                    rng_state: g.rng_state,
                    best_perf: g.record.best_perf,
                    cumulative_cost_s: g.record.cumulative_cost_s,
                    entry_keys: g.entries.iter().map(|e| e.key.clone()).collect(),
                    strategy_state: g.strategy_state.clone(),
                });
                engine.preload(g.entries);
            }
            (writer, replay)
        } else {
            (CheckpointWriter::create(path, header)?, Vec::new())
        };
        Ok(CheckpointObserver {
            engine,
            writer,
            replay,
            abort_after,
            error: None,
            written: trace::counter("tunio.checkpoint.written"),
            pool: HashMap::new(),
        })
    }

    /// The recorded trajectory vs what the replay actually did. `None`
    /// means this generation retraced faithfully.
    fn divergence(
        &self,
        snap: &GenerationSnapshot<'_>,
        entries_keys: &[&[usize]],
    ) -> Option<String> {
        let want = &self.replay[snap.iteration as usize - 1];
        if snap.rng_state != want.rng_state {
            return Some(format!(
                "rng state {:?} != recorded {:?}",
                snap.rng_state, want.rng_state
            ));
        }
        if snap.record.best_perf != want.best_perf {
            return Some(format!(
                "best perf {} != recorded {}",
                snap.record.best_perf, want.best_perf
            ));
        }
        if snap.record.cumulative_cost_s != want.cumulative_cost_s {
            return Some(format!(
                "cumulative cost {} != recorded {}",
                snap.record.cumulative_cost_s, want.cumulative_cost_s
            ));
        }
        if entries_keys.len() != want.entry_keys.len()
            || entries_keys
                .iter()
                .zip(&want.entry_keys)
                .any(|(got, want)| *got != want.as_slice())
        {
            return Some(format!(
                "{} cache entries charged, recorded {}",
                entries_keys.len(),
                want.entry_keys.len()
            ));
        }
        if snap.strategy_state != want.strategy_state {
            return Some("strategy state diverged from the recorded snapshot".into());
        }
        None
    }
}

impl CampaignObserver for CheckpointObserver<'_> {
    fn on_generation(&mut self, snap: &GenerationSnapshot<'_>) {
        if self.error.is_some() {
            return; // already failed; surfaced after the run
        }
        // Completions land in wall-clock order, so journal entries are
        // attributed by the scheduler's commit-ordered charged keys (the
        // first window leads with the default evaluation). Entries charged for not-yet-committed proposals stay pooled for
        // a later window; entries whose proposal never commits (in flight
        // at an early stop) are simply never written — a resumed run
        // re-simulates them deterministically.
        for e in self.engine.drain_journal() {
            self.pool.insert(e.key.clone(), e);
        }
        let entries: Vec<CacheEntry> = snap
            .charged
            .iter()
            .filter_map(|k| self.pool.remove(k))
            .collect();
        if (snap.iteration as usize) <= self.replay.len() {
            // Replayed generation: already durable in the log. Verify the
            // resumed run retraced it instead of silently forking history.
            let keys: Vec<&[usize]> = entries.iter().map(|e| e.key.as_slice()).collect();
            if let Some(why) = self.divergence(snap, &keys) {
                self.error = Some(CheckpointError::Diverged {
                    iteration: snap.iteration,
                    why,
                });
            }
        } else {
            let generation = CheckpointGeneration {
                iteration: snap.iteration,
                rng_state: snap.rng_state,
                record: snap.record.clone(),
                population: snap.population.iter().map(|c| c.genes().to_vec()).collect(),
                best_genes: snap.best_config.genes().to_vec(),
                stopped: snap.stopped,
                strategy_state: snap.strategy_state.clone(),
                entries,
            };
            // A span (not an event) so WAL append + flush time lands in
            // its own timeline segment.
            let wal_span = trace::span(
                "wal.append",
                vec![
                    ("iteration", snap.iteration.into()),
                    ("entries", generation.entries.len().into()),
                ],
            );
            let written = self.writer.write_generation(&generation);
            drop(wal_span);
            match written {
                Ok(()) => {
                    self.written.inc(1);
                    trace::event(
                        "checkpoint.written",
                        vec![
                            ("iteration", snap.iteration.into()),
                            ("entries", generation.entries.len().into()),
                            ("stopped", snap.stopped.into()),
                        ],
                    );
                }
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
        if self.abort_after == Some(snap.iteration) {
            // Crash/resume test hook: this generation is durable; die the
            // way a preempted job does (no destructors, no final trace).
            eprintln!("aborting after generation {} (abort_after)", snap.iteration);
            std::process::exit(0);
        }
    }
}

/// Open the top-level `campaign` span carrying the campaign's identity.
fn campaign_span(spec: &CampaignSpec) -> trace::SpanGuard {
    trace::span(
        "campaign",
        vec![
            ("kind", spec.kind.label().into()),
            ("app", spec.app.name.as_str().into()),
            ("variant", format!("{:?}", spec.variant).into()),
            ("large_scale", spec.large_scale.into()),
            ("seed", spec.seed.into()),
        ],
    )
}

/// Close a campaign: emit the `campaign.done` summary event, flush the
/// metric registry into the trace, drop the campaign span (which records
/// total wall time), and fold the trace's span DAG into the returned
/// wall-clock breakdown (recording per-segment histograms as it goes).
fn finish_campaign(
    span: trace::SpanGuard,
    spec: &CampaignSpec,
    engine: &EvalEngine,
    outcome: &TuningTrace,
) -> Option<trace::Timeline> {
    if trace::enabled() {
        let minutes = outcome.total_cost_s() / 60.0;
        let resilience = engine.resilience();
        trace::event(
            "campaign.done",
            vec![
                ("kind", spec.kind.label().into()),
                ("app", spec.app.name.as_str().into()),
                ("best_perf", outcome.best_perf.into()),
                ("default_perf", outcome.default_perf.into()),
                ("iterations", outcome.iterations().into()),
                ("stopped_early", outcome.stopped_early.into()),
                ("stopper_name", outcome.stopper_name.as_str().into()),
                ("evaluations", engine.evaluations().into()),
                ("cache_hits", engine.cache_hits().into()),
                ("faults_injected", resilience.faults_injected.into()),
                ("retries", resilience.retries.into()),
                ("failed_evaluations", resilience.failed_evaluations.into()),
                ("quarantined_keys", resilience.quarantined_keys.into()),
                ("penalties_served", resilience.penalties_served.into()),
                ("total_cost_s", outcome.total_cost_s().into()),
                (
                    "final_roti",
                    crate::roti::roti(outcome.best_perf, outcome.default_perf, minutes).into(),
                ),
                (
                    "peak_roti",
                    crate::roti::peak_roti(outcome)
                        .map(|p| p.roti)
                        .unwrap_or(0.0)
                        .into(),
                ),
            ],
        );
        trace::flush_metrics();
    }
    let ctx = span.context();
    drop(span);
    let ctx = ctx?;
    // After the guard drops, the thread-local context is the campaign
    // span's parent: `None` means the campaign was its trace's root (a
    // CLI run), so nobody else will snapshot this trace and the live
    // store entry can be released once the breakdown is taken. Under
    // `tunio-serve` the enclosing serve root owns the trace's lifetime.
    let campaign_was_root = trace::current().is_none();
    let timeline = trace::timeline::snapshot(ctx.trace_id, trace::now_us());
    if let Some(t) = &timeline {
        record_segment_metrics(t);
    }
    if campaign_was_root {
        trace::timeline::forget(ctx.trace_id);
    }
    timeline
}

/// Record the breakdown into `/metrics`: one labeled histogram sample
/// per segment plus an exemplar series tying each segment to a concrete
/// trace id a human can grep out of the JSONL trace.
fn record_segment_metrics(t: &trace::Timeline) {
    trace::expose::describe(
        "tunio.timeline.segment_s",
        "Exclusive wall-clock attributed to each campaign timeline segment (seconds)",
    );
    trace::expose::describe(
        "tunio.timeline.exemplar",
        "Exemplar campaign for each timeline segment; value is that trace's segment seconds",
    );
    let tid = format!("{:016x}", t.trace_id);
    for (seg, us) in &t.segments {
        let secs = *us as f64 / 1e6;
        trace::labeled_histogram("tunio.timeline.segment_s", &[("segment", seg.name())])
            .record(secs);
        trace::labeled_gauge(
            "tunio.timeline.exemplar",
            &[("segment", seg.name()), ("trace_id", &tid)],
        )
        .set(secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_workloads::hacc;

    fn spec(kind: PipelineKind, iters: u32) -> CampaignSpec {
        CampaignSpec {
            app: hacc(),
            variant: Variant::Kernel,
            kind,
            max_iterations: iters,
            population: 6,
            seed: 9,
            large_scale: false,
        }
    }

    #[test]
    fn hstuner_no_stop_uses_full_budget() {
        let out = run_campaign(&spec(PipelineKind::HsTunerNoStop, 8)).unwrap();
        assert_eq!(out.trace.iterations(), 8);
        assert!(!out.trace.stopped_early);
    }

    #[test]
    fn tunio_pipeline_improves_and_usually_stops_early() {
        let out = run_campaign(&spec(PipelineKind::TunIo, 30)).unwrap();
        assert!(out.trace.best_perf > out.trace.default_perf);
        assert!(out.trace.iterations() <= 30);
        assert_eq!(out.trace.stopper_name, "tunio-rl-early-stop");
    }

    #[test]
    fn impact_first_converges_in_fewer_iterations() {
        // Fig 9's headline: Impact-First tuning reaches the target
        // bandwidth in fewer iterations than tuning everything. Averaged
        // over seeds to smooth GA luck.
        let mut smart_total = 0u32;
        let mut plain_total = 0u32;
        for seed in [5, 21, 33] {
            let mut s = spec(PipelineKind::ImpactFirstOnly, 25);
            s.seed = seed;
            let mut p = spec(PipelineKind::HsTunerNoStop, 25);
            p.seed = seed;
            let smart = run_campaign(&s).unwrap();
            let plain = run_campaign(&p).unwrap();
            let target = 0.9 * plain.trace.best_perf.min(smart.trace.best_perf);
            let first_hit = |t: &TuningTrace| {
                t.records
                    .iter()
                    .find(|r| r.best_perf >= target)
                    .map(|r| r.iteration)
                    .unwrap_or(26)
            };
            smart_total += first_hit(&smart.trace);
            plain_total += first_hit(&plain.trace);
        }
        assert!(
            smart_total <= plain_total,
            "impact-first mean hit {smart_total}/3, plain {plain_total}/3"
        );
    }

    #[test]
    fn kernel_campaign_is_cheaper_than_full_app() {
        let mut k = spec(PipelineKind::HsTunerNoStop, 6);
        k.variant = Variant::Kernel;
        let mut f = spec(PipelineKind::HsTunerNoStop, 6);
        f.variant = Variant::Full;
        let kernel = run_campaign(&k).unwrap();
        let full = run_campaign(&f).unwrap();
        assert!(
            kernel.trace.total_cost_s() < full.trace.total_cost_s(),
            "kernel {} vs full {}",
            kernel.trace.total_cost_s(),
            full.trace.total_cost_s()
        );
    }

    #[test]
    fn campaign_outcome_carries_attribution_profile() {
        let out = run_campaign(&spec(PipelineKind::HsTunerNoStop, 5)).unwrap();
        let p = &out.profile;
        let total = p.total_time_s();
        assert!(total > 0.0, "campaign must charge some simulated time");
        // The layer partition is exact: io + compute + mds == total.
        let compute = p.get(tunio_iosim::Layer::Compute).self_s;
        let mds = p.get(tunio_iosim::Layer::Mds).self_s;
        let parts = p.io_time_s() + compute + mds;
        assert!(
            (parts - total).abs() < 1e-9 * total,
            "partition {parts} vs total {total}"
        );
        // A HACC checkpoint campaign spends real time in the data path.
        // (The kernel variant has no compute phases, so only I/O is required.)
        assert!(p.io_time_s() > 0.0);
    }

    /// ISSUE 8 regression: a campaign whose every evaluation faults
    /// (fault-rate 1.0, so every retry faults too) must return `Err` —
    /// not abort the process the way the old
    /// `.expect("a campaign without a checkpoint has no failure path")`
    /// did when the caller unwrapped a trace of pure penalty values.
    #[test]
    fn all_faulting_campaign_returns_err_instead_of_aborting() {
        let opts = CampaignOptions {
            fault_plan: Some(FaultPlan {
                transient_rate: 1.0,
                ..FaultPlan::disabled(11)
            }),
            ..CampaignOptions::default()
        };
        let s = spec(PipelineKind::HsTunerNoStop, 3);
        let err = run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::NoViableEvaluations {
                    failed_evaluations, ..
                } if failed_evaluations > 0
            ),
            "got {err}"
        );
        // An asynchronous backend on parallel slots hits the same boundary.
        let err = run_strategy_campaign_opts(
            &s,
            StrategyKind::Random,
            &CampaignOptions {
                threads: Some(2),
                ..opts
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CampaignError::NoViableEvaluations { .. }),
            "got {err}"
        );
    }

    #[test]
    fn spec_round_trips_through_its_wal_header() {
        let s = CampaignSpec {
            app: hacc(),
            variant: Variant::ReducedKernel {
                keep_fraction: 0.25,
            },
            kind: PipelineKind::TunIo,
            max_iterations: 12,
            population: 8,
            seed: 77,
            large_scale: true,
        };
        let (back, strategy) = spec_from_header(&spec_header(&s, StrategyKind::Ga)).unwrap();
        assert_eq!(strategy, StrategyKind::Ga);
        assert_eq!(back.app.name, s.app.name);
        assert_eq!(back.variant, s.variant);
        assert_eq!(back.kind, s.kind);
        assert_eq!(back.max_iterations, s.max_iterations);
        assert_eq!(back.population, s.population);
        assert_eq!(back.seed, s.seed);
        assert_eq!(back.large_scale, s.large_scale);

        let (back, strategy) = spec_from_header(&spec_header(&s, StrategyKind::Bo)).unwrap();
        assert_eq!(strategy, StrategyKind::Bo);
        assert_eq!(back.kind, s.kind);
    }

    #[test]
    fn spec_from_header_names_what_it_cannot_host() {
        let s = spec(PipelineKind::TunIo, 4);
        let mut h = spec_header(&s, StrategyKind::Ga);
        h.kind = "TunIO [strategy=alien]".to_string();
        assert!(spec_from_header(&h).unwrap_err().contains("alien"));
        let mut h = spec_header(&s, StrategyKind::Ga);
        h.app = "no-such-app".to_string();
        assert!(spec_from_header(&h).unwrap_err().contains("no-such-app"));
        // A version-1 WAL: written before every campaign ran through the
        // scheduler, with a bare pipeline label for the kind.
        let mut h = spec_header(&s, StrategyKind::Ga);
        h.version = 1;
        h.kind = "TunIO".to_string();
        let why = spec_from_header(&h).unwrap_err();
        assert!(why.contains("checkpoint version 1"), "{why}");
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            PipelineKind::HsTunerNoStop,
            PipelineKind::HsTunerHeuristic,
            PipelineKind::TunIo,
            PipelineKind::ImpactFirstOnly,
            PipelineKind::RlStopOnly,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn names_and_labels_round_trip() {
        for k in PipelineKind::ALL {
            assert_eq!(PipelineKind::from_name(k.name()), Some(k));
            assert_eq!(PipelineKind::from_label(k.label()), Some(k));
        }
        assert_eq!(PipelineKind::from_name("TunIO"), None);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use tunio_workloads::hacc;

    fn spec(kind: PipelineKind, iters: u32, seed: u64) -> CampaignSpec {
        CampaignSpec {
            app: hacc(),
            variant: Variant::Kernel,
            kind,
            max_iterations: iters,
            population: 6,
            seed,
            large_scale: false,
        }
    }

    fn wal_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tunio-pipeline-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_outcomes_identical(a: &CampaignOutcome, b: &CampaignOutcome) {
        assert_eq!(a.trace.records.len(), b.trace.records.len());
        for (x, y) in a.trace.records.iter().zip(&b.trace.records) {
            assert_eq!(x.best_perf, y.best_perf, "gen {}", x.iteration);
            assert_eq!(x.generation_best_perf, y.generation_best_perf);
            assert_eq!(x.cost_s, y.cost_s, "gen {}", x.iteration);
            assert_eq!(x.cumulative_cost_s, y.cumulative_cost_s);
            assert_eq!(x.subset_size, y.subset_size);
        }
        assert_eq!(a.trace.best_perf, b.trace.best_perf);
        assert_eq!(a.trace.default_perf, b.trace.default_perf);
        assert_eq!(a.trace.best_config.genes(), b.trace.best_config.genes());
        assert_eq!(a.trace.stopped_early, b.trace.stopped_early);
        assert_eq!(a.profile, b.profile, "profile accumulator must match");
    }

    /// Options for a checkpointed campaign.
    fn checkpointed(path: &Path, resume: bool) -> CampaignOptions {
        CampaignOptions {
            checkpoint: Some(path.to_path_buf()),
            resume,
            ..CampaignOptions::default()
        }
    }

    /// Keep the header plus the first `k` generation lines, then append a
    /// torn partial line — exactly what a `kill -9` mid-append leaves.
    fn truncate_wal(path: &Path, k: usize) {
        let raw = std::fs::read_to_string(path).unwrap();
        let mut kept: Vec<&str> = raw.lines().take(1 + k).collect();
        assert_eq!(kept.len(), 1 + k, "WAL shorter than the kill point");
        let torn = "{\"iteration\":99,\"rng_state\":[123,45";
        kept.push(torn);
        std::fs::write(path, kept.join("\n")).unwrap();
    }

    #[test]
    fn checkpointed_campaign_is_bitwise_identical_to_plain() {
        let s = spec(PipelineKind::HsTunerNoStop, 6, 17);
        let plain = run_campaign(&s).unwrap();
        let path = wal_path("plain-vs-ckpt.jsonl");
        let ckpt =
            run_strategy_campaign_opts(&s, StrategyKind::Ga, &checkpointed(&path, false)).unwrap();
        assert_outcomes_identical(&plain, &ckpt);
        assert_eq!(ckpt.resilience, ResilienceCounters::default());
        let (_, gens) = checkpoint::load(&path).unwrap();
        assert_eq!(gens.len(), 6, "one WAL line per generation");
        assert!(gens.last().unwrap().stopped);
        std::fs::remove_file(&path).ok();
    }

    /// The acceptance scenario: kill a campaign mid-run (simulated by
    /// truncating its WAL to the first k generations plus a torn line),
    /// resume it, and require the outcome to be identical to the
    /// uninterrupted run — including with the RL stopper and smart
    /// subset agents in the loop, whose state is rebuilt by replay.
    #[test]
    fn kill_mid_campaign_and_resume_reproduces_the_outcome() {
        let s = spec(PipelineKind::TunIo, 10, 23);
        let path = wal_path("kill-resume.jsonl");
        let uninterrupted =
            run_strategy_campaign_opts(&s, StrategyKind::Ga, &checkpointed(&path, false)).unwrap();
        let total = uninterrupted.trace.records.len();
        assert!(total >= 3, "need enough generations to kill mid-way");

        truncate_wal(&path, 2);
        let resumed =
            run_strategy_campaign_opts(&s, StrategyKind::Ga, &checkpointed(&path, true)).unwrap();
        assert_outcomes_identical(&uninterrupted, &resumed);
        assert_eq!(resumed.resilience, uninterrupted.resilience);

        // The resumed run must have healed the WAL back to full length.
        let (_, gens) = checkpoint::load(&path).unwrap();
        assert_eq!(gens.len(), total);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_is_a_noop_replay_when_the_campaign_already_finished() {
        let s = spec(PipelineKind::HsTunerHeuristic, 12, 29);
        let path = wal_path("finished-resume.jsonl");
        let opts = checkpointed(&path, true);
        let first = run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts).unwrap();
        let second = run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts).unwrap();
        assert_outcomes_identical(&first, &second);
        // A full replay never touches the simulator.
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_campaign() {
        let path = wal_path("mismatch.jsonl");
        let opts = |resume| CampaignOptions {
            checkpoint: Some(path.clone()),
            resume,
            ..CampaignOptions::default()
        };
        let run = |seed, resume| {
            let s = spec(PipelineKind::HsTunerNoStop, 3, seed);
            run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts(resume))
        };
        run(31, false).unwrap();
        let err = run(32, true).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::SpecMismatch { field: "seed", .. })
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The tentpole acceptance test: every strategy backend survives a
    /// kill after generation 3 (WAL truncated to three lines plus a torn
    /// tail) and resumes to the bitwise-identical outcome — with two
    /// async evaluator slots racing completions the whole time.
    #[test]
    fn every_strategy_backend_survives_kill_and_resume() {
        for strategy in StrategyKind::ALL {
            let s = spec(PipelineKind::HsTunerNoStop, 6, 41);
            let path = wal_path(&format!("strategy-resume-{}.jsonl", strategy.label()));
            std::fs::remove_file(&path).ok();
            let opts = |resume| CampaignOptions {
                checkpoint: Some(path.clone()),
                resume,
                threads: Some(2),
                ..CampaignOptions::default()
            };
            let uninterrupted = run_strategy_campaign_opts(&s, strategy, &opts(false)).unwrap();
            assert!(
                uninterrupted.trace.records.len() >= 4,
                "{}: need enough generations to kill mid-way",
                strategy.label()
            );

            truncate_wal(&path, 3);
            let resumed = run_strategy_campaign_opts(&s, strategy, &opts(true)).unwrap();
            assert_outcomes_identical(&uninterrupted, &resumed);
            assert_eq!(
                uninterrupted.scheduler,
                resumed.scheduler,
                "{}: scheduler counters must replay exactly",
                strategy.label()
            );

            let (_, gens) = checkpoint::load(&path).unwrap();
            assert_eq!(gens.len(), uninterrupted.trace.records.len());
            assert!(
                gens.iter().all(|g| !g.strategy_state.is_empty()),
                "{}: every WAL line must carry the strategy snapshot",
                strategy.label()
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A WAL written by one backend must refuse to resume under another:
    /// the header's kind string binds the strategy identity.
    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_strategy() {
        let s = spec(PipelineKind::HsTunerNoStop, 3, 43);
        let path = wal_path("strategy-mismatch.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = |resume| CampaignOptions {
            checkpoint: Some(path.clone()),
            resume,
            threads: Some(1),
            ..CampaignOptions::default()
        };
        run_strategy_campaign_opts(&s, StrategyKind::Random, &opts(false)).unwrap();
        let err = run_strategy_campaign_opts(&s, StrategyKind::Lhs, &opts(true)).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::SpecMismatch { field: "kind", .. })
            ),
            "got {err}"
        );
        // The default backend must refuse it too.
        let err = run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts(true)).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::SpecMismatch { field: "kind", .. })
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A WAL written before checkpoint version 2 (a bare pipeline label,
    /// no strategy snapshots) must refuse to resume with a typed error
    /// naming the version, not diverge somewhere mid-replay.
    #[test]
    fn resume_rejects_a_version_one_checkpoint() {
        let s = spec(PipelineKind::HsTunerNoStop, 3, 45);
        let path = wal_path("version-one.jsonl");
        let mut v1 = spec_header(&s, StrategyKind::Ga);
        v1.version = 1;
        v1.kind = s.kind.label().to_string();
        drop(CheckpointWriter::create(&path, &v1).unwrap());
        let opts = CampaignOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..CampaignOptions::default()
        };
        let err = run_strategy_campaign_opts(&s, StrategyKind::Ga, &opts).unwrap_err();
        assert!(
            matches!(
                &err,
                CampaignError::Checkpoint(CheckpointError::SpecMismatch {
                    field: "version",
                    stored,
                    ..
                }) if stored == "1"
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The full TunIO pipeline (smart subsets + RL stopper) rides the
    /// async scheduler and still checkpoints/resumes bitwise.
    #[test]
    fn bo_strategy_with_tunio_agents_survives_kill_and_resume() {
        let s = spec(PipelineKind::TunIo, 8, 47);
        let path = wal_path("bo-tunio-resume.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = |resume| CampaignOptions {
            checkpoint: Some(path.clone()),
            resume,
            threads: Some(3),
            ..CampaignOptions::default()
        };
        let uninterrupted = run_strategy_campaign_opts(&s, StrategyKind::Bo, &opts(false)).unwrap();
        assert!(uninterrupted.trace.records.len() >= 3);
        truncate_wal(&path, 2);
        let resumed = run_strategy_campaign_opts(&s, StrategyKind::Bo, &opts(true)).unwrap();
        assert_outcomes_identical(&uninterrupted, &resumed);
        std::fs::remove_file(&path).ok();
    }

    /// The noisy-cluster acceptance scenario: a storm-profile racing
    /// campaign killed mid-run resumes to the bitwise-identical trace.
    /// Racing state (per-key sample counts + Welford moments) rides the
    /// WAL's cache entries, and replayed keys short-circuit the race
    /// entirely, so the resumed run re-races only the un-checkpointed
    /// tail — against the same commit-frontier incumbents.
    #[test]
    fn racing_storm_campaign_survives_kill_and_resume() {
        let s = spec(PipelineKind::HsTunerNoStop, 6, 53);
        let path = wal_path("racing-storm-resume.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = |resume| CampaignOptions {
            checkpoint: Some(path.clone()),
            resume,
            threads: Some(2),
            noise_profile: Some(NoiseProfile::Storm),
            racing: Some(RacingConfig::default()),
            ..CampaignOptions::default()
        };
        let uninterrupted =
            run_strategy_campaign_opts(&s, StrategyKind::Random, &opts(false)).unwrap();
        assert!(uninterrupted.trace.records.len() >= 4);

        truncate_wal(&path, 3);
        let resumed = run_strategy_campaign_opts(&s, StrategyKind::Random, &opts(true)).unwrap();
        assert_outcomes_identical(&uninterrupted, &resumed);
        assert_eq!(uninterrupted.scheduler, resumed.scheduler);
        assert_eq!(
            outcome_json(&uninterrupted),
            outcome_json(&resumed),
            "racing outcome must replay byte-for-byte"
        );

        // The healed WAL carries the racing moments: at least one entry
        // records more than zero samples.
        let (_, gens) = checkpoint::load(&path).unwrap();
        let raced = gens
            .iter()
            .flat_map(|g| &g.entries)
            .filter(|e| e.samples > 0)
            .count();
        assert!(raced > 0, "WAL must persist per-key racing state");
        std::fs::remove_file(&path).ok();
    }

    /// A quiet-profile campaign without racing behaves exactly like a
    /// noise-free one at the accounting level (the quiet profile has no
    /// episodes), and the racing-free WAL stays free of moment fields.
    #[test]
    fn quiet_noise_without_racing_keeps_the_wal_moment_free() {
        let s = spec(PipelineKind::HsTunerNoStop, 3, 59);
        let path = wal_path("quiet-no-racing.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = CampaignOptions {
            checkpoint: Some(path.clone()),
            threads: Some(1),
            noise_profile: Some(NoiseProfile::Quiet),
            ..CampaignOptions::default()
        };
        run_strategy_campaign_opts(&s, StrategyKind::Random, &opts).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(
            !raw.contains("\"samples\""),
            "fixed-repeat entries must not grow moment fields"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Chaos + kill + resume: with a seeded fault plan active, the
    /// resumed campaign still reproduces the uninterrupted trace bitwise
    /// (failed evaluations re-draw identical faults; successful ones are
    /// replayed from the WAL).
    #[test]
    fn chaos_campaign_survives_kill_and_resume() {
        let s = spec(PipelineKind::HsTunerNoStop, 8, 37);
        let path = wal_path("chaos-resume.jsonl");
        let chaos = |resume| CampaignOptions {
            fault_plan: Some(FaultPlan::chaos(37, 0.15)),
            ..checkpointed(&path, resume)
        };
        let uninterrupted =
            run_strategy_campaign_opts(&s, StrategyKind::Ga, &chaos(false)).unwrap();
        assert!(
            uninterrupted.resilience.faults_injected > 0,
            "the chaos plan must actually fire"
        );
        assert!(
            uninterrupted.trace.best_perf > 0.0,
            "campaign must converge to a real configuration under faults"
        );

        truncate_wal(&path, 3);
        let resumed = run_strategy_campaign_opts(&s, StrategyKind::Ga, &chaos(true)).unwrap();
        // Resilience counters legitimately differ (replayed successes do
        // not re-run the simulator, so their fault draws never happen);
        // the campaign outcome itself must not.
        assert_outcomes_identical(&uninterrupted, &resumed);
        std::fs::remove_file(&path).ok();
    }
}

//! Smart Configuration Generation — Impact-First Tuning (§III-C).
//!
//! An RL agent that picks the parameter subset each tuning generation may
//! touch. It is built exactly as the paper describes:
//!
//! * a **State Observer** (NN contextual bandit,
//!   [`tunio_rl::ContextObserver`]) turns the raw tuner inputs — the
//!   subset used and the best perf achieved with it — into a learned
//!   state observation;
//! * a **Subset Picker** (NN Q-learning, [`tunio_rl::QAgent`]) maps that
//!   observation to the subset for the next generation (actions are
//!   top-*k* prefixes of the agent's impact ranking);
//! * the reward is `norm(perf) / norm(|subset|)` with a 5-iteration delay;
//! * **offline pre-training** sweeps each parameter on representative
//!   kernels (VPIC, FLASH, HACC), then a PCA over the sweep isolates the
//!   most impactful parameters and seeds the ranking.

use crate::perf::{normalize_perf, subset_reward};
use tunio_iosim::{ClusterSpec, Simulator};
use tunio_nn::Pca;
use tunio_params::{Configuration, ParamId, ParameterSpace};
use tunio_rl::qlearn::QConfig;
use tunio_rl::replay::Transition;
use tunio_rl::{ContextObserver, DelayedReward, QAgent};
use tunio_tuner::{EvalEngine, SubsetProvider};
use tunio_workloads::{flash, hacc, vpic, Variant, Workload, WorkloadFeatures};

/// Dimension of the observer's input context:
/// `[norm_perf, subset_len/total, iteration-scale]`.
const CONTEXT_DIM: usize = 3;
/// Dimension of the learned state observation.
const OBS_DIM: usize = 6;

/// Result of the offline sweep + PCA analysis.
#[derive(Debug, Clone)]
pub struct ImpactAnalysis {
    /// Parameters ranked by descending impact.
    pub ranking: Vec<ParamId>,
    /// Impact score per parameter (indexed by [`ParamId::index`]),
    /// normalized to max 1.
    pub scores: Vec<f64>,
    /// Number of parameters whose sweeps showed significant perf spread
    /// (≥ 8% of the largest spread) — the natural subset size.
    pub significant: usize,
}

impl ImpactAnalysis {
    /// The top-`k` prefix of the ranking.
    pub fn top(&self, k: usize) -> Vec<ParamId> {
        self.ranking.iter().copied().take(k.max(1)).collect()
    }
}

/// Run the offline parameter sweep on the representative kernels and
/// derive the impact ranking via PCA (paper §III-C: "first doing a simple
/// parameter sweep on some representative I/O kernels, including VPIC,
/// FLASH, and HACC … a PCA analysis is performed on the parameters with
/// respect to perf").
pub fn offline_impact_analysis(space: &ParameterSpace, seed: u64) -> ImpactAnalysis {
    let sim = Simulator::cori_4node(seed);
    let cluster = sim.cluster;
    let kernels = [hacc(), vpic(), flash()];

    // Sweep baselines: the library defaults, plus a collective-I/O
    // baseline (collective on, wide striping) that exposes the impact of
    // parameters like `cb_nodes` whose effect is gated on collective mode.
    let mut collective_base = space.default_config();
    collective_base.set_gene(ParamId::CollectiveIo, 1);
    collective_base.set_gene(ParamId::StripingFactor, 9);
    let baselines = [space.default_config(), collective_base];

    // One-at-a-time sweep: rows of [12 normalized gene positions, perf].
    // The engine memoizes repeats: every baseline reappears once per
    // swept parameter and is simulated only the first time.
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut spreads = vec![0.0f64; space.len()];
    for app in &kernels {
        let engine = EvalEngine::new(
            sim.clone(),
            Workload::new(app.clone(), Variant::Kernel),
            space.clone(),
            3,
        );
        for base in &baselines {
            for p in ParamId::ALL {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for idx in 0..space.cardinality(p) {
                    let mut cfg = base.clone();
                    cfg.set_gene(p, idx);
                    let perf = normalize_perf(engine.evaluate(&cfg).perf, &cluster);
                    lo = lo.min(perf);
                    hi = hi.max(perf);
                    let mut row: Vec<f64> = cfg
                        .genes()
                        .iter()
                        .enumerate()
                        .map(|(i, &g)| {
                            g as f64
                                / (space.descriptors()[i].domain.cardinality() - 1).max(1) as f64
                        })
                        .collect();
                    row.push(perf);
                    samples.push(row);
                }
                spreads[p.index()] += hi - lo;
            }
        }
    }

    // PCA over (genes, perf): parameters co-varying with perf load on the
    // same strong components as the perf feature.
    let pca = Pca::fit(&samples);
    let importance = pca.feature_importance();

    // The observed perf spread is the primary impact signal (flat sweeps
    // mean no impact regardless of loading); PCA loadings refine ordering
    // among the impactful parameters.
    let max_spread = spreads.iter().cloned().fold(1e-12, f64::max);
    let mut scores: Vec<f64> = (0..space.len())
        .map(|i| (spreads[i] / max_spread) * (0.3 + 0.7 * importance[i]))
        .collect();
    let max_score = scores.iter().cloned().fold(1e-12, f64::max);
    for s in &mut scores {
        *s /= max_score;
    }

    let mut ranking: Vec<ParamId> = ParamId::ALL.to_vec();
    ranking.sort_by(|a, b| scores[b.index()].partial_cmp(&scores[a.index()]).unwrap());
    let significant = spreads
        .iter()
        .filter(|&&sp| sp >= 0.08 * max_spread)
        .count()
        .max(1);
    ImpactAnalysis {
        ranking,
        scores,
        significant,
    }
}

/// Derive an impact ranking from statically inferred workload features —
/// the warm-start analogue of [`offline_impact_analysis`]. Instead of
/// sweeping the simulator (expensive, workload-agnostic), each parameter's
/// score comes from how strongly the inferred feature vector suggests the
/// parameter matters for *this* workload: collective traffic raises the
/// collective-buffering knobs, volume raises striping, strided/random
/// reads raise the chunk cache, small reads raise sieving, metadata-heavy
/// workloads raise the metadata knobs. Scores are normalized to max 1 and
/// `significant` counts the parameters scoring ≥ 0.3, mirroring the
/// offline analysis contract so [`SmartConfigAgent::new`] works unchanged.
pub fn impact_from_features(features: &WorkloadFeatures, space: &ParameterSpace) -> ImpactAnalysis {
    let mut scores = vec![0.05f64; space.len()];
    let mut bump = |p: ParamId, s: f64| {
        let slot = &mut scores[p.index()];
        *slot = slot.max(s.clamp(0.0, 1.0));
    };

    let coll = features.collective_fraction;
    bump(ParamId::CollectiveIo, 0.4 + 0.6 * coll);
    bump(ParamId::CbNodes, 0.2 + 0.8 * coll);
    bump(ParamId::CbBufferSize, 0.15 + 0.7 * coll);

    // Volume on a log scale: 1 GiB ≈ 0.75, 1 TiB saturates.
    let vol = ((features.total_bytes.max(1) as f64).log2() / 40.0).clamp(0.0, 1.0);
    bump(ParamId::StripingFactor, 0.25 + 0.75 * vol);
    bump(ParamId::StripingUnit, 0.2 + 0.7 * vol);

    // Large requests make alignment pay; tiny ones make it irrelevant.
    let req = features.mean_request_bytes.max(1.0);
    let req_scale = (req.log2() / 24.0).clamp(0.0, 1.0); // 16 MiB saturates
    bump(ParamId::Alignment, 0.15 + 0.75 * req_scale);

    // Non-contiguous reads are what the chunk cache exists for.
    let noncontig = features.strided_fraction.max(features.random_fraction);
    bump(
        ParamId::ChunkCache,
        0.1 + 0.9 * noncontig * features.read_fraction,
    );

    // Sieving only helps small reads.
    let small = (1.0 - req / (1u64 << 20) as f64).clamp(0.0, 1.0);
    bump(ParamId::SieveBufSize, 0.85 * features.read_fraction * small);

    let meta = features.metadata_ratio.min(1.0);
    bump(ParamId::MetaBlockSize, 0.8 * meta);
    bump(ParamId::MdcConfig, 0.5 * meta);
    bump(ParamId::CollMetaOps, 0.7 * meta * coll);
    bump(ParamId::CollMetadataWrite, 0.7 * meta * coll);

    let max_score = scores.iter().cloned().fold(1e-12, f64::max);
    for s in &mut scores {
        *s /= max_score;
    }
    let mut ranking: Vec<ParamId> = ParamId::ALL.to_vec();
    ranking.sort_by(|a, b| scores[b.index()].partial_cmp(&scores[a.index()]).unwrap());
    let significant = scores.iter().filter(|&&s| s >= 0.3).count().max(1);
    ImpactAnalysis {
        ranking,
        scores,
        significant,
    }
}

/// Warm-start seed configurations derived from inferred workload
/// features: concrete points a search strategy plants in its starting
/// state (see `SearchStrategy::warm_start`). The first seed is the full
/// feature-guided guess; a second, conservative seed keeps the library
/// defaults and only switches the collective/striping mode, so the search
/// starts with both an aggressive and a safe hypothesis.
pub fn warm_seed_configs(
    features: &WorkloadFeatures,
    space: &ParameterSpace,
) -> Vec<Configuration> {
    // Index of the numeric value closest to `target` (log-ish domains are
    // monotone, so absolute distance picks the right neighbor).
    let nearest = |p: ParamId, target: u64| -> usize {
        let dom = &space.descriptor(p).domain;
        (0..dom.cardinality())
            .min_by_key(|&i| {
                dom.numeric_at(i)
                    .map(|v| v.abs_diff(target))
                    .unwrap_or(u64::MAX)
            })
            .unwrap_or(0)
    };

    let mut seed = space.default_config();
    // One stripe per 256 MiB of predicted volume.
    let stripes = (features.total_bytes / (256 << 20)).clamp(1, 128);
    seed.set_gene(
        ParamId::StripingFactor,
        nearest(ParamId::StripingFactor, stripes),
    );
    let unit = (features.mean_request_bytes.max(65_536.0)) as u64;
    seed.set_gene(ParamId::StripingUnit, nearest(ParamId::StripingUnit, unit));
    if features.mean_request_bytes >= (1u64 << 20) as f64 {
        seed.set_gene(ParamId::Alignment, nearest(ParamId::Alignment, 1 << 20));
    }
    let collective = features.collective_fraction > 0.5;
    if collective {
        seed.set_gene(ParamId::CollectiveIo, 1);
        seed.set_gene(ParamId::CbNodes, nearest(ParamId::CbNodes, 16));
        seed.set_gene(
            ParamId::CbBufferSize,
            nearest(ParamId::CbBufferSize, 16 << 20),
        );
    }
    let noncontig = features.strided_fraction.max(features.random_fraction);
    if features.read_fraction > 0.0 && noncontig > 0.3 {
        seed.set_gene(ParamId::ChunkCache, nearest(ParamId::ChunkCache, 32 << 20));
    }
    if features.read_fraction > 0.5 && features.mean_request_bytes < (1u64 << 20) as f64 {
        seed.set_gene(
            ParamId::SieveBufSize,
            nearest(ParamId::SieveBufSize, 4 << 20),
        );
    }
    if features.metadata_ratio > 0.1 {
        seed.set_gene(
            ParamId::MetaBlockSize,
            nearest(ParamId::MetaBlockSize, 1 << 20),
        );
        if collective {
            seed.set_gene(ParamId::CollMetaOps, 1);
            seed.set_gene(ParamId::CollMetadataWrite, 1);
        }
    }

    let mut conservative = space.default_config();
    if collective {
        conservative.set_gene(ParamId::CollectiveIo, 1);
    }
    conservative.set_gene(
        ParamId::StripingFactor,
        nearest(ParamId::StripingFactor, stripes),
    );

    let mut seeds = vec![seed];
    if conservative != seeds[0] {
        seeds.push(conservative);
    }
    seeds
}

/// The Smart Configuration Generation agent. Implements
/// [`tunio_tuner::SubsetProvider`], so it plugs directly into the GA
/// pipeline's configuration-generation phase. Cloning is cheap (the
/// picker's replay buffer is copy-on-write).
#[derive(Debug, Clone)]
pub struct SmartConfigAgent {
    /// Offline impact analysis (ranking refreshed online).
    pub analysis: ImpactAnalysis,
    observer: ContextObserver,
    picker: QAgent,
    delayed: DelayedReward,
    cluster: ClusterSpec,
    total_params: usize,
    /// (observation, action, context) of the most recent subset decision.
    last: Option<(Vec<f64>, usize, Vec<f64>)>,
    last_perf: f64,
}

impl SmartConfigAgent {
    /// Build an agent from a completed impact analysis and pre-train the
    /// subset picker on the analysis scores.
    pub fn new(analysis: ImpactAnalysis, cluster: ClusterSpec, seed: u64) -> Self {
        let total = analysis.scores.len();
        let mut picker = QAgent::new(
            OBS_DIM,
            total,
            QConfig {
                epsilon_start: 0.5,
                epsilon_end: 0.12,
                epsilon_decay: 0.97,
                ..QConfig::default()
            },
            seed,
        );
        let observer = ContextObserver::new(CONTEXT_DIM, OBS_DIM, seed ^ 0x5eed);

        // Offline picker warm-up. The sweep tells us how many parameters
        // actually move perf (`analysis.significant`); parameters interact
        // (collective mode, aggregators and striping pay off jointly), so
        // achievable gain is modelled as convex coverage of the
        // significant set, and the reward divides by the normalized subset
        // size exactly as the online reward does. This seeds Q toward
        // subsets that cover the impactful parameters and nothing more.
        let n_sig = analysis.significant.max(1) as f64;
        for _ in 0..60 {
            for k0 in 0..total {
                let k = k0 + 1;
                let coverage = ((k as f64).min(n_sig) / n_sig).powf(1.6);
                let reward = coverage / (k as f64 / total as f64);
                let state = observer.observe(&[0.5, k as f64 / total as f64, 0.0]);
                picker.observe(Transition {
                    state,
                    action: k0,
                    reward,
                    next_state: vec![],
                    done: true,
                });
            }
            picker.end_episode();
        }

        SmartConfigAgent {
            analysis,
            observer,
            picker,
            delayed: DelayedReward::new(5),
            cluster,
            total_params: total,
            last: None,
            last_perf: 0.0,
        }
    }

    /// Full offline pre-training: sweep + PCA + picker warm-up.
    pub fn pretrained(space: &ParameterSpace, cluster: ClusterSpec, seed: u64) -> Self {
        let analysis = offline_impact_analysis(space, seed);
        SmartConfigAgent::new(analysis, cluster, seed)
    }

    /// Warm-start construction: skip the simulator sweep and derive the
    /// impact ranking from statically inferred workload features
    /// ([`impact_from_features`]). The picker warm-up is identical to
    /// [`Self::new`], so only the ranking differs from `pretrained`.
    pub fn from_features(
        features: &WorkloadFeatures,
        space: &ParameterSpace,
        cluster: ClusterSpec,
        seed: u64,
    ) -> Self {
        SmartConfigAgent::new(impact_from_features(features, space), cluster, seed)
    }

    /// Pick the subset for the given context (the Table-I
    /// `subset_picker(perf, current_parameter_set)` entry point).
    pub fn pick(&mut self, perf: f64, current_len: usize, iteration: u32) -> Vec<ParamId> {
        let context = vec![
            normalize_perf(perf, &self.cluster),
            current_len as f64 / self.total_params as f64,
            (iteration as f64 / 50.0).min(1.0),
        ];
        let obs = self.observer.observe(&context);
        let action = self.picker.act(&obs);
        let k = action + 1;
        self.last = Some((obs, action, context));
        self.analysis.top(k)
    }

    /// Feed back the best perf achieved with the last-picked subset.
    pub fn reward(&mut self, subset_len: usize, best_perf: f64) {
        let (obs, action, context) = match self.last.take() {
            Some(x) => x,
            None => return,
        };
        let r = subset_reward(best_perf, &self.cluster, subset_len, self.total_params);
        self.observer
            .learn(&context, normalize_perf(best_perf, &self.cluster));
        if let Some(matured) = self.delayed.push(Transition {
            state: obs,
            action,
            reward: r,
            next_state: vec![],
            done: true,
        }) {
            self.picker.observe(matured);
        }
        self.picker.end_episode();
        self.last_perf = best_perf;
    }
}

/// Serializable snapshot of a [`SmartConfigAgent`].
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SmartConfigState {
    /// Impact ranking (parameter ids in descending impact order).
    pub ranking: Vec<ParamId>,
    /// Impact scores by parameter index.
    pub scores: Vec<f64>,
    /// Count of significant parameters.
    pub significant: usize,
    /// Subset-picker Q-network weights (JSON).
    pub picker: String,
    /// State-observer weights (JSON).
    pub observer: String,
}

impl SmartConfigAgent {
    /// Snapshot everything the agent has learned.
    pub fn save_state(&self) -> SmartConfigState {
        SmartConfigState {
            ranking: self.analysis.ranking.clone(),
            scores: self.analysis.scores.clone(),
            significant: self.analysis.significant,
            picker: self.picker.export_json(),
            observer: self.observer.export_json(),
        }
    }

    /// Restore a snapshot taken with [`Self::save_state`]. Every part is
    /// checked before any is assigned, so an `Err` leaves the agent as
    /// it was.
    pub fn restore_state(&mut self, state: &SmartConfigState) -> Result<(), String> {
        if state.ranking.len() != self.total_params || state.scores.len() != self.total_params {
            return Err("parameter-space size mismatch".into());
        }
        let mut picker = self.picker.clone();
        picker.import_json(&state.picker)?;
        let mut observer = self.observer.clone();
        observer.import_json(&state.observer)?;
        self.analysis = ImpactAnalysis {
            ranking: state.ranking.clone(),
            scores: state.scores.clone(),
            significant: state.significant,
        };
        self.picker = picker;
        self.observer = observer;
        Ok(())
    }
}

impl SubsetProvider for SmartConfigAgent {
    fn next_subset(
        &mut self,
        iteration: u32,
        best_perf: f64,
        _space: &ParameterSpace,
    ) -> Vec<ParamId> {
        let current = self
            .last
            .as_ref()
            .map(|(_, a, _)| a + 1)
            .unwrap_or(self.total_params);
        self.pick(best_perf, current, iteration)
    }

    fn feedback(&mut self, subset: &[ParamId], best_perf: f64) {
        self.reward(subset.len(), best_perf);
    }

    fn name(&self) -> &'static str {
        "tunio-smart-config"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_params::Impact;

    fn space() -> ParameterSpace {
        ParameterSpace::tunio_default()
    }

    #[test]
    fn offline_analysis_finds_high_impact_params() {
        let s = space();
        let analysis = offline_impact_analysis(&s, 42);
        let high = s.with_impact(Impact::High);
        // At least 5 of the true top-7 appear in the analysis's top 7.
        let top7 = analysis.top(7);
        let overlap = top7.iter().filter(|p| high.contains(p)).count();
        assert!(
            overlap >= 5,
            "only {overlap}/7 high-impact parameters in top-7: {top7:?}"
        );
    }

    #[test]
    fn analysis_scores_are_normalized() {
        let analysis = offline_impact_analysis(&space(), 1);
        assert_eq!(analysis.scores.len(), 12);
        let max = analysis.scores.iter().cloned().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-9);
        assert!(analysis.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn ranking_is_a_permutation() {
        let analysis = offline_impact_analysis(&space(), 2);
        let mut r = analysis.ranking.clone();
        r.sort();
        assert_eq!(r, ParamId::ALL.to_vec());
    }

    #[test]
    fn agent_picks_nonempty_subsets_and_learns() {
        let s = space();
        let analysis = offline_impact_analysis(&s, 3);
        let mut agent = SmartConfigAgent::new(analysis, ClusterSpec::cori_4node(), 3);
        for it in 1..=10 {
            let subset = agent.next_subset(it, 1e9, &s);
            assert!(!subset.is_empty() && subset.len() <= 12);
            agent.feedback(&subset, 1e9 + it as f64 * 1e8);
        }
    }

    /// The subset picker's Q-network, one action per parameter of the
    /// default space, keeps a shape `tunio-nn`'s fixed-shape kernel runs;
    /// on any other it would warm up to the same bits, only slower.
    #[test]
    fn picker_trains_on_the_fixed_shape_kernel() {
        let agent = SmartConfigAgent::pretrained(&space(), ClusterSpec::cori_4node(), 1);
        assert!(agent.picker.has_fixed_kernel());
    }

    #[test]
    fn failed_restore_leaves_the_agent_untouched() {
        let s = space();
        let mut state = SmartConfigAgent::pretrained(&s, ClusterSpec::cori_4node(), 1).save_state();
        state.observer = "not json".into();
        let mut agent = SmartConfigAgent::pretrained(&s, ClusterSpec::cori_4node(), 2);
        let before = serde_json::to_string(&agent.save_state()).unwrap();
        assert!(agent.restore_state(&state).is_err());
        assert_eq!(serde_json::to_string(&agent.save_state()).unwrap(), before);
    }

    #[test]
    fn warm_started_picker_prefers_small_subsets() {
        // After offline warm-up (no online data), the greedy subset size
        // should be well below the full 12 parameters.
        let s = space();
        let analysis = offline_impact_analysis(&s, 4);
        let mut agent = SmartConfigAgent::new(analysis, ClusterSpec::cori_4node(), 4);
        // Greedy choice (bypass exploration by sampling many picks).
        let mut sizes = Vec::new();
        for it in 1..=20 {
            let sub = agent.next_subset(it, 2e9, &s);
            sizes.push(sub.len());
            agent.feedback(&sub.clone(), 2e9);
        }
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean < 10.0, "mean subset size {mean}");
    }

    #[test]
    fn top_k_clamps_to_at_least_one() {
        let analysis = offline_impact_analysis(&space(), 5);
        assert_eq!(analysis.top(0).len(), 1);
        assert_eq!(analysis.top(99).len(), 12);
    }

    fn collective_features() -> WorkloadFeatures {
        WorkloadFeatures {
            app: "vpic_dump".into(),
            total_bytes: 3 << 30,
            read_fraction: 0.0,
            mean_request_bytes: 8.0 * 1024.0 * 1024.0,
            collective_fraction: 1.0,
            random_fraction: 0.0,
            strided_fraction: 0.0,
            metadata_ratio: 0.2,
            loop_iterations: 12,
            confidence: 0.9,
        }
    }

    fn small_random_read_features() -> WorkloadFeatures {
        WorkloadFeatures {
            app: "bdcats_read".into(),
            total_bytes: 64 << 20,
            read_fraction: 1.0,
            mean_request_bytes: 4096.0,
            collective_fraction: 0.0,
            random_fraction: 1.0,
            strided_fraction: 0.0,
            metadata_ratio: 0.05,
            loop_iterations: 8,
            confidence: 0.8,
        }
    }

    #[test]
    fn feature_impact_matches_workload_shape() {
        let s = space();
        let coll = impact_from_features(&collective_features(), &s);
        assert!(
            coll.top(4).contains(&ParamId::CollectiveIo),
            "{:?}",
            coll.ranking
        );
        assert!(coll.top(6).contains(&ParamId::CbNodes));
        let rand = impact_from_features(&small_random_read_features(), &s);
        assert!(
            rand.top(4).contains(&ParamId::ChunkCache),
            "{:?}",
            rand.ranking
        );
        assert!(rand.top(6).contains(&ParamId::SieveBufSize));
        // Contract parity with the offline analysis.
        for a in [&coll, &rand] {
            let mut r = a.ranking.clone();
            r.sort();
            assert_eq!(r, ParamId::ALL.to_vec());
            let max = a.scores.iter().cloned().fold(0.0, f64::max);
            assert!((max - 1.0).abs() < 1e-9);
            assert!(a.significant >= 1);
        }
    }

    #[test]
    fn warm_seeds_encode_the_features() {
        let s = space();
        let seeds = warm_seed_configs(&collective_features(), &s);
        assert!(!seeds.is_empty() && seeds.len() <= 2);
        assert_eq!(seeds[0].gene(ParamId::CollectiveIo), 1);
        assert_ne!(
            seeds[0].gene(ParamId::CbBufferSize),
            s.default_config().gene(ParamId::CbBufferSize)
        );
        assert_ne!(
            seeds[0],
            s.default_config(),
            "seed must differ from default"
        );
        let read_seeds = warm_seed_configs(&small_random_read_features(), &s);
        assert_eq!(read_seeds[0].gene(ParamId::CollectiveIo), 0);
        assert_ne!(
            read_seeds[0].gene(ParamId::ChunkCache),
            s.default_config().gene(ParamId::ChunkCache)
        );
        assert_ne!(
            read_seeds[0].gene(ParamId::SieveBufSize),
            s.default_config().gene(ParamId::SieveBufSize)
        );
        // Every gene is inside its domain.
        for seed in seeds.iter().chain(&read_seeds) {
            for p in ParamId::ALL {
                assert!(seed.gene(p) < s.cardinality(p));
            }
        }
    }

    #[test]
    fn from_features_agent_picks_ranked_subsets() {
        let s = space();
        let mut agent = SmartConfigAgent::from_features(
            &collective_features(),
            &s,
            ClusterSpec::cori_4node(),
            7,
        );
        for it in 1..=5 {
            let subset = agent.next_subset(it, 1e9, &s);
            assert!(!subset.is_empty() && subset.len() <= 12);
            agent.feedback(&subset, 1e9);
        }
    }
}

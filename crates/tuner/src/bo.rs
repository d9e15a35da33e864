//! Asynchronous Bayesian optimization with a neural surrogate.
//!
//! Dorier et al. (PAPERS.md, "HPC Storage Service Autotuning Using
//! VAE-Guided Asynchronous Bayesian Optimization") show asynchronous BO
//! beating evolutionary search on storage-parameter spaces of exactly
//! this shape. This backend reproduces the core loop with the
//! workspace's own pieces:
//!
//! * **Surrogate** — an ensemble of small `tunio-nn` networks mapping
//!   the normalized 12-gene vector to a z-scored perf prediction. The
//!   ensemble's spread is the uncertainty estimate (a cheap stand-in
//!   for a GP posterior, which the container has no library for).
//! * **Acquisition** — expected improvement over the incumbent, scored
//!   on a candidate pool mixing local mutations of the best
//!   configuration with global redraws of the active subset.
//! * **Asynchrony** — `propose` never waits: before the warmup budget
//!   is observed it streams quasi-random exploration, afterwards each
//!   proposal maximizes EI under whatever observations have committed
//!   so far. Keys already proposed-but-unobserved are excluded from the
//!   pool, so parallel slots spread out instead of piling onto the
//!   current EI peak.
//!
//! Determinism: proposals depend only on the constructor arguments and
//! the committed observation sequence. The surrogate refits at fixed
//! observation counts, every RNG draw comes from the snapshotted
//! xoshiro stream, and the full state (networks included) serializes
//! through [`SearchStrategy::snapshot`]. A refit first draws every
//! ensemble member's initial weights from that stream, member by member
//! in ensemble order, and only then trains them. `Network::fit` draws
//! nothing and each member trains on its own weights with its own
//! thread's scratch, so the members can train concurrently (see
//! [`BoStrategy::with_fit_threads`]) and still come out bit-identical
//! to a serial refit, whatever the thread count.

use crate::strategy::{
    check_genes, rng_from_state_vec, rng_state_vec, sanitize, subset_from_indices,
    subset_to_indices, SearchStrategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tunio_nn::{Activation, Network, Optimizer};
use tunio_params::{Configuration, ParamId, ParameterSpace};
use tunio_trace as trace;

/// Hyperparameters for [`BoStrategy`].
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Evaluation budget.
    pub max_evals: usize,
    /// Observations gathered (quasi-randomly) before the surrogate is
    /// trusted.
    pub warmup: usize,
    /// Candidate-pool size per acquisition.
    pub candidates: usize,
    /// Networks in the uncertainty ensemble.
    pub ensemble: usize,
    /// Training epochs per refit.
    pub epochs: usize,
    /// Refit the surrogate every this many new observations.
    pub refit_every: usize,
    /// EI exploration bonus (xi).
    pub xi: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BoConfig {
    /// Defaults scaled to an evaluation budget and evaluator batch width.
    pub fn for_budget(max_evals: usize, batch: usize, seed: u64) -> Self {
        BoConfig {
            max_evals,
            warmup: (2 * batch.max(1)).clamp(4, max_evals.max(1)),
            candidates: 48,
            ensemble: 3,
            epochs: 60,
            refit_every: batch.max(2),
            xi: 0.01,
            seed,
        }
    }
}

/// Serialized [`BoStrategy`] state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BoState {
    rng: Vec<u64>,
    subset: Vec<usize>,
    xs: Vec<Vec<usize>>,
    ys: Vec<f64>,
    open: Vec<Vec<usize>>,
    proposed: usize,
    best_genes: Vec<usize>,
    best_perf: Option<f64>,
    trained_at: usize,
    nets: Vec<Network>,
}

/// Asynchronous Bayesian optimizer (see module docs).
#[derive(Debug)]
pub struct BoStrategy {
    cfg: BoConfig,
    space: ParameterSpace,
    rng: StdRng,
    subset: Vec<ParamId>,
    /// Observed genomes, in commit order.
    xs: Vec<Vec<usize>>,
    /// Sanitized perf per observed genome.
    ys: Vec<f64>,
    /// Proposed-but-unobserved keys (excluded from acquisition).
    open: Vec<Vec<usize>>,
    proposed: usize,
    best: Configuration,
    best_perf: Option<f64>,
    /// Observation count at the last surrogate refit.
    trained_at: usize,
    nets: Vec<Network>,
    /// Threads a refit may train ensemble members on, the calling
    /// thread included. Not snapshotted: outputs do not depend on it.
    fit_threads: usize,
}

impl BoStrategy {
    /// Build a BO strategy over `space`.
    pub fn new(cfg: BoConfig, space: ParameterSpace) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let best = space.default_config();
        BoStrategy {
            cfg,
            space,
            rng,
            subset: ParamId::ALL.to_vec(),
            xs: Vec::new(),
            ys: Vec::new(),
            open: Vec::new(),
            proposed: 0,
            best,
            best_perf: None,
            trained_at: 0,
            nets: Vec::new(),
            fit_threads: 1,
        }
    }

    /// Train the ensemble members of each refit on up to `threads`
    /// threads (at most one per member; the calling thread is one of
    /// them, so 1 spawns nothing). The networks, and so every proposal
    /// and snapshot, are bit-identical for every value.
    pub fn with_fit_threads(mut self, threads: usize) -> Self {
        self.fit_threads = threads.max(1);
        self
    }

    /// Normalized feature vector: gene index scaled to [0, 1] per
    /// parameter (constant genes outside the subset are harmless).
    fn features(&self, genes: &[usize]) -> Vec<f64> {
        ParamId::ALL
            .iter()
            .map(|&p| {
                let card = self.space.cardinality(p);
                genes[p.index()] as f64 / (card - 1).max(1) as f64
            })
            .collect()
    }

    fn target_stats(&self) -> (f64, f64) {
        let n = self.ys.len().max(1) as f64;
        let mean = self.ys.iter().sum::<f64>() / n;
        let var = self.ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt().max(1e-9))
    }

    fn maybe_refit(&mut self) {
        let due = self.nets.is_empty() || self.ys.len() >= self.trained_at + self.cfg.refit_every;
        if self.ys.len() < self.cfg.warmup.max(2) || !due {
            return;
        }
        let _span = trace::span(
            "surrogate.fit",
            vec![
                ("observations", self.ys.len().into()),
                ("ensemble", self.cfg.ensemble.into()),
            ],
        );
        let (mean, std) = self.target_stats();
        let xs: Vec<Vec<f64>> = self.xs.iter().map(|g| self.features(g)).collect();
        let ys: Vec<Vec<f64>> = self.ys.iter().map(|y| vec![(y - mean) / std]).collect();
        let dim = ParamId::ALL.len();
        let mut nets: Vec<Network> = (0..self.cfg.ensemble)
            .map(|_| {
                Network::new(
                    &[dim, 16, 8, 1],
                    &[Activation::Tanh, Activation::Tanh, Activation::Linear],
                    Optimizer::Adam { lr: 0.01 },
                    &mut self.rng,
                )
            })
            .collect();
        fit_all(&mut nets, &xs, &ys, self.cfg.epochs, self.fit_threads);
        self.nets = nets;
        self.trained_at = self.ys.len();
    }

    /// Ensemble prediction: (mean, spread) in z-scored target units.
    fn predict(&self, genes: &[usize]) -> (f64, f64) {
        let x = self.features(genes);
        let preds: Vec<f64> = self.nets.iter().map(|n| n.forward(&x)[0]).collect();
        let n = preds.len().max(1) as f64;
        let mu = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mu).powi(2)).sum::<f64>() / n;
        (mu, var.sqrt().max(1e-6))
    }

    /// Expected improvement of a candidate over the incumbent, both in
    /// z-scored units.
    fn expected_improvement(&self, genes: &[usize], incumbent_z: f64) -> f64 {
        let (mu, sigma) = self.predict(genes);
        let z = (mu - incumbent_z - self.cfg.xi) / sigma;
        sigma * (z * normal_cdf(z) + normal_pdf(z))
    }

    /// Draw one exploration candidate: subset genes redrawn from the
    /// incumbent (used during warmup and as the global half of the
    /// acquisition pool).
    fn explore(&mut self) -> Configuration {
        let mut candidate = self.best.clone();
        for &p in &self.subset.clone() {
            candidate.set_gene(p, self.space.random_value(p, &mut self.rng));
        }
        candidate
    }

    /// Local candidate: 1–2 subset genes of the incumbent perturbed.
    fn perturb(&mut self) -> Configuration {
        let mut candidate = self.best.clone();
        let flips = 1 + self.rng.gen_range(0..2usize.min(self.subset.len()));
        for _ in 0..flips {
            let p = self.subset[self.rng.gen_range(0..self.subset.len())];
            candidate.set_gene(p, self.space.random_value(p, &mut self.rng));
        }
        candidate
    }

    fn acquire(&mut self) -> Configuration {
        let (mean, std) = self.target_stats();
        let incumbent_z = (self.best_perf.unwrap_or(0.0) - mean) / std;
        let mut best_candidate: Option<(f64, Configuration)> = None;
        let mut produced = 0usize;
        let mut attempts = 0usize;
        let budget = self.cfg.candidates * 4;
        while produced < self.cfg.candidates && attempts < budget {
            attempts += 1;
            let candidate = if attempts.is_multiple_of(2) {
                self.explore()
            } else {
                self.perturb()
            };
            let key = candidate.genes();
            // Skip keys already evaluated or currently in flight: EI of
            // a known point is wasted budget, and duplicating an open
            // proposal piles parallel slots onto one peak.
            if self.open.iter().any(|k| k == key) || self.xs.iter().any(|k| k == key) {
                continue;
            }
            produced += 1;
            let ei = self.expected_improvement(candidate.genes(), incumbent_z);
            let better = best_candidate
                .as_ref()
                .map(|(b, _)| ei > *b)
                .unwrap_or(true);
            if better {
                best_candidate = Some((ei, candidate));
            }
        }
        match best_candidate {
            Some((_, c)) => c,
            // Space exhausted around the incumbent: fall back to a raw
            // redraw (a duplicate is harmless — the scheduler aliases it).
            None => self.explore(),
        }
    }
}

impl SearchStrategy for BoStrategy {
    fn name(&self) -> &'static str {
        "bo"
    }

    fn set_subset(&mut self, subset: &[ParamId]) {
        if !subset.is_empty() {
            self.subset = subset.to_vec();
        }
    }

    fn warm_start(&mut self, seeds: &[Configuration]) {
        // The first seed becomes the incumbent the warmup exploration
        // and local perturbations are anchored on. Ignored once the
        // search has produced or observed anything (including after a
        // checkpoint restore), so resumed streams are unaffected.
        if let Some(seed) = seeds.first() {
            if self.best_perf.is_none() && self.proposed == 0 {
                self.best = seed.clone();
            }
        }
    }

    fn propose(&mut self, max: usize) -> Vec<Configuration> {
        let n = max.min(self.cfg.max_evals.saturating_sub(self.proposed));
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let candidate = if self.ys.len() < self.cfg.warmup {
                self.explore()
            } else {
                self.maybe_refit();
                self.acquire()
            };
            self.open.push(candidate.genes().to_vec());
            self.proposed += 1;
            out.push(candidate);
        }
        out
    }

    fn observe(&mut self, config: &Configuration, perf: f64, _cost_s: f64) {
        let perf = sanitize(perf);
        let key = config.genes();
        if let Some(pos) = self.open.iter().position(|k| k == key) {
            self.open.remove(pos);
        }
        self.xs.push(key.to_vec());
        self.ys.push(perf);
        if self.best_perf.map(|b| perf > b).unwrap_or(true) {
            self.best_perf = Some(perf);
            self.best = config.clone();
        }
    }

    fn is_done(&self) -> bool {
        self.proposed >= self.cfg.max_evals
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    fn snapshot(&self) -> String {
        let state = BoState {
            rng: rng_state_vec(&self.rng),
            subset: subset_to_indices(&self.subset),
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            open: self.open.clone(),
            proposed: self.proposed,
            best_genes: self.best.genes().to_vec(),
            best_perf: self.best_perf,
            trained_at: self.trained_at,
            nets: self.nets.clone(),
        };
        serde_json::to_string(&state).expect("BO state serializes")
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let state: BoState = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        if state.xs.len() != state.ys.len() {
            return Err("xs/ys length mismatch".into());
        }
        let rng = rng_from_state_vec(&state.rng)?;
        let subset = subset_from_indices(&state.subset)?;
        check_genes(&self.space, &state.best_genes).map_err(|e| format!("best_genes: {e}"))?;
        for genes in &state.xs {
            check_genes(&self.space, genes).map_err(|e| format!("xs: {e}"))?;
        }
        let dim = ParamId::ALL.len();
        for (i, net) in state.nets.iter().enumerate() {
            net.check_shape()
                .map_err(|e| format!("surrogate {i}: {e}"))?;
            if net.input_dim() != dim || net.output_dim() != 1 {
                return Err(format!(
                    "surrogate {i}: maps {} inputs to {} outputs, want {dim} to 1",
                    net.input_dim(),
                    net.output_dim()
                ));
            }
        }
        self.subset = subset;
        self.rng = rng;
        self.xs = state.xs;
        self.ys = state.ys;
        self.open = state.open;
        self.proposed = state.proposed;
        self.best = Configuration::new(state.best_genes);
        self.best_perf = state.best_perf;
        self.trained_at = state.trained_at;
        self.nets = state.nets;
        Ok(())
    }
}

/// Train every network on `(xs, ys)` for `epochs`, on up to `threads`
/// threads: the networks are cut, in order, into runs of
/// `ceil(len / threads)`, and the calling thread trains the first run.
/// Workers open no spans, so a trace does not depend on `threads`
/// either.
fn fit_all(nets: &mut [Network], xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, threads: usize) {
    let per = nets.len().div_ceil(threads).max(1);
    let mut runs = nets.chunks_mut(per);
    let own = runs.next().unwrap_or_default();
    std::thread::scope(|s| {
        for run in runs {
            s.spawn(move || {
                for net in run {
                    net.fit(xs, ys, epochs);
                }
            });
        }
        for net in own {
            net.fit(xs, ys, epochs);
        }
    });
}

/// Standard normal density.
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7 — far below surrogate noise).
fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParameterSpace {
        ParameterSpace::tunio_default()
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(5.0) > 0.9999);
    }

    #[test]
    fn bo_streams_without_observations() {
        // Asynchrony: the warmup stream must flow with zero observes.
        let mut bo = BoStrategy::new(BoConfig::for_budget(12, 4, 5), space());
        let out = bo.propose(12);
        assert_eq!(out.len(), 12);
        assert!(bo.is_done());
    }

    #[test]
    fn bo_acquisition_avoids_open_and_seen_keys() {
        let mut bo = BoStrategy::new(BoConfig::for_budget(40, 2, 9), space());
        let mut seen: Vec<Vec<usize>> = Vec::new();
        // Warm up past the surrogate threshold, then check post-warmup
        // proposals avoid duplicates.
        for _ in 0..6 {
            for c in bo.propose(2) {
                bo.observe(&c, 1.0 + (c.genes()[0] as f64), 0.1);
                seen.push(c.genes().to_vec());
            }
        }
        let batch = bo.propose(4);
        assert_eq!(batch.len(), 4);
        for c in &batch {
            assert!(
                !seen.contains(&c.genes().to_vec()),
                "proposed an already-observed key"
            );
        }
        // The batch itself must not contain duplicates (open-key
        // exclusion between slots of one parallel batch).
        let mut keys: Vec<_> = batch.iter().map(|c| c.genes().to_vec()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), batch.len());
    }

    #[test]
    fn bo_surrogate_steers_toward_better_region() {
        // Reward = normalized first gene; after training, acquisition
        // should propose high first-gene values more often than chance.
        let sp = space();
        let card0 = sp.cardinality(ParamId::ALL[0]);
        let mut bo = BoStrategy::new(
            BoConfig {
                warmup: 8,
                candidates: 32,
                ..BoConfig::for_budget(200, 4, 13)
            },
            sp,
        );
        for _ in 0..24 {
            for c in bo.propose(4) {
                let perf = c.genes()[0] as f64 / (card0 - 1) as f64;
                bo.observe(&c, perf, 0.1);
            }
        }
        let tail = bo.propose(8);
        let mean_gene: f64 = tail.iter().map(|c| c.genes()[0] as f64).sum::<f64>() / 8.0;
        assert!(
            mean_gene > (card0 - 1) as f64 * 0.5,
            "surrogate failed to steer: mean first gene {mean_gene}"
        );
    }

    #[test]
    fn bo_warm_start_anchors_the_incumbent() {
        let sp = space();
        let mut seed = sp.default_config();
        for p in ParamId::ALL {
            seed.set_gene(p, sp.cardinality(p) - 1);
        }
        let mut bo = BoStrategy::new(BoConfig::for_budget(12, 4, 5), sp.clone());
        bo.warm_start(std::slice::from_ref(&seed));
        assert_eq!(bo.best, seed);
        // Once proposals have started, seeds no longer apply.
        let mut started = BoStrategy::new(BoConfig::for_budget(12, 4, 5), sp.clone());
        let _ = started.propose(1);
        started.warm_start(std::slice::from_ref(&seed));
        assert_eq!(started.best, sp.default_config());
    }

    #[test]
    fn bo_refits_are_bit_identical_at_every_fit_thread_count() {
        // Ensembles of 1, 3 and 5 split evenly and unevenly over 1–4
        // threads; the run crosses seven refits (at 8, 12, …, 32
        // observations), and the snapshot holds the networks.
        let run = |ensemble: usize, threads: usize| {
            let cfg = BoConfig {
                ensemble,
                epochs: 8,
                ..BoConfig::for_budget(36, 4, 17)
            };
            let mut bo = BoStrategy::new(cfg, space()).with_fit_threads(threads);
            let mut snaps = Vec::new();
            while !bo.is_done() {
                for c in bo.propose(4) {
                    let perf = c
                        .genes()
                        .iter()
                        .enumerate()
                        .map(|(i, &g)| (i * g) as f64)
                        .sum();
                    bo.observe(&c, perf, 0.1);
                }
                snaps.push(bo.snapshot());
            }
            assert_eq!(bo.trained_at, 32, "ensemble {ensemble}: last refit");
            snaps
        };
        for ensemble in [1, 3, 5] {
            let serial = run(ensemble, 1);
            for threads in [2, 3, 4] {
                assert!(
                    serial == run(ensemble, threads),
                    "ensemble {ensemble}: {threads} fit threads diverged from 1"
                );
            }
        }
    }

    #[test]
    fn bo_snapshot_roundtrips_mid_campaign() {
        let sp = space();
        let mut a = BoStrategy::new(BoConfig::for_budget(30, 3, 21), sp.clone());
        for _ in 0..4 {
            for c in a.propose(3) {
                a.observe(&c, c.genes().iter().sum::<usize>() as f64, 0.2);
            }
        }
        let snap = a.snapshot();
        let mut b = BoStrategy::new(BoConfig::for_budget(30, 3, 21), sp);
        b.restore(&snap).expect("restore");
        for _ in 0..3 {
            let pa = a.propose(3);
            let pb = b.propose(3);
            assert_eq!(pa, pb, "restored stream diverged");
            for c in pa {
                let perf = c.genes().iter().sum::<usize>() as f64;
                a.observe(&c, perf, 0.2);
                b.observe(&c, perf, 0.2);
            }
        }
        assert_eq!(a.rng_state(), b.rng_state());
    }
}

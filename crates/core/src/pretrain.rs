//! A pretraining cache shared by every campaign of one process.
//!
//! Both TunIO agents are trained offline (§III-C sweep + PCA + picker
//! warm-up, §III-D log-curve RL), and that training is a pure function of
//! a few inputs:
//!
//! * the Early Stopping agent of `(max_iterations, seed)`;
//! * the Smart Configuration agent of `(seed, large_scale)` — the
//!   parameter space is always [`tunio_params::ParameterSpace::tunio_default`]
//!   and the cluster follows the scale.
//!
//! [`PretrainCache`] keeps one pristine agent per key and hands out
//! clones, so only the first campaign with a key pays for its training.
//! The entries hold no campaign or tenant data: a clone learns online
//! during its campaign, but those updates go to the clone (the replay
//! buffer is copy-on-write), never back into the cache. That is what
//! makes one cache safe to share across tenants.
//!
//! The cache has no size bound. An entry is a few small networks plus
//! one replay base: about 0.32 MB for a stop agent, 0.08 MB for a subset
//! agent.

use crate::early_stop::EarlyStopAgent;
use crate::smart_config::SmartConfigAgent;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tunio_trace as trace;
use tunio_trace::sync::lock;

/// Whether a pretrained agent came from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Cloned from an existing entry.
    Hit,
    /// Trained now, and inserted unless another caller got there first.
    Miss,
}

impl Lookup {
    /// The `cache` attribute of the `pretrain` span.
    pub fn label(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
        }
    }
}

/// Pristine pretrained agents keyed by their exact training inputs.
#[derive(Debug, Default)]
pub struct PretrainCache {
    stop: Mutex<HashMap<(u32, u64), EarlyStopAgent>>,
    subsets: Mutex<HashMap<(u64, bool), SmartConfigAgent>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PretrainCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Early Stopping agent `EarlyStopAgent::pretrained(max_iterations,
    /// seed)` returns, cloned from the cache when present.
    pub fn stop_agent(&self, max_iterations: u32, seed: u64) -> (EarlyStopAgent, Lookup) {
        self.get_or_train(&self.stop, (max_iterations, seed), || {
            EarlyStopAgent::pretrained(max_iterations, seed)
        })
    }

    /// The Smart Configuration agent for `(seed, large_scale)`. `train`
    /// must be the pretraining those inputs determine; it runs only on a
    /// miss.
    pub fn subset_agent(
        &self,
        seed: u64,
        large_scale: bool,
        train: impl FnOnce() -> SmartConfigAgent,
    ) -> (SmartConfigAgent, Lookup) {
        self.get_or_train(&self.subsets, (seed, large_scale), train)
    }

    /// Number of cached agents: `(stop, subsets)`.
    pub fn entries(&self) -> (usize, usize) {
        (lock(&self.stop).len(), lock(&self.subsets).len())
    }

    /// Lookups so far: `(hits, misses)`.
    pub fn lookups(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Clone the entry for `key`, or train one outside the lock and
    /// insert it; when two callers miss at once, the first insert wins
    /// (both trained the same agent). Also counted in the process-wide
    /// `tunio.serve.pretrain_hits` and `tunio.serve.pretrain_misses`
    /// metrics, since the daemon owns the cache.
    fn get_or_train<K: Eq + Hash, A: Clone>(
        &self,
        map: &Mutex<HashMap<K, A>>,
        key: K,
        train: impl FnOnce() -> A,
    ) -> (A, Lookup) {
        if let Some(agent) = lock(map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace::counter("tunio.serve.pretrain_hits").inc(1);
            return (agent.clone(), Lookup::Hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::counter("tunio.serve.pretrain_misses").inc(1);
        let trained = train();
        let agent = lock(map).entry(key).or_insert(trained).clone();
        (agent, Lookup::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hit_clones_the_pristine_agent() {
        let cache = PretrainCache::new();
        let (first, lookup) = cache.stop_agent(10, 3);
        assert_eq!(lookup, Lookup::Miss);
        let (second, lookup) = cache.stop_agent(10, 3);
        assert_eq!(lookup, Lookup::Hit);
        let fresh = EarlyStopAgent::pretrained(10, 3);
        assert_eq!(second.save_state().agent, fresh.save_state().agent);
        assert_eq!(first.save_state().agent, fresh.save_state().agent);
        assert_eq!(cache.stop_agent(11, 3).1, Lookup::Miss);
        assert_eq!(cache.entries(), (2, 0));
        assert_eq!(cache.lookups(), (1, 2));
    }

    #[test]
    fn online_learning_in_a_clone_leaves_the_entry_pristine() {
        let cache = PretrainCache::new();
        let (mut used, _) = cache.stop_agent(12, 5);
        used.begin_campaign();
        for t in 1..=12u32 {
            let perf = 1e9 * (1.0 + f64::from(t).ln());
            if used.decide(t, perf) {
                break;
            }
        }
        assert_ne!(
            used.save_state().agent,
            EarlyStopAgent::pretrained(12, 5).save_state().agent,
            "the campaign learned online"
        );
        let (again, lookup) = cache.stop_agent(12, 5);
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(
            again.save_state().agent,
            EarlyStopAgent::pretrained(12, 5).save_state().agent
        );
    }
}

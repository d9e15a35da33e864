//! NN contextual-bandit state observer.
//!
//! §III-C: "The agent uses a State Observer, created using a Neural
//! Network-based context bandit. The observer uses the inputs provided to
//! the RL agent to produce a state observation which represents a
//! relationship between the application and the tuning environment."
//!
//! Implementation: a small regression network is trained online to predict
//! the (normalized) perf from the raw context; its hidden-layer activations
//! are the learned state observation handed to the Subset Picker.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tunio_nn::{Activation, Network, Optimizer};

/// Contextual state observer.
#[derive(Debug, Clone)]
pub struct ContextObserver {
    /// Embedding network: context → hidden → predicted perf.
    embed: Network,
    /// Readout head dimension (the observation size).
    obs_dim: usize,
}

impl ContextObserver {
    /// Build an observer for `context_dim` inputs producing `obs_dim`
    /// observations.
    pub fn new(context_dim: usize, obs_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // context → observation (tanh) — trained through a linear head.
        let embed = Network::new(
            &[context_dim, obs_dim],
            &[Activation::Tanh],
            Optimizer::Adam { lr: 0.02 },
            &mut rng,
        );
        ContextObserver { embed, obs_dim }
    }

    /// Dimension of produced observations.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Produce the state observation for a context.
    pub fn observe(&self, context: &[f64]) -> Vec<f64> {
        self.embed.forward(context)
    }

    /// Online update: teach the observer that `context` was followed by
    /// normalized performance `norm_perf` (broadcast across observation
    /// dimensions, which shapes the embedding to be perf-sensitive).
    pub fn learn(&mut self, context: &[f64], norm_perf: f64) -> f64 {
        let target = vec![norm_perf.clamp(-1.0, 1.0); self.obs_dim];
        self.embed.train_step(context, &target)
    }

    /// Export the embedding weights as JSON.
    pub fn export_json(&self) -> String {
        serde_json::to_string(&self.embed).expect("network serializes")
    }

    /// Restore weights exported with [`Self::export_json`].
    pub fn import_json(&mut self, json: &str) -> Result<(), String> {
        let net: tunio_nn::Network = serde_json::from_str(json).map_err(|e| e.to_string())?;
        net.check_shape()?;
        if net.input_dim() != self.embed.input_dim() || net.output_dim() != self.obs_dim {
            return Err("observer shape mismatch".into());
        }
        self.embed = net;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_dimension() {
        let obs = ContextObserver::new(4, 6, 0);
        assert_eq!(obs.obs_dim(), 6);
        assert_eq!(obs.observe(&[0.0; 4]).len(), 6);
    }

    #[test]
    fn observations_bounded_by_tanh() {
        let obs = ContextObserver::new(3, 5, 1);
        for v in obs.observe(&[100.0, -50.0, 3.0]) {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn learning_separates_good_and_bad_contexts() {
        let mut obs = ContextObserver::new(2, 4, 2);
        // Context [1,0] is good (perf 0.9); [0,1] is bad (perf 0.1).
        for _ in 0..400 {
            obs.learn(&[1.0, 0.0], 0.9);
            obs.learn(&[0.0, 1.0], 0.1);
        }
        let good: f64 = obs.observe(&[1.0, 0.0]).iter().sum();
        let bad: f64 = obs.observe(&[0.0, 1.0]).iter().sum();
        assert!(good > bad, "good {good} should exceed bad {bad}");
    }

    #[test]
    fn learn_returns_decreasing_loss() {
        let mut obs = ContextObserver::new(2, 3, 3);
        let first = obs.learn(&[0.5, 0.5], 0.7);
        let mut last = first;
        for _ in 0..200 {
            last = obs.learn(&[0.5, 0.5], 0.7);
        }
        assert!(last < first, "loss should shrink: {last} vs {first}");
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn observer_weights_round_trip() {
        let mut a = ContextObserver::new(3, 4, 1);
        for _ in 0..50 {
            a.learn(&[0.2, 0.4, 0.6], 0.8);
        }
        let obs = a.observe(&[0.2, 0.4, 0.6]);
        let mut b = ContextObserver::new(3, 4, 99);
        assert_ne!(b.observe(&[0.2, 0.4, 0.6]), obs);
        b.import_json(&a.export_json()).unwrap();
        // JSON float round-trips can differ in the last ULP.
        for (x, y) in b.observe(&[0.2, 0.4, 0.6]).iter().zip(&obs) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        // Shape mismatch rejected, on either side.
        let mut c = ContextObserver::new(3, 5, 0);
        assert!(c.import_json(&a.export_json()).is_err());
        let mut d = ContextObserver::new(2, 4, 0);
        assert!(d.import_json(&a.export_json()).is_err());
    }
}

//! NN-based Q-learning agent with ε-greedy exploration and replay.

use crate::env::Env;
use crate::replay::{ReplayBuffer, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::LazyLock;
use tunio_nn::{Activation, Network, Optimizer};
use tunio_trace as trace;

/// Hyperparameters for [`QAgent`].
#[derive(Debug, Clone, Copy)]
pub struct QConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Initial exploration rate.
    pub epsilon_start: f64,
    /// Final exploration rate.
    pub epsilon_end: f64,
    /// Multiplicative ε decay per episode.
    pub epsilon_decay: f64,
    /// Learning rate of the Q-network.
    pub lr: f64,
    /// Hidden layer width.
    pub hidden: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size per learning step.
    pub batch: usize,
}

impl Default for QConfig {
    fn default() -> Self {
        QConfig {
            gamma: 0.95,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay: 0.97,
            lr: 0.01,
            hidden: 24,
            replay_capacity: 4096,
            batch: 16,
        }
    }
}

/// A Q-learning agent whose action-value function is a dense network
/// (the "NN-based Q-Learning function" of §III-C).
#[derive(Debug, Clone)]
pub struct QAgent {
    net: Network,
    n_actions: usize,
    cfg: QConfig,
    /// Current exploration rate.
    pub epsilon: f64,
    replay: ReplayBuffer,
    rng: StdRng,
}

impl QAgent {
    /// Create an agent for `state_dim`-dimensional states and `n_actions`
    /// discrete actions.
    pub fn new(state_dim: usize, n_actions: usize, cfg: QConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[state_dim, cfg.hidden, n_actions],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: cfg.lr },
            &mut rng,
        );
        QAgent {
            net,
            n_actions,
            cfg,
            epsilon: cfg.epsilon_start,
            replay: ReplayBuffer::new(cfg.replay_capacity),
            rng,
        }
    }

    /// Q-values for a state.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward(state)
    }

    /// Whether this agent's Q-network trains on `tunio-nn`'s fixed-shape
    /// kernel ([`Network::has_fixed_kernel`]).
    pub fn has_fixed_kernel(&self) -> bool {
        self.net.has_fixed_kernel()
    }

    /// Export the Q-network weights as JSON (for persisting pre-trained
    /// agents across processes). The format is a `[network, null]` pair;
    /// the second slot is kept so files written when it could hold a
    /// second estimator still read back.
    pub fn export_json(&self) -> String {
        serde_json::to_string(&(&self.net, None::<&Network>)).expect("network serializes")
    }

    /// Restore Q-network weights exported with [`Self::export_json`].
    /// Exploration state and replay contents are not persisted.
    pub fn import_json(&mut self, json: &str) -> Result<(), String> {
        let (net, _): (Network, Option<Network>) =
            serde_json::from_str(json).map_err(|e| e.to_string())?;
        net.check_shape()?;
        if net.input_dim() != self.net.input_dim() || net.output_dim() != self.net.output_dim() {
            return Err("network shape mismatch".into());
        }
        self.net = net;
        Ok(())
    }

    /// Greedy action (argmax Q). A tie goes to the highest index; a NaN
    /// Q-value (weights read from outside can overflow) is never picked,
    /// and if every value is NaN the action is 0.
    pub fn best_action(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action selection.
    pub fn act(&mut self, state: &[f64]) -> usize {
        if self.rng.gen_bool(self.epsilon.clamp(0.0, 1.0)) {
            self.rng.gen_range(0..self.n_actions)
        } else {
            self.best_action(state)
        }
    }

    /// Record a transition and learn from a replay minibatch.
    ///
    /// This is the per-step hot path (offline pre-training calls it on
    /// the order of 10⁵ times), so it only touches atomic metrics —
    /// never per-step trace events.
    pub fn observe(&mut self, t: Transition) {
        // Resolved once: a registry lookup takes a lock and builds a key.
        // `trace::reset_metrics` zeroes series in place, so the handles
        // stay live.
        static OBSERVATIONS: LazyLock<trace::Counter> =
            LazyLock::new(|| trace::counter("tunio.rl.observations"));
        static REWARD: LazyLock<trace::Histogram> =
            LazyLock::new(|| trace::histogram("tunio.rl.reward"));
        OBSERVATIONS.inc(1);
        REWARD.record(t.reward);
        self.replay.push(t);
        self.learn_batch();
    }

    /// One TD(0) learning sweep over a minibatch drawn from the replay
    /// buffer. Each transition is drawn, borrowed and learned from in
    /// turn, so the sweep allocates nothing; the draws are the same as
    /// sampling the whole minibatch first, since learning never touches
    /// the RNG. Each update takes the best next-state value from
    /// [`Network::max_output`] and runs the network once on the state for
    /// both the target and the gradient ([`Network::td_update`]).
    fn learn_batch(&mut self) {
        for _ in 0..self.cfg.batch {
            let Some(t) = self.replay.sample_one(&mut self.rng) else {
                return;
            };
            let future = if t.done || t.next_state.is_empty() {
                0.0
            } else {
                self.net.max_output(t.next_state)
            };
            self.net
                .td_update(t.state, t.action, t.reward + self.cfg.gamma * future);
        }
    }

    /// Decay ε at episode end.
    pub fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_end);
    }

    /// Train on `env` for `episodes` episodes of at most `max_steps`;
    /// returns the per-episode total rewards.
    pub fn train(&mut self, env: &mut dyn Env, episodes: usize, max_steps: usize) -> Vec<f64> {
        let mut returns = Vec::with_capacity(episodes);
        for _ in 0..episodes {
            let mut state = env.reset();
            let mut total = 0.0;
            for _ in 0..max_steps {
                let action = self.act(&state);
                let step = env.step(action);
                total += step.reward;
                self.observe(Transition {
                    state: state.clone(),
                    action,
                    reward: step.reward,
                    next_state: step.state.clone(),
                    done: step.done,
                });
                state = step.state;
                if step.done {
                    break;
                }
            }
            self.end_episode();
            returns.push(total);
        }
        // One event per train() call, not per step: a pre-training round
        // of 40 episodes × 50 steps collapses into a single record.
        if trace::enabled() {
            let mean = if returns.is_empty() {
                0.0
            } else {
                returns.iter().sum::<f64>() / returns.len() as f64
            };
            trace::event(
                "rl.train.round",
                vec![
                    ("episodes", episodes.into()),
                    ("mean_return", mean.into()),
                    ("epsilon", self.epsilon.into()),
                ],
            );
        }
        returns
    }

    /// Greedy rollout (no exploration, no learning); returns total reward.
    pub fn evaluate(&self, env: &mut dyn Env, max_steps: usize) -> f64 {
        let mut state = env.reset();
        let mut total = 0.0;
        for _ in 0..max_steps {
            let action = self.best_action(&state);
            let step = env.step(action);
            total += step.reward;
            state = step.state;
            if step.done {
                break;
            }
        }
        total
    }
}

/// The index of the largest non-NaN value, the last of equal ones (as
/// `max_by` keeps them); 0 if there is none.
fn argmax(q: &[f64]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in q.iter().enumerate() {
        if !v.is_nan() && best.is_none_or(|(_, b)| v >= b) {
            best = Some((i, v));
        }
    }
    best.map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;

    /// Two-armed bandit: action 1 pays 1.0, action 0 pays 0.1.
    struct Bandit;

    impl Env for Bandit {
        fn state_dim(&self) -> usize {
            1
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepResult {
            StepResult {
                state: vec![0.0],
                reward: if action == 1 { 1.0 } else { 0.1 },
                done: true,
            }
        }
    }

    /// Chain of length 3 where only repeatedly choosing action 0 reaches a
    /// terminal payoff — requires credit assignment through γ.
    struct Chain {
        pos: usize,
    }

    impl Env for Chain {
        fn state_dim(&self) -> usize {
            1
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepResult {
            if action == 1 {
                // bail out early with a small payoff
                return StepResult {
                    state: vec![self.pos as f64 / 3.0],
                    reward: 0.2,
                    done: true,
                };
            }
            self.pos += 1;
            if self.pos >= 3 {
                StepResult {
                    state: vec![1.0],
                    reward: 2.0,
                    done: true,
                }
            } else {
                StepResult {
                    state: vec![self.pos as f64 / 3.0],
                    reward: 0.0,
                    done: false,
                }
            }
        }
    }

    #[test]
    fn learns_bandit_optimum() {
        let mut agent = QAgent::new(1, 2, QConfig::default(), 42);
        agent.train(&mut Bandit, 150, 1);
        assert_eq!(agent.best_action(&[0.0]), 1);
    }

    #[test]
    fn learns_delayed_credit_in_chain() {
        let cfg = QConfig {
            epsilon_decay: 0.99,
            ..QConfig::default()
        };
        let mut agent = QAgent::new(1, 2, cfg, 7);
        agent.train(&mut Chain { pos: 0 }, 400, 10);
        let reward = agent.evaluate(&mut Chain { pos: 0 }, 10);
        assert!(reward > 1.5, "greedy return {reward}");
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = QAgent::new(1, 2, QConfig::default(), 0);
        for _ in 0..1000 {
            agent.end_episode();
        }
        assert!((agent.epsilon - 0.05).abs() < 1e-9);
    }

    #[test]
    fn q_values_have_action_arity() {
        let agent = QAgent::new(3, 4, QConfig::default(), 1);
        assert_eq!(agent.q_values(&[0.0, 0.0, 0.0]).len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = QAgent::new(1, 2, QConfig::default(), 99);
            agent.train(&mut Bandit, 30, 1);
            agent.q_values(&[0.0])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weights_round_trip_through_json() {
        // Train the exported agent so the round trip carries learned
        // weights, not just the seeded initialisation.
        let mut a = QAgent::new(1, 2, QConfig::default(), 7);
        let fresh = a.q_values(&[0.0]);
        a.train(&mut Bandit, 20, 1);
        let before = a.q_values(&[0.0]);
        assert_ne!(before, fresh, "training must move the weights");

        let json = a.export_json();
        assert!(
            json.ends_with(",null]"),
            "export keeps the [network, null] format"
        );
        let mut b = QAgent::new(1, 2, QConfig::default(), 999);
        assert_ne!(b.q_values(&[0.0]), before);
        b.import_json(&json).unwrap();
        assert_eq!(b.q_values(&[0.0]), before);
    }

    #[test]
    fn argmax_keeps_the_last_of_equal_values_and_skips_nan() {
        // What `max_by(partial_cmp)` picked on NaN-free values, ties
        // included.
        for q in [
            [0.5, 0.5, 0.1],
            [0.0, -0.0, -1.0],
            [1.0, 2.0, 2.0],
            [f64::NEG_INFINITY; 3],
        ] {
            let old = q
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(argmax(&q), old, "{q:?}");
        }
        assert_eq!(argmax(&[f64::NAN, 0.2, 0.1]), 1);
        assert_eq!(argmax(&[0.3, f64::NAN, 0.1]), 0);
        assert_eq!(argmax(&[f64::NAN; 3]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn import_rejects_shape_mismatch() {
        let a = QAgent::new(3, 2, QConfig::default(), 1);
        let mut b = QAgent::new(4, 2, QConfig::default(), 2);
        assert!(b.import_json(&a.export_json()).is_err());
        assert!(b.import_json("not json").is_err());
    }

    #[test]
    fn import_rejects_a_network_missing_a_weight() {
        let a = QAgent::new(3, 2, QConfig::default(), 1);
        let json = a.export_json();
        // Drop the first weight of the first layer: the dimensions still
        // match, but the weight matrix is one entry short.
        let start = json.find(r#""w":["#).unwrap() + r#""w":["#.len();
        let comma = start + json[start..].find(',').unwrap();
        let truncated = format!("{}{}", &json[..start], &json[comma + 1..]);
        let mut b = QAgent::new(3, 2, QConfig::default(), 2);
        let before = b.q_values(&[0.1, 0.2, 0.3]);
        let err = b.import_json(&truncated).unwrap_err();
        assert!(err.contains("w has 71 entries, want 72"), "{err}");
        assert_eq!(b.q_values(&[0.1, 0.2, 0.3]), before);
    }
}

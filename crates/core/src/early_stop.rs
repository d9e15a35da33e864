//! RL Early Stopping (§III-D).
//!
//! A Q-learning agent decides each generation whether the pipeline should
//! stop or continue. It is trained *offline* on synthetic log-shaped
//! tuning curves ([`tunio_rl::LogCurveEnv`]) — with randomized downward
//! shifts emulating briefly-wrong parameter choices — "until the average
//! reward of the agent begins to stagnate … indicated by 5% or less
//! increase across five iterations". Online it keeps learning from the
//! applications it sees, using the same 5-iteration reward delay.

use tunio_rl::logcurve::LogCurveEnv;
use tunio_rl::qlearn::QConfig;
use tunio_rl::replay::Transition;
use tunio_rl::{DelayedReward, QAgent};
use tunio_trace as trace;
use tunio_tuner::Stopper;

/// State dimension (mirrors [`LogCurveEnv`]'s observation).
const STATE_DIM: usize = 4;
/// Actions: 0 = continue, 1 = stop.
const CONTINUE: usize = 0;
const STOP: usize = 1;

/// The Early Stopping agent. Implements [`tunio_tuner::Stopper`].
///
/// Cloning is cheap: the replay buffer is copy-on-write, so a clone of a
/// pretrained agent shares its experience until one side learns more.
#[derive(Debug, Clone)]
pub struct EarlyStopAgent {
    agent: QAgent,
    /// Best-perf history of the campaign being supervised.
    history: Vec<f64>,
    /// Iteration budget of the campaign (normalizes the iteration input).
    pub max_iterations: u32,
    /// Never stop before this many iterations (the agent needs a trend).
    pub min_iterations: u32,
    /// Per-iteration cost as a fraction of total gain, matching training.
    step_cost: f64,
    /// Expected number of production executions (paper §VI: knowing the
    /// application will run many more times justifies longer tuning).
    expected_production_runs: Option<u64>,
    /// Reward-delay length in iterations (the paper uses 5).
    reward_delay: usize,
    delayed: DelayedReward,
    last: Option<(Vec<f64>, usize)>,
    /// Episodes used during offline pre-training (for reports).
    pub offline_episodes: u32,
}

impl EarlyStopAgent {
    /// Pre-train offline on generated log curves until the rolling average
    /// reward stagnates (≤5% improvement across five rounds of episodes).
    pub fn pretrained(max_iterations: u32, seed: u64) -> Self {
        Self::pretrained_with_delay(max_iterations, seed, 5)
    }

    /// Like [`Self::pretrained`] but with a custom reward delay (the
    /// paper fixes 5; the `abl05_reward_delay` experiment ablates it).
    pub fn pretrained_with_delay(max_iterations: u32, seed: u64, delay: usize) -> Self {
        let step_cost = 0.012;
        let mut env = LogCurveEnv::new(max_iterations, step_cost, seed ^ 0xc0ffee);
        let mut agent = QAgent::new(
            STATE_DIM,
            2,
            QConfig {
                epsilon_decay: 0.985,
                ..QConfig::default()
            },
            seed,
        );

        let round = 40; // episodes per measurement round
        let mut avg_rewards: Vec<f64> = Vec::new();
        let mut episodes = 0;
        for r in 0..60 {
            let returns = agent.train(&mut env, round, max_iterations as usize + 1);
            episodes += round as u32;
            let avg = returns.iter().sum::<f64>() / returns.len() as f64;
            avg_rewards.push(avg);
            // Give the policy time to leave the trivial always-continue
            // region before trusting the stagnation signal.
            if r >= 15 && stagnated(&avg_rewards) {
                break;
            }
        }

        EarlyStopAgent {
            agent,
            history: Vec::new(),
            max_iterations,
            min_iterations: 6,
            step_cost,
            expected_production_runs: None,
            reward_delay: delay,
            delayed: DelayedReward::new(delay),
            last: None,
            offline_episodes: episodes,
        }
    }

    /// Tell the agent how many production executions are expected (paper
    /// §VI future work: "include the expected number of production runs as
    /// input, to allow TunIO to continue tuning if the user knows that
    /// they expect to run the application long enough for the extra tuning
    /// to be worthwhile"). More expected runs lower the effective
    /// per-iteration cost, shifting the stop decision later.
    pub fn set_expected_production_runs(&mut self, runs: u64) {
        self.expected_production_runs = Some(runs);
    }

    /// The per-iteration cost the stop decision uses, discounted by the
    /// production-run expectation: the reference cost assumes ~1000
    /// production runs; an application that will run 100x more can afford
    /// proportionally (logarithmically) more tuning.
    fn effective_step_cost(&self) -> f64 {
        match self.expected_production_runs {
            None => self.step_cost,
            Some(runs) => {
                let scale = ((runs.max(1) as f64 / 1000.0).log10()).clamp(-1.0, 3.0);
                // 10x fewer runs → 1.6x cost; 1000x more runs → ~0.36x.
                self.step_cost * (1.0 - 0.28 * scale).clamp(0.15, 2.0)
            }
        }
    }

    /// Reset campaign-local state (history) for a fresh tuning run while
    /// keeping everything learned.
    pub fn begin_campaign(&mut self) {
        self.history.clear();
        self.delayed = DelayedReward::new(self.reward_delay);
        self.last = None;
    }

    /// The state observation from the campaign history: iteration scale,
    /// 1-step and 5-step marginal gains, and total gain — all normalized
    /// by the running gain estimate, mirroring offline training.
    fn state(&self) -> Vec<f64> {
        let t = self.history.len();
        let first = self.history.first().copied().unwrap_or(0.0);
        let at = |i: usize| self.history.get(i).copied().unwrap_or(first);
        let cur = at(t.saturating_sub(1));
        // Normalize by the gain observed so far — the same normalizer the
        // offline log-curve environment exposes.
        let gained = (cur - first).max(first * 0.05).max(1e-9);
        let recent = if t >= 2 {
            (cur - at(t - 2)) / gained
        } else {
            0.0
        };
        let window = if t >= 6 {
            (cur - at(t - 6)) / gained
        } else {
            (cur - first) / gained
        };
        let relative_gain = (cur - first) / first.max(1e-9);
        vec![
            t as f64 / self.max_iterations as f64,
            recent,
            window,
            relative_gain.min(8.0) / 8.0,
        ]
    }

    /// The Table-I `stop(current_iteration, best_perf)` decision, with
    /// online learning.
    pub fn decide(&mut self, _current_iteration: u32, best_perf: f64) -> bool {
        self.history.push(best_perf);
        let t = self.history.len() as u32;
        let state = self.state();

        // Online learning from the matured (5-iteration delayed) reward.
        if let Some((prev_state, prev_action)) = self.last.take() {
            let norm = {
                let first = self.history[0];
                let best = self
                    .history
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                (best - first).max(first * 0.1).max(1e-9)
            };
            let n = self.history.len();
            let marginal = if n >= 2 {
                (self.history[n - 1] - self.history[n - 2]) / norm
            } else {
                0.0
            };
            let reward = marginal - self.effective_step_cost();
            if let Some(matured) = self.delayed.push(Transition {
                state: prev_state,
                action: prev_action,
                reward,
                next_state: state.clone(),
                done: false,
            }) {
                trace::event(
                    "rl.reward",
                    vec![
                        ("stopper", "tunio-rl-early-stop".into()),
                        ("iteration", t.into()),
                        ("action", matured.action.into()),
                        ("reward", matured.reward.into()),
                    ],
                );
                self.agent.observe(matured);
            }
        }

        if t >= self.max_iterations {
            emit_decision(t, true, "budget-exhausted");
            return true;
        }
        if t < self.min_iterations {
            self.last = Some((state, CONTINUE));
            emit_decision(t, false, "warmup");
            return false;
        }
        // Guard rail: while a large share of all gain arrived within the
        // last five iterations, the curve is still climbing — do not even
        // consult the stop head (it was trained for the
        // diminishing-returns regime).
        let patience = 0.35 * (self.step_cost / self.effective_step_cost()).clamp(0.5, 3.0);
        if state[2] > patience.min(0.9) {
            self.last = Some((state, CONTINUE));
            emit_decision(t, false, "guard-rail");
            return false;
        }

        let action = self.agent.best_action(&state);
        self.last = Some((state, action));
        let verdict = action == STOP;
        emit_decision(t, verdict, "policy");
        verdict
    }
}

/// Emit the per-generation `stop.decision` trace event for the RL stopper,
/// tagging *which* internal branch produced the verdict (budget, warm-up,
/// guard rail, or the learned policy).
fn emit_decision(iteration: u32, stop: bool, basis: &'static str) {
    trace::event(
        "stop.decision",
        vec![
            ("stopper", "tunio-rl-early-stop".into()),
            ("iteration", iteration.into()),
            ("stop", stop.into()),
            ("basis", basis.into()),
        ],
    );
}

/// Serializable snapshot of an [`EarlyStopAgent`]'s learned policy.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct EarlyStopState {
    /// Q-network weights (JSON).
    pub agent: String,
    /// Campaign budget the agent was trained for.
    pub max_iterations: u32,
}

impl EarlyStopAgent {
    /// Snapshot the learned stop policy.
    pub fn save_state(&self) -> EarlyStopState {
        EarlyStopState {
            agent: self.agent.export_json(),
            max_iterations: self.max_iterations,
        }
    }

    /// Restore a snapshot taken with [`Self::save_state`].
    pub fn restore_state(&mut self, state: &EarlyStopState) -> Result<(), String> {
        self.agent.import_json(&state.agent)?;
        self.max_iterations = state.max_iterations;
        Ok(())
    }
}

/// Whether the average-reward series has stagnated: ≤5% improvement over
/// the last five entries (§III-D's offline-training stop criterion).
fn stagnated(avgs: &[f64]) -> bool {
    if avgs.len() < 6 {
        return false;
    }
    let now = avgs[avgs.len() - 1];
    let then = avgs[avgs.len() - 6];
    if then.abs() < 1e-12 {
        return false;
    }
    (now - then) / then.abs() <= 0.05
}

impl Stopper for EarlyStopAgent {
    fn should_stop(&mut self, iteration: u32, best_perf: f64) -> bool {
        self.decide(iteration, best_perf)
    }

    fn name(&self) -> &'static str {
        "tunio-rl-early-stop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_rl::LogCurve;

    fn curve_perf(t: u32) -> f64 {
        // Saturating log curve in "bytes/s".
        1e9 + 3e9 * ((1.0 + t as f64).ln() / 51f64.ln())
    }

    #[test]
    fn pretraining_stagnates_and_terminates() {
        let agent = EarlyStopAgent::pretrained(50, 1);
        assert!(agent.offline_episodes >= 240, "{}", agent.offline_episodes);
        assert!(agent.offline_episodes <= 2000);
    }

    /// The stop agent's Q-network keeps a shape `tunio-nn`'s fixed-shape
    /// kernel runs; on any other it would pretrain to the same bits, only
    /// slower.
    #[test]
    fn trains_on_the_fixed_shape_kernel() {
        assert!(EarlyStopAgent::pretrained(30, 1).agent.has_fixed_kernel());
    }

    #[test]
    fn stops_on_fully_saturated_curve_before_budget() {
        let mut agent = EarlyStopAgent::pretrained(50, 2);
        agent.begin_campaign();
        let mut stopped_at = None;
        for t in 1..=50 {
            // Saturate hard after iteration 20.
            let perf = curve_perf(t.min(20));
            if agent.should_stop(t, perf) {
                stopped_at = Some(t);
                break;
            }
        }
        let at = stopped_at.expect("must stop by the budget");
        assert!(at < 50, "stopped only at budget");
        assert!(at >= agent.min_iterations);
    }

    #[test]
    fn does_not_stop_during_strong_growth() {
        let mut agent = EarlyStopAgent::pretrained(50, 3);
        agent.begin_campaign();
        // Linear growth — marginal gain stays high throughout.
        for t in 1..=12 {
            let perf = 1e9 * t as f64;
            let stop = agent.should_stop(t, perf);
            if t < 10 {
                assert!(!stop, "stopped during growth at iteration {t}");
            }
        }
    }

    #[test]
    fn respects_hard_budget() {
        let mut agent = EarlyStopAgent::pretrained(10, 4);
        agent.begin_campaign();
        let mut stopped = false;
        for t in 1..=10 {
            if agent.should_stop(t, 1e9) {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "must stop at the budget at latest");
    }

    #[test]
    fn survives_transient_dips_better_than_plateau_heuristics() {
        // A curve with a plateau from iterations 8–14 then resumed growth;
        // the agent should usually push past it (the paper's Fig 10a
        // behaviour). We require it not to stop *within* the plateau's
        // first two iterations.
        let curve = LogCurve {
            start: 1.0,
            gain: 3.0,
            rate: 0.4,
            max_iters: 50,
            dips: vec![],
            delay: 0,
        };
        let mut agent = EarlyStopAgent::pretrained(50, 5);
        agent.begin_campaign();
        let mut stop_at = None;
        for t in 1..=50u32 {
            let perf = if (8..=14).contains(&t) {
                curve.perf(8) * 1e9
            } else {
                curve.perf(t) * 1e9
            };
            if agent.should_stop(t, perf) {
                stop_at = Some(t);
                break;
            }
        }
        if let Some(at) = stop_at {
            assert!(at > 9, "stopped immediately in the plateau at {at}");
        }
    }

    #[test]
    fn begin_campaign_resets_history() {
        let mut agent = EarlyStopAgent::pretrained(50, 6);
        agent.begin_campaign();
        for t in 1..=8 {
            let _ = agent.should_stop(t, curve_perf(t));
        }
        assert!(!agent.history.is_empty());
        agent.begin_campaign();
        assert!(agent.history.is_empty());
    }

    /// Restored weights can overflow to NaN Q-values; the decision must
    /// still come back (it used to panic in the argmax).
    #[test]
    fn nan_q_values_from_restored_weights_do_not_panic_a_decision() {
        let mut agent = EarlyStopAgent::pretrained(30, 1);
        let mut state = agent.save_state();
        // Hidden unit 0 weighs the 1-step and 5-step gains by 1e308.
        let start = state.agent.find(r#""w":["#).unwrap() + r#""w":["#.len();
        let end = start + state.agent[start..].find(']').unwrap();
        let mut w: Vec<&str> = state.agent[start..end].split(',').collect();
        w[1] = "1e308";
        w[2] = "1e308";
        state.agent = format!(
            "{}{}{}",
            &state.agent[..start],
            w.join(","),
            &state.agent[end..]
        );
        agent.restore_state(&state).unwrap();

        agent.begin_campaign();
        for (t, perf) in [1.0, 10.0, 5.0, 5.0, 5.0, 0.0].into_iter().enumerate() {
            agent.decide(t as u32 + 1, perf);
        }
        // At iteration 7 the 1-step gain is +20 and the 5-step gain -180
        // (normalised by 0.05), so unit 0 sums +inf and -inf.
        assert!(!agent.decide(7, 1.0), "NaN Q-values must mean continue");
        let q = agent.agent.q_values(&agent.state());
        assert!(q.iter().all(|v| v.is_nan()), "{q:?}");
    }

    #[test]
    fn stagnation_detector() {
        assert!(!stagnated(&[1.0, 1.1]));
        assert!(stagnated(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.01]));
        assert!(!stagnated(&[1.0, 1.2, 1.5, 1.9, 2.4, 3.0]));
    }
}

#[cfg(test)]
mod production_runs_tests {
    use super::*;

    fn plateau_stop_iteration(agent: &mut EarlyStopAgent) -> u32 {
        agent.begin_campaign();
        for t in 1..=50u32 {
            // Log growth until 12, then a hard plateau.
            let perf = 1e9 + 2e9 * ((1.0 + t.min(12) as f64).ln() / 13f64.ln());
            if agent.should_stop(t, perf) {
                return t;
            }
        }
        50
    }

    #[test]
    fn more_expected_runs_never_stop_earlier() {
        let mut few = EarlyStopAgent::pretrained(50, 8);
        few.set_expected_production_runs(10);
        let mut many = EarlyStopAgent::pretrained(50, 8);
        many.set_expected_production_runs(10_000_000);
        let few_stop = plateau_stop_iteration(&mut few);
        let many_stop = plateau_stop_iteration(&mut many);
        assert!(
            many_stop >= few_stop,
            "many-runs agent stopped earlier ({many_stop}) than few-runs ({few_stop})"
        );
    }

    #[test]
    fn effective_cost_decreases_with_expected_runs() {
        let mut a = EarlyStopAgent::pretrained(20, 9);
        let base = a.effective_step_cost();
        a.set_expected_production_runs(1000);
        let reference = a.effective_step_cost();
        assert!(
            (reference - base).abs() < 1e-12,
            "1000 runs is the reference point"
        );
        a.set_expected_production_runs(1_000_000);
        assert!(a.effective_step_cost() < reference);
        a.set_expected_production_runs(10);
        assert!(a.effective_step_cost() > reference);
    }
}

#[cfg(test)]
mod online_learning_tests {
    use super::*;

    #[test]
    fn online_updates_flow_after_the_delay_window() {
        let mut agent = EarlyStopAgent::pretrained(30, 12);
        agent.begin_campaign();
        // Feed 10 iterations; transitions mature after the 5-step delay,
        // exercising the observe() path without panicking and leaving the
        // delay queue partially filled.
        for t in 1..=10u32 {
            let perf = 1e9 * (1.0 + (t as f64).ln());
            let _ = agent.should_stop(t, perf);
        }
        assert_eq!(agent.history.len(), 10);
        // A fresh campaign clears the queue and history.
        agent.begin_campaign();
        assert!(agent.history.is_empty());
    }
}

//! Synthetic log-curve tuning emulator (offline Early-Stopping training).
//!
//! §III-D: "To train the agent offline, tuning is emulated using generated
//! log curves, as tuning performance follows a log curve … The log curves
//! generated for training include noise in the form of randomized shifts
//! down the curve to account for tuning cases where the wrong parameter is
//! chosen briefly before adjusting. … Each simulated application has a log
//! curve with different characteristics such as initial value, growth
//! rate, etc."

use crate::env::{Env, StepResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parametric tuning curve: best-so-far perf over iterations.
#[derive(Debug, Clone)]
pub struct LogCurve {
    /// Perf before tuning.
    pub start: f64,
    /// Total achievable gain.
    pub gain: f64,
    /// Growth rate (larger = saturates earlier).
    pub rate: f64,
    /// Iterations the campaign would run.
    pub max_iters: u32,
    /// Iterations at which a transient downward shift occurs (wrong
    /// parameter chosen briefly) and its depth.
    pub dips: Vec<(u32, f64)>,
    /// Iterations of flat search before gains begin (a GA needs several
    /// generations to assemble its first useful configuration).
    pub delay: u32,
}

impl LogCurve {
    /// Sample a curve with randomized characteristics.
    pub fn sample<R: Rng>(max_iters: u32, rng: &mut R) -> LogCurve {
        let n_dips = rng.gen_range(0..4);
        let dips = (0..n_dips)
            .map(|_| {
                (
                    rng.gen_range(1..max_iters.max(2)),
                    rng.gen_range(0.05..0.35),
                )
            })
            .collect();
        LogCurve {
            start: rng.gen_range(0.2..1.0),
            gain: rng.gen_range(0.5..4.0),
            rate: rng.gen_range(0.15..1.2),
            max_iters,
            dips,
            delay: rng.gen_range(0..(max_iters / 3).max(1)),
        }
    }

    /// Best-so-far perf at iteration `t` (monotone log growth with
    /// transient dips applied to the *instantaneous* value).
    pub fn perf(&self, t: u32) -> f64 {
        let tt = (t.min(self.max_iters).saturating_sub(self.delay)) as f64;
        let t_max = (self.max_iters.saturating_sub(self.delay)).max(1) as f64;
        let base =
            self.start + self.gain * ((1.0 + self.rate * tt).ln() / (1.0 + self.rate * t_max).ln());
        let dip: f64 = self
            .dips
            .iter()
            .filter(|(at, _)| *at == t)
            .map(|(_, d)| d)
            .sum();
        (base - dip * self.gain).max(self.start * 0.5)
    }

    /// Iteration after which marginal gain per iteration stays below
    /// `cost` — the ideal stopping point.
    pub fn ideal_stop(&self, cost: f64) -> u32 {
        for t in 1..=self.max_iters {
            let marginal = self.perf(t) - self.perf(t - 1);
            if marginal < cost * self.gain {
                return t;
            }
        }
        self.max_iters
    }
}

/// Environment wrapping sampled log curves.
///
/// Actions: 0 = continue tuning, 1 = stop. Continuing yields the
/// normalized marginal perf gain minus a per-iteration cost; stopping ends
/// the episode. An agent maximizing return therefore learns to stop when
/// returns diminish — the RoTI-balancing objective.
#[derive(Debug, Clone)]
pub struct LogCurveEnv {
    /// Per-iteration tuning cost, as a fraction of total gain.
    pub step_cost: f64,
    max_iters: u32,
    rng: StdRng,
    curve: LogCurve,
    t: u32,
}

impl LogCurveEnv {
    /// Create with the given episode length and per-iteration cost.
    pub fn new(max_iters: u32, step_cost: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let curve = LogCurve::sample(max_iters, &mut rng);
        LogCurveEnv {
            step_cost,
            max_iters,
            rng,
            curve,
            t: 0,
        }
    }

    /// The state exposed to the agent: §III-D "the inputs are perf gained
    /// in the respective iteration and the number of iterations" (plus a
    /// short trend window). Everything is normalized by the gain observed
    /// *so far* — the only normalizer also available to the online agent,
    /// which cannot know a curve's final gain in advance.
    fn state(&self) -> Vec<f64> {
        let t = self.t;
        let start = self.curve.perf(0);
        let gained = (self.curve.perf(t) - start).max(start * 0.05).max(1e-9);
        let recent = if t >= 1 {
            (self.curve.perf(t) - self.curve.perf(t - 1)) / gained
        } else {
            0.0
        };
        let window = if t >= 5 {
            (self.curve.perf(t) - self.curve.perf(t - 5)) / gained
        } else {
            (self.curve.perf(t) - start) / gained
        };
        let relative_gain = (self.curve.perf(t) - start) / start.max(1e-9);
        vec![
            t as f64 / self.max_iters as f64,
            recent,
            window,
            relative_gain.min(8.0) / 8.0,
        ]
    }
}

impl Env for LogCurveEnv {
    fn state_dim(&self) -> usize {
        4
    }

    fn n_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f64> {
        self.curve = LogCurve::sample(self.max_iters, &mut self.rng);
        self.t = 0;
        self.state()
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(action < 2, "actions are continue(0) / stop(1)");
        if action == 1 || self.t >= self.max_iters {
            return StepResult {
                state: self.state(),
                reward: 0.0,
                done: true,
            };
        }
        let before = self.curve.perf(self.t);
        self.t += 1;
        let after = self.curve.perf(self.t);
        let marginal = (after - before) / self.curve.gain.max(1e-9);
        StepResult {
            state: self.state(),
            reward: marginal - self.step_cost,
            done: self.t >= self.max_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qlearn::{QAgent, QConfig};

    #[test]
    fn curves_are_log_shaped() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = LogCurve {
            start: 0.5,
            gain: 2.0,
            rate: 0.5,
            max_iters: 50,
            dips: vec![],
            delay: 0,
        };
        let _ = &mut rng;
        // Monotone without dips, with decaying marginal gains.
        let early_gain = c.perf(5) - c.perf(0);
        let late_gain = c.perf(50) - c.perf(45);
        assert!(early_gain > 3.0 * late_gain);
        assert!(c.perf(50) <= c.start + c.gain + 1e-9);
    }

    #[test]
    fn dips_are_transient() {
        let c = LogCurve {
            start: 0.5,
            gain: 2.0,
            rate: 0.5,
            max_iters: 50,
            dips: vec![(10, 0.3)],
            delay: 0,
        };
        assert!(c.perf(10) < c.perf(9), "dip pulls perf down");
        assert!(c.perf(11) > c.perf(10), "recovery after dip");
    }

    #[test]
    fn ideal_stop_is_before_budget_for_saturating_curves() {
        let c = LogCurve {
            start: 0.5,
            gain: 2.0,
            rate: 1.0,
            max_iters: 50,
            dips: vec![],
            delay: 0,
        };
        let stop = c.ideal_stop(0.01);
        assert!(stop > 5 && stop < 50, "ideal stop {stop}");
    }

    #[test]
    fn env_episode_runs_and_ends() {
        let mut env = LogCurveEnv::new(20, 0.01, 3);
        let s = env.reset();
        assert_eq!(s.len(), 4);
        let mut steps = 0;
        loop {
            let r = env.step(0);
            steps += 1;
            if r.done {
                break;
            }
        }
        assert_eq!(steps, 20);
        // Stop action terminates immediately after reset.
        env.reset();
        assert!(env.step(1).done);
    }

    #[test]
    fn trained_agent_stops_later_than_never_and_earlier_than_budget() {
        // Smoke-train a Q-agent on the emulator and check it learns a
        // non-degenerate stopping policy on fresh curves.
        let mut env = LogCurveEnv::new(30, 0.015, 11);
        let mut agent = QAgent::new(4, 2, QConfig::default(), 3);
        agent.train(&mut env, 700, 31);

        let mut eval_env = LogCurveEnv::new(30, 0.015, 999);
        let mut stops = Vec::new();
        for _ in 0..20 {
            let mut state = eval_env.reset();
            let mut t = 0;
            loop {
                let a = agent.best_action(&state);
                if a == 1 || t >= 30 {
                    break;
                }
                let r = eval_env.step(a);
                state = r.state;
                t += 1;
                if r.done {
                    break;
                }
            }
            stops.push(t);
        }
        let mean_stop = stops.iter().sum::<usize>() as f64 / stops.len() as f64;
        assert!(
            mean_stop > 2.0 && mean_stop < 30.0,
            "degenerate stopping policy: mean stop {mean_stop}"
        );
    }
}

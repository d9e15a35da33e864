//! Property-based tests: replay buffer, delayed reward and log-curve
//! invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tunio_rl::logcurve::LogCurve;
use tunio_rl::replay::{ReplayBuffer, Transition};
use tunio_rl::DelayedReward;

/// The reference ring: a plain `Vec<Transition>` with the buffer's
/// historical push and sample rules.
#[derive(Clone)]
struct VecRing {
    items: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl VecRing {
    fn new(capacity: usize) -> Self {
        VecRing {
            items: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
        }
    }

    fn push(&mut self, t: Transition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<Transition> {
        if self.items.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|_| self.items[rng.gen_range(0..self.items.len())].clone())
            .collect()
    }
}

/// A ring under test paired with its reference.
#[derive(Clone)]
struct Pair(ReplayBuffer, VecRing);

impl Pair {
    fn push(&mut self, t: Transition) {
        self.0.push(t.clone());
        self.1.push(t);
    }

    fn agrees(&self, seed: u64, n: usize) -> Result<(), TestCaseError> {
        let stored: Vec<Transition> = self.0.iter().map(|t| t.to_transition()).collect();
        prop_assert_eq!(&stored, &self.1.items);
        let mut rng = StdRng::seed_from_u64(seed);
        let got: Vec<Transition> = (0..n)
            .map_while(|_| self.0.sample_one(&mut rng))
            .map(|t| t.to_transition())
            .collect();
        prop_assert_eq!(got, self.1.sample(n, &mut StdRng::seed_from_u64(seed)));
        Ok(())
    }
}

/// A transition with a two-element state and, when `has_next`, a
/// two-element next state.
fn shaped(value: f64, action: usize, done: bool, has_next: bool) -> Transition {
    Transition {
        state: vec![value, -value],
        action,
        reward: value * 0.5,
        next_state: if has_next {
            vec![value + 1.0, value - 1.0]
        } else {
            vec![]
        },
        done,
    }
}

fn transition(reward: f64) -> Transition {
    Transition {
        state: vec![reward],
        action: 0,
        reward,
        next_state: vec![],
        done: false,
    }
}

proptest! {
    #[test]
    fn replay_never_exceeds_capacity(
        capacity in 1usize..64,
        pushes in proptest::collection::vec(any::<f64>(), 0..200),
    ) {
        let mut buf = ReplayBuffer::new(capacity);
        for (i, r) in pushes.iter().enumerate() {
            buf.push(transition(*r));
            prop_assert!(buf.len() <= capacity);
            prop_assert_eq!(buf.len(), (i + 1).min(capacity));
        }
    }

    #[test]
    fn replay_sampling_returns_requested_count(
        capacity in 1usize..32,
        n_push in 1usize..64,
        n_sample in 0usize..64,
        seed in any::<u64>(),
    ) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..n_push {
            buf.push(transition(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn = (0..n_sample).map_while(|_| buf.sample_one(&mut rng)).count();
        prop_assert_eq!(drawn, n_sample);
    }

    #[test]
    fn copy_on_write_ring_matches_a_vec_ring(
        capacity in 1usize..12,
        ops in proptest::collection::vec(
            (0u8..6, -100.0f64..100.0, 0usize..5, any::<bool>(), 0u8..4),
            0..120,
        ),
    ) {
        // Op codes: 0-1 push to `a`, 2 push to `b`, 3 clone `a` into `b`,
        // 4 drop `b` (so `a` owns its base again), 5 sample and compare.
        let mut a = Pair(ReplayBuffer::new(capacity), VecRing::new(capacity));
        let mut b: Option<Pair> = None;
        for (step, (op, value, action, done, next)) in ops.into_iter().enumerate() {
            // Mostly transitions with a next state; some without.
            let t = shaped(value, action, done, next != 0);
            match op {
                0 | 1 => a.push(t),
                2 => match b.as_mut() {
                    Some(b) => b.push(t),
                    None => a.push(t),
                },
                3 => b = Some(a.clone()),
                4 => b = None,
                _ => {
                    a.agrees(step as u64, 7)?;
                    if let Some(b) = &b {
                        b.agrees(step as u64, 7)?;
                    }
                }
            }
            prop_assert_eq!(a.0.len(), a.1.items.len());
        }
        a.agrees(0, 16)?;
        if let Some(b) = &b {
            b.agrees(1, 16)?;
        }
    }

    #[test]
    fn delayed_reward_conserves_transitions(
        delay in 0usize..10,
        rewards in proptest::collection::vec(-1.0f64..1.0, 0..50),
    ) {
        let mut d = DelayedReward::new(delay);
        let mut released = 0;
        for r in &rewards {
            if d.push(transition(*r)).is_some() {
                released += 1;
            }
        }
        let flushed = d.flush();
        prop_assert_eq!(released + flushed.len(), rewards.len());
        prop_assert_eq!(d.pending_len(), 0);
    }

    #[test]
    fn matured_rewards_are_future_rewards(
        rewards in proptest::collection::vec(-10.0f64..10.0, 6..40),
    ) {
        let delay = 5;
        let mut d = DelayedReward::new(delay);
        for (i, r) in rewards.iter().enumerate() {
            if let Some(m) = d.push(transition(*r)) {
                // The matured transition was pushed `delay` steps ago and
                // carries the newest reward.
                let original_index = i - delay;
                prop_assert_eq!(m.state[0], rewards[original_index]);
                prop_assert_eq!(m.reward, rewards[i]);
            }
        }
    }

    #[test]
    fn log_curves_are_monotone_without_dips(
        start in 0.1f64..2.0,
        gain in 0.1f64..5.0,
        rate in 0.05f64..2.0,
        delay in 0u32..15,
    ) {
        let c = LogCurve { start, gain, rate, max_iters: 50, dips: vec![], delay };
        for t in 1..=50u32 {
            prop_assert!(
                c.perf(t) >= c.perf(t - 1) - 1e-12,
                "curve decreased at t={t}"
            );
        }
        // Bounded by start + gain.
        prop_assert!(c.perf(50) <= start + gain + 1e-9);
        // Flat during the delay window.
        if delay > 1 {
            prop_assert!((c.perf(delay - 1) - c.perf(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn ideal_stop_is_within_budget(
        start in 0.1f64..2.0,
        gain in 0.1f64..5.0,
        rate in 0.05f64..2.0,
        cost in 0.001f64..0.2,
    ) {
        let c = LogCurve { start, gain, rate, max_iters: 40, dips: vec![], delay: 0 };
        let stop = c.ideal_stop(cost);
        prop_assert!((1..=40).contains(&stop));
    }
}

//! Experience-replay buffer.
//!
//! Transitions are stored flat: one `f64` row per slot holding
//! `[reward, state…, next_state…]` at a fixed stride, plus one `u32` tag
//! per slot packing the action and the `done` / has-next flags. Buffers
//! whose next states are all empty (terminal-only learners such as the
//! subset picker) give the next state no room in the row.
//!
//! The buffer is copy-on-write, so cloning a fully trained agent is
//! cheap. The slots sit behind an [`Arc`]. While it is uniquely owned,
//! pushes write in place; a clone that shares it records its writes in
//! a small overlay instead, which folds into a fresh, unshared base once
//! it holds `capacity` slots. Reads see the overlay first. Either way
//! the buffer behaves exactly like a `Vec<Transition>` ring: the same
//! slot indices, the same eviction order, the same samples for the same
//! RNG.

use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// One stored transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f64>,
    /// Action taken.
    pub action: usize,
    /// Reward received (possibly delayed).
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
    /// Whether the episode ended at this transition.
    pub done: bool,
}

/// A sampled transition, borrowed from the buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRef<'a> {
    /// State before the action.
    pub state: &'a [f64],
    /// Action taken.
    pub action: usize,
    /// Reward received (possibly delayed).
    pub reward: f64,
    /// State after the action (empty when none was recorded).
    pub next_state: &'a [f64],
    /// Whether the episode ended at this transition.
    pub done: bool,
}

impl TransitionRef<'_> {
    /// An owned copy.
    pub fn to_transition(&self) -> Transition {
        Transition {
            state: self.state.to_vec(),
            action: self.action,
            reward: self.reward,
            next_state: self.next_state.to_vec(),
            done: self.done,
        }
    }
}

const DONE: u32 = 1 << 31;
const HAS_NEXT: u32 = 1 << 30;
const ACTION_MASK: u32 = HAS_NEXT - 1;

/// Row widths shared by every slot of one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    state: usize,
    next: usize,
}

impl Shape {
    fn stride(self) -> usize {
        1 + self.state + self.next
    }
}

/// Flat slot storage: `tags[i]` and `data[i * stride..(i + 1) * stride]`.
#[derive(Debug, Clone, Default)]
struct Slots {
    data: Vec<f64>,
    tags: Vec<u32>,
}

impl Slots {
    fn len(&self) -> usize {
        self.tags.len()
    }

    /// Write `t` into slot `i`, appending when `i == len()`.
    fn put(&mut self, i: usize, shape: Shape, t: &Transition) {
        let stride = shape.stride();
        let tag = t.action as u32
            | if t.done { DONE } else { 0 }
            | if t.next_state.is_empty() { 0 } else { HAS_NEXT };
        if i == self.len() {
            self.tags.push(tag);
            self.data.resize(self.data.len() + stride, 0.0);
        } else {
            self.tags[i] = tag;
        }
        let row = &mut self.data[i * stride..(i + 1) * stride];
        row[0] = t.reward;
        row[1..1 + shape.state].copy_from_slice(&t.state);
        let next = &mut row[1 + shape.state..];
        if t.next_state.is_empty() {
            next.fill(0.0);
        } else {
            next.copy_from_slice(&t.next_state);
        }
    }

    /// Append slot `i` of `from` (laid out as `old`) re-laid out as `new`.
    fn push_row(&mut self, from: &Slots, i: usize, old: Shape, new: Shape) {
        self.tags.push(from.tags[i]);
        let row = &from.data[i * old.stride()..(i + 1) * old.stride()];
        self.data.extend_from_slice(row);
        self.data.resize(self.data.len() + new.next - old.next, 0.0);
    }

    fn get(&self, i: usize, shape: Shape) -> TransitionRef<'_> {
        let stride = shape.stride();
        let row = &self.data[i * stride..(i + 1) * stride];
        let tag = self.tags[i];
        let next = if tag & HAS_NEXT != 0 {
            &row[1 + shape.state..]
        } else {
            &[]
        };
        TransitionRef {
            state: &row[1..1 + shape.state],
            action: (tag & ACTION_MASK) as usize,
            reward: row[0],
            next_state: next,
            done: tag & DONE != 0,
        }
    }
}

/// Fixed-capacity ring buffer of transitions with uniform sampling.
///
/// Every transition in one buffer shares one shape: the state length of
/// the first push, and a next state that is either empty or of one fixed
/// length. Pushing a differently shaped transition panics.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    base: Arc<Slots>,
    /// Writes made while `base` was shared: ring index → slot of `patch`.
    overlay: HashMap<usize, usize>,
    patch: Slots,
    shape: Option<Shape>,
    len: usize,
    capacity: usize,
    next: usize,
}

impl ReplayBuffer {
    /// Create a buffer holding up to `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            base: Arc::default(),
            overlay: HashMap::new(),
            patch: Slots::default(),
            shape: None,
            len: 0,
            capacity: capacity.max(1),
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        assert!(
            t.action <= ACTION_MASK as usize,
            "replay actions must fit in 30 bits"
        );
        let shape = self.admit(&t);
        if !self.overlay.is_empty() && Arc::get_mut(&mut self.base).is_some() {
            // The sharers are gone: fold the overlay into the base.
            self.rebase(shape, shape);
        }
        let i = if self.len < self.capacity {
            self.len += 1;
            self.len - 1
        } else {
            let i = self.next;
            self.next = (self.next + 1) % self.capacity;
            i
        };
        if let Some(base) = Arc::get_mut(&mut self.base) {
            base.put(i, shape, &t);
            return;
        }
        match self.overlay.get(&i) {
            Some(&slot) => self.patch.put(slot, shape, &t),
            None => {
                let slot = self.patch.len();
                self.patch.put(slot, shape, &t);
                self.overlay.insert(i, slot);
            }
        }
        if self.patch.len() >= self.capacity {
            self.rebase(shape, shape);
        }
    }

    /// Check `t` against the buffer's shape, fixing or widening it.
    fn admit(&mut self, t: &Transition) -> Shape {
        let want = Shape {
            state: t.state.len(),
            next: t.next_state.len(),
        };
        let shape = match self.shape {
            None => want,
            Some(have) if have.next == 0 && want.next > 0 && have.state == want.state => {
                // The first non-empty next state: give every row room.
                self.rebase(have, want);
                want
            }
            Some(have) => {
                assert!(
                    want.state == have.state && (want.next == 0 || want.next == have.next),
                    "replay transitions must share one shape: have {have:?}, got {want:?}"
                );
                have
            }
        };
        self.shape = Some(shape);
        shape
    }

    /// Replace the base with an unshared copy of every slot (overlay
    /// applied), laid out as `new`.
    fn rebase(&mut self, old: Shape, new: Shape) {
        let mut fresh = Slots {
            data: Vec::with_capacity(self.len * new.stride()),
            tags: Vec::with_capacity(self.len),
        };
        for i in 0..self.len {
            match self.overlay.get(&i) {
                Some(&slot) => fresh.push_row(&self.patch, slot, old, new),
                None => fresh.push_row(&self.base, i, old, new),
            }
        }
        self.base = Arc::new(fresh);
        self.overlay.clear();
        self.patch = Slots::default();
    }

    fn get(&self, i: usize) -> TransitionRef<'_> {
        let shape = self.shape.expect("a non-empty buffer has a shape");
        match self.overlay.get(&i) {
            Some(&slot) => self.patch.get(slot, shape),
            None => self.base.get(i, shape),
        }
    }

    /// Draw one transition uniformly (`None`, with no draw, when the
    /// buffer is empty).
    pub fn sample_one<R: Rng>(&self, rng: &mut R) -> Option<TransitionRef<'_>> {
        if self.is_empty() {
            return None;
        }
        Some(self.get(rng.gen_range(0..self.len)))
    }

    /// Every stored transition in slot order (the order a `Vec` ring
    /// would hold them in).
    pub fn iter(&self) -> impl Iterator<Item = TransitionRef<'_>> {
        (0..self.len).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: 0,
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn eviction_wraps_ring() {
        let mut b = ReplayBuffer::new(2);
        b.push(t(1.0));
        b.push(t(2.0));
        b.push(t(3.0)); // evicts 1.0
        assert_eq!(b.len(), 2);
        let rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert_eq!(rewards, vec![3.0, 2.0]);
    }

    #[test]
    fn sampling_respects_count() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert!((0..3).all(|_| b.sample_one(&mut rng).is_some()));
        let empty = ReplayBuffer::new(4);
        assert!(empty.sample_one(&mut rng).is_none());
    }

    #[test]
    fn a_clone_writes_to_its_overlay_only() {
        let mut a = ReplayBuffer::new(4);
        for i in 0..3 {
            a.push(t(i as f64));
        }
        let mut b = a.clone();
        b.push(t(10.0));
        b.push(t(11.0)); // evicts slot 0 in `b` only
        assert!(Arc::ptr_eq(&a.base, &b.base));
        assert_eq!(b.overlay.len(), 2);
        let a_rewards: Vec<f64> = a.iter().map(|x| x.reward).collect();
        let b_rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert_eq!(a_rewards, vec![0.0, 1.0, 2.0]);
        assert_eq!(b_rewards, vec![11.0, 1.0, 2.0, 10.0]);
        // With `a` gone, `b` owns the base again and folds in place.
        drop(a);
        b.push(t(12.0));
        assert!(b.overlay.is_empty());
        let b_rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert_eq!(b_rewards, vec![11.0, 12.0, 2.0, 10.0]);
    }

    #[test]
    fn empty_next_states_take_no_room_until_one_arrives() {
        let mut b = ReplayBuffer::new(8);
        let terminal = |r: f64| Transition {
            next_state: vec![],
            done: true,
            ..t(r)
        };
        b.push(terminal(1.0));
        b.push(terminal(2.0));
        assert_eq!(b.base.data.len(), 2 * 2);
        b.push(t(3.0));
        assert_eq!(b.base.data.len(), 3 * 3);
        let got: Vec<Transition> = b.iter().map(|x| x.to_transition()).collect();
        assert_eq!(got, vec![terminal(1.0), terminal(2.0), t(3.0)]);
    }

    #[test]
    #[should_panic(expected = "one shape")]
    fn mismatched_state_lengths_panic() {
        let mut b = ReplayBuffer::new(4);
        b.push(t(1.0));
        b.push(Transition {
            state: vec![1.0, 2.0],
            ..t(2.0)
        });
    }
}

//! Experience replay, the "innovative strategy" that made DQN trainable
//! on decoupled feedback (paper §IV).

use fathom_tensor::{Rng, Shape, Tensor};

/// One stored transition `(s, a, r, s', done)`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation before the action.
    pub state: Tensor,
    /// Discrete action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Observation after the action.
    pub next_state: Tensor,
    /// Whether the episode ended at this transition.
    pub done: bool,
}

/// A sampled minibatch, batched into training-ready tensors.
#[derive(Debug, Clone)]
pub struct ReplayBatch {
    /// States `[batch, ...obs]`.
    pub states: Tensor,
    /// Actions `[batch]` as `f32` indices.
    pub actions: Tensor,
    /// Rewards `[batch]`.
    pub rewards: Tensor,
    /// Next states `[batch, ...obs]`.
    pub next_states: Tensor,
    /// Episode-termination flags `[batch]` (1.0 when done).
    pub dones: Tensor,
}

/// Undo record for a bounded number of pushes; see
/// [`ReplayBuffer::mark`].
#[derive(Debug, Clone)]
pub struct ReplayMark {
    len: usize,
    cursor: usize,
    /// `(slot, transition, stamp)` for every slot an overwrite would
    /// destroy.
    saved: Vec<(usize, Transition, u64)>,
}

/// A bounded uniform-sampling replay buffer.
///
/// Every stored transition carries a **stamp**, unique among the
/// transitions this buffer has ever held: [`ReplayBuffer::push`] draws a
/// fresh one, [`ReplayBuffer::rollback`] puts an overwritten slot's old
/// stamp back with its transition, and [`ReplayBuffer::restore`] stamps
/// afresh. A slot whose stamp has not changed holds the same transition,
/// so a checkpoint writer can keep each slot's encoding until its stamp
/// moves.
///
/// # Examples
///
/// ```
/// use fathom_ale::{ReplayBuffer, Transition};
/// use fathom_tensor::{Rng, Tensor};
///
/// let mut buffer = ReplayBuffer::new(100);
/// buffer.push(Transition {
///     state: Tensor::zeros([1, 2]),
///     action: 1,
///     reward: 0.5,
///     next_state: Tensor::ones([1, 2]),
///     done: false,
/// });
/// let mut rng = Rng::seeded(0);
/// let batch = buffer.sample(4, &mut rng);
/// assert_eq!(batch.states.shape().dims(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<Transition>,
    /// One stamp per item, index for index.
    stamps: Vec<u64>,
    /// The stamp the next push takes.
    next_stamp: u64,
    cursor: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer { capacity, items: Vec::new(), stamps: Vec::new(), next_stamp: 0, cursor: 0 }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` while the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction cursor (next overwrite position once full).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The stored transitions in internal (ring) order, for checkpointing.
    pub fn items(&self) -> &[Transition] {
        &self.items
    }

    /// Each stored transition's stamp, index for index with
    /// [`ReplayBuffer::items`].
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Rebuilds a buffer from checkpointed parts; paired with
    /// [`ReplayBuffer::items`] and [`ReplayBuffer::cursor`] this restores
    /// the ring bitwise, eviction order included. The restored
    /// transitions get fresh stamps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `items.len() > capacity`, or the cursor
    /// is out of range.
    pub fn restore(capacity: usize, items: Vec<Transition>, cursor: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(items.len() <= capacity, "more items than capacity");
        assert!(cursor == 0 || cursor < capacity, "cursor out of range");
        let stamps = (0..items.len() as u64).collect();
        ReplayBuffer { capacity, next_stamp: items.len() as u64, items, stamps, cursor }
    }

    /// Records enough state to undo the next `max_pushes` pushes.
    ///
    /// A training step that fails mid-flight (guardrail trip, injected
    /// fault) must leave the buffer exactly as it found it, or a
    /// replayed step trains on duplicated experience and determinism is
    /// lost. The mark clones at most `max_pushes` transitions — only
    /// the ring slots an overwrite would destroy — never the whole
    /// buffer.
    pub fn mark(&self, max_pushes: usize) -> ReplayMark {
        let mut saved = Vec::new();
        // Pushes append until the ring fills; the remainder overwrite
        // slots starting at the cursor. Slots created by this step's own
        // appends need no saving — rollback truncates them away.
        let appends = self.capacity - self.items.len();
        if max_pushes > appends {
            let overwrites = (max_pushes - appends).min(self.capacity);
            for i in 0..overwrites {
                let idx = (self.cursor + i) % self.capacity;
                if idx < self.items.len() {
                    saved.push((idx, self.items[idx].clone(), self.stamps[idx]));
                }
            }
        }
        ReplayMark { len: self.items.len(), cursor: self.cursor, saved }
    }

    /// Undoes every push since `mark` was taken (at most the
    /// `max_pushes` the mark was sized for). Restored slots get their
    /// old stamps back; the stamps the undone pushes drew are not reused.
    pub fn rollback(&mut self, mark: ReplayMark) {
        self.items.truncate(mark.len);
        self.stamps.truncate(mark.len);
        self.cursor = mark.cursor;
        for (idx, t, stamp) in mark.saved {
            if idx < self.items.len() {
                self.items[idx] = t;
                self.stamps[idx] = stamp;
            }
        }
    }

    /// Inserts a transition, evicting the oldest once at capacity.
    pub fn push(&mut self, t: Transition) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if self.items.len() < self.capacity {
            self.items.push(t);
            self.stamps.push(stamp);
        } else {
            self.items[self.cursor] = t;
            self.stamps[self.cursor] = stamp;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Samples `batch` transitions uniformly with replacement and batches
    /// them. State tensors of shape `[1, ...]` are stacked along the
    /// leading axis.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample(&self, batch: usize, rng: &mut Rng) -> ReplayBatch {
        assert!(!self.items.is_empty(), "cannot sample an empty replay buffer");
        let obs_dims: Vec<usize> = self.items[0].state.shape().dims()[1..].to_vec();
        let obs_len: usize = obs_dims.iter().product();
        let mut states = Vec::with_capacity(batch * obs_len);
        let mut next_states = Vec::with_capacity(batch * obs_len);
        let mut actions = Vec::with_capacity(batch);
        let mut rewards = Vec::with_capacity(batch);
        let mut dones = Vec::with_capacity(batch);
        for _ in 0..batch {
            let t = &self.items[rng.below(self.items.len())];
            states.extend_from_slice(t.state.data());
            next_states.extend_from_slice(t.next_state.data());
            actions.push(t.action as f32);
            rewards.push(t.reward);
            dones.push(if t.done { 1.0 } else { 0.0 });
        }
        let mut batched_dims = vec![batch];
        batched_dims.extend(&obs_dims);
        let shape = Shape::new(batched_dims);
        ReplayBatch {
            states: Tensor::from_vec(states, shape.clone()),
            actions: Tensor::from_vec(actions, [batch]),
            rewards: Tensor::from_vec(rewards, [batch]),
            next_states: Tensor::from_vec(next_states, shape),
            dones: Tensor::from_vec(dones, [batch]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(marker: f32) -> Transition {
        Transition {
            state: Tensor::filled([1, 3], marker),
            action: marker as usize % 3,
            reward: marker,
            next_state: Tensor::filled([1, 3], marker + 0.5),
            done: (marker as usize).is_multiple_of(2),
        }
    }

    #[test]
    fn eviction_keeps_capacity() {
        let mut b = ReplayBuffer::new(5);
        for i in 0..12 {
            b.push(transition(i as f32));
        }
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn eviction_replaces_oldest() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..4 {
            b.push(transition(i as f32));
        }
        // Items now: {3, 1, 2} (0 evicted).
        let rewards: Vec<f32> = b.items.iter().map(|t| t.reward).collect();
        assert!(rewards.contains(&3.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sample_batches_shapes() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(transition(i as f32));
        }
        let mut rng = Rng::seeded(1);
        let batch = b.sample(6, &mut rng);
        assert_eq!(batch.states.shape().dims(), &[6, 3]);
        assert_eq!(batch.next_states.shape().dims(), &[6, 3]);
        assert_eq!(batch.actions.len(), 6);
        assert_eq!(batch.rewards.len(), 6);
        assert_eq!(batch.dones.len(), 6);
        // next_state marker is state marker + 0.5 throughout.
        for i in 0..6 {
            assert_eq!(batch.next_states.data()[i * 3] - batch.states.data()[i * 3], 0.5);
        }
    }

    #[test]
    fn sampling_covers_the_buffer() {
        let mut b = ReplayBuffer::new(4);
        for i in 0..4 {
            b.push(transition(i as f32));
        }
        let mut rng = Rng::seeded(2);
        let batch = b.sample(200, &mut rng);
        let mut seen = [false; 4];
        for i in 0..200 {
            seen[batch.rewards.data()[i] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform sampling missed an item");
    }

    #[test]
    #[should_panic(expected = "empty replay buffer")]
    fn sampling_empty_panics() {
        ReplayBuffer::new(3).sample(1, &mut Rng::seeded(0));
    }

    #[test]
    fn mark_and_rollback_undo_pushes_bitwise() {
        let t = |v: f32| Transition {
            state: Tensor::from_vec(vec![v; 4], [1, 4]),
            action: 0,
            reward: v,
            next_state: Tensor::from_vec(vec![v + 0.5; 4], [1, 4]),
            done: false,
        };
        // Stamps included: a restored slot gets its old stamp back.
        let snapshot = |b: &ReplayBuffer| {
            let rewards: Vec<u32> = b.items().iter().map(|x| x.reward.to_bits()).collect();
            (b.len(), b.cursor(), rewards, b.stamps().to_vec())
        };
        // Appends only, appends crossing the full boundary, and pure
        // ring overwrites (including cursor wrap-around).
        for prefill in [0usize, 3, 4, 6] {
            let mut b = ReplayBuffer::new(6);
            for i in 0..prefill {
                b.push(t(i as f32));
            }
            let before = snapshot(&b);
            let mark = b.mark(4);
            for i in 0..4 {
                b.push(t(100.0 + i as f32));
            }
            b.rollback(mark);
            assert_eq!(snapshot(&b), before, "prefill {prefill}");
        }
    }

    /// Every live transition's stamp differs from every other's.
    fn assert_stamps_unique(b: &ReplayBuffer) {
        let mut stamps = b.stamps().to_vec();
        assert_eq!(stamps.len(), b.len());
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), b.len(), "duplicate stamps in {:?}", b.stamps());
    }

    #[test]
    fn stamps_stay_unique_through_push_overwrite_rollback_and_restore() {
        let mut b = ReplayBuffer::new(5);
        let mut seen = Vec::new();
        // Appends, then overwrites wrapping the ring twice: every push
        // draws a stamp no slot has held before.
        for i in 0..13 {
            b.push(transition(i as f32));
            assert_stamps_unique(&b);
            let newest = b.stamps()[(b.cursor() + b.len() - 1) % b.len()];
            assert!(!seen.contains(&newest), "stamp {newest} reused");
            seen.push(newest);
        }
        // Pushes that are rolled back leave their stamps unused; the
        // next pushes draw fresh ones, not the rolled-back pushes' stamps.
        let mark = b.mark(3);
        for i in 0..3 {
            b.push(transition(50.0 + i as f32));
            seen.push(b.stamps()[(b.cursor() + b.len() - 1) % b.len()]);
        }
        b.rollback(mark);
        assert_stamps_unique(&b);
        b.push(transition(99.0));
        let replayed = b.stamps()[(b.cursor() + b.len() - 1) % b.len()];
        assert!(!seen.contains(&replayed), "stamp {replayed} reused after rollback");
        assert_stamps_unique(&b);
        // A restored buffer stamps its transitions afresh.
        let restored = ReplayBuffer::restore(5, b.items().to_vec(), b.cursor());
        assert_stamps_unique(&restored);
        let mut r = restored.clone();
        r.push(transition(7.0));
        assert_stamps_unique(&r);
    }
}

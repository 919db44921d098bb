//! Experience replay, the "innovative strategy" that made DQN trainable
//! on decoupled feedback (paper §IV).

use std::sync::Arc;

use fathom_tensor::{Rng, Shape, Tensor};

use crate::part::{self, Slot};

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
    /// `(index, slot)` for every slot an overwrite would destroy.
    saved: Vec<(usize, Slot)>,
}

/// A bounded uniform-sampling replay buffer.
///
/// Each transition is held once, as its encoded *part* (see
/// [`ReplayBuffer::part`]): the two observations in the 2-bit palette
/// form a rendered frame fits, about 7 KB each where the f32 stacks take
/// 113 KB. The part is also the transition's piece of a resume
/// checkpoint, so a snapshot shares it instead of encoding it. A sample
/// decodes the observations it draws straight into the batch, bit for
/// bit.
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
    slots: Vec<Slot>,
    cursor: usize,
    /// The last push's next state and its slot: a push whose state is
    /// that very tensor (the usual trajectory, `s'` becoming `s`) copies
    /// its encoding instead of encoding it again.
    last_next: Option<(Tensor, Slot)>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer { capacity, slots: Vec::new(), cursor: 0, last_next: None }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` while the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction cursor (next overwrite position once full).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The encoded transition in slot `i` of the ring: the state tensor,
    /// the action (`u64`), the reward (`f32`), the next-state tensor and
    /// the done flag (`u8`), little-endian. A tensor is its rank and
    /// dimensions (`u64` each), then tag 1, the palette size, the
    /// palette's f32 bit patterns in first-occurrence order and the 2-bit
    /// indices four to a byte when it holds at most four distinct
    /// values, or tag 0 and the raw f32s.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn part(&self, i: usize) -> &Arc<[u8]> {
        &self.slots[i].part
    }

    /// Every slot's part, in ring order, for checkpointing: with
    /// [`ReplayBuffer::capacity`] and [`ReplayBuffer::cursor`] they are
    /// what [`ReplayBuffer::import`] restores the ring from bitwise,
    /// eviction order included.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = &Arc<[u8]>> {
        self.slots.iter().map(|s| &s.part)
    }

    /// Rebuilds a buffer from `len` parts laid end to end in `blob` from
    /// offset `at` on, and returns it with the offset just past the last
    /// part. Each part is checked field by field; an error names the
    /// first fault (`"pipeline blob truncated: ..."`, `"implausible
    /// tensor rank ..."`, `"bad palette size ..."`, ...). A valid part is
    /// kept as its bytes, except one the encoder would not have written
    /// (pad bits set, a palette entry unused, repeated or out of
    /// first-use order, a raw tensor of at most four values, a done byte
    /// above 1), which is encoded afresh from the values it holds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `len > capacity`, or the cursor is out
    /// of range.
    pub fn import(
        capacity: usize,
        cursor: usize,
        len: usize,
        blob: &[u8],
        mut at: usize,
    ) -> Result<(Self, usize), String> {
        assert!(capacity > 0, "capacity must be positive");
        assert!(len <= capacity, "more items than capacity");
        assert!(cursor == 0 || cursor < capacity, "cursor out of range");
        let mut slots = Vec::with_capacity(len);
        for _ in 0..len {
            let (slot, end) = part::read_part(blob, at)?;
            slots.push(slot);
            at = end;
        }
        Ok((ReplayBuffer { capacity, slots, cursor, last_next: None }, at))
    }

    /// Checks what the parts encode, which [`ReplayBuffer::import`]
    /// leaves alone: every state and next state has dimensions `obs` and
    /// every action is below `actions`. The error names the first
    /// transition that does not.
    pub fn check(&self, obs: &[usize], actions: usize) -> Result<(), String> {
        for (i, slot) in self.slots.iter().enumerate() {
            for (what, bytes) in [("state", slot.state_bytes()), ("next state", slot.next_bytes())] {
                let (dims, _) = part::tensor_dims(bytes);
                if dims != obs {
                    return Err(format!("replay transition {i}: {what} has dims {dims:?}, expected {obs:?}"));
                }
            }
            if slot.action >= actions {
                return Err(format!("replay transition {i}: action {} out of range for {actions} actions", slot.action));
            }
        }
        Ok(())
    }

    /// Records enough state to undo the next `max_pushes` pushes.
    ///
    /// A training step that fails mid-flight (guardrail trip, injected
    /// fault) must leave the buffer exactly as it found it, or a
    /// replayed step trains on duplicated experience and determinism is
    /// lost. The mark shares at most `max_pushes` parts — only the ring
    /// slots an overwrite would destroy — never the whole buffer.
    pub fn mark(&self, max_pushes: usize) -> ReplayMark {
        let mut saved = Vec::new();
        // Pushes append until the ring fills; the remainder overwrite
        // slots starting at the cursor. Slots created by this step's own
        // appends need no saving — rollback truncates them away.
        let appends = self.capacity - self.slots.len();
        if max_pushes > appends {
            let overwrites = (max_pushes - appends).min(self.capacity);
            for i in 0..overwrites {
                let idx = (self.cursor + i) % self.capacity;
                if idx < self.slots.len() {
                    saved.push((idx, self.slots[idx].clone()));
                }
            }
        }
        ReplayMark { len: self.slots.len(), cursor: self.cursor, saved }
    }

    /// Undoes every push since `mark` was taken (at most the
    /// `max_pushes` the mark was sized for): the restored slots hold the
    /// very parts they held before.
    pub fn rollback(&mut self, mark: ReplayMark) {
        self.slots.truncate(mark.len);
        self.cursor = mark.cursor;
        for (idx, slot) in mark.saved {
            if idx < self.slots.len() {
                self.slots[idx] = slot;
            }
        }
    }

    /// Inserts a transition, evicting the oldest once at capacity. The
    /// transition is encoded here, once.
    pub fn push(&mut self, t: Transition) {
        let dims = t.state.shape().dims();
        let mut buf = Vec::with_capacity(2 * part::palette_len(dims) + 16);
        match &self.last_next {
            Some((prev, slot))
                if prev.shape() == t.state.shape() && prev.data().as_ptr() == t.state.data().as_ptr() =>
            {
                buf.extend_from_slice(slot.next_bytes());
            }
            _ => part::put_tensor(&mut buf, dims, t.state.data()),
        }
        let slot = Slot::finish(buf, t.action, t.reward, &t.next_state, t.done);
        self.last_next = Some((t.next_state, slot.clone()));
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            self.slots[self.cursor] = slot;
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
        assert!(!self.slots.is_empty(), "cannot sample an empty replay buffer");
        let (dims, _) = part::tensor_dims(self.slots[0].state_bytes());
        let obs_dims = &dims[1..];
        let obs_len: usize = obs_dims.iter().product();
        let mut states = Vec::with_capacity(batch * obs_len);
        let mut next_states = Vec::with_capacity(batch * obs_len);
        let mut actions = Vec::with_capacity(batch);
        let mut rewards = Vec::with_capacity(batch);
        let mut dones = Vec::with_capacity(batch);
        for _ in 0..batch {
            let slot = &self.slots[rng.below(self.slots.len())];
            part::decode_into(slot.state_bytes(), &mut states);
            part::decode_into(slot.next_bytes(), &mut next_states);
            actions.push(slot.action as f32);
            rewards.push(slot.reward);
            dones.push(if slot.done { 1.0 } else { 0.0 });
        }
        let mut batched_dims = vec![batch];
        batched_dims.extend(obs_dims);
        let shape = Shape::new(batched_dims);
        ReplayBatch {
            states: Tensor::from_vec(states, shape.clone()),
            actions: Tensor::from_vec(actions, [batch]),
            rewards: Tensor::from_vec(rewards, [batch]),
            next_states: Tensor::from_vec(next_states, shape),
            dones: Tensor::from_vec(dones, [batch]),
        }
    }

    /// Makes the random draws [`ReplayBuffer::sample`] would make for a
    /// `batch`, and nothing else: afterwards `rng` stands where the
    /// sample would have left it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn skip_sample(&self, batch: usize, rng: &mut Rng) {
        assert!(!self.slots.is_empty(), "cannot sample an empty replay buffer");
        for _ in 0..batch {
            rng.below(self.slots.len());
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
        let rewards: Vec<f32> = b.slots.iter().map(|s| s.reward).collect();
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
        // The parts included: a restored slot holds its old bytes.
        let snapshot = |b: &ReplayBuffer| {
            let parts: Vec<Vec<u8>> = b.parts().map(|p| p.to_vec()).collect();
            (b.len(), b.cursor(), parts)
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

    #[test]
    fn skip_sample_leaves_the_rng_where_sample_does() {
        let mut b = ReplayBuffer::new(7);
        for i in 0..5 {
            b.push(transition(i as f32));
        }
        for batch in [0, 1, 16] {
            let (mut sampled, mut skipped) = (Rng::seeded(3), Rng::seeded(3));
            b.sample(batch, &mut sampled);
            b.skip_sample(batch, &mut skipped);
            assert_eq!(skipped.state(), sampled.state(), "batch {batch}");
        }
    }

    #[test]
    fn a_game_transition_is_held_in_its_palette_form() {
        // Two palette-coded 84x84x4 observations (7,114 bytes each with a
        // four-entry palette) and 13 bytes of action, reward and done: a
        // regression to f32 storage would hold 225,792 bytes here.
        let mut env = crate::AleEnv::new(5);
        let mut b = ReplayBuffer::new(4);
        let mut state = env.observation();
        for action in [0, 1, 2] {
            let r = env.step(action);
            b.push(Transition {
                state: std::mem::replace(&mut state, r.observation.clone()),
                action,
                reward: r.reward,
                next_state: r.observation,
                done: r.done,
            });
        }
        for i in 0..b.len() {
            assert!(b.part(i).len() <= 2 * 7_120 + 13, "part {i} is {} bytes", b.part(i).len());
        }
        // The second push's state is the first push's next state: its
        // encoding was copied, and decodes to the same bits.
        let first = &b.slots[0];
        assert_eq!(b.slots[1].state_bytes(), first.next_bytes());
        let mut decoded = Vec::new();
        part::decode_into(b.slots[2].next_bytes(), &mut decoded);
        let want: Vec<u32> = state.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }
}

//! Property-based tests for the environment and replay buffer.

use fathom_ale::{AleEnv, CatchGame, ReplayBuffer, Transition};
use fathom_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// The pushed transitions as they are, in a plain ring with the
/// buffer's eviction order: the oracle for `sample`.
struct Mirror {
    capacity: usize,
    items: Vec<Transition>,
    cursor: usize,
}

impl Mirror {
    fn push(&mut self, t: Transition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.cursor] = t;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// The transition pushed last.
    fn newest(&self) -> Option<&Transition> {
        let len = self.items.len();
        (len > 0).then(|| &self.items[(self.cursor + len - 1) % len])
    }

    /// Every field of a `batch` sample, as bits, drawn from `rng`.
    fn sample(&self, batch: usize, rng: &mut Rng) -> [Vec<u32>; 5] {
        let mut out: [Vec<u32>; 5] = Default::default();
        for _ in 0..batch {
            let t = &self.items[rng.below(self.items.len())];
            out[0].extend(t.state.data().iter().map(|v| v.to_bits()));
            out[1].push((t.action as f32).to_bits());
            out[2].push(t.reward.to_bits());
            out[3].extend(t.next_state.data().iter().map(|v| v.to_bits()));
            out[4].push(if t.done { 1.0f32 } else { 0.0 }.to_bits());
        }
        out
    }
}

/// A sample's fields as bits, in [`Mirror::sample`]'s order.
fn sample_bits(b: &ReplayBuffer, batch: usize, rng: &mut Rng) -> [Vec<u32>; 5] {
    let s = b.sample(batch, rng);
    [s.states, s.actions, s.rewards, s.next_states, s.dones]
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
}

/// Values the generated observations draw from: both zeros, two NaN
/// payloads and enough others that a tensor can hold a fifth value.
const POOL: [u32; 7] = [0x0000_0000, 0x8000_0000, 0x3f19_999a, 0x3f80_0000, 0x7fc0_0001, 0xffc0_0000, 0x40f0_0000];

/// A `[1, width]` observation over `values` distinct pool entries (a
/// fifth or more keeps it raw), drawn from `rng`.
fn observation(width: usize, values: usize, rng: &mut Rng) -> Tensor {
    let start = rng.below(POOL.len());
    let data = (0..width).map(|_| f32::from_bits(POOL[(start + rng.below(values)) % POOL.len()])).collect();
    Tensor::from_vec(data, [1, width])
}

/// Pushes `pushes` generated transitions into a buffer and its mirror.
/// A transition usually starts from the previous one's next state, the
/// shared tensor a trajectory pushes.
fn push_both(b: &mut ReplayBuffer, m: &mut Mirror, width: usize, pushes: usize, rng: &mut Rng) {
    for _ in 0..pushes {
        let state = match m.newest() {
            Some(prev) if rng.chance(0.7) => prev.next_state.clone(),
            _ => observation(width, 1 + rng.below(6), rng),
        };
        let t = Transition {
            state,
            action: rng.below(3),
            reward: f32::from_bits(POOL[rng.below(POOL.len())]),
            next_state: observation(width, 1 + rng.below(6), rng),
            done: rng.chance(0.2),
        };
        b.push(t.clone());
        m.push(t);
    }
}

/// Fills a buffer and its mirror, checks a sample against the mirror bit
/// for bit, then marks, pushes `extra` more (across the ring's wrap when
/// the cursor is near its end), rolls back, and checks that every part
/// is back byte for byte and sampling still matches.
fn check_against_mirror(capacity: usize, width: usize, pushes: usize, extra: usize, batch: usize, seed: u64) {
    let mut rng = Rng::seeded(seed);
    let mut b = ReplayBuffer::new(capacity);
    let mut m = Mirror { capacity, items: Vec::new(), cursor: 0 };
    push_both(&mut b, &mut m, width, pushes, &mut rng);
    assert_eq!((b.len(), b.cursor()), (m.items.len(), m.cursor));
    let (mut r1, mut r2) = (Rng::seeded(seed ^ 1), Rng::seeded(seed ^ 1));
    assert_eq!(sample_bits(&b, batch, &mut r1), m.sample(batch, &mut r2));
    assert_eq!(r1.state(), r2.state());

    let parts: Vec<Vec<u8>> = b.parts().map(|p| p.to_vec()).collect();
    let cursor = b.cursor();
    let mark = b.mark(extra);
    let mut scratch = Mirror { capacity, items: m.items.clone(), cursor: m.cursor };
    push_both(&mut b, &mut scratch, width, extra, &mut rng);
    b.rollback(mark);
    assert_eq!(b.cursor(), cursor);
    assert_eq!(b.parts().map(|p| p.to_vec()).collect::<Vec<_>>(), parts);
    let (mut r1, mut r2) = (Rng::seeded(seed ^ 2), Rng::seeded(seed ^ 2));
    assert_eq!(sample_bits(&b, batch, &mut r1), m.sample(batch, &mut r2));
}

#[test]
fn samples_match_the_mirror_at_the_edges() {
    // Widths 1, 3, 5, 7 leave a partial index byte; width 1 is a
    // one-value palette; capacity 3 wraps twice over nine pushes and the
    // four-push mark crosses the wrap from cursor 0 and from cursor 2.
    for width in [1, 3, 4, 5, 7, 8] {
        for (pushes, extra) in [(9, 4), (8, 4), (2, 3)] {
            check_against_mirror(3, width, pushes, extra, 12, width as u64 * 31 + pushes as u64);
        }
    }
}

fn transition(tag: f32) -> Transition {
    Transition {
        state: Tensor::filled([1, 2], tag),
        action: (tag as usize) % 3,
        reward: tag,
        next_state: Tensor::filled([1, 2], tag + 0.25),
        done: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The buffer never exceeds capacity and always keeps the newest item.
    #[test]
    fn buffer_is_bounded_and_keeps_newest(capacity in 1usize..20, pushes in 1usize..60) {
        let mut b = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            b.push(transition(i as f32));
        }
        prop_assert_eq!(b.len(), pushes.min(capacity));
        // The most recent push must be sampleable.
        let mut rng = Rng::seeded(1);
        let batch = b.sample(200, &mut rng);
        let newest = (pushes - 1) as f32;
        prop_assert!(batch.rewards.data().contains(&newest));
    }

    /// Every sampled reward corresponds to something actually pushed and
    /// still retained (the last `capacity` pushes).
    #[test]
    fn samples_come_from_retained_items(
        capacity in 1usize..16,
        pushes in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mut b = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            b.push(transition(i as f32));
        }
        let oldest_retained = pushes.saturating_sub(capacity) as f32;
        let mut rng = Rng::seeded(seed);
        let batch = b.sample(32, &mut rng);
        for &r in batch.rewards.data() {
            prop_assert!(r >= oldest_retained && r < pushes as f32, "sampled evicted reward {r}");
        }
    }

    /// Batched tensors keep (state, action, reward, next_state) aligned.
    #[test]
    fn sample_rows_stay_aligned(seed in 0u64..1000) {
        let mut b = ReplayBuffer::new(32);
        for i in 0..32 {
            b.push(transition(i as f32));
        }
        let mut rng = Rng::seeded(seed);
        let batch = b.sample(16, &mut rng);
        for i in 0..16 {
            let tag = batch.rewards.data()[i];
            prop_assert_eq!(batch.states.data()[i * 2], tag);
            prop_assert_eq!(batch.next_states.data()[i * 2], tag + 0.25);
            prop_assert_eq!(batch.actions.data()[i], ((tag as usize) % 3) as f32);
        }
    }

    /// `sample` draws what a plain ring of the pushed transitions gives
    /// under the same seed, bit for bit (signed zeros, NaN payloads, raw
    /// tensors of five or more values, widths not divisible by four), and
    /// a rolled-back mark restores every part byte for byte.
    #[test]
    fn samples_match_a_plain_ring_and_rollback_restores_every_part(
        capacity in 1usize..8,
        width in 1usize..11,
        pushes in 1usize..30,
        extra in 1usize..6,
        batch in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        check_against_mirror(capacity, width, pushes, extra, batch, seed);
    }

    /// The game is fully deterministic under any action sequence.
    #[test]
    fn game_is_deterministic(
        seed in 0u64..10_000,
        actions in proptest::collection::vec(0usize..3, 1..80),
    ) {
        let mut a = CatchGame::new(seed);
        let mut b = CatchGame::new(seed);
        for &act in &actions {
            let (ta, tb) = (
                a.tick(fathom_ale::Action::from_index(act)),
                b.tick(fathom_ale::Action::from_index(act)),
            );
            prop_assert_eq!(ta, tb);
        }
        prop_assert_eq!(a.render(), b.render());
    }

    /// Rewards are only emitted at episode boundaries and are always ±1.
    #[test]
    fn rewards_only_at_episode_ends(
        seed in 0u64..10_000,
        actions in proptest::collection::vec(0usize..3, 1..120),
    ) {
        let mut env = AleEnv::new(seed);
        for &act in &actions {
            let r = env.step(act);
            if r.done {
                prop_assert!(r.reward == 1.0 || r.reward == -1.0);
            } else {
                prop_assert_eq!(r.reward, 0.0);
            }
        }
    }

    /// Observations are always valid [0,1] grayscale stacks.
    #[test]
    fn observations_stay_normalized(seed in 0u64..1000, steps in 1usize..60) {
        let mut env = AleEnv::new(seed);
        for i in 0..steps {
            let r = env.step(i % 3);
            prop_assert!(r.observation.min() >= 0.0);
            prop_assert!(r.observation.max() <= 1.0);
            prop_assert_eq!(r.observation.shape().dims(), &[1, 84, 84, 4]);
        }
    }
}

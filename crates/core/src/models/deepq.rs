//! `deepq` — deep Q-learning on Atari-style games (Mnih et al., NIPS DL
//! workshop 2013).
//!
//! A convolutional network maps raw 84x84 pixel stacks to action values;
//! the agent improves "as it receives in-game feedback, not by observing
//! perfect play" (paper §IV), using epsilon-greedy exploration, a frozen
//! target network, experience replay, and RMSProp — the optimizer whose
//! cost surfaces at high thread counts in the paper's Figure 6a.
//!
//! The Arcade Learning Environment is substituted by the deterministic
//! `fathom-ale` paddle game with identical observation/action/reward
//! contracts (see DESIGN.md).

use std::sync::Arc;

use fathom_ale::{AleEnv, EnvState, GameState, ReplayBuffer, Transition, FRAME_SIDE, STACK};
use fathom_dataflow::{ExecError, Graph, NodeId, Optimizer, Session, TrainHandles};
use fathom_nn::{Activation, Init, Params};
use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::{Rng, Tensor};

use crate::models::codec::{Dec, Enc};
use crate::models::common::build_session;
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, Mode, ModelScale, OutputPort, PortDomain, StepStats,
    TrainProbes, Workload, WorkloadMetadata,
};

struct Dims {
    batch: usize,
    conv_channels: [usize; 3],
    fc: usize,
    replay_capacity: usize,
    target_sync: u64,
    gamma: f32,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims {
            batch: 16,
            conv_channels: [8, 16, 16],
            fc: 64,
            replay_capacity: 2_000,
            target_sync: 25,
            gamma: 0.99,
        },
        ModelScale::Full => Dims {
            batch: 32,
            conv_channels: [32, 64, 64],
            fc: 512,
            replay_capacity: 100_000,
            target_sync: 1_000,
            gamma: 0.99,
        },
    }
}

/// Table II metadata for `deepq`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "deepq",
        year: 2013,
        reference: "Mnih et al., NIPS Deep Learning Workshop 2013",
        style: "Convolutional, Full",
        layers: 5,
        task: "Reinforcement",
        dataset: "Atari ALE",
        purpose: "Atari-playing neural network from DeepMind. Achieves \
                  superhuman performance on majority of Atari2600 games, \
                  without any preconceptions.",
    }
}

/// The shared weights of a Q-network (3 conv + 2 dense layers), applied
/// as separate towers for acting (batch 1) and learning (batch B).
struct QNetwork {
    conv_w: [NodeId; 3],
    conv_b: [NodeId; 3],
    fc_w: NodeId,
    fc_b: NodeId,
    out_w: NodeId,
    out_b: NodeId,
}

const CONV_SPECS: [(usize, Conv2dSpec); 3] = [
    (8, Conv2dSpec { stride: 4, pad: 0 }),
    (4, Conv2dSpec { stride: 2, pad: 0 }),
    (3, Conv2dSpec { stride: 1, pad: 0 }),
];

impl QNetwork {
    /// Creates the network's variables. When `params` is `Some`, the
    /// variables are registered as trainable (the online network); the
    /// target network passes `None`.
    fn new(
        g: &mut Graph,
        p: &mut Params,
        prefix: &str,
        d: &Dims,
        actions: usize,
        trainable: bool,
    ) -> Self {
        let mut make = |name: String, shape: Vec<usize>, init: Init| -> NodeId {
            if trainable {
                p.variable(g, name, shape, init)
            } else {
                let value = p.initial(&name, &shape.into(), init);
                g.variable(name, value)
            }
        };
        let mut in_ch = STACK;
        let mut conv_w = Vec::with_capacity(3);
        let mut conv_b = Vec::with_capacity(3);
        for (i, ((k, _), &oc)) in CONV_SPECS.iter().zip(&d.conv_channels).enumerate() {
            conv_w.push(make(format!("{prefix}/conv{i}/w"), vec![*k, *k, in_ch, oc], Init::He));
            conv_b.push(make(format!("{prefix}/conv{i}/b"), vec![oc], Init::Zeros));
            in_ch = oc;
        }
        let flat = Self::flat_features(d);
        QNetwork {
            conv_w: [conv_w[0], conv_w[1], conv_w[2]],
            conv_b: [conv_b[0], conv_b[1], conv_b[2]],
            fc_w: make(format!("{prefix}/fc/w"), vec![flat, d.fc], Init::He),
            fc_b: make(format!("{prefix}/fc/b"), vec![d.fc], Init::Zeros),
            out_w: make(format!("{prefix}/out/w"), vec![d.fc, actions], Init::Xavier),
            out_b: make(format!("{prefix}/out/b"), vec![actions], Init::Zeros),
        }
    }

    /// Spatial size after the three valid convolutions on 84x84 input.
    fn flat_features(d: &Dims) -> usize {
        let mut side = FRAME_SIDE;
        for (k, spec) in CONV_SPECS {
            side = spec.out_extent(side, k);
        }
        side * side * d.conv_channels[2]
    }

    /// Builds a Q-value tower `[batch, actions]` over `states`.
    fn apply(&self, g: &mut Graph, states: NodeId) -> NodeId {
        let mut x = states;
        for (i, &(_, spec)) in CONV_SPECS.iter().enumerate() {
            let conv = g.conv2d(x, self.conv_w[i], spec);
            let biased = g.add_op(conv, self.conv_b[i]);
            x = Activation::Relu.apply(g, biased);
        }
        let batch = g.shape(x).dim(0);
        let features = g.shape(x).num_elements() / batch;
        let flat = g.reshape(x, [batch, features]);
        let fc = g.matmul(flat, self.fc_w);
        let fc_b = g.add_op(fc, self.fc_b);
        let h = Activation::Relu.apply(g, fc_b);
        let out = g.matmul(h, self.out_w);
        g.add_op(out, self.out_b)
    }

    /// All variable ids, online-to-target sync order.
    fn variables(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        v.extend(self.conv_w);
        v.extend(self.conv_b);
        v.extend([self.fc_w, self.fc_b, self.out_w, self.out_b]);
        v
    }
}

/// The `deepq` workload (DQN agent on the ALE substrate).
pub struct Deepq {
    meta: WorkloadMetadata,
    mode: Mode,
    session: Session,
    env: AleEnv,
    replay: ReplayBuffer,
    rng: Rng,
    // Graph handles.
    act_state: NodeId,
    act_q: NodeId,
    batch_states: NodeId,
    batch_q: NodeId,
    batch_actions_onehot: NodeId,
    batch_targets: NodeId,
    loss: NodeId,
    target_next_q: NodeId,
    target_states: NodeId,
    train: Option<TrainHandles>,
    online_vars: Vec<NodeId>,
    target_vars: Vec<NodeId>,
    // Agent state.
    epsilon: f32,
    steps_done: u64,
    episode_rewards: Vec<f32>,
    d: Dims,
}

impl Deepq {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        Self::build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload with its variables drawn from, or adopted
    /// by, `p` (see [`crate::ModelKind::build_adopting`]).
    pub(crate) fn build_with(cfg: &BuildConfig, mut p: Params) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let env = AleEnv::new(cfg.seed ^ 0xA7A21);
        let actions = env.num_actions();
        let mut g = Graph::new();

        let online = QNetwork::new(&mut g, &mut p, "online", &d, actions, true);
        let target = QNetwork::new(&mut g, &mut p, "target", &d, actions, false);

        // Acting tower: single observation.
        let act_state = g.placeholder("act_state", [1, FRAME_SIDE, FRAME_SIDE, STACK]);
        let act_q = online.apply(&mut g, act_state);

        // Learning tower: replay minibatch.
        let batch_states = g.placeholder("states", [d.batch, FRAME_SIDE, FRAME_SIDE, STACK]);
        let q_values = online.apply(&mut g, batch_states); // [b, actions]
        let batch_actions_onehot = g.placeholder("actions_onehot", [d.batch, actions]);
        let selected = g.mul(q_values, batch_actions_onehot);
        let q_sa = g.sum_axis(selected, 1); // [b]
        let batch_targets = g.placeholder("targets", [d.batch]);
        let err = g.sub(q_sa, batch_targets);
        let sq = g.square(err);
        let loss = g.mean_all(sq);

        // Target tower: next-state values from the frozen network.
        let target_states = g.placeholder("next_states", [d.batch, FRAME_SIDE, FRAME_SIDE, STACK]);
        let target_next_q = target.apply(&mut g, target_states);

        let keep = vec![act_q, q_values, loss, target_next_q];
        let (session, train) = build_session(cfg, g, &p, loss, Optimizer::rms_prop(1e-3), keep);
        Deepq {
            meta: metadata(),
            mode: cfg.mode,
            session,
            env,
            replay: ReplayBuffer::new(d.replay_capacity),
            rng: Rng::seeded(cfg.seed ^ 0xE9),
            act_state,
            act_q,
            batch_states,
            batch_q: q_values,
            batch_actions_onehot,
            batch_targets,
            loss,
            target_next_q,
            target_states,
            train,
            online_vars: online.variables(),
            target_vars: target.variables(),
            epsilon: 1.0,
            steps_done: 0,
            episode_rewards: Vec::new(),
            d,
        }
    }

    /// Epsilon-greedy action for the current observation.
    fn select_action(&mut self, observation: &Tensor) -> Result<usize, ExecError> {
        if self.rng.chance(self.epsilon) {
            Ok(self.rng.below(self.env.num_actions()))
        } else {
            let q = self
                .session
                .run1(self.act_q, &[(self.act_state, observation.clone())])?;
            Ok(q.argmax_last_axis().data()[0] as usize)
        }
    }

    /// Copies every online variable into its target twin.
    fn sync_target(&mut self) {
        for (&src, &dst) in self.online_vars.clone().iter().zip(&self.target_vars.clone()) {
            let value = self
                .session
                .variable_value(src)
                .expect("online vars exist")
                .clone();
            self.session.assign(dst, value).expect("towers have equal shapes");
        }
    }

    /// Mean reward over the most recent completed episodes.
    pub fn recent_reward(&self) -> f32 {
        let window = self.episode_rewards.len().min(20);
        if window == 0 {
            return 0.0;
        }
        let tail = &self.episode_rewards[self.episode_rewards.len() - window..];
        tail.iter().sum::<f32>() / window as f32
    }

    /// Plays `frames` environment steps with the current policy, storing
    /// transitions. Returns accumulated reward.
    fn play(&mut self, frames: usize) -> Result<f32, ExecError> {
        let mut episode_reward = 0.0;
        let mut total = 0.0;
        // Each step's observation is the next step's state: built once,
        // and shared by the two transitions it belongs to.
        let mut state = self.env.observation();
        for _ in 0..frames {
            let action = self.select_action(&state)?;
            let result = self.env.step(action);
            total += result.reward;
            episode_reward += result.reward;
            self.replay.push(Transition {
                state: std::mem::replace(&mut state, result.observation.clone()),
                action,
                reward: result.reward,
                next_state: result.observation,
                done: result.done,
            });
            if result.done {
                self.episode_rewards.push(episode_reward);
                episode_reward = 0.0;
            }
        }
        Ok(total)
    }

    /// One gradient update from replay; returns `(TD loss, grad norm)`.
    fn learn(&mut self) -> Result<(f32, f32), ExecError> {
        let batch = self.replay.sample(self.d.batch, &mut self.rng);
        // Bootstrapped targets from the frozen network (computed with the
        // target tower; max over actions on the host).
        let next_q = self
            .session
            .run1(self.target_next_q, &[(self.target_states, batch.next_states.clone())])?;
        let actions = self.env.num_actions();
        let mut targets = Tensor::zeros([self.d.batch]);
        let mut onehot = Tensor::zeros([self.d.batch, actions]);
        for b in 0..self.d.batch {
            let row = &next_q.data()[b * actions..(b + 1) * actions];
            let max_next = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let done = batch.dones.data()[b] > 0.5;
            let y = batch.rewards.data()[b]
                + if done { 0.0 } else { self.d.gamma * max_next };
            targets.set(&[b], y);
            onehot.set(&[b, batch.actions.data()[b] as usize], 1.0);
        }
        let train = self.train.expect("training graph was built");
        let out = self.session.run(
            &[self.loss, train.grad_norm, train.step],
            &[
                (self.batch_states, batch.states),
                (self.batch_actions_onehot, onehot),
                (self.batch_targets, targets),
            ],
        )?;
        Ok((out[0].scalar_value(), out[1].scalar_value()))
    }
}

impl Workload for Deepq {
    fn metadata(&self) -> &WorkloadMetadata {
        &self.meta
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn try_step(&mut self) -> Result<StepStats, ExecError> {
        // A failed step rolls the agent back to where it started: action
        // RNG, exploration schedule, environment, episode log, and the
        // replay buffer (the mark undoes this step's pushes without
        // cloning the whole ring — a replayed step must not train on
        // duplicated experience).
        let replay_mark = self.replay.mark(4);
        let rng_before = self.rng.state();
        let epsilon_before = self.epsilon;
        let steps_before = self.steps_done;
        let env_before = self.env.save_state();
        let rewards_before = self.episode_rewards.len();
        let result = match self.mode {
            Mode::Training => {
                // Anneal exploration from 1.0 to 0.1 over the first ~100
                // steps (scaled-down DQN schedule).
                self.epsilon = (1.0 - self.steps_done as f32 * 0.009).max(0.1);
                self.play(4).and_then(|_| self.learn()).map(|(loss, grad_norm)| {
                    self.steps_done += 1;
                    if self.steps_done.is_multiple_of(self.d.target_sync) {
                        self.sync_target();
                    }
                    StepStats {
                        loss: Some(loss),
                        metric: Some(self.recent_reward()),
                        grad_norm: Some(grad_norm),
                    }
                })
            }
            Mode::Inference => {
                // Same environment-frame budget as a training step, so
                // train/inference times compare the way the paper's
                // Figure 5 does.
                self.epsilon = 0.05;
                self.play(4).map(|reward| StepStats {
                    loss: None,
                    metric: Some(reward),
                    grad_norm: None,
                })
            }
        };
        if result.is_err() {
            self.rng = Rng::from_state(rng_before);
            self.epsilon = epsilon_before;
            self.steps_done = steps_before;
            self.env.load_state(&env_before);
            self.episode_rewards.truncate(rewards_before);
            self.replay.rollback(replay_mark);
        }
        result
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn batch_spec(&self) -> Option<BatchSpec> {
        if self.mode != Mode::Inference {
            return None;
        }
        // Serve the learning tower (`states -> q_values`): the act tower
        // is pinned to batch 1 for the environment loop, but policy
        // evaluation over observation batches is the natural serving
        // shape for a DQN.
        Some(BatchSpec {
            inputs: vec![InputPort {
                node: self.batch_states,
                batch_axis: 0,
                domain: PortDomain::Real,
            }],
            output: OutputPort { node: self.batch_q, batch_axis: 0 },
            capacity: self.d.batch,
        })
    }

    fn train_probes(&self) -> Option<TrainProbes> {
        self.train.map(|h| TrainProbes { loss: self.loss, grad_norm: h.grad_norm })
    }

    fn pipeline_parts(&self) -> Vec<Arc<[u8]>> {
        let mut e = Enc::new(self.meta.name);
        e.rng(self.rng.state());
        e.f32(self.epsilon);
        e.u64(self.steps_done);
        e.f32s(&self.episode_rewards);
        // Environment: game physics + RNG, frame stack, episode tallies.
        let env = self.env.save_state();
        e.f32(env.game.ball_x);
        e.f32(env.game.ball_y);
        e.f32(env.game.drift);
        e.f32(env.game.paddle_x);
        e.u64(env.game.rng_state);
        for frame in &env.frames {
            e.f32s(frame);
        }
        e.f32(env.episode_reward);
        e.u64(env.episodes);
        // Replay buffer: each slot is already held as its part.
        e.u64(self.replay.capacity() as u64);
        e.u64(self.replay.cursor() as u64);
        e.u64(self.replay.len() as u64);
        let mut parts = Vec::with_capacity(1 + self.replay.len());
        parts.push(e.finish().into());
        parts.extend(self.replay.parts().cloned());
        parts
    }

    fn import_pipeline(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut d = Dec::new(self.meta.name, blob)?;
        let rng = d.rng()?;
        let epsilon = d.f32()?;
        let steps_done = d.u64()?;
        let episode_rewards = d.f32s()?;
        let game = GameState {
            ball_x: d.f32()?,
            ball_y: d.f32()?,
            drift: d.f32()?,
            paddle_x: d.f32()?,
            rng_state: d.u64()?,
        };
        let frames = [d.f32s()?, d.f32s()?, d.f32s()?, d.f32s()?];
        for frame in &frames {
            if frame.len() != FRAME_SIDE * FRAME_SIDE {
                return Err(format!(
                    "frame stack entry has {} pixels, expected {}",
                    frame.len(),
                    FRAME_SIDE * FRAME_SIDE
                ));
            }
        }
        let env = EnvState {
            game,
            frames,
            episode_reward: d.f32()?,
            episodes: d.u64()?,
        };
        let capacity = d.u64()? as usize;
        let cursor = d.u64()? as usize;
        let len = d.u64()? as usize;
        if capacity == 0 || capacity > (1 << 24) || len > capacity || cursor >= capacity.max(1) {
            return Err(format!(
                "implausible replay geometry: capacity {capacity}, len {len}, cursor {cursor}"
            ));
        }
        let replay = d.external(|blob, at| ReplayBuffer::import(capacity, cursor, len, blob, at))?;
        d.done()?;
        replay.check(&[1, FRAME_SIDE, FRAME_SIDE, STACK], self.env.num_actions())?;
        self.rng = Rng::from_state(rng);
        self.epsilon = epsilon;
        self.steps_done = steps_done;
        self.episode_rewards = episode_rewards;
        self.env.load_state(&env);
        self.replay = replay;
        Ok(())
    }

    fn skip_batch(&mut self) {
        // Burn one replay draw so the retried step samples a different
        // minibatch; the aborted step's transitions are already banked.
        if !self.replay.is_empty() {
            self.replay.skip_sample(self.d.batch, &mut self.rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::{Guardrail, OpKind};

    #[test]
    fn training_steps_run_and_sync() {
        let mut m = Deepq::build(&BuildConfig::training());
        for _ in 0..30 {
            let stats = m.step();
            assert!(stats.loss.unwrap().is_finite());
        }
        // After 30 steps (> target_sync = 25) the target net must match
        // the online net's first conv filter.
        let online = m.session.variable_value(m.online_vars[0]).unwrap().clone();
        let target = m.session.variable_value(m.target_vars[0]).unwrap().clone();
        assert_eq!(online.shape(), target.shape());
    }

    #[test]
    fn profile_contains_dqn_signature_ops() {
        // Figure 6a's deepq op mix: Conv2D and its two backprops, MatMul,
        // ApplyRMSProp.
        let mut m = Deepq::build(&BuildConfig::training());
        m.step(); // warm up replay
        m.session_mut().enable_tracing();
        m.step();
        let trace = m.session_mut().take_trace();
        for op in ["Conv2D", "Conv2DBackpropFilter", "Conv2DBackpropInput", "MatMul", "ApplyRMSProp"] {
            assert!(
                trace.events.iter().any(|e| e.op == op),
                "expected {op} in the deepq training profile"
            );
        }
    }

    #[test]
    fn inference_plays_the_game() {
        let mut m = Deepq::build(&BuildConfig::inference());
        let stats = m.step();
        assert!(stats.metric.is_some());
    }

    #[test]
    fn target_variables_are_not_trainable() {
        let m = Deepq::build(&BuildConfig::training());
        let g = m.session().graph();
        // Every online variable has exactly one Apply op, and no Apply op
        // touches a target variable.
        let updated: Vec<_> = g
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Apply(_)))
            .map(|(_, n)| n.inputs[0])
            .collect();
        assert!(!updated.is_empty(), "deepq training has no optimizer updates");
        assert_eq!(updated.len(), m.online_vars.len(), "one update per online variable");
        for var in updated {
            assert!(m.online_vars.contains(&var), "optimizer updates a non-online variable");
        }
    }

    /// A deepq whose replay ring holds six transitions, so a few steps
    /// fill and wrap it.
    fn small_ring(seed: u64) -> Deepq {
        let mut m = Deepq::build(&BuildConfig::training().with_seed(seed));
        m.replay = ReplayBuffer::new(6);
        m
    }

    #[test]
    fn repeated_exports_match_a_single_export_across_a_trip_and_an_import() {
        // `warm` exports every other step and its same-seed twin `cold`
        // once, at the end. Between them sit an import of a third
        // trajectory's young buffer, a tripped step whose rollback
        // restores overwritten slots of a full ring, and the ring's wrap.
        let mut warm = small_ring(41);
        let mut cold = small_ring(41);
        let mut other = small_ring(42);
        other.step();
        let foreign = other.export_pipeline();
        for m in [&mut warm, &mut cold] {
            m.session_mut().set_guardrail(Some(Guardrail::finite()));
        }
        for step in 0..7 {
            for (m, exports) in [(&mut warm, true), (&mut cold, false)] {
                if step == 1 {
                    m.import_pipeline(&foreign).unwrap();
                    if exports {
                        assert_eq!(m.export_pipeline(), foreign, "an import exports what it read");
                    }
                }
                if step == 4 {
                    // The ring is full: the failed step overwrote slots
                    // and its rollback restores them.
                    let loss = m.loss;
                    m.session_mut().poison_next_fetch(loss);
                    assert!(matches!(m.try_step(), Err(ExecError::GuardTripped(_))));
                }
                m.step();
                if exports && step % 2 == 0 {
                    m.export_pipeline();
                }
            }
        }
        assert_eq!(warm.export_pipeline(), cold.export_pipeline());
    }

    /// A deepq's pipeline blob after two steps (eight transitions in a
    /// six-slot ring) and the offsets of the first transition's state
    /// tensor fields: tag, palette size and first index byte.
    fn stepped_blob(seed: u64) -> (Vec<u8>, usize, usize, usize) {
        let mut m = small_ring(seed);
        m.step();
        m.step();
        let parts = m.pipeline_parts();
        // The header part, then the state's rank and four dims.
        let tag = parts[0].len() + 40;
        let count = tag + 1;
        let palette = parts.concat()[count] as usize;
        assert!((1..4).contains(&palette), "a frame holds {palette} values");
        (parts.concat(), tag, count, count + 1 + 4 * palette)
    }

    #[test]
    fn malformed_replay_parts_are_rejected_and_leave_the_workload_untouched() {
        let (blob, tag, count, packed) = stepped_blob(43);
        let edited = |at: usize, byte: u8| {
            let mut b = blob.clone();
            b[at] = byte;
            b
        };
        let cases = [
            (
                blob[..packed + 10].to_vec(),
                format!("pipeline blob truncated: wanted 7056 bytes at offset {packed}, have 10"),
            ),
            (
                blob[..blob.len() - 1].to_vec(),
                format!("pipeline blob truncated: wanted 1 bytes at offset {}, have 0", blob.len() - 1),
            ),
            (edited(tag, 7), "unknown tensor encoding tag 7".to_string()),
            (edited(count, 0), "bad palette size 0".to_string()),
            (edited(count, 5), "bad palette size 5".to_string()),
            (edited(packed, 0xFF), "palette index 3 out of range".to_string()),
        ];
        let mut m = small_ring(44);
        m.step();
        let before = m.export_pipeline();
        for (bad, want) in cases {
            assert_eq!(m.import_pipeline(&bad).unwrap_err(), want);
            assert_eq!(m.export_pipeline(), before, "a rejected import moved the workload ({want})");
        }
        m.import_pipeline(&blob).unwrap();
        assert_eq!(m.export_pipeline(), blob);
    }

    /// The pipeline blob of a small-ring deepq whose replay holds the
    /// four transitions one step played and then `extra`, transition 4.
    fn blob_with_replay(extra: Transition) -> Vec<u8> {
        let mut m = small_ring(47);
        m.step();
        m.replay.push(extra);
        m.pipeline_parts().concat()
    }

    /// Imports `bad` into a stepped deepq, expecting `want` as the error,
    /// and checks that the workload still exports and steps as before.
    fn assert_import_rejected(bad: &[u8], want: &str) {
        let mut m = small_ring(48);
        m.step();
        let before = m.export_pipeline();
        assert_eq!(m.import_pipeline(bad).unwrap_err(), want);
        assert_eq!(m.export_pipeline(), before, "a rejected import moved the workload");
        let mut twin = small_ring(48);
        twin.step();
        assert_eq!(m.step().loss, twin.step().loss, "a rejected import changed the next step");
    }

    #[test]
    fn replay_of_the_wrong_shape_is_rejected_before_a_step_can_sample_it() {
        let frame = |stack: usize| Tensor::zeros([1, FRAME_SIDE, FRAME_SIDE, stack]);
        let odd = Transition {
            state: Tensor::filled([1, 5], 1.0),
            action: 0,
            reward: 0.0,
            next_state: frame(STACK),
            done: false,
        };
        assert_import_rejected(
            &blob_with_replay(odd.clone()),
            "replay transition 4: state has dims [1, 5], expected [1, 84, 84, 4]",
        );
        assert_import_rejected(
            &blob_with_replay(Transition { state: frame(STACK), next_state: frame(3), ..odd }),
            "replay transition 4: next state has dims [1, 84, 84, 3], expected [1, 84, 84, 4]",
        );
    }

    #[test]
    fn replay_actions_out_of_range_are_rejected_instead_of_one_hot_into_the_next_row() {
        let actions = AleEnv::new(0).num_actions();
        let frame = || Tensor::zeros([1, FRAME_SIDE, FRAME_SIDE, STACK]);
        let bad = blob_with_replay(Transition {
            state: frame(),
            action: actions,
            reward: 1.0,
            next_state: frame(),
            done: true,
        });
        assert_import_rejected(&bad, &format!("replay transition 4: action {actions} out of range for {actions} actions"));
    }

    #[test]
    fn a_valid_non_canonical_part_is_encoded_afresh_on_export() {
        let (blob, tag, count, packed) = stepped_blob(45);
        let palette = blob[count] as usize;
        let mut m = small_ring(46);
        // A palette entry nothing uses.
        let mut extra = blob.clone();
        extra[count] += 1;
        extra.splice(packed..packed, 7.5f32.to_le_bytes());
        // The same state stored raw.
        let mut raw = blob.clone();
        let entries: Vec<&[u8]> = blob[count + 1..packed].chunks(4).collect();
        assert_eq!(entries.len(), palette);
        let n = FRAME_SIDE * FRAME_SIDE * STACK;
        let mut payload = vec![0u8];
        for i in 0..n {
            let idx = (blob[packed + i / 4] >> (2 * (i % 4))) & 0b11;
            payload.extend_from_slice(entries[idx as usize]);
        }
        raw.splice(tag..packed + n / 4, payload);
        for edited in [extra, raw] {
            assert_ne!(edited, blob);
            m.import_pipeline(&edited).unwrap();
            assert_eq!(m.export_pipeline(), blob);
        }
    }
}

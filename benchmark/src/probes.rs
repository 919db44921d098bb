//! Direct probes of the input pipelines, at the extents the reference
//! models use: each calls one public function in a loop and reports the
//! median. They run on the traced run only, after the timed phase, on the
//! workload that holds the model each pipeline feeds.

use std::hint::black_box;
use std::time::Instant;

use fathom::ModelKind;
use fathom_ale::{AleEnv, ReplayBuffer, Transition};
use fathom_data::{
    babi::BabiTask, imagenet::ImageCorpus, mnist::DigitCorpus, timit::SpeechCorpus,
    wmt::TranslationCorpus,
};
use fathom_tensor::Rng;

use crate::config::TrainSlot;
use crate::harness::Env;

/// Seed purpose of the probes' corpora.
const SEED_PROBES: u64 = 0x20;

/// Calls timed per probe; the median is reported.
const REPS: usize = 31;

/// Median wall nanoseconds of `REPS` calls of `f`, after one untimed call.
fn median_nanos(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Probes the pipelines behind the models in `slots`. Extents are the
/// reference-scale dimensions in `crates/core/src/models/*.rs`;
/// `data.imagenet` is probed at alexnet's (64 px, batch 4).
pub fn data_and_ale(env: &mut Env, slots: &[TrainSlot]) {
    let seed = env.seed_for(SEED_PROBES);
    for slot in slots {
        match slot.kind {
            ModelKind::Seq2Seq => {
                let mut corpus = TranslationCorpus::new(90, 12, seed);
                let nanos = median_nanos(|| {
                    black_box(corpus.batch(black_box(32)));
                });
                env.out.set("data.wmt.batch_ms", nanos / 1e6, REPS);
            }
            ModelKind::Memnet => {
                let mut task = BabiTask::new(20, seed);
                let nanos = median_nanos(|| {
                    black_box(task.batch(black_box(32)));
                });
                env.out.set("data.babi.batch_ms", nanos / 1e6, REPS);
            }
            ModelKind::Speech => {
                let mut corpus = SpeechCorpus::new(30, 13, seed);
                let nanos = median_nanos(|| {
                    black_box(corpus.batch(black_box(4), 6));
                });
                env.out.set("data.timit.batch_ms", nanos / 1e6, REPS);
            }
            ModelKind::Autoenc => {
                let mut corpus = DigitCorpus::new(seed);
                let nanos = median_nanos(|| {
                    black_box(corpus.batch(black_box(32)));
                });
                env.out.set("data.mnist.batch_ms", nanos / 1e6, REPS);
            }
            ModelKind::Alexnet => {
                let mut corpus = ImageCorpus::new(64, 3, 10, seed);
                let nanos = median_nanos(|| {
                    black_box(corpus.batch(black_box(4)));
                });
                env.out.set("data.imagenet.batch_ms", nanos / 1e6, REPS);
            }
            ModelKind::Deepq => ale(env, seed),
            ModelKind::Residual | ModelKind::Vgg => {}
        }
    }
}

/// The `ale` environment step and a replay sample at deepq's batch (16)
/// from a buffer holding 500 transitions.
fn ale(env: &mut Env, seed: u64) {
    let mut game = AleEnv::new(seed);
    let mut state = game.reset();
    let mut replay = ReplayBuffer::new(2_000);
    let actions = game.num_actions();
    let mut rng = Rng::seeded(seed);
    const STEPS: usize = 500;
    let began = Instant::now();
    let mut results = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        results.push(game.step(black_box(rng.below(actions))));
    }
    let per_step = began.elapsed().as_nanos() as f64 / STEPS as f64;
    env.out.set("ale.env_step_us", per_step / 1e3, STEPS);
    for (i, r) in results.into_iter().enumerate() {
        let next = r.observation;
        replay.push(Transition {
            state: std::mem::replace(&mut state, next.clone()),
            action: i % actions,
            reward: r.reward,
            next_state: next,
            done: r.done,
        });
    }
    let nanos = median_nanos(|| {
        black_box(replay.sample(black_box(16), &mut rng));
    });
    env.out.set("ale.replay_sample_ms", nanos / 1e6, REPS);
}

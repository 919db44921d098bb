//! An Arcade-Learning-Environment-style substrate for the `deepq`
//! workload.
//!
//! The paper "leverage\[s\] the same Atari emulation environment which
//! powered the original implementation, the Arcade Learning Environment".
//! An Atari 2600 emulator is out of scope for this reproduction, so this
//! crate substitutes a deterministic pixel-rendered paddle game with the
//! identical interface contract: 84x84 grayscale frames, a discrete
//! action set, scalar rewards, episode boundaries, 4-frame stacked
//! observations, and a uniform experience-replay buffer (see DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use fathom_ale::AleEnv;
//!
//! let mut env = AleEnv::new(7);
//! let obs = env.reset();
//! assert_eq!(obs.shape().dims(), &[1, 84, 84, 4]);
//! let result = env.step(2); // move right
//! assert!(result.reward.abs() <= 1.0);
//! ```

#![warn(missing_docs)]

mod env;
mod game;
mod part;
mod replay;

pub use env::{AleEnv, EnvState, StepResult, STACK};
pub use game::{Action, CatchGame, GameState, Tick, FRAME_PIXELS, FRAME_SIDE};
pub use replay::{ReplayBatch, ReplayBuffer, ReplayMark, Transition};

//! Dense `f32` tensors and parallel CPU kernels for the Fathom-rs suite.
//!
//! This crate is the lowest layer of the Fathom reproduction: it provides
//! the [`Tensor`] value type, [`Shape`] arithmetic, a deterministic [`Rng`],
//! the [`ExecPool`] intra-op parallelism abstraction, and the numeric
//! [`kernels`] that the dataflow operations dispatch to.
//!
//! # Examples
//!
//! ```
//! use fathom_tensor::{kernels, ExecPool, Precision, Tensor};
//!
//! let pool = ExecPool::new(4);
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
//! let b = Tensor::ones([2, 2]);
//! let c = kernels::gemm::matmul(&a, &b, false, false, Precision::F32, None, &pool);
//! assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
//! ```

#![warn(missing_docs)]

pub mod kernels;
mod pool;
pub mod recycle;
mod rng;
pub mod runtime;
mod shape;
mod tensor;

pub use kernels::quant::Precision;
pub use pool::{ExecPool, DEFAULT_GRAIN};
pub use recycle::{BufferPool, RecycleStats};
pub use runtime::{Latch, Runtime, Task};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

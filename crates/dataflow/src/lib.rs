//! A coarse-grained dataflow graph framework in the spirit of TensorFlow,
//! built for the Fathom-rs workload suite.
//!
//! The Fathom paper analyzes deep learning models at the granularity of
//! framework *operations* — "the smallest schedulable unit in the
//! TensorFlow runtime" — and this crate reproduces exactly that substrate:
//!
//! * [`Graph`] / [`OpKind`]: a typed operation vocabulary with
//!   TensorFlow-style names and the paper's A-G [`OpClass`] taxonomy;
//! * [`grad::gradients`]: symbolic reverse-mode autodiff that extends the
//!   graph with first-class backward operations;
//! * [`Optimizer`]: training-step construction through stateful `Apply*`
//!   operations;
//! * [`Session`]: topological execution with feeds/fetches, per-op
//!   [`trace::TraceEvent`] capture, and pluggable [`Device`]s (real CPU
//!   pools, modeled GPU);
//! * [`json::Json`]: the one JSON writer every report in the workspace
//!   renders through.
//!
//! # Examples
//!
//! ```
//! use fathom_dataflow::{Device, Graph, Optimizer, Session};
//! use fathom_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fit w in y = x * w with gradient descent.
//! let mut g = Graph::new();
//! let x = g.placeholder("x", Shape::matrix(4, 1));
//! let t = g.placeholder("t", Shape::matrix(4, 1));
//! let w = g.variable("w", Tensor::zeros([1, 1]));
//! let y = g.matmul(x, w);
//! let e = g.sub(y, t);
//! let sq = g.square(e);
//! let loss = g.mean_all(sq);
//! let train = Optimizer::sgd(0.05).minimize_all(&mut g, loss);
//!
//! let mut sess = Session::new(g, Device::cpu(1));
//! let xs = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4, 1]);
//! let ts = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [4, 1]);
//! for _ in 0..50 {
//!     sess.run(&[train], &[(x, xs.clone()), (t, ts.clone())])?;
//! }
//! let w_fit = sess.variable_value(w)?.data()[0];
//! assert!((w_fit - 2.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod cost;
mod device;
mod exec;
pub mod export;
pub mod fault;
pub mod grad;
pub mod json;
mod graph;
mod op;
mod optim;
pub mod optimize;
pub mod sched;
pub mod trace;

pub use device::{CpuModel, Device, GpuModel};
pub use exec::{CalibrationRanges, ExecError, Guardrail, QuantPlan, Session};
pub use fathom_tensor::Precision;
pub use trace::RuntimeCounters;
pub use fault::{FaultAction, FaultPlan, FaultSite, FaultSpec};
pub use graph::{Graph, GraphError, Node, NodeId};
pub use json::Json;
pub use op::{GemmOp, OpClass, OpKind};
pub use optim::{Optimizer, TrainHandles};

//! Numeric kernels backing the dataflow operations.
//!
//! Every kernel takes an [`crate::ExecPool`] and parallelizes across
//! disjoint spans of its output, mirroring how TensorFlow's CPU backend
//! parallelizes through Eigen's thread pool.

pub mod conv;
pub mod elementwise;
pub mod epilogue;
pub mod fused;
pub mod gemm;
pub mod matmul;
pub mod pool2d;
pub mod quant;
pub mod reduce;
pub mod softmax;
pub mod transform;
pub mod ctc;

//! Elementwise arithmetic kernels (op class C in the paper's taxonomy).
//!
//! [`eval`] is the standalone kernel of every class-C op: it takes the
//! op's formula from the op table ([`FusedOp::visit`]) and runs it through
//! the shape-generic kernels here ([`unary`], [`binary`], [`ternary`],
//! [`fold_n`]). Binary and ternary kernels support NumPy-style
//! broadcasting. All kernels parallelize across flat output chunks
//! through an [`ExecPool`].

use crate::kernels::fused::{FusedOp, OpVisitor};
use crate::pool::ExecPool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Span length used when chunking flat elementwise loops.
const FLAT_SPAN: usize = 1024;

/// A fresh tensor of `shape` written in flat spans through `pool`:
/// `fill(at, dst)` writes the elements `at..at + dst.len()`
/// (`work_per_span` sizes the dispatch, as in [`ExecPool::for_spans`]).
/// An elementwise `fill` computes each element the same way whichever
/// worker runs its span, so the result is bitwise the same at any width.
pub fn generate(
    shape: impl Into<Shape>,
    work_per_span: usize,
    pool: &ExecPool,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) -> Tensor {
    let mut out = Tensor::pooled(shape);
    let dst = out.data_mut();
    let span = FLAT_SPAN.min(dst.len().max(1));
    // Process the aligned prefix in parallel, the remainder serially.
    let aligned = dst.len() - dst.len() % span;
    pool.for_spans(&mut dst[..aligned], span, work_per_span, |i, chunk| fill(i * span, chunk));
    fill(aligned, &mut dst[aligned..]);
    out
}

/// Applies `f` to every element, producing a new tensor.
pub fn unary(x: &Tensor, pool: &ExecPool, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let src = x.data();
    generate(x.shape().clone(), 0, pool, |at, dst| {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = f(src[at + j]);
        }
    })
}

/// Applies `f(a, b)` elementwise with broadcasting.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn binary(a: &Tensor, b: &Tensor, pool: &ExecPool, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {} with {}", a.shape(), b.shape()));

    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        let (x, y) = (a.data(), b.data());
        return generate(out_shape, 0, pool, |at, dst| {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = f(x[at + j], y[at + j]);
            }
        });
    }

    // Fast path: one side is a scalar (or single element).
    if a.len() == 1 {
        let s = a.data()[0];
        return unary(b, pool, |v| f(s, v)).reshaped(out_shape);
    }
    if b.len() == 1 {
        let s = b.data()[0];
        let out = unary(a, pool, |v| f(v, s));
        return out.reshaped(out_shape);
    }

    // General strided broadcast.
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let strides = [a, b].map(|t| broadcast_strides(t.shape(), rank, &out_dims));
    let mut out = Tensor::zeros(out_shape.clone());
    let inner = if rank == 0 { 1 } else { out_dims[rank - 1] };
    let a_data = a.data();
    let b_data = b.data();
    pool.for_spans(out.data_mut(), inner.max(1), 0, |row, dst| {
        let ([a_off, b_off], [a_inner, b_inner]) = row_cursor(row, &out_dims, &strides);
        for (j, d) in dst.iter_mut().enumerate() {
            *d = f(a_data[a_off + j * a_inner], b_data[b_off + j * b_inner]);
        }
    });
    out
}

/// Where output row `row` (a run along the last axis) starts in each of
/// `N` broadcast inputs, and each input's step along the row.
fn row_cursor<const N: usize>(
    row: usize,
    out_dims: &[usize],
    strides: &[Vec<usize>; N],
) -> ([usize; N], [usize; N]) {
    let rank = out_dims.len();
    // Decompose the row index into the leading coordinates.
    let mut rem = row;
    let mut off = [0usize; N];
    for axis in (0..rank.saturating_sub(1)).rev() {
        let coord = rem % out_dims[axis];
        rem /= out_dims[axis];
        for (o, s) in off.iter_mut().zip(strides) {
            *o += coord * s[axis];
        }
    }
    (off, strides.each_ref().map(|s| if rank == 0 { 0 } else { s[rank - 1] }))
}

/// Strides for reading a tensor of shape `shape` as though it had the
/// broadcast target's rank and dims: broadcast axes get stride 0.
fn broadcast_strides(shape: &Shape, target_rank: usize, target_dims: &[usize]) -> Vec<usize> {
    let own = shape.strides();
    let offset = target_rank - shape.rank();
    let mut strides = vec![0; target_rank];
    for (i, (&dim, &stride)) in shape.dims().iter().zip(own.iter()).enumerate() {
        let t = i + offset;
        strides[t] = if dim == 1 && target_dims[t] != 1 { 0 } else { stride };
    }
    strides
}

/// Applies `f(a, b, c)` elementwise with three-way broadcasting.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn ternary(
    a: &Tensor,
    b: &Tensor,
    c: &Tensor,
    pool: &ExecPool,
    f: impl Fn(f32, f32, f32) -> f32 + Sync,
) -> Tensor {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .and_then(|ab| ab.broadcast(c.shape()))
        .unwrap_or_else(|| {
            panic!("cannot broadcast {}, {}, {} together", a.shape(), b.shape(), c.shape())
        });
    let rank = out_shape.rank();
    let dims = out_shape.dims().to_vec();
    let strides = [a, b, c].map(|t| broadcast_strides(t.shape(), rank, &dims));
    let data = [a.data(), b.data(), c.data()];
    let inner = if rank == 0 { 1 } else { dims[rank - 1] };
    let mut out = Tensor::zeros(out_shape);
    pool.for_spans(out.data_mut(), inner.max(1), 0, |row, dst| {
        let (off, step) = row_cursor(row, &dims, &strides);
        for (j, d) in dst.iter_mut().enumerate() {
            *d = f(
                data[0][off[0] + j * step[0]],
                data[1][off[1] + j * step[1]],
                data[2][off[2] + j * step[2]],
            );
        }
    });
    out
}

/// Left fold of `f` over `n >= 1` same-shaped tensors, elementwise,
/// starting from the first tensor (the `AddN` kernel's shape).
///
/// # Panics
///
/// Panics if `inputs` is empty or shapes differ.
pub fn fold_n(inputs: &[&Tensor], pool: &ExecPool, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    assert!(!inputs.is_empty(), "fold_n requires at least one input");
    let shape = inputs[0].shape().clone();
    for t in inputs {
        assert_eq!(t.shape(), &shape, "fold_n inputs must share a shape");
    }
    let at = |j: usize| inputs[1..].iter().fold(inputs[0].data()[j], |s, t| f(s, t.data()[j]));
    generate(shape, inputs.len(), pool, |base, dst| {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = at(base + j);
        }
    })
}

/// The standalone (unfused) kernel of one class-C op over `inputs`, with
/// broadcasting — the reference the fused interpreter and the GEMM
/// epilogue must match bit for bit. The formula comes from the op table
/// ([`FusedOp::visit`]), like theirs.
///
/// # Panics
///
/// Panics if `inputs` does not match the op's arity or the shapes are
/// not compatible.
pub fn eval(op: FusedOp, inputs: &[&Tensor], pool: &ExecPool) -> Tensor {
    struct Standalone<'a> {
        inputs: &'a [&'a Tensor],
        pool: &'a ExecPool,
    }
    impl OpVisitor for Standalone<'_> {
        type Out = Tensor;
        fn unary(self, _: &'static str, _: f64, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
            unary(self.inputs[0], self.pool, f)
        }
        fn binary(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
            binary(self.inputs[0], self.inputs[1], self.pool, f)
        }
        fn ternary(self, _: &'static str, _: f64, f: impl Fn(f32, f32, f32) -> f32 + Sync) -> Tensor {
            ternary(self.inputs[0], self.inputs[1], self.inputs[2], self.pool, f)
        }
        fn fold(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
            fold_n(self.inputs, self.pool, f)
        }
    }
    if let Some(arity) = op.arity() {
        assert_eq!(inputs.len(), arity, "{} takes {arity} inputs", op.name());
    }
    op.visit(Standalone { inputs, pool })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    fn ew(op: FusedOp, inputs: &[&Tensor]) -> Tensor {
        eval(op, inputs, &pool())
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        assert_eq!(ew(FusedOp::Add, &[&a, &b]).data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let s = Tensor::scalar(10.0);
        assert_eq!(ew(FusedOp::Mul, &[&a, &s]).data(), &[10.0, 20.0]);
        assert_eq!(ew(FusedOp::Sub, &[&s, &a]).data(), &[9.0, 8.0]);
    }

    #[test]
    fn row_broadcast() {
        // [2,3] + [3] broadcasts the vector across rows.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]);
        let c = ew(FusedOp::Add, &[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn column_broadcast() {
        // [2,3] * [2,1] broadcasts the column across columns.
        let a = Tensor::ones([2, 3]);
        let b = Tensor::from_vec(vec![2.0, 3.0], [2, 1]);
        let c = ew(FusedOp::Mul, &[&a, &b]);
        assert_eq!(c.data(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn both_sides_broadcast() {
        // [2,1] + [1,3] -> [2,3]
        let a = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], [1, 3]);
        let c = ew(FusedOp::Add, &[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_panic() {
        ew(FusedOp::Add, &[&Tensor::zeros([2]), &Tensor::zeros([3])]);
    }

    #[test]
    fn unary_functions() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], [3]);
        assert_eq!(ew(FusedOp::Relu, &[&x]).data(), &[0.0, 0.0, 1.0]);
        assert_eq!(ew(FusedOp::Neg, &[&x]).data(), &[1.0, 0.0, -1.0]);
        assert_eq!(ew(FusedOp::Square, &[&x]).data(), &[1.0, 0.0, 1.0]);
        let s = ew(FusedOp::Sigmoid, &[&x]);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
    }

    #[test]
    fn exp_log_roundtrip() {
        let x = Tensor::from_vec(vec![0.5, 1.0, 2.0], [3]);
        let y = ew(FusedOp::Log, &[&ew(FusedOp::Exp, &[&x])]);
        assert!(x.max_abs_diff(&y) < 1e-5);
    }

    #[test]
    fn add_n_accumulates() {
        let a = Tensor::ones([4]);
        let b = Tensor::filled([4], 2.0);
        let c = Tensor::filled([4], 3.0);
        let s = ew(FusedOp::AddN, &[&a, &b, &c]);
        assert_eq!(s.data(), &[6.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn add_n_empty_panics() {
        ew(FusedOp::AddN, &[]);
    }

    #[test]
    fn large_parallel_matches_serial() {
        let n = 100_000;
        let x = Tensor::from_vec((0..n).map(|i| i as f32 * 0.001).collect(), [n]);
        let serial = eval(FusedOp::Tanh, &[&x], &ExecPool::serial());
        let parallel = eval(FusedOp::Tanh, &[&x], &ExecPool::new(8));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn high_rank_broadcast() {
        // [2,1,2] * [3,1] -> [2,3,2]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 1, 2]);
        let b = Tensor::from_vec(vec![1.0, 10.0, 100.0], [3, 1]);
        let c = ew(FusedOp::Mul, &[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 3, 2]);
        assert_eq!(
            c.data(),
            &[1.0, 2.0, 10.0, 20.0, 100.0, 200.0, 3.0, 4.0, 30.0, 40.0, 300.0, 400.0]
        );
    }
}

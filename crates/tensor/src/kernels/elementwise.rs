//! Elementwise arithmetic kernels (op class C in the paper's taxonomy).
//!
//! [`eval`] is the standalone kernel of every class-C op: it takes the
//! op's formula from the op table ([`FusedOp::visit`]) and runs it through
//! the shape-generic kernels here ([`unary`], [`binary`], [`ternary`],
//! [`fold_n`]). Binary and ternary kernels support NumPy-style
//! broadcasting. All kernels parallelize across flat output chunks
//! through an [`ExecPool`].

use crate::kernels::fused::{FusedOp, OpVisitor, Rows, Src};
use crate::pool::ExecPool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Span length used when chunking flat elementwise loops.
pub(crate) const FLAT_SPAN: usize = 1024;

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
    generate_in(shape, FLAT_SPAN, work_per_span, pool, fill)
}

/// [`generate`] in spans of `span` elements. Every span starts at a
/// multiple of `span`, and the last one may be shorter; a `span` that is
/// a multiple of a row length gives every `fill` whole rows.
pub(crate) fn generate_in(
    shape: impl Into<Shape>,
    span: usize,
    work_per_span: usize,
    pool: &ExecPool,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) -> Tensor {
    let mut out = Tensor::pooled(shape);
    let dst = out.data_mut();
    let span = span.min(dst.len()).max(1);
    // Process the aligned prefix in parallel, the remainder serially.
    let aligned = dst.len() - dst.len() % span;
    pool.for_spans(&mut dst[..aligned], span, work_per_span, |i, chunk| fill(i * span, chunk));
    fill(aligned, &mut dst[aligned..]);
    out
}

/// A span of about [`FLAT_SPAN`] elements made of whole `row`-element
/// rows (one row when a row is longer).
pub(crate) fn row_span(row: usize) -> usize {
    let row = row.max(1);
    row * (FLAT_SPAN / row).max(1)
}

/// Applies `f` to every element, producing a new tensor.
pub fn unary(x: &Tensor, pool: &ExecPool, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let src = x.data();
    generate(x.shape().clone(), 0, pool, |at, dst| {
        for (d, &v) in dst.iter_mut().zip(&src[at..]) {
            *d = f(v);
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

    // Fast path: each operand is a scalar, a trailing block (same shape,
    // or a row) or a column.
    if let Some((row_len, [sa, sb])) = Operand::classify([a, b], &out_shape) {
        return generate_in(out_shape, row_span(row_len), 0, pool, |at, dst| {
            let src = |r: usize, i: usize| [sa, sb][i].at(at + r * row_len);
            Rows { dsts: dst.chunks_mut(row_len), n_args: 2, src }.binary("", 0.0, &f);
        });
    }

    // General strided broadcast.
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let strides = [a, b].map(|t| broadcast_strides(t.shape(), rank, &out_dims));
    let inner = out_dims.last().map_or(1, |&n| n.max(1));
    let (a_data, b_data) = (a.data(), b.data());
    generate_in(out_shape, row_span(inner), 0, pool, |at, dst| {
        for (r, dst) in dst.chunks_mut(inner).enumerate() {
            let ([a_off, b_off], [a_inner, b_inner]) = row_cursor(at / inner + r, &out_dims, &strides);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = f(a_data[a_off + j * a_inner], b_data[b_off + j * b_inner]);
            }
        }
    })
}

/// How a broadcast operand reads along the output's rows (its runs
/// along the last axis) when every row sees one run of it or one value
/// of it. Shapes that fit none of these take [`row_cursor`]'s walk.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// One element for the whole output.
    Scalar(f32),
    /// Dims that end the output's, leading 1s aside: the full shape, a
    /// row (`[n]` or `[1, …, 1, n]`), or `[m, n]` against `[…, m, n]`.
    /// It repeats every `len` output elements, so a row reads one run.
    Tail(&'a [f32]),
    /// Dims that end the output's leading dims, then 1: a column
    /// (`[…, m, 1]` against `[…, m, n]`). Row `r` of the output, whose
    /// rows are `n` long, reads element `r % len`.
    Column(&'a [f32], usize),
}

impl<'a> Operand<'a> {
    /// Classifies each of `inputs` against the broadcast output shape,
    /// with the row length to walk the output in: its last axis when some
    /// operand repeats within the output, otherwise a flat span.
    fn classify<const N: usize>(inputs: [&'a Tensor; N], out: &Shape) -> Option<(usize, [Self; N])> {
        let len = out.num_elements();
        let dims = out.dims();
        let lead = &dims[..dims.len().saturating_sub(1)];
        let inner = dims.last().copied().unwrap_or(1);
        if len == 0 {
            return None;
        }
        let mut ops = [Operand::Scalar(0.0); N];
        for (op, t) in ops.iter_mut().zip(inputs) {
            let own = t.shape().dims();
            let own = &own[own.iter().take_while(|&&d| d == 1).count()..];
            *op = match own.split_last() {
                _ if t.len() == 1 => Operand::Scalar(t.data()[0]),
                _ if dims.ends_with(own) => Operand::Tail(t.data()),
                Some((1, head)) if lead.ends_with(head) => Operand::Column(t.data(), inner),
                _ => return None,
            };
        }
        let repeats = |o: &Operand| match o {
            Operand::Tail(d) => d.len() < len,
            Operand::Column(..) => true,
            Operand::Scalar(_) => false,
        };
        Some((if ops.iter().any(repeats) { inner } else { FLAT_SPAN }, ops))
    }

    /// Where the output row starting at flat offset `at` reads this
    /// operand.
    fn at(self, at: usize) -> Src<'a> {
        match self {
            Operand::Scalar(s) => Src::Scalar(s),
            Operand::Tail(d) => Src::Row(&d[at % d.len()..]),
            Operand::Column(d, inner) => Src::Scalar(d[at / inner % d.len()]),
        }
    }
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
    // Fast path, as in `binary`.
    if let Some((row_len, ops)) = Operand::classify([a, b, c], &out_shape) {
        return generate_in(out_shape, row_span(row_len), 0, pool, |at, dst| {
            let src = |r: usize, i: usize| ops[i].at(at + r * row_len);
            Rows { dsts: dst.chunks_mut(row_len), n_args: 3, src }.ternary("", 0.0, &f);
        });
    }
    let rank = out_shape.rank();
    let dims = out_shape.dims().to_vec();
    let strides = [a, b, c].map(|t| broadcast_strides(t.shape(), rank, &dims));
    let data = [a.data(), b.data(), c.data()];
    let inner = dims.last().map_or(1, |&n| n.max(1));
    generate_in(out_shape, row_span(inner), 0, pool, |at, dst| {
        for (r, dst) in dst.chunks_mut(inner).enumerate() {
            let (off, step) = row_cursor(at / inner + r, &dims, &strides);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = f(
                    data[0][off[0] + j * step[0]],
                    data[1][off[1] + j * step[1]],
                    data[2][off[2] + j * step[2]],
                );
            }
        }
    })
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
    // Operand 0, then one pass per further operand: each element folds
    // left to right.
    generate(shape, inputs.len(), pool, |at, dst| {
        dst.copy_from_slice(&inputs[0].data()[at..at + dst.len()]);
        for t in &inputs[1..] {
            for (d, &v) in dst.iter_mut().zip(&t.data()[at..]) {
                *d = f(*d, v);
            }
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

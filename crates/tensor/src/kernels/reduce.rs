//! Reduction and expansion kernels (op class D in the paper's taxonomy).

use crate::kernels::elementwise::{generate_in, FLAT_SPAN};
use crate::pool::ExecPool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Which statistic an axis reduction computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Sum of elements along the axis.
    Sum,
    /// Arithmetic mean along the axis.
    Mean,
    /// Maximum along the axis.
    Max,
}

/// Reduces `x` along `axis`. When `keep_dims` is true the reduced axis is
/// retained with extent 1, which keeps the result broadcast-compatible with
/// the input (the common case in attention and softmax plumbing).
///
/// # Panics
///
/// Panics if `axis >= x.rank()`, or for [`ReduceKind::Max`] when the axis
/// has extent 0.
pub fn reduce_axis(x: &Tensor, axis: usize, kind: ReduceKind, keep_dims: bool, pool: &ExecPool) -> Tensor {
    let rank = x.shape().rank();
    assert!(axis < rank, "axis {axis} out of range for rank {rank}");
    let extent = x.shape().dim(axis);
    if matches!(kind, ReduceKind::Max) {
        assert!(extent > 0, "max reduction along empty axis");
    }
    let inner: usize = x.shape().dims()[axis + 1..].iter().product();
    let out_shape = if keep_dims { x.shape().with_axis_one(axis) } else { x.shape().without_axis(axis) };
    if out_shape.num_elements() == 0 {
        return Tensor::zeros(out_shape);
    }
    let src = x.data();
    let inv = 1.0 / extent as f32;
    if inner == 1 {
        // The last axis: output `o` folds the contiguous run
        // `o * extent..` from the identity, the same order as the
        // strided walk below, and a span holds many outputs.
        let span = (FLAT_SPAN / extent.max(1)).max(1);
        return generate_in(out_shape, span, span * extent, pool, |at, dst| {
            for (o, d) in dst.iter_mut().enumerate() {
                let run = &src[(at + o) * extent..(at + o + 1) * extent];
                *d = match kind {
                    ReduceKind::Max => run.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m }),
                    _ => run.iter().fold(0.0, |s, &v| s + v),
                };
                if matches!(kind, ReduceKind::Mean) && extent > 0 {
                    *d *= inv;
                }
            }
        });
    }
    let mut out = Tensor::pooled(out_shape);
    pool.for_spans(out.data_mut(), inner, extent * inner, |o, dst| {
        match kind {
            ReduceKind::Max => dst.fill(f32::NEG_INFINITY),
            _ => dst.fill(0.0),
        }
        let base = o * extent * inner;
        for a in 0..extent {
            let row = &src[base + a * inner..base + a * inner + inner];
            match kind {
                ReduceKind::Max => {
                    for (d, &v) in dst.iter_mut().zip(row) {
                        if v > *d {
                            *d = v;
                        }
                    }
                }
                _ => {
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d += v;
                    }
                }
            }
        }
        if matches!(kind, ReduceKind::Mean) && extent > 0 {
            for d in dst.iter_mut() {
                *d *= inv;
            }
        }
    });
    out
}

/// Elements per partial sum of [`reduce_all_sum`]: the partials are
/// fixed by the data alone, so the association is the same at any width.
const SUM_BLOCK: usize = 16 * 1024;

/// Sum of all elements as a scalar tensor (`Sum` with no axis argument).
/// Each [`SUM_BLOCK`] of elements is summed in `f64`, and the partials
/// are added in block order whichever workers produced them.
pub fn reduce_all_sum(x: &Tensor, pool: &ExecPool) -> Tensor {
    let data = x.data();
    let partials = pool.map_reduce(
        data.len().div_ceil(SUM_BLOCK),
        SUM_BLOCK,
        Vec::new(),
        |blocks| {
            let block = |b: usize| &data[b * SUM_BLOCK..((b + 1) * SUM_BLOCK).min(data.len())];
            blocks.map(|b| block(b).iter().map(|&v| v as f64).sum::<f64>()).collect()
        },
        |mut all: Vec<f64>, part| {
            all.extend(part);
            all
        },
    );
    let total = partials.into_iter().fold(0.0f64, |acc, p| acc + p);
    Tensor::scalar(total as f32)
}

/// Mean of all elements as a scalar tensor.
pub fn reduce_all_mean(x: &Tensor, pool: &ExecPool) -> Tensor {
    if x.is_empty() {
        return Tensor::scalar(0.0);
    }
    let s = reduce_all_sum(x, pool).scalar_value();
    Tensor::scalar(s / x.len() as f32)
}

/// Sums `x` down to `target`, inverting a broadcast: axes where `target`
/// has extent 1 (or is missing leading axes) are summed away. This is the
/// gradient of broadcasting and the workhorse of `BiasAdd`-style backward
/// passes.
///
/// # Panics
///
/// Panics if `target` does not broadcast to `x.shape()`.
pub fn reduce_to_shape(x: &Tensor, target: &Shape, pool: &ExecPool) -> Tensor {
    assert!(
        target.broadcasts_to(x.shape()),
        "{} does not broadcast to {}",
        target,
        x.shape()
    );
    if x.shape() == target {
        return x.clone();
    }
    let mut current = x.clone();
    // Sum away extra leading axes.
    while current.shape().rank() > target.rank() {
        current = reduce_axis(&current, 0, ReduceKind::Sum, false, pool);
    }
    // Sum (keeping dims) along axes where target is 1 but current is not.
    for axis in 0..target.rank() {
        if target.dim(axis) == 1 && current.shape().dim(axis) != 1 {
            current = reduce_axis(&current, axis, ReduceKind::Sum, true, pool);
        }
    }
    debug_assert_eq!(current.shape(), target);
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    #[test]
    fn sum_along_each_axis() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let rows = reduce_axis(&x, 1, ReduceKind::Sum, false, &pool());
        assert_eq!(rows.shape().dims(), &[2]);
        assert_eq!(rows.data(), &[6.0, 15.0]);
        let cols = reduce_axis(&x, 0, ReduceKind::Sum, false, &pool());
        assert_eq!(cols.shape().dims(), &[3]);
        assert_eq!(cols.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn keep_dims_shape() {
        let x = Tensor::ones([2, 3, 4]);
        let r = reduce_axis(&x, 1, ReduceKind::Sum, true, &pool());
        assert_eq!(r.shape().dims(), &[2, 1, 4]);
        assert_eq!(r.data(), &[3.0; 8]);
    }

    #[test]
    fn mean_and_max() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, -1.0, 0.0, 2.0], [2, 3]);
        let mean = reduce_axis(&x, 1, ReduceKind::Mean, false, &pool());
        assert_eq!(mean.data(), &[3.0, 1.0 / 3.0]);
        let max = reduce_axis(&x, 1, ReduceKind::Max, false, &pool());
        assert_eq!(max.data(), &[5.0, 2.0]);
    }

    #[test]
    fn middle_axis_reduction() {
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), [2, 3, 4]);
        let r = reduce_axis(&x, 1, ReduceKind::Sum, false, &pool());
        assert_eq!(r.shape().dims(), &[2, 4]);
        // r[0, 0] = x[0,0,0] + x[0,1,0] + x[0,2,0] = 0 + 4 + 8
        assert_eq!(r.at(&[0, 0]), 12.0);
        assert_eq!(r.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn full_reductions() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(reduce_all_sum(&x, &pool()).scalar_value(), 10.0);
        assert_eq!(reduce_all_mean(&x, &pool()).scalar_value(), 2.5);
    }

    #[test]
    fn full_sum_bits_do_not_depend_on_the_width() {
        // 1 + 1e18 rounds the 1 away in f64 while 1e18 - 1e18 does not,
        // so the value shows how the partials were associated.
        let n = 65_536;
        let mut data = vec![0.0f32; n];
        data[0] = 1.0;
        data[n / 2] = 1e18;
        data[n - 1] = -1e18;
        let x = Tensor::from_vec(data, [n]);
        for width in [1, 2, 4, 8] {
            let sum = reduce_all_sum(&x, &ExecPool::new(width)).scalar_value();
            assert_eq!(sum.to_bits(), 0.0f32.to_bits(), "sum at width {width} is {sum}");
        }
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        // Gradient of [3] broadcast to [2,3] sums over rows.
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = reduce_to_shape(&g, &Shape::vector(3), &pool());
        assert_eq!(r.data(), &[5.0, 7.0, 9.0]);
        // Gradient of [2,1] broadcast to [2,3] sums over columns, keeps dim.
        let r = reduce_to_shape(&g, &Shape::new(vec![2, 1]), &pool());
        assert_eq!(r.data(), &[6.0, 15.0]);
        // Scalar target sums everything.
        let r = reduce_to_shape(&g, &Shape::scalar(), &pool());
        assert_eq!(r.scalar_value(), 21.0);
        // Identity when shapes match.
        let r = reduce_to_shape(&g, g.shape(), &pool());
        assert_eq!(r, g);
    }

    #[test]
    #[should_panic(expected = "does not broadcast")]
    fn reduce_to_incompatible_shape_panics() {
        reduce_to_shape(&Tensor::zeros([2, 3]), &Shape::vector(4), &pool());
    }

    #[test]
    fn parallel_matches_serial() {
        let x = Tensor::from_vec((0..60_000).map(|i| (i % 17) as f32).collect(), [100, 600]);
        let a = reduce_axis(&x, 1, ReduceKind::Sum, false, &ExecPool::serial());
        let b = reduce_axis(&x, 1, ReduceKind::Sum, false, &ExecPool::new(8).with_grain(1));
        assert!(a.max_abs_diff(&b) < 1e-3);
    }
}

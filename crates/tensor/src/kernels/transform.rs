//! Data-movement kernels (op class G in the paper's taxonomy): transpose,
//! concatenation, slicing, tiling, and gather/scatter.
//!
//! These are the "smaller, data-dependent operations" whose refusal to
//! scale limits Amdahl speedups in the paper's Figure 6.

use crate::kernels::elementwise::{generate_in, row_span};
use crate::pool::ExecPool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Permutes the axes of `x` according to `perm` (a permutation of
/// `0..rank`).
///
/// # Panics
///
/// Panics if `perm` is not a permutation of the axis indices.
pub fn transpose(x: &Tensor, perm: &[usize], pool: &ExecPool) -> Tensor {
    let rank = x.shape().rank();
    assert_eq!(perm.len(), rank, "perm length {} != rank {rank}", perm.len());
    let mut seen = vec![false; rank];
    for &p in perm {
        assert!(p < rank && !seen[p], "perm {perm:?} is not a permutation of 0..{rank}");
        seen[p] = true;
    }
    let in_dims = x.shape().dims().to_vec();
    let in_strides = x.shape().strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| in_dims[p]).collect();
    // Stride to walk the *input* when advancing each *output* axis.
    let walk: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = Tensor::zeros(Shape::new(out_dims.clone()));
    if out.is_empty() {
        return out;
    }
    let src = x.data();
    let inner = if rank == 0 { 1 } else { out_dims[rank - 1] };
    let inner_walk = if rank == 0 { 0 } else { walk[rank - 1] };
    pool.for_spans(out.data_mut(), inner, 0, |row, dst| {
        let mut rem = row;
        let mut src_off = 0;
        for axis in (0..rank.saturating_sub(1)).rev() {
            let coord = rem % out_dims[axis];
            rem /= out_dims[axis];
            src_off += coord * walk[axis];
        }
        for (j, d) in dst.iter_mut().enumerate() {
            *d = src[src_off + j * inner_walk];
        }
    });
    out
}

/// Swaps the two axes of a matrix.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn transpose2(x: &Tensor, pool: &ExecPool) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "transpose2 requires a matrix, got {}", x.shape());
    transpose(x, &[1, 0], pool)
}

/// Concatenates tensors along `axis`. All inputs must agree on every other
/// axis.
///
/// # Panics
///
/// Panics if `inputs` is empty, ranks differ, or non-concat axes disagree.
pub fn concat(inputs: &[&Tensor], axis: usize, pool: &ExecPool) -> Tensor {
    assert!(!inputs.is_empty(), "concat requires at least one input");
    let rank = inputs[0].shape().rank();
    assert!(axis < rank, "axis {axis} out of range for rank {rank}");
    let mut out_dims = inputs[0].shape().dims().to_vec();
    out_dims[axis] = 0;
    for t in inputs {
        assert_eq!(t.shape().rank(), rank, "concat rank mismatch");
        for a in 0..rank {
            if a != axis {
                assert_eq!(
                    t.shape().dim(a),
                    inputs[0].shape().dim(a),
                    "concat inputs disagree on axis {a}"
                );
            }
        }
        out_dims[axis] += t.shape().dim(axis);
    }
    let outer: usize = out_dims[..axis].iter().product();
    let inner: usize = out_dims[axis + 1..].iter().product();
    let out_axis = out_dims[axis];
    let mut out = Tensor::zeros(Shape::new(out_dims));
    if out.is_empty() {
        return out;
    }
    // Per outer index, lay down each input's block in order.
    let span = out_axis * inner;
    pool.for_spans(out.data_mut(), span, 0, |o, dst| {
        let mut offset = 0;
        for t in inputs {
            let block = t.shape().dim(axis) * inner;
            let src = &t.data()[o * block..(o + 1) * block];
            dst[offset..offset + block].copy_from_slice(src);
            offset += block;
        }
    });
    let _ = outer;
    out
}

/// Extracts the contiguous sub-tensor `[start, start+len)` along `axis`.
///
/// # Panics
///
/// Panics if the range exceeds the axis extent.
pub fn slice_axis(x: &Tensor, axis: usize, start: usize, len: usize, pool: &ExecPool) -> Tensor {
    let rank = x.shape().rank();
    assert!(axis < rank, "axis {axis} out of range for rank {rank}");
    let extent = x.shape().dim(axis);
    assert!(start + len <= extent, "slice {start}..{} exceeds axis extent {extent}", start + len);
    let inner: usize = x.shape().dims()[axis + 1..].iter().product();
    let mut out_dims = x.shape().dims().to_vec();
    out_dims[axis] = len;
    let mut out = Tensor::zeros(Shape::new(out_dims));
    if out.is_empty() {
        return out;
    }
    let src = x.data();
    let span = len * inner;
    let src_block = extent * inner;
    pool.for_spans(out.data_mut(), span.max(1), 0, |o, dst| {
        let base = o * src_block + start * inner;
        dst.copy_from_slice(&src[base..base + span]);
    });
    out
}

/// Repeats `x` `reps[i]` times along each axis `i` (TensorFlow's `Tile`).
///
/// # Panics
///
/// Panics if `reps.len() != rank` or any repetition count is zero.
pub fn tile(x: &Tensor, reps: &[usize], pool: &ExecPool) -> Tensor {
    let rank = x.shape().rank();
    assert_eq!(reps.len(), rank, "reps length {} != rank {rank}", reps.len());
    assert!(reps.iter().all(|&r| r > 0), "tile repetitions must be positive");
    let in_dims = x.shape().dims().to_vec();
    let out_dims: Vec<usize> = in_dims.iter().zip(reps).map(|(d, r)| d * r).collect();
    let in_strides = x.shape().strides();
    let out_len: usize = out_dims.iter().product();
    if out_len == 0 {
        return Tensor::zeros(Shape::new(out_dims));
    }
    let src = x.data();
    let inner = if rank == 0 { 1 } else { out_dims[rank - 1] };
    let inner_dim = if rank == 0 { 1 } else { in_dims[rank - 1] };
    // Each output row repeats one input row along the last axis: one
    // fill when that row is a single element, else a run of copies.
    generate_in(Shape::new(out_dims.clone()), row_span(inner), 0, pool, |at, dst| {
        for (r, dst) in dst.chunks_mut(inner).enumerate() {
            let mut rem = at / inner + r;
            let mut src_off = 0;
            for axis in (0..rank.saturating_sub(1)).rev() {
                let coord = rem % out_dims[axis];
                rem /= out_dims[axis];
                src_off += (coord % in_dims[axis]) * in_strides[axis];
            }
            if inner_dim == 1 {
                dst.fill(src[src_off]);
            } else {
                let run = &src[src_off..src_off + inner_dim];
                for rep in dst.chunks_exact_mut(inner_dim) {
                    rep.copy_from_slice(run);
                }
            }
        }
    })
}

/// Gathers rows of a `[vocab, dim]` table by index: the embedding-lookup
/// kernel. `indices` holds row numbers stored as `f32`; the result has
/// shape `indices.shape() + [dim]`.
///
/// # Panics
///
/// Panics if `table` is not rank 2 or an index is out of range.
pub fn gather_rows(table: &Tensor, indices: &Tensor, pool: &ExecPool) -> Tensor {
    assert_eq!(table.shape().rank(), 2, "gather table must be [vocab, dim]");
    let vocab = table.shape().dim(0);
    let dim = table.shape().dim(1);
    let mut out_dims = indices.shape().dims().to_vec();
    out_dims.push(dim);
    let mut out = Tensor::zeros(Shape::new(out_dims));
    if out.is_empty() {
        return out;
    }
    let idx = indices.data();
    let tab = table.data();
    pool.for_spans(out.data_mut(), dim, 0, |i, dst| {
        let row = idx[i] as usize;
        assert!(row < vocab, "gather index {row} out of range for vocab {vocab}");
        dst.copy_from_slice(&tab[row * dim..(row + 1) * dim]);
    });
    out
}

/// Scatter-adds gradients back into an embedding table: the gradient of
/// [`gather_rows`]. Returns a `[vocab, dim]` tensor with `grad`'s rows
/// accumulated at their source indices.
///
/// # Panics
///
/// Panics if shapes are inconsistent or an index is out of range.
pub fn scatter_add_rows(vocab: usize, dim: usize, indices: &Tensor, grad: &Tensor) -> Tensor {
    assert_eq!(
        grad.len(),
        indices.len() * dim,
        "grad has {} elements, expected {} rows of {dim}",
        grad.len(),
        indices.len()
    );
    let mut out = Tensor::zeros([vocab, dim]);
    let g = grad.data();
    for (i, &fidx) in indices.data().iter().enumerate() {
        let row = fidx as usize;
        assert!(row < vocab, "scatter index {row} out of range for vocab {vocab}");
        let dst = &mut out.data_mut()[row * dim..(row + 1) * dim];
        for (d, &v) in dst.iter_mut().zip(&g[i * dim..(i + 1) * dim]) {
            *d += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    #[test]
    fn matrix_transpose() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let t = transpose2(&x, &pool());
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seeded(1);
        let x = Tensor::randn([3, 5], 0.0, 1.0, &mut rng);
        let tt = transpose2(&transpose2(&x, &pool()), &pool());
        assert_eq!(x, tt);
    }

    #[test]
    fn rank3_permutation() {
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), [2, 3, 4]);
        let p = transpose(&x, &[2, 0, 1], &pool());
        assert_eq!(p.shape().dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), x.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 0]), x.at(&[1, 0, 3]));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_perm_panics() {
        transpose(&Tensor::zeros([2, 2]), &[0, 0], &pool());
    }

    #[test]
    fn concat_last_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], [2, 1]);
        let c = concat(&[&a, &b], 1, &pool());
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_first_axis() {
        let a = Tensor::ones([1, 3]);
        let b = Tensor::zeros([2, 3]);
        let c = concat(&[&a, &b], 0, &pool());
        assert_eq!(c.shape().dims(), &[3, 3]);
        assert_eq!(&c.data()[..3], &[1.0; 3]);
        assert_eq!(&c.data()[3..], &[0.0; 6]);
    }

    #[test]
    fn slice_inverts_concat() {
        let mut rng = Rng::seeded(2);
        let a = Tensor::randn([2, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([2, 5], 0.0, 1.0, &mut rng);
        let c = concat(&[&a, &b], 1, &pool());
        assert_eq!(slice_axis(&c, 1, 0, 3, &pool()), a);
        assert_eq!(slice_axis(&c, 1, 3, 5, &pool()), b);
    }

    #[test]
    #[should_panic(expected = "exceeds axis extent")]
    fn oversized_slice_panics() {
        slice_axis(&Tensor::zeros([2, 3]), 1, 2, 2, &pool());
    }

    #[test]
    fn tile_repeats() {
        let x = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let t = tile(&x, &[2, 3], &pool());
        assert_eq!(t.shape().dims(), &[2, 6]);
        assert_eq!(t.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn tile_identity() {
        let mut rng = Rng::seeded(3);
        let x = Tensor::randn([3, 4], 0.0, 1.0, &mut rng);
        assert_eq!(tile(&x, &[1, 1], &pool()), x);
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let table = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let idx = Tensor::from_vec(vec![2.0, 0.0, 2.0], [3]);
        let g = gather_rows(&table, &idx, &pool());
        assert_eq!(g.shape().dims(), &[3, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);

        // Scatter ones back: row 2 referenced twice, row 0 once, row 1 never.
        let ones = Tensor::ones([3, 2]);
        let s = scatter_add_rows(3, 2, &idx, &ones);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_batched_indices() {
        let table = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [2, 2]);
        let idx = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], [2, 2]);
        let g = gather_rows(&table, &idx, &pool());
        assert_eq!(g.shape().dims(), &[2, 2, 2]);
        assert_eq!(g.at(&[0, 1, 0]), 2.0);
        assert_eq!(g.at(&[1, 1, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_bad_index_panics() {
        gather_rows(
            &Tensor::zeros([2, 2]),
            &Tensor::from_vec(vec![5.0], [1]),
            &pool(),
        );
    }
}

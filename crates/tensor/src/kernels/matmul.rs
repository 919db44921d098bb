//! Matrix multiplication reference kernels (op class A in the paper's
//! taxonomy).
//!
//! `MatMul` is the dominant operation of the fully-connected and
//! recurrent Fathom workloads (`speech`, `autoenc`, `seq2seq`, `memnet`).
//! The entry point is [`crate::kernels::gemm::matmul`], which picks
//! between the packed, register-tiled engine and the cache-blocked
//! row-parallel kernel [`matmul_rows`] here (see
//! [`crate::kernels::gemm::select`]).

use crate::pool::ExecPool;
use crate::tensor::Tensor;

/// Cache block edge for the k dimension.
const BLOCK_K: usize = 64;

/// `(m, k, n)` of `op(a) * op(b)`, where `a` is `[m, k]` (or `[k, m]`
/// when `transpose_a`) and `b` is `[k, n]` (or `[n, k]` when
/// `transpose_b`).
///
/// # Panics
///
/// Panics if either input is not rank 2 or the contraction dimensions
/// disagree.
pub(crate) fn product_dims(
    a: &Tensor,
    b: &Tensor,
    transpose_a: bool,
    transpose_b: bool,
) -> (usize, usize, usize) {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2, got {}", a.shape());
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2, got {}", b.shape());
    let (m, ka) = if transpose_a {
        (a.shape().dim(1), a.shape().dim(0))
    } else {
        (a.shape().dim(0), a.shape().dim(1))
    };
    let (kb, n) = if transpose_b {
        (b.shape().dim(1), b.shape().dim(0))
    } else {
        (b.shape().dim(0), b.shape().dim(1))
    };
    assert_eq!(
        ka, kb,
        "matmul contraction mismatch: op(a) is [{m}, {ka}], op(b) is [{kb}, {n}]"
    );
    (m, ka, n)
}

/// The pre-packing kernel: one parallel span per row of C, k-blocked.
/// Kept as the dispatch target for small products (packing would cost
/// more than it saves) and as the baseline the `gemm_scaling` benchmark
/// measures the packed engine against.
pub fn matmul_rows(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool, pool: &ExecPool) -> Tensor {
    let (m, k, n) = product_dims(a, b, transpose_a, transpose_b);
    let mut out = Tensor::zeros([m, n]);
    if m == 0 || n == 0 {
        return out;
    }
    let a_data = a.data();
    let b_data = b.data();
    // Row-parallel: each span is one row of C; work per span ~ k * n.
    pool.for_spans(out.data_mut(), n, k.saturating_mul(n), |i, c_row| {
        for k0 in (0..k).step_by(BLOCK_K) {
            let k1 = (k0 + BLOCK_K).min(k);
            if !transpose_b {
                // Stream rows of B; good locality in both B and C. The
                // transpose select is hoisted out of the k loop, and there
                // is no zero-skip: a data-dependent branch in the inner
                // loop costs more in mispredictions than the multiplies
                // it saves on typical (dense) activations.
                if transpose_a {
                    for kk in k0..k1 {
                        let a_ik = a_data[kk * m + i];
                        let b_row = &b_data[kk * n..kk * n + n];
                        for (c, &bv) in c_row.iter_mut().zip(b_row) {
                            *c += a_ik * bv;
                        }
                    }
                } else {
                    let a_row = &a_data[i * k + k0..i * k + k1];
                    for (off, &a_ik) in a_row.iter().enumerate() {
                        let b_row = &b_data[(k0 + off) * n..(k0 + off) * n + n];
                        for (c, &bv) in c_row.iter_mut().zip(b_row) {
                            *c += a_ik * bv;
                        }
                    }
                }
            } else {
                // B is [n, k]: dot products along contiguous rows of B.
                for (j, c) in c_row.iter_mut().enumerate() {
                    let b_row = &b_data[j * k + k0..j * k + k1];
                    let mut acc = 0.0;
                    if transpose_a {
                        for (off, &bv) in b_row.iter().enumerate() {
                            acc += a_data[(k0 + off) * m + i] * bv;
                        }
                    } else {
                        let a_row = &a_data[i * k + k0..i * k + k1];
                        for (av, bv) in a_row.iter().zip(b_row) {
                            acc += av * bv;
                        }
                    }
                    *c += acc;
                }
            }
        }
    });
    out
}

/// Reference implementation used by tests and property checks.
pub fn matmul_naive(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool) -> Tensor {
    let (m, k) = if transpose_a {
        (a.shape().dim(1), a.shape().dim(0))
    } else {
        (a.shape().dim(0), a.shape().dim(1))
    };
    let n = if transpose_b { b.shape().dim(0) } else { b.shape().dim(1) };
    let get_a = |i: usize, kk: usize| if transpose_a { a.at(&[kk, i]) } else { a.at(&[i, kk]) };
    let get_b = |kk: usize, j: usize| if transpose_b { b.at(&[j, kk]) } else { b.at(&[kk, j]) };
    let mut out = Tensor::zeros([m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += get_a(i, kk) * get_b(kk, j);
            }
            out.set(&[i, j], acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::quant::Precision;
    use crate::rng::Rng;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    /// The dispatching entry point at full precision, no epilogue.
    fn matmul(a: &Tensor, b: &Tensor, ta: bool, tb: bool, pool: &ExecPool) -> Tensor {
        crate::kernels::gemm::matmul(a, b, ta, tb, Precision::F32, None, pool)
    }

    #[test]
    fn identity_multiplication() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(matmul(&a, &eye, false, false, &pool()), a);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = matmul(&a, &b, false, false, &pool());
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Tensor::ones([3, 5]);
        let b = Tensor::ones([5, 2]);
        let c = matmul(&a, &b, false, false, &pool());
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.data(), &[5.0; 6]);
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        let mut rng = Rng::seeded(21);
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let (m, k, n) = (7, 9, 5);
            let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
            let fast = matmul(&a, &b, ta, tb, &pool());
            let slow = matmul_naive(&a, &b, ta, tb);
            assert!(
                fast.max_abs_diff(&slow) < 1e-4,
                "mismatch for ta={ta} tb={tb}: {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn large_parallel_matches_serial() {
        let mut rng = Rng::seeded(5);
        let a = Tensor::randn([64, 128], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([128, 96], 0.0, 1.0, &mut rng);
        let serial = matmul(&a, &b, false, false, &ExecPool::serial());
        let par = matmul(&a, &b, false, false, &ExecPool::new(8).with_grain(1));
        assert!(serial.max_abs_diff(&par) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "contraction mismatch")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]), false, false, &pool());
    }

    #[test]
    #[should_panic(expected = "must be rank 2")]
    fn non_matrix_panics() {
        matmul(&Tensor::zeros([2, 3, 4]), &Tensor::zeros([4, 2]), false, false, &pool());
    }

    #[test]
    fn empty_dimension() {
        let c = matmul(&Tensor::zeros([0, 3]), &Tensor::zeros([3, 4]), false, false, &pool());
        assert_eq!(c.shape().dims(), &[0, 4]);
        assert!(c.is_empty());
    }
}

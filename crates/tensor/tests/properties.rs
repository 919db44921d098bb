//! Property-based tests for the tensor kernels: algebraic laws that must
//! hold for arbitrary shapes and data, checked with proptest.

use fathom_tensor::kernels::conv::{conv2d, Conv2dSpec};
use fathom_tensor::kernels::elementwise as ew;
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::kernels::gemm;
use fathom_tensor::kernels::matmul::matmul_naive;
use fathom_tensor::kernels::pool2d::{avg_pool, max_pool, Pool2dSpec};
use fathom_tensor::kernels::reduce::{reduce_to_shape, reduce_all_sum};
use fathom_tensor::kernels::softmax::softmax;
use fathom_tensor::kernels::transform::{concat, slice_axis, tile, transpose};
use fathom_tensor::{ExecPool, Precision, Shape, Tensor};
use proptest::prelude::*;

/// The dispatching matmul at full precision, no epilogue.
fn matmul(a: &Tensor, b: &Tensor, ta: bool, tb: bool, pool: &ExecPool) -> Tensor {
    gemm::matmul(a, b, ta, tb, Precision::F32, None, pool)
}

fn pool() -> ExecPool {
    ExecPool::new(2).with_grain(64)
}

/// A tensor with the given shape and values in a tame range.
fn tensor_of(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    proptest::collection::vec(-10.0f32..10.0, n)
        .prop_map(move |data| Tensor::from_vec(data, Shape::new(dims.clone())))
}

/// Small non-empty shapes of rank 1..=3.
fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..5, 1..4)
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape() && a.max_abs_diff(b) <= tol
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn broadcast_is_commutative(a in small_dims(), b in small_dims()) {
        let (sa, sb) = (Shape::new(a), Shape::new(b));
        prop_assert_eq!(sa.broadcast(&sb), sb.broadcast(&sa));
    }

    #[test]
    fn broadcast_with_self_is_identity(dims in small_dims()) {
        let s = Shape::new(dims);
        prop_assert_eq!(s.broadcast(&s), Some(s.clone()));
    }

    #[test]
    fn add_commutes(dims in small_dims().prop_flat_map(|d| (tensor_of(d.clone()), tensor_of(d)))) {
        let (a, b) = dims;
        let ab = ew::eval(FusedOp::Add, &[&a, &b], &pool());
        let ba = ew::eval(FusedOp::Add, &[&b, &a], &pool());
        prop_assert!(close(&ab, &ba, 0.0));
    }

    #[test]
    fn add_neg_cancels(t in small_dims().prop_flat_map(tensor_of)) {
        let n = ew::eval(FusedOp::Neg, &[&t], &pool());
        let z = ew::eval(FusedOp::Add, &[&t, &n], &pool());
        prop_assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_matches_naive(
        (m, k, n) in (1usize..7, 1usize..7, 1usize..7),
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let fast = matmul(&a, &b, false, false, &pool());
        let slow = matmul_naive(&a, &b, false, false);
        prop_assert!(close(&fast, &slow, 1e-4));
    }

    #[test]
    fn matmul_transpose_identity(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        // (A B)^T == B^T A^T
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let ab = matmul(&a, &b, false, false, &pool());
        let ab_t = transpose(&ab, &[1, 0], &pool());
        // B^T A^T computed via transpose flags: matmul(b, a, tb=true, ta=true)
        let bt_at = matmul(&b, &a, true, true, &pool());
        prop_assert!(close(&ab_t, &bt_at, 1e-4));
    }

    #[test]
    fn transpose_roundtrip(t in small_dims().prop_flat_map(tensor_of), seed in 0u64..100) {
        // Apply a random permutation then its inverse.
        let rank = t.shape().rank();
        let mut perm: Vec<usize> = (0..rank).collect();
        let mut rng = fathom_tensor::Rng::seeded(seed);
        for i in (1..rank).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut inverse = vec![0usize; rank];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let fwd = transpose(&t, &perm, &pool());
        let back = transpose(&fwd, &inverse, &pool());
        prop_assert!(close(&back, &t, 0.0));
    }

    #[test]
    fn concat_slice_roundtrip(
        rows in 1usize..5,
        c1 in 1usize..5,
        c2 in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let a = Tensor::randn([rows, c1], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([rows, c2], 0.0, 1.0, &mut rng);
        let joined = concat(&[&a, &b], 1, &pool());
        prop_assert!(close(&slice_axis(&joined, 1, 0, c1, &pool()), &a, 0.0));
        prop_assert!(close(&slice_axis(&joined, 1, c1, c2, &pool()), &b, 0.0));
    }

    #[test]
    fn tile_scales_the_sum(t in small_dims().prop_flat_map(tensor_of), reps in 1usize..4) {
        let rank = t.shape().rank();
        let mut r = vec![1usize; rank];
        r[0] = reps;
        let tiled = tile(&t, &r, &pool());
        let expect = t.sum() * reps as f32;
        prop_assert!((tiled.sum() - expect).abs() <= 1e-3 * expect.abs().max(1.0));
    }

    #[test]
    fn reduce_to_shape_preserves_total(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let t = Tensor::randn([rows, cols], 0.0, 1.0, &mut rng);
        for target in [Shape::new(vec![1, cols]), Shape::new(vec![rows, 1]), Shape::scalar()] {
            let reduced = reduce_to_shape(&t, &target, &pool());
            let total = reduce_all_sum(&reduced, &pool()).scalar_value();
            prop_assert!((total - t.sum()).abs() < 1e-3, "target {target}: {total} vs {}", t.sum());
        }
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..6,
        cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let t = Tensor::randn([rows, cols], 0.0, 5.0, &mut rng);
        let s = softmax(&t, &pool());
        prop_assert!(s.min() >= 0.0);
        for r in 0..rows {
            let sum: f32 = s.data()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(
        cols in 1usize..8,
        shift in -50.0f32..50.0,
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let t = Tensor::randn([1, cols], 0.0, 2.0, &mut rng);
        let shifted = ew::eval(FusedOp::Add, &[&t, &Tensor::scalar(shift)], &pool());
        prop_assert!(softmax(&t, &pool()).max_abs_diff(&softmax(&shifted, &pool())) < 1e-5);
    }

    #[test]
    fn conv2d_is_linear_in_input(
        (h, w) in (4usize..8, 4usize..8),
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let x1 = Tensor::randn([1, h, w, 2], 0.0, 1.0, &mut rng);
        let x2 = Tensor::randn([1, h, w, 2], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([3, 3, 2, 3], 0.0, 1.0, &mut rng);
        let spec = Conv2dSpec::same(3);
        let sum_in = ew::eval(FusedOp::Add, &[&x1, &x2], &pool());
        let conv_sum = conv2d(&sum_in, &f, spec, None, &pool());
        let sum_conv = ew::eval(
            FusedOp::Add,
            &[&conv2d(&x1, &f, spec, None, &pool()), &conv2d(&x2, &f, spec, None, &pool())],
            &pool(),
        );
        prop_assert!(conv_sum.max_abs_diff(&sum_conv) < 1e-3);
    }

    #[test]
    fn max_pool_dominates_avg_pool(
        (h, w) in (4usize..9, 4usize..9),
        seed in 0u64..1000,
    ) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        let x = Tensor::randn([1, h - h % 2, w - w % 2, 2], 0.0, 1.0, &mut rng);
        let spec = Pool2dSpec::square(2);
        let mx = max_pool(&x, spec, &pool());
        let av = avg_pool(&x, spec, &pool());
        for (m, a) in mx.data().iter().zip(av.data()) {
            prop_assert!(m >= a, "max {m} < avg {a}");
        }
    }

    #[test]
    fn parallel_equals_serial_for_any_elementwise(
        t in small_dims().prop_flat_map(tensor_of),
    ) {
        let serial = ew::eval(FusedOp::Tanh, &[&t], &ExecPool::serial());
        let parallel = ew::eval(FusedOp::Tanh, &[&t], &ExecPool::new(4).with_grain(1));
        prop_assert!(close(&serial, &parallel, 0.0));
    }

    #[test]
    fn rng_below_respects_bound(seed in 0u64..10_000, bound in 1usize..100) {
        let mut rng = fathom_tensor::Rng::seeded(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }
}

//! Property tests for the implicit-GEMM convolution engine: forward,
//! backprop-input and backprop-filter over non-square windows, strides
//! 1–4, pads 0–3 (past the window too, where the transposed geometry's
//! pad goes negative), channel counts on both sides of the `MR`/`NR`
//! strip widths, and batches 1–4.
//!
//! 1. **Agreement** with the naive sums in `conv::*_naive`, to rounding.
//! 2. **Determinism**: bitwise equality at 1, 2 and 8 workers.
//! 3. **Batch independence**: sample `b` of a batch-B forward or
//!    backprop-input equals the batch-1 run on that sample, bitwise —
//!    what serving's batched == alone contract needs of every kernel.
//!    (Backprop-filter sums over the batch, so it has no such property.)
//! 4. **Epilogue fusion**: the fused forward equals the unfused one
//!    followed by `Epilogue::apply_flat`, bitwise.
//! 5. **The view is the matrix**: forward and backprop-filter equal
//!    `gemm_into` over a patch matrix materialized by the test, bitwise,
//!    with the other operand handed over plain (read in place where the
//!    driver can) and transposed (always packed) — so neither where a
//!    strip is read from nor who packs it changes a bit.

use fathom_tensor::kernels::conv::{
    conv2d, conv2d_backprop_filter, conv2d_backprop_filter_naive, conv2d_backprop_input,
    conv2d_backprop_input_naive, conv2d_naive, Conv2dSpec,
};
use fathom_tensor::kernels::epilogue::{Epilogue, EpilogueArg, EpilogueInstr, OperandKind};
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::kernels::gemm::gemm_into;
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};
use proptest::prelude::*;

/// One drawn convolution: shapes, spec and random operands.
#[derive(Debug)]
struct Case {
    spec: Conv2dSpec,
    x: Tensor,
    f: Tensor,
    g: Tensor,
}

#[allow(clippy::too_many_arguments)]
fn case(kh: usize, kw: usize, stride: usize, pad: usize, ic: usize, oc: usize, batch: usize, extra: (usize, usize), seed: u64) -> Case {
    let spec = Conv2dSpec { stride, pad };
    // The smallest extent the padded window fits in, plus some.
    let extent = |k: usize, more: usize| k.saturating_sub(2 * pad).max(1) + more;
    let mut rng = Rng::seeded(seed);
    let x = Tensor::randn([batch, extent(kh, extra.0), extent(kw, extra.1), ic], 0.0, 1.0, &mut rng);
    let f = Tensor::randn([kh, kw, ic, oc], 0.0, 1.0, &mut rng);
    let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
    Case { spec, x, f, g }
}

fn channels_in() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3usize), Just(4usize), Just(8usize), Just(17usize)]
}

fn channels_out() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(8usize), Just(16usize), Just(24usize), Just(33usize)]
}

fn wide(threads: usize) -> ExecPool {
    ExecPool::new(threads).with_grain(1)
}

/// The three ops on one pool.
fn run(c: &Case, pool: &ExecPool) -> [Tensor; 3] {
    [
        conv2d(&c.x, &c.f, c.spec, None, pool),
        conv2d_backprop_input(c.x.shape(), &c.f, &c.g, c.spec, pool),
        conv2d_backprop_filter(&c.x, c.f.shape(), &c.g, c.spec, pool),
    ]
}

/// Sample `b` of an NHWC tensor as a batch of one.
fn sample(t: &Tensor, b: usize) -> Tensor {
    let dims = t.shape().dims();
    let len = t.len() / dims[0];
    Tensor::from_vec(t.data()[b * len..(b + 1) * len].to_vec(), [1, dims[1], dims[2], dims[3]])
}

/// The patch matrix `[n*oh*ow, kh*kw*ic]` the engine never builds.
fn im2col(c: &Case) -> (Vec<f32>, usize, usize) {
    let (xd, fd) = (c.x.shape().dims(), c.f.shape().dims());
    let (n, h, w, ic) = (xd[0], xd[1], xd[2], xd[3]);
    let (kh, kw) = (fd[0], fd[1]);
    let (oh, ow) = (c.spec.out_extent(h, kh), c.spec.out_extent(w, kw));
    let kdim = kh * kw * ic;
    let mut patches = vec![0.0f32; n * oh * ow * kdim];
    for (row, patch) in patches.chunks_exact_mut(kdim.max(1)).enumerate() {
        let (b, oy, ox) = (row / (oh * ow), row / ow % oh, row % ow);
        for (d, slot) in patch.iter_mut().enumerate() {
            let (ky, kx, ch) = (d / (kw * ic), d / ic % kw, d % ic);
            let y = (oy * c.spec.stride + ky) as isize - c.spec.pad as isize;
            let x = (ox * c.spec.stride + kx) as isize - c.spec.pad as isize;
            if y >= 0 && y < h as isize && x >= 0 && x < w as isize {
                *slot = c.x.at(&[b, y as usize, x as usize, ch]);
            }
        }
    }
    (patches, n * oh * ow, kdim)
}

fn transposed(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols).map(|i| data[i % rows * cols + i / rows]).collect()
}

fn bias_relu() -> Epilogue {
    Epilogue {
        n_operands: 2,
        instrs: vec![
            EpilogueInstr {
                op: FusedOp::Add,
                args: vec![EpilogueArg::Acc, EpilogueArg::Operand { index: 0, kind: OperandKind::Col }],
            },
            EpilogueInstr {
                op: FusedOp::Add,
                args: vec![EpilogueArg::Operand { index: 1, kind: OperandKind::Full }, EpilogueArg::Acc],
            },
            EpilogueInstr { op: FusedOp::Relu, args: vec![EpilogueArg::Acc] },
        ],
    }
}

/// Agreement with the naive sums, bitwise equality across worker
/// counts, and batch independence of forward and backprop-input.
fn check_engine(c: &Case) {
    let (fd, batch) = (c.f.shape().dims(), c.x.shape().dims()[0]);
    let (taps, ic, oc) = (fd[0] * fd[1], fd[2], fd[3]);
    let serial = run(c, &ExecPool::serial());
    let naive = [
        conv2d_naive(&c.x, &c.f, c.spec),
        conv2d_backprop_input_naive(c.x.shape(), &c.f, &c.g, c.spec),
        conv2d_backprop_filter_naive(&c.x, c.f.shape(), &c.g, c.spec),
    ];
    // Rounding grows with the terms per sum; backprop-filter's run
    // over every pixel of the batch.
    let terms = [taps * ic, taps * oc, c.g.len() / oc];
    for (op, ((got, want), terms)) in
        ["forward", "backprop-input", "backprop-filter"].iter().zip(serial.iter().zip(&naive).zip(terms))
    {
        assert_eq!(got.shape(), want.shape());
        let tol = 2e-6 * terms as f32 + 1e-5;
        assert!(got.max_abs_diff(want) < tol, "{}: diff {} (tol {})", op, got.max_abs_diff(want), tol);
    }
    for threads in [2usize, 8] {
        let par = run(c, &wide(threads));
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.data(), p.data(), "{threads} workers diverged");
        }
    }
    for b in 0..batch {
        let alone = Case { spec: c.spec, x: sample(&c.x, b), f: c.f.clone(), g: sample(&c.g, b) };
        let [y, dx, _] = run(&alone, &wide(2));
        assert_eq!(sample(&serial[0], b).data(), y.data(), "forward sample {b}");
        assert_eq!(sample(&serial[1], b).data(), dx.data(), "backprop-input sample {b}");
    }
}

/// Fused == unfused then flat, and the view is the matrix wherever B is
/// read from.
fn check_fusion_and_view(c: &Case, seed: u64) {
    let oc = c.f.shape().dims()[3];
    let pool = wide(2);
    let [y, _, df] = run(c, &pool);

    let mut rng = Rng::seeded(seed ^ 0xE9);
    let bias = Tensor::randn([oc], 0.0, 1.0, &mut rng);
    let residual = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
    let ep = bias_relu();
    let ops: [&[f32]; 2] = [bias.data(), residual.data()];
    let fused = conv2d(&c.x, &c.f, c.spec, Some((&ep, &ops)), &pool);
    let mut unfused = y.clone();
    ep.apply_flat(unfused.data_mut(), y.len() / oc, oc, &ops, &pool);
    assert_eq!(fused.data(), unfused.data(), "fused epilogue");

    let (patches, rows, kdim) = im2col(c);
    let gemm = |m, n, k, a: &[f32], ta, b: &[f32], tb| {
        let mut out = vec![f32::NAN; m * n];
        gemm_into(&mut out, m, n, k, a, ta, b, tb, Precision::F32, None, &pool);
        out
    };
    let f_t = transposed(c.f.data(), kdim, oc);
    assert_eq!(y.data(), &gemm(rows, oc, kdim, &patches, false, c.f.data(), false)[..], "forward, B plain");
    assert_eq!(y.data(), &gemm(rows, oc, kdim, &patches, false, &f_t, true)[..], "forward, B packed");
    let g_t = transposed(c.g.data(), rows, oc);
    assert_eq!(df.data(), &gemm(kdim, oc, rows, &patches, true, c.g.data(), false)[..], "backprop-filter, B plain");
    assert_eq!(df.data(), &gemm(kdim, oc, rows, &patches, true, &g_t, true)[..], "backprop-filter, B packed");
}

/// Geometries the draws cannot reach. The drawn filters stop at 5×5 and
/// the drawn channel counts keep every contraction inside one 512-deep
/// K block; the workloads' own layers do neither. The first six rows
/// are the conv nets' first layers (alexnet's 11×11 and deepq's 8×8,
/// both stride 4) plus a strided, a pointwise and a 2×2-spatial layer
/// at their real sizes. In the rest the second and third K blocks start
/// inside a window row of the patch view (and inside a tap of the
/// flipped filter), which is where the hot layers of `vgg` and
/// `residual` (`kh*kw*ic` = 1152) run.
#[test]
fn workload_layers_and_contractions_deeper_than_a_k_block() {
    // (kh, kw, stride, pad, ic, oc, batch, extra)
    let fixed = [
        (3, 3, 1, 1, 3, 16, 2, (31, 31)),    // residual/vgg stem, 32x32
        (11, 11, 4, 2, 3, 24, 2, (57, 57)),  // alexnet conv1, 64x64
        (8, 8, 4, 0, 4, 8, 2, (76, 76)),     // deepq conv1, 84x84
        (3, 3, 2, 1, 16, 32, 2, (31, 31)),   // stride 2, 32x32
        (1, 1, 1, 0, 32, 64, 2, (15, 15)),   // pointwise, 16x16
        (3, 3, 1, 1, 128, 128, 2, (1, 1)),   // 2x2-spatial, depth 1152
        (3, 3, 1, 1, 64, 16, 2, (3, 4)),   // forward / backprop-filter depth 576
        (3, 3, 1, 1, 128, 32, 2, (1, 1)),  // 2x2-spatial, depth 1152, filter read in place
        (3, 3, 1, 1, 8, 72, 2, (2, 2)),    // backprop-input's view of G, depth 648
        (5, 3, 2, 2, 40, 16, 2, (4, 4)),   // stride 2, depth 600, ic off the strip width
        (3, 3, 1, 1, 3, 8, 2, (19, 19)),   // 800 pixels: backprop-filter's depth
    ];
    for (seed, (kh, kw, stride, pad, ic, oc, batch, extra)) in fixed.into_iter().enumerate() {
        let c = case(kh, kw, stride, pad, ic, oc, batch, extra, seed as u64);
        check_engine(&c);
        check_fusion_and_view(&c, seed as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_naive_and_is_bitwise_deterministic_and_batch_independent(
        kh in 1usize..6,
        kw in 1usize..6,
        stride in 1usize..5,
        pad in 0usize..4,
        ic in channels_in(),
        oc in channels_out(),
        batch in 1usize..5,
        extra in (0usize..9, 0usize..9),
        seed in 0u64..1000,
    ) {
        check_engine(&case(kh, kw, stride, pad, ic, oc, batch, extra, seed));
    }

    #[test]
    fn fused_epilogue_and_materialized_patches_agree_bitwise(
        kh in 1usize..5,
        kw in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        ic in channels_in(),
        oc in channels_out(),
        batch in 1usize..4,
        extra in (0usize..12, 0usize..12),
        seed in 0u64..1000,
    ) {
        check_fusion_and_view(&case(kh, kw, stride, pad, ic, oc, batch, extra, seed), seed);
    }
}

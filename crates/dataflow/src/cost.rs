//! Static cost estimates for operations.
//!
//! Costs drive the [`crate::device::GpuModel`] roofline device (the Fathom
//! paper measured a real GTX 960; we substitute an analytic model — see
//! DESIGN.md) and provide flop counts for reports.

use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::{Precision, Shape};

use crate::graph::Node;
use crate::op::{GemmOp, OpKind};

/// Estimated work of one operation execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct OpCost {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved between memory and the compute units (inputs + outputs,
    /// each counted once).
    pub bytes: f64,
}

impl OpCost {
    /// Arithmetic intensity in flops per byte (0 when no bytes move).
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            0.0
        } else {
            self.flops / self.bytes
        }
    }

    /// The op's work in abstract "elements" — the larger of its flop
    /// count and the f32 elements it moves. This is the unit
    /// [`crate::sched::chosen_width`] compares against the intra-op
    /// pool's grain when deciding how wide to run the op.
    pub fn work_elements(&self) -> usize {
        let elems = (self.bytes / 4.0).max(0.0);
        let work = self.flops.max(elems);
        if work >= usize::MAX as f64 {
            usize::MAX
        } else {
            work.max(0.0) as usize
        }
    }
}

/// How a convolution (and its gradients) should execute on CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvLowering {
    /// Direct nested loops over the output (or input/filter for the
    /// gradients).
    Direct,
    /// im2col patch materialization plus a packed GEMM (col2im for the
    /// input gradient).
    Im2colGemm,
}

/// Picks the convolution lowering from flop/byte estimates of the
/// geometry, at full precision. See [`conv2d_lowering_with`].
pub fn conv2d_lowering(input: &Shape, filter: &Shape, spec: Conv2dSpec) -> ConvLowering {
    conv2d_lowering_with(input, filter, spec, Precision::F32)
}

/// Picks the convolution lowering from flop/byte estimates of the
/// geometry.
///
/// im2col duplicates the input up to `kh*kw` times, so it only pays when
/// the GEMM does enough arithmetic per byte of patch-matrix traffic to
/// amortize the copy — and when there is enough total work for packed
/// GEMM to beat the direct kernel's simpler loops.
///
/// Intensity and total work alone over-predict im2col on small-`k`
/// geometries: the PR-4 ablation's `32x32 3x3 c16->16` case clears both
/// bars (intensity 3.6, 4.7 MFLOP) yet loses to the direct kernel,
/// because its weight panel (`kdim × oc` ≈ 9 KB) is too small for the
/// packed engine's panel reuse to beat direct loops that never build a
/// patch matrix at all. The third condition below captures that: im2col
/// needs either a large filter window (`kh*kw ≥ 25`, where the direct
/// kernel's per-output work explodes — the deepq 8×8 geometry) or a
/// weight panel big enough to amortize packing (≥ 32 KB, the same
/// `k*n ≥ 8192`-elements-at-f32 floor as
/// [`fathom_tensor::kernels::gemm::select`]). The panel bound is in
/// *bytes* at the packed element width, so bf16 halves it and marginal
/// panels drop back to Direct — under bf16 the GEMM's bandwidth win
/// shrinks while the (always-f32) patch-copy cost does not.
///
/// Every term is **per sample**: the batch extent is deliberately
/// excluded so a batch-1 serving graph and a batch-B graph over the same
/// geometry pick the same lowering (serving's bitwise batch-independence
/// contract).
pub fn conv2d_lowering_with(
    input: &Shape,
    filter: &Shape,
    spec: Conv2dSpec,
    precision: Precision,
) -> ConvLowering {
    assert_eq!(input.rank(), 4, "conv2d input must be NHWC, got {input}");
    assert_eq!(filter.rank(), 4, "conv2d filter must be [kh,kw,ic,oc], got {filter}");
    let (kh, kw, ic, oc) = (filter.dim(0), filter.dim(1), filter.dim(2), filter.dim(3));
    let (h, w) = (input.dim(1), input.dim(2));
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let kdim = (kh * kw * ic) as f64;
    let out_px = (oh * ow) as f64;
    // Work and traffic for one sample's lowered GEMM: patch matrix
    // written once and read once, plus filter, input, and output moved
    // once each. The patch matrix is always materialized at f32; only
    // the packed GEMM panels narrow under bf16.
    let gemm_flops = 2.0 * out_px * kdim * oc as f64;
    let bytes = 4.0
        * (2.0 * out_px * kdim
            + kdim * oc as f64
            + (h * w * ic) as f64
            + out_px * oc as f64);
    let intensity = OpCost { flops: gemm_flops, bytes }.intensity();
    let elem_bytes = match precision {
        Precision::F32 => 4.0,
        Precision::Bf16 => 2.0,
    };
    let panel_bytes = elem_bytes * kdim * oc as f64;
    let big_window = kh * kw >= 25;
    if intensity >= 2.0 && gemm_flops >= 100_000.0 && (big_window || panel_bytes >= 32768.0) {
        ConvLowering::Im2colGemm
    } else {
        ConvLowering::Direct
    }
}

/// Whether a MatMul/Conv2D node with these input shapes is a profitable
/// root for GEMM-epilogue fusion.
///
/// Every MatMul qualifies: geometries that route through the packed
/// engine apply the epilogue to register-resident tiles, and the
/// row-parallel fallback applies it as one flat pass over the output —
/// either way the absorbed chain sheds its node dispatches, intermediate
/// allocations, and round trips, so fusion is never a loss. (On
/// RNN-style graphs with thousands of small matmuls per step, the
/// dispatch savings on the fallback path are most of the win.) Conv2D
/// qualifies only when it lowers through im2col — the direct kernel is
/// chosen precisely when the output is too small for the GEMM machinery
/// to pay off, and its post-hoc epilogue pass saves nothing over leaving
/// the chain to [`crate::optimize::fuse_in_place`].
///
/// Like [`fathom_tensor::kernels::gemm::select`] and [`conv2d_lowering`], the answer is
/// independent of the batch extent, preserving serving's bitwise
/// batch-independence contract.
pub fn gemm_epilogue_profitable(kind: &OpKind, input_shapes: &[&Shape]) -> bool {
    match kind {
        OpKind::MatMul { .. } => true,
        OpKind::Conv2D(spec) => {
            conv2d_lowering(input_shapes[0], input_shapes[1], *spec) == ConvLowering::Im2colGemm
        }
        _ => false,
    }
}

/// Estimates the cost of executing `node` once, given resolved input
/// shapes.
pub fn estimate(node: &Node, input_shapes: &[&Shape]) -> OpCost {
    let out_elems = node.shape.num_elements() as f64;
    let in_elems: f64 = input_shapes.iter().map(|s| s.num_elements() as f64).sum();
    let bytes = 4.0 * (in_elems + out_elems);
    let flops = match &node.kind {
        OpKind::MatMul { transpose_a, .. } => {
            // out is [m, n]; contraction length from the lhs.
            let a = input_shapes[0];
            let k = if *transpose_a { a.dim(0) } else { a.dim(1) } as f64;
            2.0 * out_elems * k
        }
        OpKind::Conv2D(_) => {
            // out [n, oh, ow, oc]; filter [kh, kw, ic, oc]
            let f = input_shapes[1];
            2.0 * out_elems * (f.dim(0) * f.dim(1) * f.dim(2)) as f64
        }
        OpKind::Conv2DBackpropInput { .. } => {
            let f = input_shapes[0];
            2.0 * input_shapes[1].num_elements() as f64 * (f.dim(0) * f.dim(1) * f.dim(2)) as f64
        }
        OpKind::Conv2DBackpropFilter { filter_shape, .. } => {
            2.0 * input_shapes[1].num_elements() as f64
                * (filter_shape.dim(0) * filter_shape.dim(1) * filter_shape.dim(2)) as f64
        }
        OpKind::MaxPool(spec) | OpKind::AvgPool(spec) => {
            out_elems * (spec.window * spec.window) as f64
        }
        OpKind::MaxPoolGrad(spec) => {
            input_shapes[1].num_elements() as f64 * (spec.window * spec.window) as f64
        }
        OpKind::AvgPoolGrad { spec, .. } => {
            input_shapes[0].num_elements() as f64 * (spec.window * spec.window) as f64
        }
        OpKind::Softmax | OpKind::LogSoftmax | OpKind::SoftmaxGrad => 10.0 * out_elems,
        OpKind::SoftmaxCrossEntropy | OpKind::SoftmaxCrossEntropyGrad => {
            10.0 * input_shapes[0].num_elements() as f64
        }
        OpKind::CtcLoss { .. } | OpKind::CtcLossGrad { .. } => {
            // Forward-backward over the extended label lattice: roughly
            // 2 * T * B * (2L+1) * 3 plus the per-frame softmax. Label
            // length is unknown statically; approximate the lattice with
            // the class count.
            30.0 * input_shapes[0].num_elements() as f64
        }
        OpKind::StandardRandomNormal { .. } | OpKind::RandomUniform { .. }
        | OpKind::DropoutMask { .. } => 12.0 * out_elems,
        OpKind::ApplyGradientDescent { .. } => 2.0 * out_elems,
        OpKind::ApplyMomentum { .. } => 4.0 * out_elems,
        OpKind::ApplyRmsProp { .. } => 8.0 * out_elems,
        OpKind::ApplyAdam { .. } => 10.0 * out_elems,
        // A fused group's arithmetic is the sum of its constituents'
        // (the default `bytes` above already counts only external
        // traffic, which is exactly the fusion win).
        OpKind::Fused(program) => {
            program.instrs.iter().map(|i| i.op.flops_per_elem(i.args.len())).sum::<f64>()
                * out_elems
        }
        // GEMM root plus its absorbed epilogue; as with `Fused`, the
        // default `bytes` counts only external traffic.
        OpKind::GemmFused { gemm, epilogue } => {
            let root = match gemm {
                GemmOp::MatMul { transpose_a, .. } => {
                    let a = input_shapes[0];
                    let k = if *transpose_a { a.dim(0) } else { a.dim(1) } as f64;
                    2.0 * out_elems * k
                }
                GemmOp::Conv2D(_) => {
                    let f = input_shapes[1];
                    2.0 * out_elems * (f.dim(0) * f.dim(1) * f.dim(2)) as f64
                }
            };
            root + epilogue.instrs.iter().map(|i| i.op.flops_per_elem(i.args.len())).sum::<f64>()
                * out_elems
        }
        OpKind::Sum { .. } | OpKind::Mean { .. } | OpKind::MaxReduce { .. } => in_elems,
        // Class-C ops cost what their op table row says, fused or not.
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Maximum | OpKind::Pow
        | OpKind::Greater | OpKind::GreaterEqual | OpKind::Equal | OpKind::Select
        | OpKind::Neg | OpKind::Exp | OpKind::Log | OpKind::Sqrt | OpKind::Square
        | OpKind::Tanh | OpKind::Sigmoid | OpKind::Relu | OpKind::ReluGrad | OpKind::TanhGrad
        | OpKind::SigmoidGrad | OpKind::AddN => {
            let op = node.kind.class_c().expect("class-C kinds have a table row");
            op.flops_per_elem(input_shapes.len()) * out_elems
        }
        // Pure movement and metadata.
        OpKind::Placeholder { .. } | OpKind::Variable { .. } | OpKind::Constant(_)
        | OpKind::Identity | OpKind::Reshape(_) | OpKind::Transpose { .. }
        | OpKind::Concat { .. } | OpKind::Slice { .. } | OpKind::Gather
        | OpKind::ScatterAddRows { .. } | OpKind::ShapeOf | OpKind::StopGradient
        | OpKind::Tile { .. } | OpKind::Group => 0.0,
    };
    OpCost { flops, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use fathom_tensor::kernels::conv::Conv2dSpec;
    use fathom_tensor::Tensor;

    #[test]
    fn matmul_flops() {
        let mut g = Graph::new();
        let a = g.placeholder("a", Shape::matrix(8, 16));
        let b = g.placeholder("b", Shape::matrix(16, 4));
        let c = g.matmul(a, b);
        let cost = estimate(g.node(c), &[g.shape(a), g.shape(b)]);
        assert_eq!(cost.flops, 2.0 * 8.0 * 16.0 * 4.0);
        assert_eq!(cost.bytes, 4.0 * (8.0 * 16.0 + 16.0 * 4.0 + 8.0 * 4.0));
    }

    #[test]
    fn conv_flops() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::new(vec![1, 8, 8, 3]));
        let f = g.variable("f", Tensor::zeros([3, 3, 3, 16]));
        let y = g.conv2d(x, f, Conv2dSpec::same(3));
        let cost = estimate(g.node(y), &[g.shape(x), g.shape(f)]);
        // out elems = 8*8*16 = 1024; per-output macs = 3*3*3 = 27
        assert_eq!(cost.flops, 2.0 * 1024.0 * 27.0);
    }

    #[test]
    fn movement_ops_have_zero_flops() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 4));
        let t = g.transpose(x, vec![1, 0]);
        let cost = estimate(g.node(t), &[g.shape(x)]);
        assert_eq!(cost.flops, 0.0);
        assert!(cost.bytes > 0.0);
    }

    #[test]
    fn lowering_heuristic_on_clear_cut_geometries() {
        // Deep residual-style body: many channels both sides, 3x3 same.
        // GEMM arithmetic dwarfs the patch copy.
        assert_eq!(
            conv2d_lowering(
                &Shape::new(vec![1, 8, 8, 64]),
                &Shape::new(vec![3, 3, 64, 64]),
                Conv2dSpec::same(3),
            ),
            ConvLowering::Im2colGemm
        );
        // The deepq first conv: fat 8x8 patches, enough output channels.
        assert_eq!(
            conv2d_lowering(
                &Shape::new(vec![4, 20, 20, 4]),
                &Shape::new(vec![8, 8, 4, 16]),
                Conv2dSpec { stride: 4, pad: 0 },
            ),
            ConvLowering::Im2colGemm
        );
        // Single output channel: the GEMM cannot amortize duplicating
        // the input kh*kw times.
        assert_eq!(
            conv2d_lowering(
                &Shape::new(vec![1, 32, 32, 3]),
                &Shape::new(vec![3, 3, 3, 1]),
                Conv2dSpec::same(3),
            ),
            ConvLowering::Direct
        );
        // Tiny total work: packing overhead swamps the product.
        assert_eq!(
            conv2d_lowering(
                &Shape::new(vec![1, 5, 5, 2]),
                &Shape::new(vec![3, 3, 2, 4]),
                Conv2dSpec::valid(),
            ),
            ConvLowering::Direct
        );
    }

    #[test]
    fn refit_rejects_the_small_panel_ablation_loser() {
        // The `32x32 3x3 c16->16` geometry cleared the old intensity/
        // flop bars but lost to the direct kernel in the PR-4 ablation
        // (3/4): its 9 KB weight panel cannot amortize im2col's patch
        // copy. The panel-bytes condition pins it to Direct.
        assert_eq!(
            conv2d_lowering(
                &Shape::new(vec![2, 32, 32, 16]),
                &Shape::new(vec![3, 3, 16, 16]),
                Conv2dSpec::same(3),
            ),
            ConvLowering::Direct
        );
    }

    #[test]
    fn lowering_panel_bound_narrows_under_bf16() {
        // 36 KB f32 weight panel: above the 32 KB bound at f32, below it
        // at bf16 (18 KB) — the GEMM's bandwidth win halves while the
        // f32 patch copy does not, so the marginal geometry drops back
        // to Direct.
        let input = Shape::new(vec![1, 16, 16, 32]);
        let filter = Shape::new(vec![3, 3, 32, 32]);
        let spec = Conv2dSpec::same(3);
        assert_eq!(
            conv2d_lowering_with(&input, &filter, spec, Precision::F32),
            ConvLowering::Im2colGemm
        );
        assert_eq!(
            conv2d_lowering_with(&input, &filter, spec, Precision::Bf16),
            ConvLowering::Direct
        );
        // A deep geometry stays Im2colGemm at either width.
        let deep_in = Shape::new(vec![1, 8, 8, 64]);
        let deep_f = Shape::new(vec![3, 3, 64, 64]);
        assert_eq!(
            conv2d_lowering_with(&deep_in, &deep_f, spec, Precision::Bf16),
            ConvLowering::Im2colGemm
        );
    }

    #[test]
    fn lowering_ignores_batch() {
        // Identical geometry, batch 1 vs 64: same choice, by construction.
        for &(h, ic, oc) in &[(6, 2, 4), (8, 64, 64), (20, 4, 16)] {
            let f = Shape::new(vec![3, 3, ic, oc]);
            let spec = Conv2dSpec::same(3);
            let one = conv2d_lowering(&Shape::new(vec![1, h, h, ic]), &f, spec);
            let many = conv2d_lowering(&Shape::new(vec![64, h, h, ic]), &f, spec);
            assert_eq!(one, many, "lowering must not depend on batch (h={h} ic={ic} oc={oc})");
        }
    }

    #[test]
    fn intensity_of_matmul_exceeds_elementwise() {
        let mut g = Graph::new();
        let a = g.placeholder("a", Shape::matrix(128, 128));
        let b = g.placeholder("b", Shape::matrix(128, 128));
        let mm = g.matmul(a, b);
        let ew = g.add_op(a, b);
        let mm_cost = estimate(g.node(mm), &[g.shape(a), g.shape(b)]);
        let ew_cost = estimate(g.node(ew), &[g.shape(a), g.shape(b)]);
        assert!(mm_cost.intensity() > 10.0 * ew_cost.intensity());
    }
}

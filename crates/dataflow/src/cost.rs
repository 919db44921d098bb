//! Static cost estimates for operations.
//!
//! Costs drive the [`crate::device::GpuModel`] roofline device (the Fathom
//! paper measured a real GTX 960; we substitute an analytic model — see
//! DESIGN.md) and provide flop counts for reports.

use fathom_tensor::Shape;

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

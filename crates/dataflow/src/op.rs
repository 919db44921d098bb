//! The operation vocabulary of the dataflow graph.
//!
//! An operation is "a node in the coarse-grained dataflow graph that
//! defines a model … the smallest schedulable unit in the runtime"
//! (paper, §V-A). Operation names deliberately mirror TensorFlow's so that
//! profiles read like the paper's figures (`MatMul`, `Conv2DBackpropFilter`,
//! `ApplyRMSProp`, `Tile`, …).

use std::fmt;

use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::kernels::epilogue::{Epilogue, OperandKind};
use fathom_tensor::kernels::fused::{FusedOp, FusedProgram};
use fathom_tensor::kernels::pool2d::Pool2dSpec;
use fathom_tensor::{Shape, Tensor};

use crate::graph::GraphError;
use crate::optim::Optimizer;

/// The GEMM-backed root of a [`OpKind::GemmFused`] node: the operation
/// whose packed-engine writeback carries the epilogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GemmOp {
    /// 2-D matrix product, as [`OpKind::MatMul`].
    MatMul {
        /// Transpose the left operand before multiplying.
        transpose_a: bool,
        /// Transpose the right operand before multiplying.
        transpose_b: bool,
    },
    /// NHWC convolution, as [`OpKind::Conv2D`].
    Conv2D(Conv2dSpec),
}

/// The seven operation classes of the paper's Figure 3 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Group A: dense matrix operations.
    MatrixOps,
    /// Group B: convolution and pooling.
    Convolution,
    /// Group C: elementwise arithmetic.
    ElementwiseArithmetic,
    /// Group D: reductions and expansions.
    ReductionExpansion,
    /// Group E: random sampling.
    RandomSampling,
    /// Group F: optimizer/parameter-update operations.
    Optimization,
    /// Group G: data movement (reshape, transpose, gather, …).
    DataMovement,
}

impl OpClass {
    /// All classes in the paper's A–G order.
    pub const ALL: [OpClass; 7] = [
        OpClass::MatrixOps,
        OpClass::Convolution,
        OpClass::ElementwiseArithmetic,
        OpClass::ReductionExpansion,
        OpClass::RandomSampling,
        OpClass::Optimization,
        OpClass::DataMovement,
    ];

    /// The single-letter label used by the paper's Figure 3 ("A".."G").
    pub fn letter(&self) -> char {
        match self {
            OpClass::MatrixOps => 'A',
            OpClass::Convolution => 'B',
            OpClass::ElementwiseArithmetic => 'C',
            OpClass::ReductionExpansion => 'D',
            OpClass::RandomSampling => 'E',
            OpClass::Optimization => 'F',
            OpClass::DataMovement => 'G',
        }
    }

    /// Human-readable class name as printed in the figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            OpClass::MatrixOps => "Matrix Operations",
            OpClass::Convolution => "Convolution",
            OpClass::ElementwiseArithmetic => "Elementwise Arithmetic",
            OpClass::ReductionExpansion => "Reduction and Expansion",
            OpClass::RandomSampling => "Random Sampling",
            OpClass::Optimization => "Optimization",
            OpClass::DataMovement => "Data Movement",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Every operation type the runtime can schedule.
///
/// Attribute-carrying variants hold their static configuration (stride,
/// axis, …); the tensors themselves always flow along graph edges, except
/// for `Constant` and the initial value of `Variable`.
///
/// Two classes are tables rather than lists of variants. Each class-C
/// kind maps to one [`FusedOp`] row ([`OpKind::class_c`]), which holds its
/// name, flop weight and formula. Class F is one variant,
/// [`OpKind::Apply`], whose [`Optimizer`] holds the update's name, state
/// slots, flop weight, learning rate and rule.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ---- graph inputs and state ----
    /// A value fed at `Session::run` time.
    Placeholder {
        /// Static shape of the fed value.
        shape: Shape,
    },
    /// Mutable model state, initialized from `init` and updated by
    /// [`OpKind::Apply`].
    Variable {
        /// Initial value installed when a session is created.
        init: Tensor,
    },
    /// An immutable embedded value.
    Constant(Tensor),
    /// Passes its input through unchanged.
    Identity,

    // ---- class A: matrix operations ----
    /// 2-D matrix product with optional operand transposition.
    MatMul {
        /// Transpose the left operand before multiplying.
        transpose_a: bool,
        /// Transpose the right operand before multiplying.
        transpose_b: bool,
    },

    // ---- class B: convolution ----
    /// NHWC 2-D convolution.
    Conv2D(Conv2dSpec),
    /// Gradient of `Conv2D` w.r.t. its input; inputs are `(filter, grad)`.
    Conv2DBackpropInput {
        /// Geometry of the forward convolution.
        spec: Conv2dSpec,
        /// NHWC shape of the forward input being reconstructed.
        input_shape: Shape,
    },
    /// Gradient of `Conv2D` w.r.t. its filter; inputs are `(input, grad)`.
    Conv2DBackpropFilter {
        /// Geometry of the forward convolution.
        spec: Conv2dSpec,
        /// Shape of the filter being accumulated.
        filter_shape: Shape,
    },
    /// NHWC max pooling.
    MaxPool(Pool2dSpec),
    /// Gradient of `MaxPool`; inputs are `(input, grad)`.
    MaxPoolGrad(Pool2dSpec),
    /// NHWC average pooling.
    AvgPool(Pool2dSpec),
    /// Gradient of `AvgPool`; input is `(grad)`, with the forward input
    /// shape carried as an attribute.
    AvgPoolGrad {
        /// Geometry of the forward pooling.
        spec: Pool2dSpec,
        /// NHWC shape of the forward input.
        input_shape: Shape,
    },

    // ---- class C: elementwise arithmetic ----
    /// Broadcasting addition.
    Add,
    /// Broadcasting subtraction.
    Sub,
    /// Broadcasting multiplication.
    Mul,
    /// Broadcasting division.
    Div,
    /// Broadcasting elementwise maximum.
    Maximum,
    /// Broadcasting elementwise power.
    Pow,
    /// Broadcasting elementwise `a > b`, producing 0/1 values.
    Greater,
    /// Broadcasting elementwise `a >= b`, producing 0/1 values.
    GreaterEqual,
    /// Broadcasting elementwise `a == b`, producing 0/1 values.
    Equal,
    /// Elementwise ternary select: inputs are `(cond, a, b)`; yields `a`
    /// where `cond != 0`, else `b`. All three shapes must broadcast
    /// together.
    Select,
    /// Elementwise negation.
    Neg,
    /// Elementwise exponential.
    Exp,
    /// Elementwise natural logarithm.
    Log,
    /// Elementwise square root.
    Sqrt,
    /// Elementwise square.
    Square,
    /// Elementwise hyperbolic tangent.
    Tanh,
    /// Elementwise logistic sigmoid.
    Sigmoid,
    /// Elementwise rectified linear unit.
    Relu,
    /// Backward ReLU; inputs are `(forward_input, grad)`.
    ReluGrad,
    /// Backward tanh; inputs are `(forward_output, grad)`.
    TanhGrad,
    /// Backward sigmoid; inputs are `(forward_output, grad)`.
    SigmoidGrad,
    /// Sum of N same-shaped tensors.
    AddN,
    /// A group of pure elementwise ops collapsed by the fusion pass into
    /// one register program, evaluated in a single loop-jammed pass (see
    /// [`crate::optimize::fuse_in_place`]). Inputs are the group's
    /// external inputs, each either output-shaped or a broadcast scalar.
    Fused(FusedProgram),
    /// A MatMul/Conv2D whose elementwise consumer chain has been
    /// absorbed into the packed GEMM writeback as an [`Epilogue`]
    /// program (see [`crate::optimize::fuse_gemm_epilogues`]). Inputs
    /// are the GEMM's two operands followed by the epilogue's external
    /// operands in program order. Classified under its root's op class
    /// — the trace layer re-expands the epilogue's constituents for
    /// Figure 3 attribution.
    GemmFused {
        /// The GEMM-backed root operation.
        gemm: GemmOp,
        /// Post-ops applied to the accumulator before writeback.
        epilogue: Epilogue,
    },

    // ---- class D: reduction and expansion ----
    /// Sum along `axis`, or over all elements when `axis` is `None`.
    Sum {
        /// Axis to reduce, or `None` for a full reduction to a scalar.
        axis: Option<usize>,
        /// Keep the reduced axis with extent 1.
        keep_dims: bool,
    },
    /// Mean along `axis`, or over all elements when `axis` is `None`.
    Mean {
        /// Axis to reduce, or `None` for a full reduction to a scalar.
        axis: Option<usize>,
        /// Keep the reduced axis with extent 1.
        keep_dims: bool,
    },
    /// Maximum along `axis`.
    MaxReduce {
        /// Axis to reduce.
        axis: usize,
        /// Keep the reduced axis with extent 1.
        keep_dims: bool,
    },
    /// Softmax along the last axis.
    Softmax,
    /// Log-softmax along the last axis.
    LogSoftmax,
    /// Backward softmax; inputs are `(softmax_output, grad)`.
    SoftmaxGrad,
    /// Fused softmax cross-entropy mean loss; inputs are
    /// `(logits, labels)` where labels are integer class ids.
    SoftmaxCrossEntropy,
    /// Gradient of [`OpKind::SoftmaxCrossEntropy`] w.r.t. logits per unit
    /// upstream gradient; inputs are `(logits, labels)`.
    SoftmaxCrossEntropyGrad,
    /// CTC mean negative log-likelihood; inputs are `(logits, labels)`
    /// with logits `[time, batch, classes]` and labels `[batch, max_len]`
    /// padded with `-1`.
    CtcLoss {
        /// Class index reserved for the CTC blank symbol.
        blank: usize,
    },
    /// Gradient of [`OpKind::CtcLoss`] w.r.t. logits per unit upstream
    /// gradient; same inputs as the loss.
    CtcLossGrad {
        /// Class index reserved for the CTC blank symbol.
        blank: usize,
    },
    /// Repeats the input along each axis.
    Tile {
        /// Repetition count per axis; length must equal the input rank.
        reps: Vec<usize>,
    },

    // ---- class E: random sampling ----
    /// Draws a tensor of i.i.d. normal samples.
    StandardRandomNormal {
        /// Shape of the sample.
        shape: Shape,
        /// Distribution mean.
        mean: f32,
        /// Distribution standard deviation.
        std: f32,
    },
    /// Draws a tensor of i.i.d. uniform samples in `[lo, hi)`.
    RandomUniform {
        /// Shape of the sample.
        shape: Shape,
        /// Inclusive lower bound.
        lo: f32,
        /// Exclusive upper bound.
        hi: f32,
    },
    /// Produces an inverted-dropout mask shaped like its input: each
    /// element is `0` with probability `rate`, else `1/(1-rate)`.
    DropoutMask {
        /// Probability of zeroing each element.
        rate: f32,
    },

    // ---- class F: optimization ----
    /// One optimizer update of a variable, in place; inputs are
    /// `(variable, grad)`. The [`Optimizer`] names the op in profiles
    /// and holds its slots, flop weight and update rule.
    Apply(Optimizer),
    /// Executes its inputs for their side effects and yields a scalar 0;
    /// used as the train-step handle.
    Group,

    // ---- class G: data movement ----
    /// Reinterprets the input under a new shape of equal element count.
    Reshape(Shape),
    /// Permutes axes.
    Transpose {
        /// Permutation of `0..rank`.
        perm: Vec<usize>,
    },
    /// Concatenates inputs along an axis.
    Concat {
        /// Axis along which inputs are joined.
        axis: usize,
    },
    /// Extracts a contiguous range along an axis.
    Slice {
        /// Axis to slice.
        axis: usize,
        /// First index of the slice.
        start: usize,
        /// Number of indices taken.
        len: usize,
    },
    /// Embedding lookup: inputs are `(table, indices)`.
    Gather,
    /// Gradient of `Gather`: inputs are `(indices, grad)`; produces a
    /// `[vocab, dim]` accumulation.
    ScatterAddRows {
        /// Row count of the table being accumulated.
        vocab: usize,
        /// Row width of the table.
        dim: usize,
    },
    /// Materializes the input's shape as a rank-1 tensor.
    ShapeOf,
    /// Blocks gradient flow while passing the value through.
    StopGradient,
}

impl OpKind {
    /// The class-C op table row this kind evaluates through, or `None`
    /// for every other kind (non-elementwise, stateful, or control ops).
    /// The row carries the op's name, arity, flop weight and scalar
    /// formula; the standalone kernel and both fusion passes read it.
    pub fn class_c(&self) -> Option<FusedOp> {
        Some(match self {
            OpKind::Add => FusedOp::Add,
            OpKind::Sub => FusedOp::Sub,
            OpKind::Mul => FusedOp::Mul,
            OpKind::Div => FusedOp::Div,
            OpKind::Maximum => FusedOp::Maximum,
            OpKind::Pow => FusedOp::Pow,
            OpKind::Greater => FusedOp::Greater,
            OpKind::GreaterEqual => FusedOp::GreaterEqual,
            OpKind::Equal => FusedOp::Equal,
            OpKind::Select => FusedOp::Select,
            OpKind::Neg => FusedOp::Neg,
            OpKind::Exp => FusedOp::Exp,
            OpKind::Log => FusedOp::Log,
            OpKind::Sqrt => FusedOp::Sqrt,
            OpKind::Square => FusedOp::Square,
            OpKind::Tanh => FusedOp::Tanh,
            OpKind::Sigmoid => FusedOp::Sigmoid,
            OpKind::Relu => FusedOp::Relu,
            OpKind::ReluGrad => FusedOp::ReluGrad,
            OpKind::TanhGrad => FusedOp::TanhGrad,
            OpKind::SigmoidGrad => FusedOp::SigmoidGrad,
            OpKind::AddN => FusedOp::AddN,
            _ => return None,
        })
    }

    /// The TensorFlow-style operation type name used in profiles.
    pub fn name(&self) -> &'static str {
        use OpKind::*;
        match self {
            Add | Sub | Mul | Div | Maximum | Pow | Greater | GreaterEqual | Equal | Select
            | Neg | Exp | Log | Sqrt | Square | Tanh | Sigmoid | Relu | ReluGrad | TanhGrad
            | SigmoidGrad | AddN => self.class_c().expect("class-C kinds have a table row").name(),
            OpKind::Placeholder { .. } => "Placeholder",
            OpKind::Variable { .. } => "Variable",
            OpKind::Constant(_) => "Const",
            OpKind::Identity => "Identity",
            OpKind::MatMul { .. } => "MatMul",
            OpKind::Conv2D(_) => "Conv2D",
            OpKind::Conv2DBackpropInput { .. } => "Conv2DBackpropInput",
            OpKind::Conv2DBackpropFilter { .. } => "Conv2DBackpropFilter",
            OpKind::MaxPool(_) => "MaxPool",
            OpKind::MaxPoolGrad(_) => "MaxPoolGrad",
            OpKind::AvgPool(_) => "AvgPool",
            OpKind::AvgPoolGrad { .. } => "AvgPoolGrad",
            OpKind::Fused(_) => "Fused",
            OpKind::GemmFused { gemm: GemmOp::MatMul { .. }, .. } => "FusedMatMul",
            OpKind::GemmFused { gemm: GemmOp::Conv2D(_), .. } => "FusedConv2D",
            OpKind::Sum { .. } => "Sum",
            OpKind::Mean { .. } => "Mean",
            OpKind::MaxReduce { .. } => "Max",
            OpKind::Softmax => "Softmax",
            OpKind::LogSoftmax => "LogSoftmax",
            OpKind::SoftmaxGrad => "SoftmaxGrad",
            OpKind::SoftmaxCrossEntropy => "SoftmaxCrossEntropyWithLogits",
            OpKind::SoftmaxCrossEntropyGrad => "SoftmaxCrossEntropyGrad",
            OpKind::CtcLoss { .. } => "CTCLoss",
            OpKind::CtcLossGrad { .. } => "CTCLossGrad",
            OpKind::Tile { .. } => "Tile",
            OpKind::StandardRandomNormal { .. } => "StandardRandomNormal",
            OpKind::RandomUniform { .. } => "RandomUniform",
            OpKind::DropoutMask { .. } => "DropoutMask",
            OpKind::Apply(opt) => opt.name(),
            OpKind::Group => "NoOp",
            OpKind::Reshape(_) => "Reshape",
            OpKind::Transpose { .. } => "Transpose",
            OpKind::Concat { .. } => "ConcatV2",
            OpKind::Slice { .. } => "Slice",
            OpKind::Gather => "Gather",
            OpKind::ScatterAddRows { .. } => "ScatterAdd",
            OpKind::ShapeOf => "Shape",
            OpKind::StopGradient => "StopGradient",
        }
    }

    /// The paper's A–G operation class for this op type.
    pub fn class(&self) -> OpClass {
        use OpKind::*;
        match self {
            MatMul { .. } | GemmFused { gemm: GemmOp::MatMul { .. }, .. } => OpClass::MatrixOps,
            GemmFused { gemm: GemmOp::Conv2D(_), .. } => OpClass::Convolution,
            Conv2D(_)
            | Conv2DBackpropInput { .. }
            | Conv2DBackpropFilter { .. }
            | MaxPool(_)
            | MaxPoolGrad(_)
            | AvgPool(_)
            | AvgPoolGrad { .. } => OpClass::Convolution,
            Add | Sub | Mul | Div | Maximum | Pow | Greater | GreaterEqual | Equal | Select
            | Neg | Exp | Log | Sqrt | Square | Tanh | Sigmoid | Relu | ReluGrad | TanhGrad
            | SigmoidGrad | AddN | Fused(_) => OpClass::ElementwiseArithmetic,
            Sum { .. } | Mean { .. } | MaxReduce { .. } | Softmax | LogSoftmax | SoftmaxGrad
            | SoftmaxCrossEntropy | SoftmaxCrossEntropyGrad | CtcLoss { .. }
            | CtcLossGrad { .. } | Tile { .. } => OpClass::ReductionExpansion,
            StandardRandomNormal { .. } | RandomUniform { .. } | DropoutMask { .. } => {
                OpClass::RandomSampling
            }
            Apply(_) | Group => OpClass::Optimization,
            Placeholder { .. } | Variable { .. } | Constant(_) | Identity | Reshape(_)
            | Transpose { .. } | Concat { .. } | Slice { .. } | Gather
            | ScatterAddRows { .. } | ShapeOf | StopGradient => OpClass::DataMovement,
        }
    }

    /// Whether this op's kernel dispatches through the intra-op thread
    /// pool. Clones (`Variable`, `Placeholder`, `Reshape`), random
    /// generation, scatter accumulation, and the sequential `Apply`
    /// optimizer updates are single-threaded in this runtime (as they
    /// were in contemporary TensorFlow) — which is why the optimizer's
    /// relative cost grows with thread count in Figure 6a.
    pub fn uses_intra_op_pool(&self) -> bool {
        use OpKind::*;
        !matches!(
            self,
            Placeholder { .. }
                | Variable { .. }
                | Constant(_)
                | Identity
                | StopGradient
                | Reshape(_)
                | ShapeOf
                | ScatterAddRows { .. }
                | StandardRandomNormal { .. }
                | RandomUniform { .. }
                | DropoutMask { .. }
                | Apply(_)
                | Group
        )
    }

    /// Whether executing this op mutates session state (variables or
    /// optimizer slots). Stateful ops are never deduplicated or skipped.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            OpKind::Apply(_)
                | OpKind::StandardRandomNormal { .. }
                | OpKind::RandomUniform { .. }
                | OpKind::DropoutMask { .. }
        )
    }

    /// Whether the parallel executor must run this op on the coordinator
    /// thread, ordered by the plan's serialization chain: every op that
    /// reads or writes session state. `Apply` writes variables and
    /// optimizer slots, `Variable` reads them (a read racing a concurrent
    /// update would be non-deterministic), and the sampling ops consume
    /// the session RNG stream, whose draw order defines determinism.
    pub fn needs_serial(&self) -> bool {
        self.is_stateful() || matches!(self, OpKind::Variable { .. })
    }

    /// Infers the output shape from the input shapes, or explains why the
    /// inputs are invalid.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Shape`] when arity or shapes are
    /// incompatible with this operation.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape, GraphError> {
        use OpKind::*;
        let fail = |msg: String| Err(GraphError::Shape { op: self.name(), msg });
        let want_arity = |n: usize| {
            if inputs.len() == n {
                Ok(())
            } else {
                Err(GraphError::Shape {
                    op: self.name(),
                    msg: format!("expected {n} inputs, got {}", inputs.len()),
                })
            }
        };
        match self {
            Placeholder { shape } => {
                want_arity(0)?;
                Ok(shape.clone())
            }
            Variable { init } => {
                want_arity(0)?;
                Ok(init.shape().clone())
            }
            Constant(t) => {
                want_arity(0)?;
                Ok(t.shape().clone())
            }
            Identity | StopGradient => {
                want_arity(1)?;
                Ok(inputs[0].clone())
            }
            MatMul { transpose_a, transpose_b } => {
                want_arity(2)?;
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 2 || b.rank() != 2 {
                    return fail(format!("operands must be matrices, got {a} and {b}"));
                }
                let (m, k1) = if *transpose_a { (a.dim(1), a.dim(0)) } else { (a.dim(0), a.dim(1)) };
                let (k2, n) = if *transpose_b { (b.dim(1), b.dim(0)) } else { (b.dim(0), b.dim(1)) };
                if k1 != k2 {
                    return fail(format!("contraction mismatch: [{m},{k1}] x [{k2},{n}]"));
                }
                Ok(Shape::matrix(m, n))
            }
            Conv2D(spec) => {
                want_arity(2)?;
                if inputs[0].rank() != 4 || inputs[1].rank() != 4 {
                    return fail(format!("expected NHWC input and KKIO filter, got {} and {}", inputs[0], inputs[1]));
                }
                if inputs[0].dim(3) != inputs[1].dim(2) {
                    return fail(format!("channel mismatch: input {} vs filter {}", inputs[0], inputs[1]));
                }
                Ok(spec.out_shape(inputs[0], inputs[1]))
            }
            Conv2DBackpropInput { input_shape, .. } => {
                want_arity(2)?;
                Ok(input_shape.clone())
            }
            Conv2DBackpropFilter { filter_shape, .. } => {
                want_arity(2)?;
                Ok(filter_shape.clone())
            }
            MaxPool(spec) | AvgPool(spec) => {
                want_arity(1)?;
                if inputs[0].rank() != 4 {
                    return fail(format!("expected NHWC input, got {}", inputs[0]));
                }
                Ok(spec.out_shape(inputs[0]))
            }
            MaxPoolGrad(_) => {
                want_arity(2)?;
                Ok(inputs[0].clone())
            }
            AvgPoolGrad { input_shape, .. } => {
                want_arity(1)?;
                Ok(input_shape.clone())
            }
            Add | Sub | Mul | Div | Maximum | Pow | Greater | GreaterEqual | Equal => {
                want_arity(2)?;
                inputs[0]
                    .broadcast(inputs[1])
                    .ok_or_else(|| GraphError::Shape {
                        op: self.name(),
                        msg: format!("cannot broadcast {} with {}", inputs[0], inputs[1]),
                    })
            }
            Select => {
                want_arity(3)?;
                inputs[0]
                    .broadcast(inputs[1])
                    .and_then(|ab| ab.broadcast(inputs[2]))
                    .ok_or_else(|| GraphError::Shape {
                        op: self.name(),
                        msg: format!(
                            "cannot broadcast {}, {}, {} together",
                            inputs[0], inputs[1], inputs[2]
                        ),
                    })
            }
            Neg | Exp | Log | Sqrt | Square | Tanh | Sigmoid | Relu => {
                want_arity(1)?;
                Ok(inputs[0].clone())
            }
            ReluGrad | TanhGrad | SigmoidGrad => {
                want_arity(2)?;
                if inputs[0] != inputs[1] {
                    return fail(format!("activation {} and grad {} differ", inputs[0], inputs[1]));
                }
                Ok(inputs[0].clone())
            }
            AddN => {
                if inputs.is_empty() {
                    return fail("AddN needs at least one input".into());
                }
                for s in inputs {
                    if *s != inputs[0] {
                        return fail(format!("inputs must share a shape, got {} and {s}", inputs[0]));
                    }
                }
                Ok(inputs[0].clone())
            }
            GemmFused { gemm, epilogue } => {
                if inputs.len() < 2 {
                    return fail(format!("expected GEMM operands plus epilogue operands, got {}", inputs.len()));
                }
                let root = match gemm {
                    GemmOp::MatMul { transpose_a, transpose_b } => OpKind::MatMul {
                        transpose_a: *transpose_a,
                        transpose_b: *transpose_b,
                    }
                    .infer_shape(&inputs[..2])?,
                    GemmOp::Conv2D(spec) => OpKind::Conv2D(*spec).infer_shape(&inputs[..2])?,
                };
                if let Err(msg) = epilogue.validate() {
                    return fail(msg);
                }
                if epilogue.n_operands != inputs.len() - 2 {
                    return fail(format!(
                        "epilogue expects {} operands, got {}",
                        epilogue.n_operands,
                        inputs.len() - 2
                    ));
                }
                // The kernel flattens the output to [rows, cols] with
                // cols = the trailing axis; operand element counts must
                // match their broadcast kind against that view.
                let cols = root.dim(root.rank() - 1);
                for (i, s) in inputs[2..].iter().enumerate() {
                    let ok = match epilogue.operand_kind(i) {
                        Some(OperandKind::Scalar) => s.num_elements() == 1,
                        Some(OperandKind::Col) => s.num_elements() == cols,
                        Some(OperandKind::Full) => s.num_elements() == root.num_elements(),
                        None => true,
                    };
                    if !ok {
                        return fail(format!(
                            "epilogue operand {i} shape {s} incompatible with output {root}"
                        ));
                    }
                }
                Ok(root)
            }
            Fused(program) => {
                if let Err(msg) = program.validate() {
                    return fail(msg);
                }
                want_arity(program.n_inputs)?;
                // Output shape is the shape shared by all non-scalar
                // inputs; single-element inputs broadcast. This is
                // deliberately stricter than the binary ops' general
                // broadcasting — the fused loop walks one flat index.
                let out = inputs
                    .iter()
                    .find(|s| s.num_elements() != 1)
                    .copied()
                    .unwrap_or(inputs[0]);
                for s in inputs {
                    if s.num_elements() != 1 && *s != out {
                        return fail(format!("input {s} incompatible with fused output {out}"));
                    }
                }
                Ok(out.clone())
            }
            Sum { axis, keep_dims } | Mean { axis, keep_dims } => {
                want_arity(1)?;
                match axis {
                    None => Ok(Shape::scalar()),
                    Some(a) => {
                        if *a >= inputs[0].rank() {
                            return fail(format!("axis {a} out of range for {}", inputs[0]));
                        }
                        Ok(if *keep_dims {
                            inputs[0].with_axis_one(*a)
                        } else {
                            inputs[0].without_axis(*a)
                        })
                    }
                }
            }
            MaxReduce { axis, keep_dims } => {
                want_arity(1)?;
                if *axis >= inputs[0].rank() {
                    return fail(format!("axis {axis} out of range for {}", inputs[0]));
                }
                Ok(if *keep_dims {
                    inputs[0].with_axis_one(*axis)
                } else {
                    inputs[0].without_axis(*axis)
                })
            }
            Softmax | LogSoftmax => {
                want_arity(1)?;
                if inputs[0].rank() == 0 {
                    return fail("softmax requires rank >= 1".into());
                }
                Ok(inputs[0].clone())
            }
            SoftmaxGrad => {
                want_arity(2)?;
                Ok(inputs[0].clone())
            }
            SoftmaxCrossEntropy => {
                want_arity(2)?;
                if inputs[0].rank() != 2 || inputs[1].rank() != 1 {
                    return fail(format!("expected [batch,classes] logits and [batch] labels, got {} and {}", inputs[0], inputs[1]));
                }
                if inputs[0].dim(0) != inputs[1].dim(0) {
                    return fail(format!("batch mismatch: {} vs {}", inputs[0], inputs[1]));
                }
                Ok(Shape::scalar())
            }
            SoftmaxCrossEntropyGrad => {
                want_arity(2)?;
                Ok(inputs[0].clone())
            }
            CtcLoss { blank } => {
                want_arity(2)?;
                if inputs[0].rank() != 3 || inputs[1].rank() != 2 {
                    return fail(format!("expected [T,B,C] logits and [B,L] labels, got {} and {}", inputs[0], inputs[1]));
                }
                if inputs[0].dim(1) != inputs[1].dim(0) {
                    return fail(format!("batch mismatch: {} vs {}", inputs[0], inputs[1]));
                }
                if *blank >= inputs[0].dim(2) {
                    return fail(format!("blank {blank} out of range for {} classes", inputs[0].dim(2)));
                }
                Ok(Shape::scalar())
            }
            CtcLossGrad { .. } => {
                want_arity(2)?;
                Ok(inputs[0].clone())
            }
            Tile { reps } => {
                want_arity(1)?;
                if reps.len() != inputs[0].rank() {
                    return fail(format!("{} reps for rank {}", reps.len(), inputs[0].rank()));
                }
                if reps.contains(&0) {
                    return fail("tile repetitions must be positive".into());
                }
                Ok(Shape::new(
                    inputs[0].dims().iter().zip(reps).map(|(d, r)| d * r).collect(),
                ))
            }
            StandardRandomNormal { shape, .. } | RandomUniform { shape, .. } => {
                want_arity(0)?;
                Ok(shape.clone())
            }
            DropoutMask { rate } => {
                want_arity(1)?;
                if !(0.0..1.0).contains(rate) {
                    return fail(format!("dropout rate {rate} must be in [0, 1)"));
                }
                Ok(inputs[0].clone())
            }
            Apply(_) => {
                want_arity(2)?;
                if inputs[0] != inputs[1] {
                    return fail(format!("variable {} and grad {} differ", inputs[0], inputs[1]));
                }
                Ok(inputs[0].clone())
            }
            Group => Ok(Shape::scalar()),
            Reshape(shape) => {
                want_arity(1)?;
                if inputs[0].num_elements() != shape.num_elements() {
                    return fail(format!("cannot reshape {} to {shape}", inputs[0]));
                }
                Ok(shape.clone())
            }
            Transpose { perm } => {
                want_arity(1)?;
                if perm.len() != inputs[0].rank() {
                    return fail(format!("perm {perm:?} for rank {}", inputs[0].rank()));
                }
                let mut seen = vec![false; perm.len()];
                for &p in perm {
                    if p >= perm.len() || seen[p] {
                        return fail(format!("perm {perm:?} is not a permutation"));
                    }
                    seen[p] = true;
                }
                Ok(Shape::new(perm.iter().map(|&p| inputs[0].dim(p)).collect()))
            }
            Concat { axis } => {
                if inputs.is_empty() {
                    return fail("Concat needs at least one input".into());
                }
                let rank = inputs[0].rank();
                if *axis >= rank {
                    return fail(format!("axis {axis} out of range for rank {rank}"));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[*axis] = 0;
                for s in inputs {
                    if s.rank() != rank {
                        return fail("concat rank mismatch".into());
                    }
                    for a in 0..rank {
                        if a != *axis && s.dim(a) != inputs[0].dim(a) {
                            return fail(format!("inputs disagree on axis {a}: {} vs {s}", inputs[0]));
                        }
                    }
                    dims[*axis] += s.dim(*axis);
                }
                Ok(Shape::new(dims))
            }
            Slice { axis, start, len } => {
                want_arity(1)?;
                if *axis >= inputs[0].rank() {
                    return fail(format!("axis {axis} out of range for {}", inputs[0]));
                }
                if start + len > inputs[0].dim(*axis) {
                    return fail(format!(
                        "slice {start}..{} exceeds extent {}",
                        start + len,
                        inputs[0].dim(*axis)
                    ));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[*axis] = *len;
                Ok(Shape::new(dims))
            }
            Gather => {
                want_arity(2)?;
                if inputs[0].rank() != 2 {
                    return fail(format!("gather table must be [vocab, dim], got {}", inputs[0]));
                }
                let mut dims = inputs[1].dims().to_vec();
                dims.push(inputs[0].dim(1));
                Ok(Shape::new(dims))
            }
            ScatterAddRows { vocab, dim } => {
                want_arity(2)?;
                if inputs[1].num_elements() != inputs[0].num_elements() * dim {
                    return fail(format!(
                        "grad {} inconsistent with {} indices of width {dim}",
                        inputs[1], inputs[0]
                    ));
                }
                Ok(Shape::matrix(*vocab, *dim))
            }
            ShapeOf => {
                want_arity(1)?;
                Ok(Shape::vector(inputs[0].rank()))
            }
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_tensorflow_style() {
        assert_eq!(OpKind::MatMul { transpose_a: false, transpose_b: false }.name(), "MatMul");
        assert_eq!(
            OpKind::Conv2DBackpropFilter {
                spec: Conv2dSpec::valid(),
                filter_shape: Shape::new(vec![3, 3, 1, 1])
            }
            .name(),
            "Conv2DBackpropFilter"
        );
        assert_eq!(OpKind::Apply(Optimizer::rms_prop(0.1)).name(), "ApplyRMSProp");
    }

    #[test]
    fn class_taxonomy() {
        assert_eq!(OpKind::MatMul { transpose_a: false, transpose_b: false }.class(), OpClass::MatrixOps);
        assert_eq!(OpKind::Conv2D(Conv2dSpec::valid()).class(), OpClass::Convolution);
        assert_eq!(OpKind::Mul.class(), OpClass::ElementwiseArithmetic);
        assert_eq!(OpKind::Softmax.class(), OpClass::ReductionExpansion);
        assert_eq!(
            OpKind::StandardRandomNormal { shape: Shape::vector(2), mean: 0.0, std: 1.0 }.class(),
            OpClass::RandomSampling
        );
        assert_eq!(OpKind::Apply(Optimizer::sgd(0.1)).class(), OpClass::Optimization);
        assert_eq!(OpKind::Transpose { perm: vec![1, 0] }.class(), OpClass::DataMovement);
    }

    #[test]
    fn class_letters_cover_a_to_g() {
        let letters: Vec<char> = OpClass::ALL.iter().map(|c| c.letter()).collect();
        assert_eq!(letters, vec!['A', 'B', 'C', 'D', 'E', 'F', 'G']);
    }

    #[test]
    fn matmul_shape_inference() {
        let op = OpKind::MatMul { transpose_a: false, transpose_b: true };
        let a = Shape::matrix(4, 7);
        let b = Shape::matrix(5, 7);
        assert_eq!(op.infer_shape(&[&a, &b]).unwrap(), Shape::matrix(4, 5));
        let bad = Shape::matrix(5, 6);
        assert!(op.infer_shape(&[&a, &bad]).is_err());
    }

    #[test]
    fn broadcast_shape_inference() {
        let a = Shape::new(vec![4, 1]);
        let b = Shape::new(vec![1, 5]);
        assert_eq!(OpKind::Add.infer_shape(&[&a, &b]).unwrap(), Shape::new(vec![4, 5]));
    }

    #[test]
    fn reduction_shape_inference() {
        let x = Shape::new(vec![2, 3, 4]);
        assert_eq!(
            OpKind::Sum { axis: Some(1), keep_dims: false }.infer_shape(&[&x]).unwrap(),
            Shape::new(vec![2, 4])
        );
        assert_eq!(
            OpKind::Sum { axis: None, keep_dims: false }.infer_shape(&[&x]).unwrap(),
            Shape::scalar()
        );
        assert!(OpKind::Sum { axis: Some(5), keep_dims: false }.infer_shape(&[&x]).is_err());
    }

    #[test]
    fn conv_shape_inference() {
        let op = OpKind::Conv2D(Conv2dSpec::same(3));
        let x = Shape::new(vec![2, 8, 8, 3]);
        let f = Shape::new(vec![3, 3, 3, 16]);
        assert_eq!(op.infer_shape(&[&x, &f]).unwrap(), Shape::new(vec![2, 8, 8, 16]));
        let bad_f = Shape::new(vec![3, 3, 4, 16]);
        assert!(op.infer_shape(&[&x, &bad_f]).is_err());
    }

    #[test]
    fn arity_is_checked() {
        assert!(OpKind::Add.infer_shape(&[&Shape::scalar()]).is_err());
        assert!(OpKind::Neg.infer_shape(&[]).is_err());
    }

    #[test]
    fn stateful_ops_flagged() {
        assert!(OpKind::Apply(Optimizer::adam(0.1)).is_stateful());
        assert!(OpKind::DropoutMask { rate: 0.5 }.is_stateful());
        assert!(!OpKind::MatMul { transpose_a: false, transpose_b: false }.is_stateful());
    }
}

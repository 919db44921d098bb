//! The class-C op table and the loop-jammed interpreter for fused
//! elementwise expression programs.
//!
//! [`FusedOp::visit`] is the one definition of every class-C op (name,
//! arity, flop weight, scalar formula); `Rows` is the one row evaluator.
//!
//! A [`FusedProgram`] is a tiny register program over one output element:
//! registers `0..n_inputs` hold the input tensors' values at that element,
//! and instruction `k` writes register `n_inputs + k`. It is the one
//! program format of class C: a `Fused` graph node runs it through
//! [`FusedProgram::eval`] below, and a GEMM epilogue is a program of one
//! shape (a chain over register 0, the accumulator) that the GEMM
//! writeback runs through the methods in [`crate::kernels::epilogue`].
//!
//! The evaluator jams the whole program into one pass over the output,
//! processing it a flat span at a time: within a span every register is
//! a span-length row in one cache-resident scratch block, and each
//! instruction runs a tight vectorizable inner loop over its rows. Intermediates never
//! round-trip through tensor-sized buffers — one memory pass per input
//! and output — and spans parallelize across the [`ExecPool`] like every
//! other kernel in this module.
//!
//! Bitwise contract: each instruction applies the op table's scalar
//! formula — the one the standalone kernel it replaces
//! ([`crate::kernels::elementwise::eval`]) applies — in the producing
//! op's original graph order, so a fused evaluation is bit-identical to
//! running the unfused chain. The graph-level legality rules that make per-element evaluation
//! valid (same-shaped members, scalar-or-same-shaped inputs) live in the
//! dataflow optimizer; this kernel only checks structural validity.
//!
//! # Span-length limitation
//!
//! Spans are [`FLAT_SPAN`](crate::kernels::elementwise::FLAT_SPAN)
//! elements, so a tensor with at most that many elements is a *single*
//! span: the whole program runs on one worker and fusion's only win is
//! skipping intermediate tensor round trips that already fit in L1/L2. This is why workloads dominated by many small
//! fused groups (speech's per-timestep `[batch, hidden]` RNN chains —
//! 54 groups, ~1.00× end to end) see almost nothing from elementwise
//! fusion: per-group bookkeeping roughly cancels the saved traffic.
//! Shrinking the span would not help — below cache-line granularity the
//! jammed loops stop vectorizing — so small GEMM-fed chains are instead
//! absorbed into the matmul itself by the epilogue pass (see
//! [`crate::kernels::epilogue`]), which eliminates both the round trip
//! and the per-group dispatch.

use crate::kernels::elementwise::generate;
use crate::pool::ExecPool;
use crate::tensor::Tensor;

/// One class-C scalar operation. Its name, arity, flop weight and scalar
/// formula are defined once, in the op table ([`FusedOp::visit`]); the
/// standalone kernel ([`crate::kernels::elementwise::eval`]), the fused
/// interpreter and the GEMM epilogue all evaluate through that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `f32::max(a, b)`
    Maximum,
    /// `a.powf(b)`
    Pow,
    /// `a > b` as 0/1
    Greater,
    /// `a >= b` as 0/1
    GreaterEqual,
    /// `a == b` as 0/1
    Equal,
    /// `(cond, a, b)`: `a` where `cond != 0`, else `b`.
    Select,
    /// `-v`
    Neg,
    /// `e^v`
    Exp,
    /// `ln v`
    Log,
    /// `sqrt v`
    Sqrt,
    /// `v * v`
    Square,
    /// `tanh v`
    Tanh,
    /// `1 / (1 + e^-v)`
    Sigmoid,
    /// `max(v, 0)`
    Relu,
    /// `(x, g)`: `g` where `x > 0`, else 0.
    ReluGrad,
    /// `(y, g)`: `g * (1 - y^2)`.
    TanhGrad,
    /// `(y, g)`: `g * y * (1 - y)`.
    SigmoidGrad,
    /// Variadic sum: a left fold starting from the first operand.
    AddN,
}

/// Receives one row of the op table. The scalar formula arrives as a
/// concrete closure type, so an implementation's loops monomorphize per
/// op: one `match` in [`FusedOp::visit`], then a tight loop — no `dyn`
/// call and no per-element op dispatch. `flops` is the op's weight per
/// output element (per operand for the variadic fold).
pub trait OpVisitor {
    /// What visiting an op produces.
    type Out;
    /// A one-operand op.
    fn unary(self, name: &'static str, flops: f64, f: impl Fn(f32) -> f32 + Sync) -> Self::Out;
    /// A two-operand op.
    fn binary(self, name: &'static str, flops: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Self::Out;
    /// A three-operand op.
    fn ternary(
        self,
        name: &'static str,
        flops: f64,
        f: impl Fn(f32, f32, f32) -> f32 + Sync,
    ) -> Self::Out;
    /// A variadic op: the left fold of `f` over one or more operands,
    /// starting from the first operand (no identity element is mixed in,
    /// so signed zeros survive).
    fn fold(self, name: &'static str, flops: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Self::Out;
}

/// Reads a table row's metadata, ignoring the formula.
struct Describe;

impl OpVisitor for Describe {
    type Out = (&'static str, Option<usize>, f64);
    fn unary(self, name: &'static str, flops: f64, _: impl Fn(f32) -> f32 + Sync) -> Self::Out {
        (name, Some(1), flops)
    }
    fn binary(self, name: &'static str, flops: f64, _: impl Fn(f32, f32) -> f32 + Sync) -> Self::Out {
        (name, Some(2), flops)
    }
    fn ternary(
        self,
        name: &'static str,
        flops: f64,
        _: impl Fn(f32, f32, f32) -> f32 + Sync,
    ) -> Self::Out {
        (name, Some(3), flops)
    }
    fn fold(self, name: &'static str, flops: f64, _: impl Fn(f32, f32) -> f32 + Sync) -> Self::Out {
        (name, None, flops)
    }
}

impl FusedOp {
    /// Every op, in declaration order.
    pub const ALL: [FusedOp; 22] = [
        FusedOp::Add,
        FusedOp::Sub,
        FusedOp::Mul,
        FusedOp::Div,
        FusedOp::Maximum,
        FusedOp::Pow,
        FusedOp::Greater,
        FusedOp::GreaterEqual,
        FusedOp::Equal,
        FusedOp::Select,
        FusedOp::Neg,
        FusedOp::Exp,
        FusedOp::Log,
        FusedOp::Sqrt,
        FusedOp::Square,
        FusedOp::Tanh,
        FusedOp::Sigmoid,
        FusedOp::Relu,
        FusedOp::ReluGrad,
        FusedOp::TanhGrad,
        FusedOp::SigmoidGrad,
        FusedOp::AddN,
    ];

    /// The op table: hands `v` this op's TensorFlow-style name (used for
    /// profile attribution), flop weight and scalar formula; the visitor
    /// method called fixes the arity. Transcendentals weigh 8 flops.
    #[inline(always)]
    pub fn visit<V: OpVisitor>(self, v: V) -> V::Out {
        use FusedOp::*;
        match self {
            Add => v.binary("Add", 1.0, |a, b| a + b),
            Sub => v.binary("Sub", 1.0, |a, b| a - b),
            Mul => v.binary("Mul", 1.0, |a, b| a * b),
            Div => v.binary("Div", 1.0, |a, b| a / b),
            Maximum => v.binary("Maximum", 1.0, f32::max),
            Pow => v.binary("Pow", 8.0, f32::powf),
            Greater => v.binary("Greater", 1.0, |a, b| f32::from(a > b)),
            GreaterEqual => v.binary("GreaterEqual", 1.0, |a, b| f32::from(a >= b)),
            Equal => v.binary("Equal", 1.0, |a, b| f32::from(a == b)),
            // Two masked terms plus an add, not a conditional move: the
            // sum turns a selected -0.0 into +0.0.
            Select => v.ternary("Select", 1.0, |c, a, b| {
                (if c != 0.0 { a } else { 0.0 }) + (if c != 0.0 { 0.0 } else { b })
            }),
            Neg => v.unary("Neg", 1.0, |x| -x),
            Exp => v.unary("Exp", 8.0, f32::exp),
            Log => v.unary("Log", 8.0, f32::ln),
            Sqrt => v.unary("Sqrt", 8.0, f32::sqrt),
            Square => v.unary("Square", 1.0, |x| x * x),
            Tanh => v.unary("Tanh", 8.0, f32::tanh),
            Sigmoid => v.unary("Sigmoid", 8.0, |x| 1.0 / (1.0 + (-x).exp())),
            Relu => v.unary("Relu", 1.0, |x| x.max(0.0)),
            ReluGrad => v.binary("ReluGrad", 1.0, |x, g| if x > 0.0 { g } else { 0.0 }),
            TanhGrad => v.binary("TanhGrad", 1.0, |y, g| g * (1.0 - y * y)),
            SigmoidGrad => v.binary("SigmoidGrad", 1.0, |y, g| g * y * (1.0 - y)),
            AddN => v.fold("AddN", 1.0, |s, x| s + x),
        }
    }

    /// The TensorFlow-style name of the op (used for profile
    /// attribution).
    pub fn name(&self) -> &'static str {
        self.visit(Describe).0
    }

    /// Fixed operand count, or `None` for the variadic [`FusedOp::AddN`].
    pub fn arity(&self) -> Option<usize> {
        self.visit(Describe).1
    }

    /// Flop weight per output element of one application to `n_args`
    /// operands — what the cost model charges the op, fused or not.
    pub fn flops_per_elem(&self, n_args: usize) -> f64 {
        let (_, arity, flops) = self.visit(Describe);
        flops * arity.map_or(n_args, |_| 1) as f64
    }
}

/// Where a row evaluation reads one operand from.
#[derive(Clone, Copy)]
pub(crate) enum Src<'a> {
    /// The destination row's own current value (the GEMM accumulator, in
    /// an epilogue).
    Dst,
    /// One value for every element.
    Scalar(f32),
    /// A row as long as the destination.
    Row(&'a [f32]),
}

impl Src<'_> {
    /// The operand's value at offset `j`, given the destination's current
    /// value there.
    #[inline(always)]
    fn at(self, dst: f32, j: usize) -> f32 {
        match self {
            Src::Dst => dst,
            Src::Scalar(s) => s,
            Src::Row(r) => r[j],
        }
    }
}

/// The row evaluator shared by [`FusedProgram::eval`] and the GEMM
/// epilogue ([`FusedProgram::apply_block`]): applies one op to each
/// destination row in `dsts`, reading operand `i` of row `r` from
/// `src(r, i)`. Visiting an op with this dispatches on the op once, then
/// per row on the operand sources, then runs a tight loop.
pub(crate) struct Rows<D, S> {
    /// Destination rows, in row order.
    pub dsts: D,
    /// Operand count of the instruction.
    pub n_args: usize,
    /// Resolves `(row, operand index)` to where that operand's values
    /// are.
    pub src: S,
}

#[inline(always)]
fn map_in_place(dst: &mut [f32], f: impl Fn(f32) -> f32) {
    for v in dst.iter_mut() {
        *v = f(*v);
    }
}

#[inline(always)]
fn map_row(dst: &mut [f32], a: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (d, &av) in dst.iter_mut().zip(a) {
        *d = f(*d, av);
    }
}

impl<'d, 's, D, S> OpVisitor for Rows<D, S>
where
    D: Iterator<Item = &'d mut [f32]>,
    S: Fn(usize, usize) -> Src<'s>,
{
    type Out = ();

    #[inline(always)]
    fn unary(self, _: &'static str, _: f64, f: impl Fn(f32) -> f32 + Sync) {
        for (r, dst) in self.dsts.enumerate() {
            match (self.src)(r, 0) {
                Src::Dst => map_in_place(dst, &f),
                Src::Scalar(s) => dst.fill(f(s)),
                Src::Row(a) => map_row(dst, a, |_, av| f(av)),
            }
        }
    }

    /// The source combinations are split so each runs a tight
    /// vectorizable loop.
    #[inline(always)]
    fn binary(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) {
        use Src::{Dst, Row, Scalar};
        for (r, dst) in self.dsts.enumerate() {
            match ((self.src)(r, 0), (self.src)(r, 1)) {
                (Dst, Dst) => map_in_place(dst, |v| f(v, v)),
                (Dst, Scalar(s)) => map_in_place(dst, |v| f(v, s)),
                (Scalar(s), Dst) => map_in_place(dst, |v| f(s, v)),
                (Dst, Row(b)) => map_row(dst, b, &f),
                (Row(a), Dst) => map_row(dst, a, |v, av| f(av, v)),
                (Row(a), Scalar(s)) => map_row(dst, a, |_, av| f(av, s)),
                (Scalar(s), Row(b)) => map_row(dst, b, |_, bv| f(s, bv)),
                (Scalar(a), Scalar(b)) => dst.fill(f(a, b)),
                (Row(a), Row(b)) => {
                    for ((d, &av), &bv) in dst.iter_mut().zip(a).zip(b) {
                        *d = f(av, bv);
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn ternary(self, _: &'static str, _: f64, f: impl Fn(f32, f32, f32) -> f32 + Sync) {
        for (r, dst) in self.dsts.enumerate() {
            let (a, b, c) = ((self.src)(r, 0), (self.src)(r, 1), (self.src)(r, 2));
            for (j, d) in dst.iter_mut().enumerate() {
                *d = f(a.at(*d, j), b.at(*d, j), c.at(*d, j));
            }
        }
    }

    #[inline(always)]
    fn fold(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) {
        for (r, dst) in self.dsts.enumerate() {
            let src = |i: usize| (self.src)(r, i);
            if (1..self.n_args).any(|i| matches!(src(i), Src::Dst)) {
                // A later operand is the destination's original value,
                // which a row-at-a-time fold would have overwritten.
                for (j, d) in dst.iter_mut().enumerate() {
                    let cur = *d;
                    *d = (1..self.n_args).fold(src(0).at(cur, j), |s, i| f(s, src(i).at(cur, j)));
                }
                continue;
            }
            match src(0) {
                Src::Dst => {}
                Src::Scalar(s) => dst.fill(s),
                Src::Row(a) => dst.copy_from_slice(a),
            }
            for i in 1..self.n_args {
                match src(i) {
                    Src::Row(a) => map_row(dst, a, &f),
                    Src::Scalar(s) => map_in_place(dst, |v| f(v, s)),
                    Src::Dst => unreachable!("folded per element above"),
                }
            }
        }
    }
}

/// One instruction: an op applied to registers, writing the next register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedInstr {
    /// Scalar operation.
    pub op: FusedOp,
    /// Register operands (inputs come first in the register file).
    pub args: Vec<u16>,
}

/// A straight-line elementwise expression program.
///
/// Register layout: `0..n_inputs` are the external inputs in argument
/// order; instruction `k` writes register `n_inputs + k`; the last
/// register is the output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusedProgram {
    /// External input count (and the index of the first scratch register).
    pub n_inputs: usize,
    /// Instructions in evaluation (original graph) order.
    pub instrs: Vec<FusedInstr>,
}

impl FusedProgram {
    /// Total register count (inputs plus one per instruction).
    pub fn n_registers(&self) -> usize {
        self.n_inputs + self.instrs.len()
    }

    /// Checks structural validity: at least one input and one
    /// instruction, arities respected, every operand referring to an
    /// already-written register.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_inputs == 0 {
            return Err("fused program needs at least one input".into());
        }
        if self.instrs.is_empty() {
            return Err("fused program needs at least one instruction".into());
        }
        if self.n_registers() > usize::from(u16::MAX) {
            return Err(format!("fused program needs {} registers (max 65535)", self.n_registers()));
        }
        for (k, instr) in self.instrs.iter().enumerate() {
            if let Some(arity) = instr.op.arity() {
                if instr.args.len() != arity {
                    return Err(format!(
                        "instruction {k} ({}) takes {arity} operands, got {}",
                        instr.op.name(),
                        instr.args.len()
                    ));
                }
            } else if instr.args.is_empty() {
                return Err(format!("instruction {k} (AddN) needs at least one operand"));
            }
            let writable = self.n_inputs + k;
            for &a in &instr.args {
                if usize::from(a) >= writable {
                    return Err(format!(
                        "instruction {k} reads register {a} before it is written"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Evaluates the program over `inputs`, walking each output element
    /// once through every instruction.
    ///
    /// The output shape is the shape shared by the non-scalar inputs
    /// (single-element inputs broadcast); an all-scalar program yields
    /// the first input's shape.
    ///
    /// # Panics
    ///
    /// Panics if the program is structurally invalid, `inputs` does not
    /// match `n_inputs`, or a non-scalar input disagrees on shape.
    pub fn eval(&self, inputs: &[&Tensor], pool: &ExecPool) -> Tensor {
        self.validate().expect("fused program is structurally valid");
        assert_eq!(inputs.len(), self.n_inputs, "fused program input arity");
        let out_shape = inputs
            .iter()
            .find(|t| t.len() != 1)
            .map_or_else(|| inputs[0].shape().clone(), |t| t.shape().clone());
        for t in inputs {
            assert!(
                t.len() == 1 || t.shape() == &out_shape,
                "fused input {} incompatible with output {out_shape}",
                t.shape()
            );
        }
        // Instruction-major within each span: every intermediate register
        // is a span-length row in one cache-resident scratch block, and
        // each instruction runs a tight inner loop over its operand rows.
        // Input registers are read in place from the input tensors
        // (single-element inputs as broadcast scalars) and the final
        // instruction writes straight into the output, so intermediates
        // never round-trip through tensor-sized buffers, while the
        // per-element op dispatch of a naive interpreter is hoisted out
        // of the hot loop and each instruction's inner loop vectorizes
        // like the unfused kernels.
        let n_instr = self.instrs.len();
        let run_span = |base: usize, dst: &mut [f32]| {
            let len = dst.len();
            let mut scratch = vec![0.0f32; (n_instr - 1) * len];
            for (k, instr) in self.instrs.iter().enumerate() {
                let (done, rest) = scratch.split_at_mut(k * len);
                let src = |_row: usize, i: usize| {
                    let r = usize::from(instr.args[i]);
                    if r >= self.n_inputs {
                        let at = (r - self.n_inputs) * len;
                        Src::Row(&done[at..at + len])
                    } else if inputs[r].len() == 1 {
                        Src::Scalar(inputs[r].data()[0])
                    } else {
                        Src::Row(&inputs[r].data()[base..base + len])
                    }
                };
                let row = if k + 1 == n_instr { &mut *dst } else { &mut rest[..len] };
                instr.op.visit(Rows { dsts: std::iter::once(row), n_args: instr.args.len(), src });
            }
        };
        // Each span reads every input and runs the whole program, so the
        // worker-count heuristic sees instrs-per-element extra work.
        generate(out_shape, self.instrs.len(), pool, run_span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::elementwise as ew;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    fn instr(op: FusedOp, args: &[u16]) -> FusedInstr {
        FusedInstr { op, args: args.to_vec() }
    }

    #[test]
    fn chain_matches_unfused_kernels_bitwise() {
        // sigmoid(x * y + x) over awkward values.
        let x = Tensor::from_vec(vec![-2.5, -0.0, 0.0, 1.0, 3.25, -7.5], [2, 3]);
        let y = Tensor::from_vec(vec![0.5, -1.0, 2.0, -3.5, 0.25, 4.0], [2, 3]);
        let p = pool();
        let prog = FusedProgram {
            n_inputs: 2,
            instrs: vec![
                instr(FusedOp::Mul, &[0, 1]),
                instr(FusedOp::Add, &[2, 0]),
                instr(FusedOp::Sigmoid, &[3]),
            ],
        };
        let fused = prog.eval(&[&x, &y], &p);
        let xy = ew::eval(FusedOp::Mul, &[&x, &y], &p);
        let unfused = ew::eval(FusedOp::Sigmoid, &[&ew::eval(FusedOp::Add, &[&xy, &x], &p)], &p);
        assert_eq!(fused.shape(), unfused.shape());
        for (a, b) in fused.data().iter().zip(unfused.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scalar_inputs_broadcast() {
        // relu((x - mu) * scale) with scalar mu and scale.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let mu = Tensor::scalar(2.5);
        let scale = Tensor::scalar(-2.0);
        let prog = FusedProgram {
            n_inputs: 3,
            instrs: vec![
                instr(FusedOp::Sub, &[0, 1]),
                instr(FusedOp::Mul, &[3, 2]),
                instr(FusedOp::Relu, &[4]),
            ],
        };
        let out = prog.eval(&[&x, &mu, &scale], &pool());
        assert_eq!(out.shape().dims(), &[4]);
        assert_eq!(out.data(), &[3.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn addn_sums_in_operand_order() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]);
        let c = Tensor::from_vec(vec![100.0, 200.0], [2]);
        let prog = FusedProgram {
            n_inputs: 3,
            instrs: vec![instr(FusedOp::AddN, &[0, 1, 2])],
        };
        let out = prog.eval(&[&a, &b, &c], &pool());
        let expect = ew::eval(FusedOp::AddN, &[&a, &b, &c], &pool());
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let n = 50_000;
        let x = Tensor::from_vec((0..n).map(|i| (i as f32).mul_add(0.001, -20.0)).collect(), [n]);
        let prog = FusedProgram {
            n_inputs: 1,
            instrs: vec![
                instr(FusedOp::Tanh, &[0]),
                instr(FusedOp::Square, &[1]),
                instr(FusedOp::Neg, &[2]),
                instr(FusedOp::Exp, &[3]),
            ],
        };
        let serial = prog.eval(&[&x], &ExecPool::serial());
        let parallel = prog.eval(&[&x], &ExecPool::new(8));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn validate_rejects_malformed_programs() {
        assert!(FusedProgram { n_inputs: 0, instrs: vec![instr(FusedOp::Neg, &[0])] }
            .validate()
            .is_err());
        assert!(FusedProgram { n_inputs: 1, instrs: vec![] }.validate().is_err());
        // Reads a register that is not yet written.
        assert!(FusedProgram { n_inputs: 1, instrs: vec![instr(FusedOp::Neg, &[1])] }
            .validate()
            .is_err());
        // Wrong arity.
        assert!(FusedProgram { n_inputs: 2, instrs: vec![instr(FusedOp::Add, &[0])] }
            .validate()
            .is_err());
        // Valid: second instruction reads the first's result.
        assert!(FusedProgram {
            n_inputs: 2,
            instrs: vec![instr(FusedOp::Add, &[0, 1]), instr(FusedOp::Relu, &[2])],
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn select_matches_two_pass_lowering() {
        let c = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.0], [4]);
        let a = Tensor::from_vec(vec![10.0, 20.0, 30.0, -0.0], [4]);
        let b = Tensor::from_vec(vec![-1.0, -2.0, -3.0, -0.0], [4]);
        let p = pool();
        let prog = FusedProgram {
            n_inputs: 3,
            instrs: vec![instr(FusedOp::Select, &[0, 1, 2])],
        };
        let masked_a = ew::binary(&c, &a, &p, |cv, av| if cv != 0.0 { av } else { 0.0 });
        let masked_b = ew::binary(&c, &b, &p, |cv, bv| if cv != 0.0 { 0.0 } else { bv });
        let expect = ew::eval(FusedOp::Add, &[&masked_a, &masked_b], &p);
        let got = prog.eval(&[&c, &a, &b], &p);
        for (x, y) in got.data().iter().zip(expect.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

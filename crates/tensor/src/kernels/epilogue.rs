//! GEMM epilogue programs: small elementwise post-ops applied to the
//! packed engine's accumulator tiles before they are stored to C.
//!
//! A dense layer is `matmul -> add bias -> activation`; lowered naively,
//! the matmul writes `[m, n]` to memory and each elementwise consumer
//! reads and rewrites it. An [`Epilogue`] instead rides the microkernel
//! writeback in [`crate::kernels::gemm`]: the accumulator tile is still
//! in registers when the bias add and activation run, so the chain costs
//! one store instead of a store plus two round trips (the BLIS/cuBLAS
//! "fused epilogue" idiom).
//!
//! The program is a straight-line chain over one output element: each
//! instruction reads the running accumulator value (at least one
//! [`EpilogueArg::Acc`] operand) plus external operands, and writes the
//! accumulator back. External operands come in three broadcast kinds —
//! [`OperandKind::Scalar`] (one value), [`OperandKind::Col`] (one value
//! per output column, e.g. a bias `[n]`), and [`OperandKind::Full`] (one
//! value per output element, e.g. a residual input).
//!
//! # Bitwise contract
//!
//! Every instruction applies *exactly* the scalar formula of the
//! standalone kernel it replaces, by construction: the ops are
//! [`crate::kernels::fused::FusedOp`]s, evaluated through the same op
//! table and row evaluator as the fused elementwise interpreter, with
//! the accumulator as the destination row. Element evaluation is pure (no cross-element reduction),
//! so applying the program per register tile ([`Epilogue::apply_row`]
//! inside the GEMM writeback), per flat row ([`Epilogue::apply_flat`] on
//! the fallback paths), serially, or in parallel all produce identical
//! bits; and because the unfused elementwise kernels broadcast a `[n]`
//! bias against `[m, n]` by reading `b[j]` per element — the same value
//! `Col` reads — a fused evaluation is bit-identical to running the
//! unfused matmul-then-elementwise chain.

use crate::kernels::fused::{FusedOp, Rows, Src};
use crate::pool::ExecPool;

/// Epilogues longer than this are not worth holding in the writeback
/// loop; the graph pass leaves longer chains to the elementwise
/// interpreter.
pub const MAX_EPILOGUE_INSTRS: usize = 8;
/// Per-instruction operand cap (covers every fixed-arity op and bounds
/// AddN); the graph pass leaves wider sums to the elementwise
/// interpreter.
pub const MAX_EPILOGUE_ARGS: usize = 8;

/// Broadcast class of an external epilogue operand against the `[m, n]`
/// GEMM output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandKind {
    /// One element, broadcast everywhere.
    Scalar,
    /// `n` elements, indexed by output column (a bias over the trailing
    /// dimension).
    Col,
    /// `m * n` elements, indexed like the output (a residual input).
    Full,
}

/// One operand of an epilogue instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpilogueArg {
    /// The running accumulator value for this element.
    Acc,
    /// External operand `index`, fetched per `kind`.
    Operand {
        /// Index into the operand list.
        index: u16,
        /// Broadcast class (fixed per operand across the program).
        kind: OperandKind,
    },
}

/// One instruction: a scalar op over accumulator/operand values whose
/// result becomes the new accumulator value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpilogueInstr {
    /// Scalar operation (shared with the fused elementwise interpreter).
    pub op: FusedOp,
    /// Operands in the replaced graph op's argument order.
    pub args: Vec<EpilogueArg>,
}

/// A straight-line epilogue program over the GEMM accumulator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Epilogue {
    /// External operand count.
    pub n_operands: usize,
    /// Instructions in evaluation (original graph) order.
    pub instrs: Vec<EpilogueInstr>,
}

impl Epilogue {
    /// Checks structural validity: at least one instruction, instruction
    /// and operand counts within the hot-loop caps, arities respected,
    /// at least one [`EpilogueArg::Acc`] per instruction (the program
    /// must be a chain over the accumulator), operand indices in range,
    /// and each operand used with one consistent broadcast kind.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.instrs.is_empty() {
            return Err("epilogue needs at least one instruction".into());
        }
        if self.instrs.len() > MAX_EPILOGUE_INSTRS {
            return Err(format!(
                "epilogue has {} instructions (max {MAX_EPILOGUE_INSTRS})",
                self.instrs.len()
            ));
        }
        let mut kinds: Vec<Option<OperandKind>> = vec![None; self.n_operands];
        for (i, instr) in self.instrs.iter().enumerate() {
            if let Some(arity) = instr.op.arity() {
                if instr.args.len() != arity {
                    return Err(format!(
                        "epilogue instruction {i} ({}) takes {arity} operands, got {}",
                        instr.op.name(),
                        instr.args.len()
                    ));
                }
            } else if instr.args.is_empty() {
                return Err(format!("epilogue instruction {i} (AddN) needs at least one operand"));
            }
            if instr.args.len() > MAX_EPILOGUE_ARGS {
                return Err(format!(
                    "epilogue instruction {i} has {} operands (max {MAX_EPILOGUE_ARGS})",
                    instr.args.len()
                ));
            }
            if !instr.args.contains(&EpilogueArg::Acc) {
                return Err(format!(
                    "epilogue instruction {i} ({}) never reads the accumulator",
                    instr.op.name()
                ));
            }
            for arg in &instr.args {
                if let EpilogueArg::Operand { index, kind } = *arg {
                    let slot = kinds
                        .get_mut(usize::from(index))
                        .ok_or_else(|| format!("epilogue instruction {i} reads operand {index} (have {})", self.n_operands))?;
                    match slot {
                        None => *slot = Some(kind),
                        Some(k) if *k == kind => {}
                        Some(k) => {
                            return Err(format!(
                                "epilogue operand {index} used as both {k:?} and {kind:?}"
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The broadcast kind operand `index` is used with, or `None` if the
    /// program never reads it.
    pub fn operand_kind(&self, index: usize) -> Option<OperandKind> {
        self.instrs.iter().flat_map(|i| &i.args).find_map(|a| match *a {
            EpilogueArg::Operand { index: at, kind } if usize::from(at) == index => Some(kind),
            _ => None,
        })
    }

    /// Validates the program and asserts every operand slice has the
    /// length its broadcast kind demands against an `[m, n]` output.
    /// Kernel entry points call this once before the hot loops.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid program or a mis-sized operand.
    pub fn check_operands(&self, m: usize, n: usize, operands: &[&[f32]]) {
        self.validate().expect("epilogue is structurally valid");
        assert_eq!(operands.len(), self.n_operands, "epilogue operand count mismatch");
        for (i, op) in operands.iter().enumerate() {
            match self.operand_kind(i) {
                Some(OperandKind::Scalar) => {
                    assert_eq!(op.len(), 1, "epilogue scalar operand {i} length");
                }
                Some(OperandKind::Col) => {
                    assert_eq!(op.len(), n, "epilogue column operand {i} length");
                }
                Some(OperandKind::Full) => {
                    assert_eq!(op.len(), m * n, "epilogue full operand {i} length");
                }
                None => {}
            }
        }
    }

    /// Applies the program to `acc`, a row fragment of the output whose
    /// first element is output element `(row, col0)` of an `[_, n]`
    /// matrix — the degenerate one-row block.
    ///
    /// Assumes [`Epilogue::check_operands`] ran at the kernel entry.
    #[inline]
    pub fn apply_row(&self, acc: &mut [f32], row: usize, col0: usize, n: usize, operands: &[&[f32]]) {
        let len = acc.len();
        self.apply_block(acc, row, col0, 1, len, len, n, operands);
    }

    /// Applies the program to a `rows x cols` accumulator block stored
    /// with row stride `stride`, whose top-left element is output
    /// element `(row0, col0)` of an `[_, n]` matrix. This is what the
    /// packed GEMM writeback calls on each macro tile: instructions run
    /// outermost (each applied to every row before the next starts),
    /// which dispatches on the op once per instruction per *tile* and
    /// runs the same tight loops as the fused elementwise interpreter
    /// (see [`Rows`]). Dispatching per 64-element row fragment instead
    /// costs as much as the arithmetic it guards (measurably slower than
    /// the unfused elementwise kernels on conv-sized outputs). Every
    /// instruction is pure per element, so the instruction-outer order is
    /// bitwise identical to [`Epilogue::apply_row`] row by row.
    ///
    /// Assumes [`Epilogue::check_operands`] ran at the kernel entry.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn apply_block(
        &self,
        block: &mut [f32],
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
        stride: usize,
        n: usize,
        operands: &[&[f32]],
    ) {
        for instr in &self.instrs {
            // A `Full` operand's slice moves with the row; `Scalar`/`Col`
            // resolve to the same source each time, cheaply enough not
            // to be worth hoisting.
            let src = |r: usize, i: usize| match instr.args[i] {
                EpilogueArg::Acc => Src::Dst,
                EpilogueArg::Operand { index, kind } => {
                    let data = operands[usize::from(index)];
                    match kind {
                        OperandKind::Scalar => Src::Scalar(data[0]),
                        OperandKind::Col => Src::Row(&data[col0..col0 + cols]),
                        OperandKind::Full => {
                            let at = (row0 + r) * n + col0;
                            Src::Row(&data[at..at + cols])
                        }
                    }
                }
            };
            let dsts = block.chunks_mut(stride.max(1)).take(rows).map(|row| &mut row[..cols]);
            instr.op.visit(Rows { dsts, n_args: instr.args.len(), src });
        }
    }

    /// Applies the program to a whole `[m, n]` buffer in place — the
    /// fallback for GEMM paths that never hold tiles in registers (the
    /// row-parallel kernel, the direct conv kernel, `k == 0` products).
    /// Bitwise identical to the tile path: evaluation is pure per
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if the program is invalid, `data.len() != m * n`, or an
    /// operand is mis-sized.
    pub fn apply_flat(&self, data: &mut [f32], m: usize, n: usize, operands: &[&[f32]], pool: &ExecPool) {
        assert_eq!(data.len(), m * n, "epilogue output length mismatch");
        self.check_operands(m, n, operands);
        if data.is_empty() {
            return;
        }
        pool.for_spans(data, n, self.instrs.len(), |row, dst| {
            self.apply_row(dst, row, 0, n, operands);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::elementwise as ew;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    fn acc() -> EpilogueArg {
        EpilogueArg::Acc
    }

    fn operand(index: u16, kind: OperandKind) -> EpilogueArg {
        EpilogueArg::Operand { index, kind }
    }

    /// bias-add + relu: the canonical dense-layer epilogue.
    fn bias_relu() -> Epilogue {
        Epilogue {
            n_operands: 1,
            instrs: vec![
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(0, OperandKind::Col)] },
                EpilogueInstr { op: FusedOp::Relu, args: vec![acc()] },
            ],
        }
    }

    #[test]
    fn flat_application_matches_unfused_kernels_bitwise() {
        let mut rng = Rng::seeded(5);
        let (m, n) = (7, 13);
        let x = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let p = pool();
        let mut fused = x.clone();
        bias_relu().apply_flat(fused.data_mut(), m, n, &[bias.data()], &p);
        let unfused = ew::eval(FusedOp::Relu, &[&ew::eval(FusedOp::Add, &[&x, &bias], &p)], &p);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn tile_rows_match_flat_application() {
        let mut rng = Rng::seeded(6);
        let (m, n) = (9, 21);
        let x = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let res = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let ep = Epilogue {
            n_operands: 2,
            instrs: vec![
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(0, OperandKind::Col)] },
                EpilogueInstr { op: FusedOp::Tanh, args: vec![acc()] },
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(1, OperandKind::Full)] },
            ],
        };
        let ops = [bias.data(), res.data()];
        let mut flat = x.clone();
        ep.apply_flat(flat.data_mut(), m, n, &ops, &pool());
        // Apply over ragged row fragments, as the tile writeback does.
        let mut tiled = x.clone();
        ep.check_operands(m, n, &ops);
        for row in 0..m {
            for (col0, width) in [(0usize, 5usize), (5, 16)] {
                let frag = &mut tiled.data_mut()[row * n + col0..row * n + col0 + width];
                ep.apply_row(frag, row, col0, n, &ops);
            }
        }
        assert_eq!(flat.data(), tiled.data());
    }

    #[test]
    fn strided_block_application_matches_per_row() {
        let mut rng = Rng::seeded(8);
        let (m, n) = (11, 17);
        let x = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let res = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let s = Tensor::scalar(-0.75);
        let ep = Epilogue {
            n_operands: 3,
            instrs: vec![
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(0, OperandKind::Col)] },
                EpilogueInstr { op: FusedOp::Maximum, args: vec![acc(), operand(2, OperandKind::Scalar)] },
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(1, OperandKind::Full)] },
                EpilogueInstr { op: FusedOp::Sigmoid, args: vec![acc()] },
            ],
        };
        let ops = [bias.data(), res.data(), s.data()];
        ep.check_operands(m, n, &ops);
        // A (rows=4, cols=7) tile at output position (3, 6), laid out in
        // a wider scratch buffer (stride 9) like the GEMM macro block.
        let (row0, col0, rows, cols, stride) = (3usize, 6usize, 4usize, 7usize, 9usize);
        let mut block = vec![0.5f32; rows * stride];
        for r in 0..rows {
            block[r * stride..r * stride + cols]
                .copy_from_slice(&x.data()[(row0 + r) * n + col0..(row0 + r) * n + col0 + cols]);
        }
        let mut by_row = block.clone();
        for r in 0..rows {
            ep.apply_row(&mut by_row[r * stride..][..cols], row0 + r, col0, n, &ops);
        }
        ep.apply_block(&mut block, row0, col0, rows, cols, stride, n, &ops);
        assert_eq!(block, by_row, "instruction-outer block order must match row order");
        // Padding lanes between rows are untouched.
        for r in 0..rows {
            assert_eq!(&block[r * stride + cols..(r + 1) * stride], &[0.5; 2]);
        }
    }

    #[test]
    fn scalar_and_full_operands_broadcast_like_elementwise() {
        let mut rng = Rng::seeded(7);
        let (m, n) = (4, 6);
        let x = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let r = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
        let s = Tensor::scalar(0.125);
        let ep = Epilogue {
            n_operands: 2,
            instrs: vec![
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(0, OperandKind::Full)] },
                EpilogueInstr { op: FusedOp::Mul, args: vec![acc(), operand(1, OperandKind::Scalar)] },
            ],
        };
        let p = pool();
        let mut fused = x.clone();
        ep.apply_flat(fused.data_mut(), m, n, &[r.data(), s.data()], &p);
        let unfused = ew::eval(FusedOp::Mul, &[&ew::eval(FusedOp::Add, &[&x, &r], &p), &s], &p);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn validate_rejects_malformed_programs() {
        // No instructions.
        assert!(Epilogue::default().validate().is_err());
        // Wrong arity.
        assert!(Epilogue {
            n_operands: 0,
            instrs: vec![EpilogueInstr { op: FusedOp::Add, args: vec![acc()] }],
        }
        .validate()
        .is_err());
        // Never reads the accumulator.
        assert!(Epilogue {
            n_operands: 1,
            instrs: vec![EpilogueInstr {
                op: FusedOp::Neg,
                args: vec![operand(0, OperandKind::Col)],
            }],
        }
        .validate()
        .is_err());
        // Operand index out of range.
        assert!(Epilogue {
            n_operands: 1,
            instrs: vec![EpilogueInstr {
                op: FusedOp::Add,
                args: vec![acc(), operand(3, OperandKind::Col)],
            }],
        }
        .validate()
        .is_err());
        // Inconsistent operand kind.
        assert!(Epilogue {
            n_operands: 1,
            instrs: vec![
                EpilogueInstr { op: FusedOp::Add, args: vec![acc(), operand(0, OperandKind::Col)] },
                EpilogueInstr { op: FusedOp::Mul, args: vec![acc(), operand(0, OperandKind::Full)] },
            ],
        }
        .validate()
        .is_err());
        // Valid: bias + relu.
        assert!(bias_relu().validate().is_ok());
        // Valid: the accumulator may appear several times (x * x).
        assert!(Epilogue {
            n_operands: 0,
            instrs: vec![EpilogueInstr { op: FusedOp::Mul, args: vec![acc(), acc()] }],
        }
        .validate()
        .is_ok());
    }

    /// Applies `ep` to a copy of `x` (`[m, n]`) three ways — one flat
    /// pass, ragged row fragments, and one strided block — and returns
    /// the result after checking the three agree bitwise.
    fn on_every_path(ep: &Epilogue, x: &Tensor, ops: &[&[f32]]) -> Tensor {
        let (m, n) = (x.shape().dim(0), x.shape().dim(1));
        let mut flat = x.clone();
        ep.apply_flat(flat.data_mut(), m, n, ops, &pool());
        let mut by_row = x.clone();
        let split = n / 3;
        for row in 0..m {
            for (col0, width) in [(0, split), (split, n - split)] {
                let frag = &mut by_row.data_mut()[row * n + col0..][..width];
                ep.apply_row(frag, row, col0, n, ops);
            }
        }
        // The whole matrix as one block inside a wider scratch buffer.
        let stride = n + 3;
        let mut block = vec![0.5f32; m * stride];
        for (dst, src) in block.chunks_mut(stride).zip(x.data().chunks(n)) {
            dst[..n].copy_from_slice(src);
        }
        ep.apply_block(&mut block, 0, 0, m, n, stride, n, ops);
        assert_bitwise(&by_row, &flat, "row fragments vs flat");
        let unpadded: Vec<f32> = block.chunks(stride).flat_map(|row| &row[..n]).copied().collect();
        assert_bitwise(&Tensor::from_vec(unpadded, [m, n]), &flat, "block vs flat");
        flat
    }

    /// Bitwise equality, except that any NaN equals any NaN: which
    /// operand's sign and payload a NaN result inherits depends on operand
    /// order, and the optimizer may commute `a + b` differently in
    /// different loops.
    fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (j, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: element {j}: {g} ({:#x}) vs {w} ({:#x})", g.to_bits(), w.to_bits());
        }
    }

    /// Every op of the table, over the full cartesian grid of special
    /// values: the standalone kernel, the fused interpreter and the
    /// epilogue (with the accumulator in each operand position, the other
    /// operands full-sized or a broadcast scalar) must agree bitwise.
    #[test]
    fn every_op_agrees_bitwise_on_every_path_over_special_values() {
        use crate::kernels::fused::{FusedInstr, FusedProgram};
        let specials = [
            0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-40, 3.0e38, -3.0e38,
            1.0, -2.5, 0.5,
        ];
        let base = specials.len();
        let p = pool();
        for op in FusedOp::ALL {
            let arity = op.arity().unwrap_or(3);
            // Input i enumerates digit i of the grid index, so the inputs
            // together visit every arity-tuple of special values.
            let total = base.pow(arity as u32);
            let inputs: Vec<Tensor> = (0..arity)
                .map(|i| {
                    let data = (0..total).map(|e| specials[e / base.pow(i as u32) % base]).collect();
                    Tensor::from_vec(data, [total / base, base])
                })
                .collect();
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let want = ew::eval(op, &refs, &p);
            let program = FusedProgram {
                n_inputs: arity,
                instrs: vec![FusedInstr { op, args: (0..arity as u16).collect() }],
            };
            assert_bitwise(&program.eval(&refs, &p), &want, &format!("{} fused", op.name()));
            for acc_at in 0..arity {
                let mut ops: Vec<&[f32]> = Vec::new();
                let args = (0..arity)
                    .map(|i| {
                        if i == acc_at {
                            return acc();
                        }
                        ops.push(inputs[i].data());
                        operand(ops.len() as u16 - 1, OperandKind::Full)
                    })
                    .collect();
                let ep = Epilogue { n_operands: arity - 1, instrs: vec![EpilogueInstr { op, args }] };
                let got = on_every_path(&ep, &inputs[acc_at], &ops);
                assert_bitwise(&got, &want, &format!("{} epilogue, acc at {acc_at}", op.name()));
            }
            // The last operand as a broadcast scalar (the variadic fold
            // takes same-shaped operands only).
            if arity < 2 || op.arity().is_none() {
                continue;
            }
            for &s in &specials {
                let scalar = Tensor::scalar(s);
                let mut refs = refs.clone();
                refs[arity - 1] = &scalar;
                let want = ew::eval(op, &refs, &p);
                let what = format!("{} with scalar {s}", op.name());
                assert_bitwise(&program.eval(&refs, &p), &want, &format!("{what}, fused"));
                let mut ops: Vec<&[f32]> = refs[1..arity - 1].iter().map(|t| t.data()).collect();
                ops.push(scalar.data());
                let args = std::iter::once(acc())
                    .chain((1..arity - 1).map(|i| operand(i as u16 - 1, OperandKind::Full)))
                    .chain([operand(arity as u16 - 2, OperandKind::Scalar)])
                    .collect();
                let ep = Epilogue { n_operands: arity - 1, instrs: vec![EpilogueInstr { op, args }] };
                assert_bitwise(&on_every_path(&ep, &inputs[0], &ops), &want, &format!("{what}, epilogue"));
            }
        }
    }

    #[test]
    fn addn_folds_in_operand_order() {
        use crate::kernels::fused::{FusedInstr, FusedProgram};
        // The last column is all -0.0: a fold that mixed in a +0.0
        // identity would turn it into +0.0.
        let x = Tensor::from_vec(vec![1.0, -0.0, -0.0, 0.0, 2.5, -0.0], [2, 3]);
        let a = Tensor::from_vec(vec![10.0, 0.0, -0.0, -0.0, 1.5, -0.0], [2, 3]);
        let b = Tensor::from_vec(vec![-10.0, -0.0, -0.0, -0.0, -4.0, -0.0], [2, 3]);
        let ep = Epilogue {
            n_operands: 2,
            instrs: vec![EpilogueInstr {
                op: FusedOp::AddN,
                args: vec![operand(0, OperandKind::Full), acc(), operand(1, OperandKind::Full)],
            }],
        };
        let p = pool();
        let unfused = ew::eval(FusedOp::AddN, &[&a, &x, &b], &p);
        assert_eq!(unfused.data()[2].to_bits(), (-0.0f32).to_bits());
        assert_eq!(unfused.data()[5].to_bits(), (-0.0f32).to_bits());
        assert_bitwise(&on_every_path(&ep, &x, &[a.data(), b.data()]), &unfused, "epilogue");
        let program = FusedProgram {
            n_inputs: 3,
            instrs: vec![FusedInstr { op: FusedOp::AddN, args: vec![0, 1, 2] }],
        };
        assert_bitwise(&program.eval(&[&a, &x, &b], &p), &unfused, "fused program");
    }
}

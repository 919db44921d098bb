//! GEMM epilogues: a [`FusedProgram`] applied to the packed engine's
//! accumulator tiles before they are stored to C.
//!
//! A dense layer is `matmul -> add bias -> activation`; lowered naively,
//! the matmul writes `[m, n]` to memory and each elementwise consumer
//! reads and rewrites it. An epilogue instead rides the microkernel
//! writeback in [`crate::kernels::gemm`]: the accumulator tile is still
//! in registers when the bias add and activation run, so the chain costs
//! one store instead of a store plus two round trips (the BLIS/cuBLAS
//! "fused epilogue" idiom).
//!
//! An epilogue is an ordinary [`FusedProgram`] in one shape, checked by
//! [`FusedProgram::validate_epilogue`]: register 0 is the accumulator,
//! registers `1..n_inputs` are the external operands, and the program is
//! a chain — instruction *k* reads the previous result (the accumulator
//! for *k* = 0) at least once and otherwise only operands, so every
//! instruction rewrites the accumulator in place. An operand binds by its
//! length against the `[m, n]` output: 1 (a broadcast scalar), `n` (one
//! value per output column, e.g. a bias) or `m * n` (one value per
//! element, e.g. a residual). Where two readings fit one length (`n ==
//! 1`, `m == 1`) they read the same values.
//!
//! # Bitwise contract
//!
//! Every instruction applies *exactly* the scalar formula of the
//! standalone kernel it replaces, by construction: the ops are
//! [`crate::kernels::fused::FusedOp`]s, evaluated through the same op
//! table and row evaluator as the fused elementwise interpreter, with
//! the accumulator as the destination row. Element evaluation is pure (no
//! cross-element reduction), so applying the program per register tile
//! ([`FusedProgram::apply_block`] inside the GEMM writeback), per flat
//! row ([`FusedProgram::apply_flat`] on the fallback paths), serially, or
//! in parallel all produce identical bits; and because the unfused
//! elementwise kernels broadcast a `[n]` bias against `[m, n]` by reading
//! `b[j]` per element — the same value a column operand reads — a fused
//! evaluation is bit-identical to running the unfused
//! matmul-then-elementwise chain.

use crate::kernels::fused::{FusedInstr, FusedOp, FusedProgram, Rows, Src};
use crate::pool::ExecPool;

/// Epilogues longer than this are not worth holding in the writeback
/// loop; the graph pass leaves longer chains to the elementwise
/// interpreter.
pub const MAX_EPILOGUE_INSTRS: usize = 8;
/// Per-instruction operand cap (covers every fixed-arity op and bounds
/// AddN); the graph pass leaves wider sums to the elementwise
/// interpreter.
pub const MAX_EPILOGUE_ARGS: usize = 8;

impl FusedProgram {
    /// Builds an epilogue over `n_operands` external operands from one
    /// `(op, args)` link per instruction, in order: an arg is `None` for
    /// the running accumulator (the GEMM accumulator for the first link,
    /// the previous link's result after that) and `Some(i)` for operand
    /// `i`, which binds to register `i + 1`.
    pub fn epilogue(
        n_operands: usize,
        links: impl IntoIterator<Item = (FusedOp, Vec<Option<u16>>)>,
    ) -> Self {
        let mut program = FusedProgram { n_inputs: n_operands + 1, instrs: Vec::new() };
        for (op, args) in links {
            let prev = program.chain_register(program.instrs.len());
            let args = args.into_iter().map(|a| a.map_or(prev, |i| i + 1)).collect();
            program.instrs.push(FusedInstr { op, args });
        }
        program
    }

    /// The register instruction `k` of an epilogue chain reads as the
    /// running accumulator: register 0 for the first, else the previous
    /// instruction's result.
    fn chain_register(&self, k: usize) -> u16 {
        if k == 0 {
            0
        } else {
            (self.n_inputs + k - 1) as u16
        }
    }

    /// Checks that the program is a GEMM epilogue: structurally valid
    /// ([`FusedProgram::validate`]), within the hot-loop caps
    /// ([`MAX_EPILOGUE_INSTRS`], [`MAX_EPILOGUE_ARGS`]), and a chain —
    /// instruction *k* reads the previous result at least once and
    /// otherwise only operand registers `1..n_inputs`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate_epilogue(&self) -> Result<(), String> {
        self.validate()?;
        if self.instrs.len() > MAX_EPILOGUE_INSTRS {
            return Err(format!(
                "epilogue has {} instructions (max {MAX_EPILOGUE_INSTRS})",
                self.instrs.len()
            ));
        }
        for (k, instr) in self.instrs.iter().enumerate() {
            if instr.args.len() > MAX_EPILOGUE_ARGS {
                return Err(format!(
                    "epilogue instruction {k} has {} operands (max {MAX_EPILOGUE_ARGS})",
                    instr.args.len()
                ));
            }
            let prev = self.chain_register(k);
            if !instr.args.contains(&prev) {
                return Err(format!(
                    "epilogue instruction {k} ({}) never reads register {prev}, the accumulator",
                    instr.op.name()
                ));
            }
            let operand = |a: u16| a != 0 && usize::from(a) < self.n_inputs;
            if let Some(a) = instr.args.iter().find(|&&a| a != prev && !operand(a)) {
                return Err(format!("epilogue instruction {k} reads stale register {a}"));
            }
        }
        Ok(())
    }

    /// Validates the epilogue and asserts there is one operand slice per
    /// operand register, each of length 1, `n` or `m * n` against an
    /// `[m, n]` output. Kernel entry points call this once before the
    /// hot loops.
    ///
    /// # Panics
    ///
    /// Panics on an invalid epilogue or a mis-sized operand.
    pub fn check_operands(&self, m: usize, n: usize, operands: &[&[f32]]) {
        self.validate_epilogue().expect("epilogue is a valid chain");
        assert_eq!(operands.len() + 1, self.n_inputs, "epilogue operand count mismatch");
        for (i, op) in operands.iter().enumerate() {
            assert!(
                [1, n, m * n].contains(&op.len()),
                "epilogue operand {i} has {} elements, not 1, {n} or {}",
                op.len(),
                m * n
            );
        }
    }

    /// Applies the epilogue to `acc`, a row fragment of the output whose
    /// first element is output element `(row, col0)` of an `[_, n]`
    /// matrix — the degenerate one-row block.
    ///
    /// Assumes [`FusedProgram::check_operands`] ran at the kernel entry.
    #[inline]
    pub fn apply_row(&self, acc: &mut [f32], row: usize, col0: usize, n: usize, operands: &[&[f32]]) {
        let len = acc.len();
        self.apply_block(acc, row, col0, 1, len, len, n, operands);
    }

    /// Applies the epilogue to a `rows x cols` accumulator block stored
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
    /// bitwise identical to [`FusedProgram::apply_row`] row by row.
    ///
    /// Assumes [`FusedProgram::check_operands`] ran at the kernel entry.
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
        for (k, instr) in self.instrs.iter().enumerate() {
            let prev = self.chain_register(k);
            // The operand's length picks its broadcast: a scalar or a
            // column vector resolves to the same source on every row, a
            // full operand's slice moves with the row.
            let src = |r: usize, i: usize| {
                let reg = instr.args[i];
                if reg == prev {
                    return Src::Dst;
                }
                let data = operands[usize::from(reg) - 1];
                if data.len() == 1 {
                    Src::Scalar(data[0])
                } else if data.len() == n {
                    Src::Row(&data[col0..col0 + cols])
                } else {
                    let at = (row0 + r) * n + col0;
                    Src::Row(&data[at..at + cols])
                }
            };
            let dsts = block.chunks_mut(stride.max(1)).take(rows).map(|row| &mut row[..cols]);
            instr.op.visit(Rows { dsts, n_args: instr.args.len(), src });
        }
    }

    /// Applies the epilogue to a whole `[m, n]` buffer in place — the
    /// fallback for GEMM paths that never hold tiles in registers (the
    /// row-parallel kernel, the direct conv kernel, `k == 0` products).
    /// Bitwise identical to the tile path: evaluation is pure per
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if the epilogue is invalid, `data.len() != m * n`, or an
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

    /// A program over `n_inputs` registers (the accumulator plus the
    /// operands) from `(op, registers)` rows.
    fn program(n_inputs: usize, instrs: &[(FusedOp, &[u16])]) -> FusedProgram {
        let instrs = instrs.iter().map(|&(op, args)| FusedInstr { op, args: args.to_vec() }).collect();
        FusedProgram { n_inputs, instrs }
    }

    /// bias-add + relu: the canonical dense-layer epilogue.
    fn bias_relu() -> FusedProgram {
        program(2, &[(FusedOp::Add, &[0, 1]), (FusedOp::Relu, &[2])])
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
        let ep = program(3, &[(FusedOp::Add, &[0, 1]), (FusedOp::Tanh, &[3]), (FusedOp::Add, &[4, 2])]);
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
        let ep = program(
            4,
            &[
                (FusedOp::Add, &[0, 1]),
                (FusedOp::Maximum, &[4, 3]),
                (FusedOp::Add, &[5, 2]),
                (FusedOp::Sigmoid, &[6]),
            ],
        );
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
        let ep = program(3, &[(FusedOp::Add, &[0, 1]), (FusedOp::Mul, &[3, 2])]);
        let p = pool();
        let mut fused = x.clone();
        ep.apply_flat(fused.data_mut(), m, n, &[r.data(), s.data()], &p);
        let unfused = ew::eval(FusedOp::Mul, &[&ew::eval(FusedOp::Add, &[&x, &r], &p), &s], &p);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn ambiguous_lengths_read_the_same_values() {
        // One output row: an `n`-long operand is both a column vector and
        // the full output. One output column: a 1-long operand is both a
        // scalar and a column vector. Each reading must give the unfused
        // broadcast's values.
        let mut rng = Rng::seeded(9);
        let p = pool();
        for (m, n) in [(1, 5), (6, 1), (1, 1)] {
            let x = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
            let col = Tensor::randn([n], 0.0, 1.0, &mut rng);
            let full = Tensor::randn([m, n], 0.0, 1.0, &mut rng);
            let ep = program(3, &[(FusedOp::Sub, &[1, 0]), (FusedOp::Mul, &[3, 2])]);
            let mut fused = x.clone();
            ep.apply_flat(fused.data_mut(), m, n, &[col.data(), full.data()], &p);
            let unfused = ew::eval(FusedOp::Mul, &[&ew::eval(FusedOp::Sub, &[&col, &x], &p), &full], &p);
            assert_eq!(fused.data(), unfused.data(), "m={m} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "not 1, 4 or 12")]
    fn an_operand_of_no_broadcast_length_is_rejected() {
        let mut data = vec![0.0; 12];
        bias_relu().apply_flat(&mut data, 3, 4, &[&[1.0, 2.0, 3.0]], &ExecPool::serial());
    }

    #[test]
    fn validate_epilogue_rejects_non_chains() {
        let rejects = |ep: FusedProgram, why: &str| {
            let err = ep.validate_epilogue().expect_err(why);
            assert!(err.contains(why), "{why}: got {err:?}");
        };
        // No instructions; wrong arity (structural, as any program).
        rejects(program(1, &[]), "at least one instruction");
        rejects(program(1, &[(FusedOp::Add, &[0])]), "takes 2 operands");
        // An operand register that does not exist.
        rejects(program(2, &[(FusedOp::Add, &[0, 3])]), "before it is written");
        // The first instruction skips the accumulator.
        rejects(program(2, &[(FusedOp::Neg, &[1])]), "never reads register 0");
        // A later instruction skips the previous result.
        rejects(program(2, &[(FusedOp::Relu, &[0]), (FusedOp::Add, &[0, 1])]), "never reads register 2");
        // A later instruction reads the stale accumulator beside the
        // previous result, or an older intermediate.
        rejects(program(1, &[(FusedOp::Relu, &[0]), (FusedOp::Add, &[1, 0])]), "stale register 0");
        rejects(
            program(1, &[(FusedOp::Relu, &[0]), (FusedOp::Neg, &[1]), (FusedOp::Add, &[2, 1])]),
            "stale register 1",
        );
        // The caps.
        let chain = |len: usize| FusedProgram {
            n_inputs: 1,
            instrs: (0..len as u16).map(|k| FusedInstr { op: FusedOp::Relu, args: vec![k] }).collect(),
        };
        rejects(chain(MAX_EPILOGUE_INSTRS + 1), "9 instructions (max 8)");
        let wide: Vec<u16> = std::iter::once(0).chain(std::iter::repeat_n(1, MAX_EPILOGUE_ARGS)).collect();
        rejects(program(2, &[(FusedOp::AddN, &wide)]), "9 operands (max 8)");
        // Valid: bias + relu; the accumulator read twice (x * x); a chain
        // at both caps.
        assert!(bias_relu().validate_epilogue().is_ok());
        assert!(program(1, &[(FusedOp::Mul, &[0, 0])]).validate_epilogue().is_ok());
        assert!(chain(MAX_EPILOGUE_INSTRS).validate_epilogue().is_ok());
        assert!(program(2, &[(FusedOp::AddN, &wide[..MAX_EPILOGUE_ARGS])]).validate_epilogue().is_ok());
    }

    /// Applies `ep` to a copy of `x` (`[m, n]`) three ways — one flat
    /// pass, ragged row fragments, and one strided block — and returns
    /// the result after checking the three agree bitwise.
    fn on_every_path(ep: &FusedProgram, x: &Tensor, ops: &[&[f32]]) -> Tensor {
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
            let registers: Vec<u16> = (0..arity as u16).collect();
            let fused = program(arity, &[(op, &registers)]);
            assert_bitwise(&fused.eval(&refs, &p), &want, &format!("{} fused", op.name()));
            // The accumulator in position `acc_at`, the other inputs as
            // operand registers 1.. in order.
            for acc_at in 0..arity {
                let others: Vec<usize> = (0..arity).filter(|&i| i != acc_at).collect();
                let ops: Vec<&[f32]> = others.iter().map(|&i| inputs[i].data()).collect();
                let args: Vec<u16> =
                    (0..arity).map(|i| others.iter().position(|&o| o == i).map_or(0, |at| at as u16 + 1)).collect();
                let ep = program(arity, &[(op, &args)]);
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
                assert_bitwise(&fused.eval(&refs, &p), &want, &format!("{what}, fused"));
                let ops: Vec<&[f32]> = refs[1..].iter().map(|t| t.data()).collect();
                assert_bitwise(&on_every_path(&fused, &inputs[0], &ops), &want, &format!("{what}, epilogue"));
            }
        }
    }

    #[test]
    fn addn_folds_in_operand_order() {
        // The last column is all -0.0: a fold that mixed in a +0.0
        // identity would turn it into +0.0.
        let x = Tensor::from_vec(vec![1.0, -0.0, -0.0, 0.0, 2.5, -0.0], [2, 3]);
        let a = Tensor::from_vec(vec![10.0, 0.0, -0.0, -0.0, 1.5, -0.0], [2, 3]);
        let b = Tensor::from_vec(vec![-10.0, -0.0, -0.0, -0.0, -4.0, -0.0], [2, 3]);
        let ep = program(3, &[(FusedOp::AddN, &[1, 0, 2])]);
        let p = pool();
        let unfused = ew::eval(FusedOp::AddN, &[&a, &x, &b], &p);
        assert_eq!(unfused.data()[2].to_bits(), (-0.0f32).to_bits());
        assert_eq!(unfused.data()[5].to_bits(), (-0.0f32).to_bits());
        assert_bitwise(&on_every_path(&ep, &x, &[a.data(), b.data()]), &unfused, "epilogue");
        let fused = program(3, &[(FusedOp::AddN, &[0, 1, 2])]);
        assert_bitwise(&fused.eval(&[&a, &x, &b], &p), &unfused, "fused program");
    }
}

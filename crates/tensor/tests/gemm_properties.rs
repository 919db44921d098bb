//! Property and determinism tests for the packed GEMM engine on matrix
//! operands (`conv_properties.rs` covers it under patch views).
//!
//! Three families of claims, each over both panel formats
//! (`Precision::F32` / `Precision::Bf16`) and both sides of the packing
//! threshold:
//!
//! 1. **Agreement**: the product equals `matmul_naive` (to rounding; on
//!    bf16-rounded operands where bf16 panels ran) for arbitrary — prime,
//!    odd, degenerate — `(m, k, n)` and all four transpose combinations,
//!    through `matmul` (engine chosen by `gemm::select`) and through
//!    `gemm_into` (packed driver forced). Shapes are drawn to straddle
//!    the MR/NR/KC tile edges so partial tiles and zero-padded pack lanes
//!    are hit.
//! 2. **Determinism**: parallel execution at any worker count is bitwise
//!    identical to serial — the contract PRs 1–3 established for every
//!    kernel.
//! 3. **Epilogue fusion**: `matmul` with a random epilogue program over
//!    random operand broadcast classes is bitwise identical to the same
//!    call without one followed by the standalone elementwise kernels,
//!    at every worker count — the contract the graph-level epilogue pass
//!    rests on.

use fathom_tensor::kernels::elementwise as kew;
use fathom_tensor::kernels::fused::{FusedInstr, FusedOp, FusedProgram};
use fathom_tensor::kernels::gemm::{gemm_into, matmul, select, Engine};
use fathom_tensor::kernels::matmul::matmul_naive;
use fathom_tensor::kernels::quant::{bf16_to_f32, bf16_from_f32};
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};
use proptest::prelude::*;

/// Dimension sizes that exercise tile interiors, tile edges, and the
/// one-short / one-over boundaries of MR=8, NR=16.
fn awkward_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..4,           // degenerate
        Just(7usize),        // MR - 1 (prime)
        Just(8usize),        // exactly MR
        Just(13usize),       // prime between MR and NR
        Just(16usize),       // exactly NR
        Just(17usize),       // NR + 1 (prime)
        Just(31usize),       // prime, one short of MC and of two NR strips
        Just(64usize),       // exactly NC, two MC blocks
        Just(67usize),       // prime just past a macro tile column
    ]
}

/// Contraction/column sizes: the awkward tile-edge menu never clears the
/// packing threshold (64 * 67 < 8192), so larger values are mixed in to
/// land cases on both sides of it, on both sides of the bf16 depth rule
/// (k = 48 packs f32 panels whatever the precision), and past one KC
/// block.
fn gemm_dim() -> impl Strategy<Value = usize> {
    prop_oneof![awkward_dim(), Just(48usize), Just(130usize), Just(512usize), Just(515usize)]
}

fn precision() -> impl Strategy<Value = Precision> {
    prop_oneof![Just(Precision::F32), Just(Precision::Bf16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn product_matches_naive_and_is_bitwise_deterministic(
        m in awkward_dim(),
        k in gemm_dim(),
        n in gemm_dim(),
        combo in 0u8..4,
        precision in precision(),
        force_packed in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
    ) {
        let (ta, tb) = (combo & 1 == 1, combo & 2 == 2);
        let mut rng = Rng::seeded(seed);
        let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
        let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
        let run = |pool: &ExecPool| {
            if force_packed {
                let mut c = vec![f32::NAN; m * n];
                gemm_into(&mut c, m, n, k, a.data(), ta, b.data(), tb, precision, None, pool);
                Tensor::from_vec(c, [m, n])
            } else {
                matmul(&a, &b, ta, tb, precision, None, pool)
            }
        };
        // bf16 panels round each operand element once at pack time.
        let bf16_panels = if force_packed {
            precision == Precision::Bf16
        } else {
            select(k, n, precision) == Engine::PackedBf16
        };
        let on_grid = |t: &Tensor| {
            if !bf16_panels {
                return t.clone();
            }
            let data = t.data().iter().map(|&v| bf16_to_f32(bf16_from_f32(v))).collect();
            Tensor::from_vec(data, t.shape().dims())
        };
        let serial = run(&ExecPool::serial());
        let slow = matmul_naive(&on_grid(&a), &on_grid(&b), ta, tb);
        prop_assert_eq!(serial.shape(), slow.shape());
        prop_assert!(
            serial.max_abs_diff(&slow) < 1e-3,
            "{} forced={} m={} k={} n={} ta={} tb={}: diff {}",
            precision, force_packed, m, k, n, ta, tb, serial.max_abs_diff(&slow)
        );
        for threads in [2usize, 3, 8] {
            let par = run(&ExecPool::new(threads).with_grain(1));
            prop_assert_eq!(serial.data(), par.data(), "{} workers diverged", threads);
        }
    }
}

/// How an external epilogue operand broadcasts against the `[m, n]`
/// output; the kernel reads it from the operand's length.
#[derive(Clone, Copy, Debug)]
enum Broadcast {
    /// One element.
    Scalar,
    /// `n` elements, one per output column.
    Col,
    /// `m * n` elements, one per output element.
    Full,
}

/// One randomly drawn epilogue instruction: a unary activation on the
/// accumulator, or a binary op against one external operand of a random
/// broadcast class, on either side.
#[derive(Clone, Copy, Debug)]
enum InstrSpec {
    Unary(FusedOp),
    Binary { op: FusedOp, kind: Broadcast, swapped: bool },
}

fn instr_spec() -> impl Strategy<Value = InstrSpec> {
    let unary = prop_oneof![
        Just(FusedOp::Relu),
        Just(FusedOp::Tanh),
        Just(FusedOp::Sigmoid),
        Just(FusedOp::Neg),
        Just(FusedOp::Square),
    ];
    let binary = prop_oneof![
        Just(FusedOp::Add),
        Just(FusedOp::Sub),
        Just(FusedOp::Mul),
        Just(FusedOp::Maximum),
    ];
    let kind = prop_oneof![Just(Broadcast::Scalar), Just(Broadcast::Col), Just(Broadcast::Full)];
    prop_oneof![
        unary.prop_map(InstrSpec::Unary),
        (binary, kind, prop_oneof![Just(false), Just(true)])
            .prop_map(|(op, kind, swapped)| InstrSpec::Binary { op, kind, swapped }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_epilogue_matches_unfused_chain_bitwise(
        m in awkward_dim(),
        k in gemm_dim(),
        n in gemm_dim(),
        combo in 0u8..4,
        precision in precision(),
        specs in proptest::collection::vec(instr_spec(), 1..5),
        seed in 0u64..1000,
    ) {
        let (ta, tb) = (combo & 1 == 1, combo & 2 == 2);
        let mut rng = Rng::seeded(seed);
        let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
        let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);

        // Build the epilogue program and its operand tensors.
        let mut operands: Vec<Tensor> = Vec::new();
        let mut links = Vec::new();
        for spec in &specs {
            match *spec {
                InstrSpec::Unary(op) => links.push((op, vec![None])),
                InstrSpec::Binary { op, kind, swapped } => {
                    let ext = Some(operands.len() as u16);
                    operands.push(match kind {
                        Broadcast::Scalar => Tensor::randn([1], 0.0, 1.0, &mut rng),
                        Broadcast::Col => Tensor::randn([n], 0.0, 1.0, &mut rng),
                        Broadcast::Full => Tensor::randn([m, n], 0.0, 1.0, &mut rng),
                    });
                    links.push((op, if swapped { vec![ext, None] } else { vec![None, ext] }));
                }
            }
        }
        let ep = FusedProgram::epilogue(operands.len(), links);

        // Reference: the same entry point without an epilogue, then the
        // standalone elementwise kernels. Operands are materialized to
        // [m, n] so each kernel reads exactly the value the broadcast
        // class fetches per element.
        let serial = ExecPool::serial();
        let mut want = matmul(&a, &b, ta, tb, precision, None, &serial);
        let mut next_operand = operands.iter();
        for spec in &specs {
            want = match *spec {
                InstrSpec::Unary(op) => kew::eval(op, &[&want], &serial),
                InstrSpec::Binary { op, kind, swapped } => {
                    let t = next_operand.next().expect("one operand per binary instr");
                    let full = match kind {
                        Broadcast::Scalar => {
                            Tensor::from_vec(vec![t.data()[0]; m * n], [m, n])
                        }
                        Broadcast::Col => Tensor::from_vec(
                            (0..m * n).map(|i| t.data()[i % n]).collect(),
                            [m, n],
                        ),
                        Broadcast::Full => t.clone(),
                    };
                    let (x, y) = if swapped { (&full, &want) } else { (&want, &full) };
                    kew::eval(op, &[x, y], &serial)
                }
            };
        }

        let op_refs: Vec<&[f32]> = operands.iter().map(|t| t.data()).collect();
        let fused = matmul(&a, &b, ta, tb, precision, Some((&ep, &op_refs)), &serial);
        prop_assert_eq!(fused.shape(), want.shape());
        prop_assert!(
            fused.data() == want.data(),
            "serial fused epilogue != unfused chain ({} m={} k={} n={} ta={} tb={} specs={:?})",
            precision, m, k, n, ta, tb, specs
        );
        for threads in [2usize, 8] {
            let pool = ExecPool::new(threads).with_grain(1);
            let par = matmul(&a, &b, ta, tb, precision, Some((&ep, &op_refs)), &pool);
            prop_assert!(
                fused.data() == par.data(),
                "fused epilogue diverged at {} workers (m={} k={} n={} specs={:?})",
                threads, m, k, n, specs
            );
        }
    }
}

/// One product deep enough to span a K block and wide enough to keep
/// eight workers on separate tiles (256×512×192), through the packed
/// driver at both panel formats with the pool's default grain: all four
/// operand layouts against naive (tolerance scaled with k), serial == 8
/// workers bitwise, and a bias + ReLU epilogue bitwise equal to the
/// unfused product followed by the elementwise kernels.
#[test]
fn a_256x512x192_product_at_eight_workers_agrees_fuses_and_is_deterministic() {
    let (m, k, n) = (256, 512, 192);
    let mut rng = Rng::seeded(0xFA7408);
    let (serial, wide) = (ExecPool::serial(), ExecPool::new(8));
    type Fused<'a> = Option<(&'a FusedProgram, &'a [&'a [f32]])>;
    let packed = |a: &Tensor, ta, b: &Tensor, tb, precision, ep: Fused<'_>, pool: &ExecPool| {
        let mut c = vec![f32::NAN; m * n];
        gemm_into(&mut c, m, n, k, a.data(), ta, b.data(), tb, precision, ep, pool);
        Tensor::from_vec(c, [m, n])
    };
    // The same logical operands stored transposed, so one naive product
    // is the reference for every layout.
    let stored_t = |t: &Tensor| {
        let (rows, cols) = (t.shape().dims()[0], t.shape().dims()[1]);
        let data = (0..rows * cols).map(|i| t.data()[i % rows * cols + i / rows]).collect();
        Tensor::from_vec(data, [cols, rows])
    };
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let (a_t, b_t) = (stored_t(&a), stored_t(&b));
    let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
    let ep = FusedProgram {
        n_inputs: 2,
        instrs: vec![
            FusedInstr { op: FusedOp::Add, args: vec![0, 1] },
            FusedInstr { op: FusedOp::Relu, args: vec![2] },
        ],
    };
    let ops: [&[f32]; 1] = [bias.data()];
    for precision in [Precision::F32, Precision::Bf16] {
        // bf16 panels round each operand element once at pack time.
        let on_grid = |t: &Tensor| match precision {
            Precision::F32 => t.clone(),
            Precision::Bf16 => Tensor::from_vec(
                t.data().iter().map(|&v| bf16_to_f32(bf16_from_f32(v))).collect(),
                t.shape().dims(),
            ),
        };
        let reference = matmul_naive(&on_grid(&a), &on_grid(&b), false, false);
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let (a, b) = (if ta { &a_t } else { &a }, if tb { &b_t } else { &b });
            let par = packed(a, ta, b, tb, precision, None, &wide);
            let diff = par.max_abs_diff(&reference);
            assert!(diff < 1e-6 * k as f32, "{precision} ta={ta} tb={tb}: diff {diff}");
            let ser = packed(a, ta, b, tb, precision, None, &serial);
            assert_eq!(ser.data(), par.data(), "{precision} ta={ta} tb={tb}: 8 workers diverged");
        }
        let product = packed(&a, false, &b, false, precision, None, &wide);
        let biased = kew::eval(FusedOp::Add, &[&product, &bias], &wide);
        let unfused = kew::eval(FusedOp::Relu, &[&biased], &wide);
        let fused = packed(&a, false, &b, false, precision, Some((&ep, &ops)), &wide);
        assert_eq!(fused.data(), unfused.data(), "{precision}: fused epilogue != unfused chain");
        let fused_serial = packed(&a, false, &b, false, precision, Some((&ep, &ops)), &serial);
        assert_eq!(fused_serial.data(), fused.data(), "{precision}: fused, 8 workers diverged");
    }
}

/// The dispatching `matmul` must agree with naive across the packed /
/// row-kernel threshold, so graph results do not depend on which engine
/// `gemm::select` picks for a geometry.
#[test]
fn dispatching_matmul_agrees_with_naive_around_the_threshold() {
    let mut rng = Rng::seeded(77);
    for &(m, k, n) in &[
        (5, 31, 15),   // below: rows kernel
        (5, 32, 16),   // at the edge
        (3, 512, 16),  // packed, skinny m
        (1, 600, 40),  // packed, single row
    ] {
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
            let pool = ExecPool::new(2).with_grain(1);
            let fast = matmul(&a, &b, ta, tb, Precision::F32, None, &pool);
            let slow = matmul_naive(&a, &b, ta, tb);
            assert!(
                fast.max_abs_diff(&slow) < 1e-3,
                "m={m} k={k} n={n} ta={ta} tb={tb}: diff {}",
                fast.max_abs_diff(&slow)
            );
        }
    }
}

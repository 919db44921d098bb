//! Property tests for the reduced-precision paths (DESIGN.md §18).
//!
//! Three families of claims:
//!
//! 1. **bf16 conversion**: widening is exact (bf16 is an f32 prefix), so
//!    values already on the bf16 grid round-trip bit for bit; off-grid
//!    finite values round-trip within one part in 2⁸ (the dropped
//!    mantissa width), and conversion is monotone and sign-preserving.
//! 2. **int8 quantize→dequantize**: symmetric (`q(-x) == -q(x)`), zero-
//!    preserving, monotone in the input, and within half a grid step for
//!    in-range values.
//! 3. **GEMM determinism at either precision**: `matmul` is bitwise
//!    identical serial vs pooled at workers {1, 2, 8} whatever the
//!    requested precision, with or without a fused epilogue, on both
//!    sides of the packing threshold and of the bf16 depth rule — the
//!    reduction order is width-independent.

use fathom_tensor::kernels::epilogue::{Epilogue, EpilogueArg, EpilogueInstr};
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::kernels::gemm::matmul;
use fathom_tensor::kernels::quant::{bf16_to_f32, bf16_from_f32, quant_scale, quantize_i8};
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};
use proptest::prelude::*;

/// Finite f32 values spanning subnormal-adjacent to huge magnitudes.
fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e30f32..1e30f32,
        -10.0f32..10.0f32,
        -1e-20f32..1e-20f32,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bf16_round_trip_is_exact_on_representable_values(x in finite_f32()) {
        // Snap to the grid once; a second trip must be the identity.
        let snapped = bf16_to_f32(bf16_from_f32(x));
        prop_assert_eq!(
            bf16_to_f32(bf16_from_f32(snapped)).to_bits(),
            snapped.to_bits(),
            "grid value {} must round-trip bit for bit",
            snapped
        );
    }

    #[test]
    fn bf16_round_trip_error_is_bounded(x in finite_f32()) {
        let back = bf16_to_f32(bf16_from_f32(x));
        if back.is_finite() {
            // Round-to-nearest over 16 dropped mantissa bits: relative
            // error at most 2^-8 (half an ulp of the 8-bit mantissa).
            let err = (back - x).abs();
            prop_assert!(
                err <= x.abs() / 256.0 + f32::MIN_POSITIVE,
                "|{} - {}| = {} exceeds the bf16 half-ulp bound",
                back, x, err
            );
        } else {
            // Overflow to infinity can only happen near f32::MAX where
            // rounding up crosses the exponent ceiling.
            prop_assert!(x.abs() >= 3.3e38, "{} must not overflow to {}", x, back);
        }
    }

    #[test]
    fn bf16_conversion_is_monotone(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            bf16_to_f32(bf16_from_f32(lo)) <= bf16_to_f32(bf16_from_f32(hi)),
            "rounding must preserve order: {} vs {}",
            lo, hi
        );
    }

    #[test]
    fn int8_quantization_is_symmetric_and_zero_preserving(
        x in -100.0f32..100.0,
        max_abs in 0.0f32..100.0,
    ) {
        let s = quant_scale(max_abs);
        prop_assert_eq!(quantize_i8(0.0, s), 0);
        prop_assert_eq!(quantize_i8(-x, s), -quantize_i8(x, s), "asymmetric at {}", x);
    }

    #[test]
    fn int8_quantization_is_monotone(
        a in -100.0f32..100.0,
        b in -100.0f32..100.0,
        max_abs in 0.1f32..100.0,
    ) {
        let s = quant_scale(max_abs);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            quantize_i8(lo, s) <= quantize_i8(hi, s),
            "quantization must preserve order: {} vs {} at scale {}",
            lo, hi, s
        );
    }

    #[test]
    fn int8_dequantization_is_within_half_a_step(
        x in -50.0f32..50.0,
        max_abs in 0.1f32..50.0,
    ) {
        // In-range values land within scale/2 of their dequantized
        // image; out-of-range values clamp to the grid edge.
        let s = quant_scale(max_abs);
        let deq = f32::from(quantize_i8(x, s)) * s;
        if x.abs() <= max_abs {
            prop_assert!(
                (deq - x).abs() <= s / 2.0 + 1e-6,
                "|{} - {}| exceeds half a grid step ({})",
                deq, x, s
            );
        } else {
            prop_assert_eq!(deq.abs(), 127.0 * s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_is_bitwise_identical_serial_vs_pool(
        m in prop_oneof![Just(1usize), Just(13), Just(67)],
        // 16 stays on the row kernel; 48 packs f32 panels even under bf16.
        k in prop_oneof![Just(16usize), Just(48), Just(129), Just(300), Just(517)],
        n in prop_oneof![Just(16usize), Just(31), Just(93), Just(256)],
        precision in prop_oneof![Just(Precision::F32), Just(Precision::Bf16)],
        with_epilogue in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seeded(seed);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let relu = Epilogue {
            n_operands: 0,
            instrs: vec![EpilogueInstr { op: FusedOp::Relu, args: vec![EpilogueArg::Acc] }],
        };
        let run = |threads: usize| {
            let ep = with_epilogue.then_some((&relu, &[][..]));
            matmul(&a, &b, false, false, precision, ep, &ExecPool::new(threads).with_grain(1))
        };
        let serial = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                serial.data(), run(threads).data(),
                "{} GEMM (epilogue: {}) diverged at {} workers (m={} k={} n={})",
                precision, with_epilogue, threads, m, k, n
            );
        }
    }
}

//! Reduced-precision compute support: bf16 storage conversion and
//! symmetric per-channel int8 quantization with an i8×i8→i32 GEMM.
//!
//! Two independent paths share this module (DESIGN.md §18):
//!
//! * **bf16 storage / f32 accumulate** — [`bf16_from_f32`] /
//!   [`bf16_to_f32`] are the conversion points the packed GEMM engine
//!   uses when it packs operand panels at half width (see
//!   [`crate::kernels::gemm`]). Conversion is
//!   round-to-nearest-even on the dropped mantissa bits, so every value
//!   already representable in bf16 (including ±0, ±inf and all
//!   8-bit-mantissa floats) round-trips exactly.
//! * **int8 inference** — [`QuantizedGemm`] holds weights quantized
//!   symmetrically per output channel plus one activation scale from
//!   calibration, and runs `i8×i8→i32` matrix products with the f32
//!   dequantization fused into the writeback, before any epilogue.
//!
//! Quantization is *symmetric* (no zero point): `q = clamp(round(x /
//! scale), -127, 127)`, which keeps zero exact, keeps `q(-x) == -q(x)`,
//! and lets the GEMM skip zero-point correction terms entirely.

use crate::kernels::epilogue::Epilogue;
use crate::pool::ExecPool;
use crate::tensor::Tensor;

/// Numeric storage precision for GEMM operand panels.
///
/// `F32` is the default everywhere; `Bf16` opts flop/byte-bound packed
/// products into bf16 panel storage with f32 accumulation. The knob
/// rides on `BuildConfig` and the session, and the cost model decides
/// per geometry whether a product actually takes the bf16 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Full f32 storage and accumulation (the default).
    #[default]
    F32,
    /// bf16 packed-panel storage, f32 accumulation.
    Bf16,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::F32 => write!(f, "f32"),
            Precision::Bf16 => write!(f, "bf16"),
        }
    }
}

/// Converts an `f32` to bf16 bits with round-to-nearest-even on the 16
/// dropped mantissa bits. NaN maps to a canonical quiet NaN so the
/// result is never an accidental infinity.
#[inline(always)]
pub fn bf16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return 0x7FC0;
    }
    // Round to nearest even: add 0x7FFF plus the lowest kept bit.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Widens bf16 bits back to `f32` (exact: bf16 is a prefix of f32).
#[inline(always)]
pub fn bf16_to_f32(x: u16) -> f32 {
    f32::from_bits(u32::from(x) << 16)
}

/// Largest magnitude representable in the symmetric int8 grid.
pub const Q8_MAX: f32 = 127.0;

/// Scale mapping `max_abs` onto the symmetric int8 grid. Degenerate
/// ranges (all zeros, or a non-finite max from a diverged calibration)
/// fall back to 1.0 so quantization stays total; every value in such a
/// channel quantizes to 0 regardless.
#[inline]
pub fn quant_scale(max_abs: f32) -> f32 {
    if max_abs.is_finite() && max_abs > 0.0 {
        max_abs / Q8_MAX
    } else {
        1.0
    }
}

/// Quantizes one value onto the symmetric grid: round half away from
/// zero, clamp to ±127 (so `-128` is never produced and negation is
/// always exact).
#[inline(always)]
pub fn quantize_i8(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-Q8_MAX, Q8_MAX) as i8
}

/// Per-column max-abs of a row-major `[k, n]` matrix (the per-output-
/// channel weight ranges).
pub fn col_max_abs(data: &[f32], k: usize, n: usize) -> Vec<f32> {
    assert_eq!(data.len(), k * n, "col_max_abs length mismatch");
    let mut maxes = vec![0.0f32; n];
    for row in data.chunks_exact(n.max(1)) {
        for (m, &v) in maxes.iter_mut().zip(row) {
            *m = m.max(v.abs());
        }
    }
    maxes
}

/// One GEMM's inference-quantized weights: `wq` is the weight matrix in
/// `[k, n]` row-major order on the int8 grid, `col_scales[j]` restores
/// column `j`, and `act_scale` (from calibration) quantizes the
/// activation operand per tensor.
///
/// Activation scales are per *tensor*, not per channel: a per-k-channel
/// activation scale cannot be factored out of the i32 accumulation
/// (each product term would need its own rescale), so calibration's
/// per-channel ranges collapse to their max here. Weight scales stay
/// per output channel, which is where the accuracy lives.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGemm {
    /// Quantized weights, `[k, n]` row-major.
    pub wq: Vec<i8>,
    /// Contraction extent.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Per-output-column dequantization scales.
    pub col_scales: Vec<f32>,
    /// Per-tensor activation quantization scale.
    pub act_scale: f32,
}

impl QuantizedGemm {
    /// Quantizes `weights` (row-major `[k, n]`, or `[n, k]` when
    /// `transposed`) symmetrically per output column. `act_max_abs` is
    /// the calibrated activation range (max over channels).
    ///
    /// # Panics
    ///
    /// Panics if the weight slice length is not `k * n`.
    pub fn from_weights(
        weights: &[f32],
        k: usize,
        n: usize,
        transposed: bool,
        act_max_abs: f32,
    ) -> Self {
        assert_eq!(weights.len(), k * n, "quantized weight length mismatch");
        // Normalize to [k, n] row-major first so the GEMM inner loop
        // streams both operands with unit stride.
        let normal: Vec<f32> = if transposed {
            let mut out = vec![0.0f32; k * n];
            for j in 0..n {
                for kk in 0..k {
                    out[kk * n + j] = weights[j * k + kk];
                }
            }
            out
        } else {
            weights.to_vec()
        };
        let col_scales: Vec<f32> =
            col_max_abs(&normal, k, n).into_iter().map(quant_scale).collect();
        let mut wq = vec![0i8; k * n];
        for (row_q, row) in wq.chunks_exact_mut(n.max(1)).zip(normal.chunks_exact(n.max(1))) {
            for ((q, &v), &s) in row_q.iter_mut().zip(row).zip(&col_scales) {
                *q = quantize_i8(v, s);
            }
        }
        QuantizedGemm { wq, k, n, col_scales, act_scale: quant_scale(act_max_abs) }
    }

    /// `activations [m, k] × wq [k, n]` in int8, dequantized to f32 in
    /// the writeback. i32 accumulation is exact for `k` up to ~130k
    /// (127·127·k < 2³¹), far past any suite geometry.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `[m, k]` for this plan's `k`.
    pub fn matmul(&self, a: &Tensor, pool: &ExecPool) -> Tensor {
        self.matmul_fused(a, None, pool)
    }

    /// [`QuantizedGemm::matmul`] with an optional [`Epilogue`] (the
    /// program and the operand slices it reads) applied as a flat pass
    /// over the dequantized f32 output — the same program the f32 path
    /// would have fused into its writeback.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, an invalid epilogue, or mis-sized
    /// operands.
    pub fn matmul_fused(
        &self,
        a: &Tensor,
        epilogue: Option<(&Epilogue, &[&[f32]])>,
        pool: &ExecPool,
    ) -> Tensor {
        assert_eq!(a.shape().rank(), 2, "quantized matmul lhs must be rank 2, got {}", a.shape());
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        assert_eq!(k, self.k, "quantized matmul contraction mismatch: [{m}, {k}] vs k={}", self.k);
        let n = self.n;
        if let Some((ep, operands)) = epilogue {
            ep.check_operands(m, n, operands);
        }
        // Quantize the activations once, per tensor.
        let a_data = a.data();
        let mut aq = vec![0i8; m * k];
        for (q, &v) in aq.iter_mut().zip(a_data) {
            *q = quantize_i8(v, self.act_scale);
        }
        let mut out = Tensor::zeros([m, n]);
        if m == 0 || n == 0 {
            return out;
        }
        let wq = &self.wq;
        let scales = &self.col_scales;
        let act_scale = self.act_scale;
        // Row-parallel i32 accumulation, dequantized into the row before
        // it is stored; blocked over k purely for i32 lane locality.
        pool.for_spans(out.data_mut(), n, k.saturating_mul(n), |i, c_row| {
            let mut acc = vec![0i32; n];
            let a_row = &aq[i * k..(i + 1) * k];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0 {
                    continue;
                }
                let av = i32::from(av);
                let w_row = &wq[kk * n..kk * n + n];
                for (slot, &wv) in acc.iter_mut().zip(w_row) {
                    *slot += av * i32::from(wv);
                }
            }
            for ((c, &sum), &s) in c_row.iter_mut().zip(&acc).zip(scales) {
                *c = sum as f32 * (act_scale * s);
            }
        });
        if let Some((ep, operands)) = epilogue {
            ep.apply_flat(out.data_mut(), m, n, operands, pool);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::matmul_naive;
    use crate::rng::Rng;

    #[test]
    fn bf16_round_trips_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 96.0, -0.375, f32::INFINITY] {
            assert_eq!(bf16_to_f32(bf16_from_f32(v)), v, "{v} must round-trip");
        }
        assert!(bf16_to_f32(bf16_from_f32(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 sits exactly between bf16 neighbours 1.0 and
        // 1.0078125; ties go to the even mantissa (1.0).
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(bf16_from_f32(tie)), 1.0);
        // Just above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(bf16_to_f32(bf16_from_f32(above)), f32::from_bits(0x3F81_0000));
    }

    #[test]
    fn quantization_is_zero_preserving_and_symmetric() {
        let s = quant_scale(6.35);
        assert_eq!(quantize_i8(0.0, s), 0);
        for v in [0.01f32, 0.5, 1.7, 6.35, 9.9] {
            assert_eq!(quantize_i8(-v, s), -quantize_i8(v, s), "q(-{v}) != -q({v})");
        }
    }

    #[test]
    fn degenerate_scale_quantizes_to_zero() {
        assert_eq!(quant_scale(0.0), 1.0);
        assert_eq!(quant_scale(f32::NAN), 1.0);
        assert_eq!(quantize_i8(0.0, quant_scale(0.0)), 0);
    }

    #[test]
    fn quantized_matmul_tracks_f32_within_grid_error() {
        let mut rng = Rng::seeded(17);
        for &(m, k, n) in &[(4usize, 32usize, 8usize), (1, 64, 16), (7, 20, 5)] {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let w = Tensor::randn([k, n], 0.0, 0.5, &mut rng);
            let act_max = a.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let w_max = w.data().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let q = QuantizedGemm::from_weights(w.data(), k, n, false, act_max);
            let got = q.matmul(&a, &ExecPool::serial());
            let want = matmul_naive(&a, &w, false, false);
            // Per product term the rounding error is at most half a grid
            // step on each operand: |Δ(a·w)| ≤ (s_a/2)|w| + (s_w/2)|a|
            // with s = max/127; bound the k-term sum with the max
            // magnitudes.
            let tol = k as f32 * act_max * w_max / 127.0;
            assert!(
                got.max_abs_diff(&want) < tol,
                "m={m} k={k} n={n}: diff {} over tol {tol}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn transposed_weights_match_normal_layout() {
        let mut rng = Rng::seeded(23);
        let (k, n) = (12, 6);
        let w = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let mut wt = vec![0.0f32; k * n];
        for kk in 0..k {
            for j in 0..n {
                wt[j * k + kk] = w.data()[kk * n + j];
            }
        }
        let q = QuantizedGemm::from_weights(w.data(), k, n, false, 3.0);
        let qt = QuantizedGemm::from_weights(&wt, k, n, true, 3.0);
        assert_eq!(q, qt, "transposed quantization must normalize to the same plan");
    }

    #[test]
    fn fused_epilogue_matches_unfused_then_flat() {
        use crate::kernels::epilogue::{EpilogueArg, EpilogueInstr, OperandKind};
        use crate::kernels::fused::FusedOp;
        let mut rng = Rng::seeded(31);
        let (m, k, n) = (5, 24, 9);
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let ep = Epilogue {
            n_operands: 1,
            instrs: vec![
                EpilogueInstr {
                    op: FusedOp::Add,
                    args: vec![
                        EpilogueArg::Acc,
                        EpilogueArg::Operand { index: 0, kind: OperandKind::Col },
                    ],
                },
                EpilogueInstr { op: FusedOp::Relu, args: vec![EpilogueArg::Acc] },
            ],
        };
        let q = QuantizedGemm::from_weights(w.data(), k, n, false, 4.0);
        let pool = ExecPool::new(2).with_grain(1);
        let fused = q.matmul_fused(&a, Some((&ep, &[bias.data()])), &pool);
        let mut unfused = q.matmul(&a, &pool);
        ep.apply_flat(unfused.data_mut(), m, n, &[bias.data()], &pool);
        assert_eq!(fused.data(), unfused.data());
    }
}

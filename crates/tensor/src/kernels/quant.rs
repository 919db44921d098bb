//! Reduced-precision compute support: the [`Precision`] knob and the
//! bf16 storage conversions (DESIGN.md §18).
//!
//! bf16 is storage only, with f32 accumulation: [`bf16_from_f32`] /
//! [`bf16_to_f32`] are the conversion points the packed GEMM engine
//! uses when it packs operand panels at half width (see
//! [`crate::kernels::gemm`]). Conversion is round-to-nearest-even on
//! the dropped mantissa bits, so every value already representable in
//! bf16 (including ±0, ±inf and all 8-bit-mantissa floats) round-trips
//! exactly.

/// Numeric storage precision for GEMM operand panels.
///
/// `F32` is the default everywhere; `Bf16` opts flop/byte-bound packed
/// products into bf16 panel storage with f32 accumulation. The knob
/// rides on `BuildConfig` and the session, and the cost model decides
/// per geometry whether a product actually takes the bf16 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
}

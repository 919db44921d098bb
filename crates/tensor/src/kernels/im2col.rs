//! im2col/col2im convolution: the classic "lower convolution to GEMM"
//! kernels used by Caffe and early cuDNN.
//!
//! The patch matrix `[n*oh*ow, kh*kw*ic]` is materialized once and
//! multiplied by the filter viewed as `[kh*kw*ic, oc]` through the
//! packed engine in [`crate::kernels::gemm`]. This trades memory traffic
//! (the input is duplicated up to `kh*kw` times) for a single large,
//! highly regular GEMM — the `kernels` criterion bench compares it
//! against the direct kernel, and the result is one of the design-choice
//! ablations DESIGN.md calls for. [`col2im`] is the adjoint scatter that
//! lowers `Conv2DBackpropInput` onto the same engine, and 1×1 unit-stride
//! unpadded convolutions skip patch materialization entirely (the patch
//! matrix *is* the input). Patch/product scratch is drawn from the
//! thread's installed [`crate::BufferPool`].

use crate::kernels::conv::{dims4, Conv2dSpec};
use crate::kernels::epilogue::Epilogue;
use crate::kernels::gemm::gemm_into;
use crate::kernels::quant::Precision;
use crate::pool::ExecPool;
use crate::recycle;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Whether the patch matrix is the input itself: a 1×1 unit-stride
/// unpadded convolution is exactly `[n*h*w, ic] x [ic, oc]`.
pub(crate) fn is_pointwise(kh: usize, kw: usize, spec: Conv2dSpec) -> bool {
    kh == 1 && kw == 1 && spec.stride == 1 && spec.pad == 0
}

/// Materializes the patch matrix `[n*oh*ow, kh*kw*ic]` for an NHWC input.
///
/// # Panics
///
/// Panics if the geometry is invalid (see [`Conv2dSpec::out_shape`]).
pub fn im2col(input: &Tensor, kh: usize, kw: usize, spec: Conv2dSpec, pool: &ExecPool) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "im2col input must be NHWC");
    let (n, h, w, ic) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let patch = kh * kw * ic;
    let mut out = Tensor::zeros([n * oh * ow, patch]);
    if out.is_empty() {
        return out;
    }
    let src = input.data();
    pool.for_spans(out.data_mut(), patch, patch, |row, dst| {
        let ox = row % ow;
        let oy = (row / ow) % oh;
        let b = row / (ow * oh);
        for ky in 0..kh {
            let y = (oy * spec.stride + ky) as isize - spec.pad as isize;
            for kx in 0..kw {
                let x = (ox * spec.stride + kx) as isize - spec.pad as isize;
                let dst_px = &mut dst[(ky * kw + kx) * ic..(ky * kw + kx) * ic + ic];
                if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                    dst_px.fill(0.0);
                } else {
                    let base = ((b * h + y as usize) * w + x as usize) * ic;
                    dst_px.copy_from_slice(&src[base..base + ic]);
                }
            }
        }
    });
    out
}

/// Forward convolution by patch-matrix lowering; numerically equivalent
/// to [`crate::kernels::conv::conv2d`].
///
/// # Panics
///
/// Panics if the shapes are not a valid convolution.
pub fn conv2d_im2col(input: &Tensor, filter: &Tensor, spec: Conv2dSpec, pool: &ExecPool) -> Tensor {
    conv2d_im2col_fused(input, filter, spec, None, pool)
}

/// [`conv2d_im2col`] with an optional GEMM [`Epilogue`] (the program and
/// the operand slices it reads) threaded into the lowered product's tile
/// writeback. The NHWC output flattens to `[n*oh*ow, oc]`, so a column
/// operand is a per-output-channel bias and a full operand is an
/// output-shaped residual — the same broadcast classes the matmul path
/// uses. The lowered product always runs f32 panels.
///
/// # Panics
///
/// Panics if the shapes are not a valid convolution, or the epilogue /
/// operands are invalid for the flattened output.
pub fn conv2d_im2col_fused(
    input: &Tensor,
    filter: &Tensor,
    spec: Conv2dSpec,
    epilogue: Option<(&Epilogue, &[&[f32]])>,
    pool: &ExecPool,
) -> Tensor {
    let out_shape = spec.out_shape(input.shape(), filter.shape());
    let (kh, kw, ic, oc) = dims4(filter.shape());
    let rows = out_shape.dim(0) * out_shape.dim(1) * out_shape.dim(2);
    let mut out = recycle::take_buffer(rows * oc);
    let product = |out: &mut [f32], k: usize, patches: &[f32]| {
        let w = filter.data();
        gemm_into(out, rows, oc, k, patches, false, w, false, Precision::F32, epilogue, pool);
    };
    if is_pointwise(kh, kw, spec) {
        // The patch matrix is the input viewed as [n*h*w, ic]; multiply
        // in place with no materialization at all.
        product(&mut out, ic, input.data());
    } else {
        let patches = im2col(input, kh, kw, spec, pool);
        product(&mut out, kh * kw * ic, patches.data());
        recycle::reclaim(patches);
    }
    Tensor::from_vec(out, out_shape)
}

/// Adjoint of [`im2col`]: folds a patch-matrix gradient
/// `[n*oh*ow, kh*kw*ic]` back onto the input grid, summing every patch
/// that covered each input element.
///
/// Written in gather form — parallel spans are input rows, and each
/// input element accumulates its contributions in a fixed `ky, x, kx`
/// order — so parallel execution is bitwise identical to serial.
///
/// # Panics
///
/// Panics if `cols` does not have `n*oh*ow * kh*kw*ic` elements for the
/// given geometry.
pub fn col2im(
    cols: &[f32],
    input_shape: &Shape,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    pool: &ExecPool,
) -> Tensor {
    let (n, h, w, ic) = dims4(input_shape);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let kdim = kh * kw * ic;
    assert_eq!(cols.len(), n * oh * ow * kdim, "col2im patch matrix length mismatch");
    let mut out = Tensor::zeros(input_shape.clone());
    if out.is_empty() || cols.is_empty() {
        return out;
    }
    let span = w * ic; // one input row
    let work = kh * kw * w * ic / spec.stride.max(1);
    pool.for_spans(out.data_mut(), span, work, |row, dst| {
        let b = row / h;
        let y = row % h;
        for ky in 0..kh {
            // oy * stride + ky - pad == y  =>  oy = (y + pad - ky) / stride
            let num = y as isize + spec.pad as isize - ky as isize;
            if num < 0 || !(num as usize).is_multiple_of(spec.stride) {
                continue;
            }
            let oy = num as usize / spec.stride;
            if oy >= oh {
                continue;
            }
            for x in 0..w {
                let dst_px = &mut dst[x * ic..(x + 1) * ic];
                for kx in 0..kw {
                    let num = x as isize + spec.pad as isize - kx as isize;
                    if num < 0 || !(num as usize).is_multiple_of(spec.stride) {
                        continue;
                    }
                    let ox = num as usize / spec.stride;
                    if ox >= ow {
                        continue;
                    }
                    let base = ((b * oh + oy) * ow + ox) * kdim + (ky * kw + kx) * ic;
                    for (d, &v) in dst_px.iter_mut().zip(&cols[base..base + ic]) {
                        *d += v;
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::conv::conv2d;
    use crate::rng::Rng;

    fn pool() -> ExecPool {
        ExecPool::new(2).with_grain(64)
    }

    #[test]
    fn matches_direct_convolution() {
        let mut rng = Rng::seeded(11);
        for &(h, w, k, ic, oc, stride, pad) in &[
            (6, 6, 3, 2, 4, 1, 1),
            (8, 8, 3, 3, 2, 2, 1),
            (9, 7, 5, 1, 3, 2, 2),
            (5, 5, 1, 4, 4, 1, 0),
        ] {
            let spec = Conv2dSpec { stride, pad };
            let x = Tensor::randn([2, h, w, ic], 0.0, 1.0, &mut rng);
            let f = Tensor::randn([k, k, ic, oc], 0.0, 1.0, &mut rng);
            let direct = conv2d(&x, &f, spec, &pool());
            let lowered = conv2d_im2col(&x, &f, spec, &pool());
            assert!(
                direct.max_abs_diff(&lowered) < 1e-4,
                "mismatch for h={h} w={w} k={k} s={stride} p={pad}: {}",
                direct.max_abs_diff(&lowered)
            );
        }
    }

    #[test]
    fn patch_matrix_shape_and_content() {
        // 3x3 single-channel input, 2x2 valid conv: 4 patches of 4.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), [1, 3, 3, 1]);
        let p = im2col(&x, 2, 2, Conv2dSpec::valid(), &pool());
        assert_eq!(p.shape().dims(), &[4, 4]);
        // First patch is the top-left 2x2 window.
        assert_eq!(&p.data()[..4], &[1.0, 2.0, 4.0, 5.0]);
        // Last patch is the bottom-right window.
        assert_eq!(&p.data()[12..], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_zero_fills() {
        let x = Tensor::ones([1, 2, 2, 1]);
        let p = im2col(&x, 3, 3, Conv2dSpec::same(3), &pool());
        // Center patch of the 2x2 image with 3x3 same padding: corners of
        // the first patch are zeros.
        assert_eq!(p.shape().dims(), &[4, 9]);
        assert_eq!(p.data()[0], 0.0, "top-left of first patch is padding");
        assert_eq!(p.data()[4], 1.0, "center of first patch is real data");
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = Rng::seeded(12);
        let x = Tensor::randn([2, 10, 10, 3], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([3, 3, 3, 8], 0.0, 1.0, &mut rng);
        let a = conv2d_im2col(&x, &f, Conv2dSpec::same(3), &ExecPool::serial());
        let b = conv2d_im2col(&x, &f, Conv2dSpec::same(3), &ExecPool::new(4).with_grain(1));
        assert!(a.max_abs_diff(&b) < 1e-5);
    }
}

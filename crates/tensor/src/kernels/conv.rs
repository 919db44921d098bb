//! 2-D convolution kernels (op class B in the paper's taxonomy).
//!
//! Layout follows TensorFlow's defaults: activations are NHWC
//! (`[batch, height, width, channels]`) and filters are
//! `[kh, kw, in_channels, out_channels]`.
//!
//! The backward passes are separate kernels (`Conv2DBackpropInput`,
//! `Conv2DBackpropFilter`) because the paper's profiles treat them as
//! distinct operation types (see Figure 6a for `deepq`).

use crate::kernels::gemm;
use crate::kernels::quant::Precision;
use crate::pool::ExecPool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: square stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Step between adjacent output pixels, in input pixels.
    pub stride: usize,
    /// Zero padding applied to each spatial edge of the input.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Unit-stride, unpadded ("valid") convolution.
    pub fn valid() -> Self {
        Conv2dSpec { stride: 1, pad: 0 }
    }

    /// Unit-stride convolution padded to preserve spatial size for odd
    /// kernel extents ("same" padding).
    pub fn same(kernel: usize) -> Self {
        Conv2dSpec { stride: 1, pad: kernel / 2 }
    }

    /// Output spatial extent for an input extent and kernel extent.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit in the input or
    /// the stride is zero.
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        let padded = input + 2 * self.pad;
        assert!(padded >= kernel, "kernel {kernel} larger than padded input {padded}");
        (padded - kernel) / self.stride + 1
    }

    /// Output shape `[n, oh, ow, oc]` for an NHWC input and a filter.
    ///
    /// # Panics
    ///
    /// Panics if ranks are wrong or channel counts disagree.
    pub fn out_shape(&self, input: &Shape, filter: &Shape) -> Shape {
        assert_eq!(input.rank(), 4, "conv2d input must be NHWC, got {input}");
        assert_eq!(filter.rank(), 4, "conv2d filter must be [kh,kw,ic,oc], got {filter}");
        assert_eq!(
            input.dim(3),
            filter.dim(2),
            "input channels {} != filter channels {}",
            input.dim(3),
            filter.dim(2)
        );
        Shape::new(vec![
            input.dim(0),
            self.out_extent(input.dim(1), filter.dim(0)),
            self.out_extent(input.dim(2), filter.dim(1)),
            filter.dim(3),
        ])
    }
}

/// Forward convolution: NHWC input by `[kh, kw, ic, oc]` filter.
///
/// # Panics
///
/// Panics if the shapes are not a valid convolution (see
/// [`Conv2dSpec::out_shape`]).
pub fn conv2d(input: &Tensor, filter: &Tensor, spec: Conv2dSpec, pool: &ExecPool) -> Tensor {
    let out_shape = spec.out_shape(input.shape(), filter.shape());
    let (_n, h, w, ic) = dims4(input.shape());
    let (kh, kw, _, oc) = dims4(filter.shape());
    let (oh, ow) = (out_shape.dim(1), out_shape.dim(2));
    let mut out = Tensor::zeros(out_shape);
    if out.is_empty() {
        return out;
    }
    let x = input.data();
    let f = filter.data();
    let span = ow * oc; // one output row
    let work = kh * kw * ic * ow * oc;
    pool.for_spans(out.data_mut(), span, work, |row, dst| {
        let b = row / oh;
        let oy = row % oh;
        for ky in 0..kh {
            let y = (oy * spec.stride + ky) as isize - spec.pad as isize;
            if y < 0 || y >= h as isize {
                continue;
            }
            let y = y as usize;
            for ox in 0..ow {
                let dst_px = &mut dst[ox * oc..(ox + 1) * oc];
                for kx in 0..kw {
                    let xx = (ox * spec.stride + kx) as isize - spec.pad as isize;
                    if xx < 0 || xx >= w as isize {
                        continue;
                    }
                    let xx = xx as usize;
                    let in_px = &x[((b * h + y) * w + xx) * ic..((b * h + y) * w + xx) * ic + ic];
                    let f_base = (ky * kw + kx) * ic * oc;
                    for (c, &xv) in in_px.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let f_row = &f[f_base + c * oc..f_base + c * oc + oc];
                        for (d, &fv) in dst_px.iter_mut().zip(f_row) {
                            *d += xv * fv;
                        }
                    }
                }
            }
        }
    });
    out
}

/// Gradient of the convolution with respect to its input
/// (`Conv2DBackpropInput`).
///
/// `input_shape` is the NHWC shape of the forward input; `grad` is the
/// gradient flowing into the forward output.
///
/// # Panics
///
/// Panics if `grad`'s shape is not the forward output shape for
/// `input_shape`/`filter`/`spec`.
pub fn conv2d_backprop_input(
    input_shape: &Shape,
    filter: &Tensor,
    grad: &Tensor,
    spec: Conv2dSpec,
    pool: &ExecPool,
) -> Tensor {
    let expect = spec.out_shape(input_shape, filter.shape());
    assert_eq!(grad.shape(), &expect, "grad shape {} != forward output {}", grad.shape(), expect);
    let (_n, h, w, ic) = dims4(input_shape);
    let (kh, kw, _, oc) = dims4(filter.shape());
    let (oh, ow) = (expect.dim(1), expect.dim(2));
    let mut out = Tensor::zeros(input_shape.clone());
    if out.is_empty() || grad.is_empty() {
        return out;
    }
    let g = grad.data();
    let f = filter.data();
    let span = w * ic; // one input row
    let work = kh * kw * oc * w * ic / spec.stride.max(1);
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
                    let g_px = &g[((b * oh + oy) * ow + ox) * oc..((b * oh + oy) * ow + ox) * oc + oc];
                    let f_base = (ky * kw + kx) * ic * oc;
                    for (c, d) in dst_px.iter_mut().enumerate() {
                        let f_row = &f[f_base + c * oc..f_base + c * oc + oc];
                        let mut acc = 0.0;
                        for (&gv, &fv) in g_px.iter().zip(f_row) {
                            acc += gv * fv;
                        }
                        *d += acc;
                    }
                }
            }
        }
    });
    out
}

/// Gradient of the convolution with respect to its filter
/// (`Conv2DBackpropFilter`).
///
/// # Panics
///
/// Panics if `grad`'s shape is not the forward output shape for
/// `input`/`filter_shape`/`spec`.
pub fn conv2d_backprop_filter(
    input: &Tensor,
    filter_shape: &Shape,
    grad: &Tensor,
    spec: Conv2dSpec,
    pool: &ExecPool,
) -> Tensor {
    let expect = spec.out_shape(input.shape(), filter_shape);
    assert_eq!(grad.shape(), &expect, "grad shape {} != forward output {}", grad.shape(), expect);
    let (n, h, w, ic) = dims4(input.shape());
    let (_kh, kw, _, oc) = dims4(filter_shape);
    let (oh, ow) = (expect.dim(1), expect.dim(2));
    let mut out = Tensor::zeros(filter_shape.clone());
    if out.is_empty() || input.is_empty() {
        return out;
    }
    let x = input.data();
    let g = grad.data();
    let span = oc; // one filter pixel-channel: dw[ky, kx, c, :]
    let work = n * oh * ow * oc;
    pool.for_spans(out.data_mut(), span, work, |idx, dst| {
        let c = idx % ic;
        let kx = (idx / ic) % kw;
        let ky = idx / (ic * kw);
        for b in 0..n {
            for oy in 0..oh {
                let y = (oy * spec.stride + ky) as isize - spec.pad as isize;
                if y < 0 || y >= h as isize {
                    continue;
                }
                let y = y as usize;
                for ox in 0..ow {
                    let xx = (ox * spec.stride + kx) as isize - spec.pad as isize;
                    if xx < 0 || xx >= w as isize {
                        continue;
                    }
                    let xv = x[((b * h + y) * w + xx as usize) * ic + c];
                    if xv == 0.0 {
                        continue;
                    }
                    let g_px = &g[((b * oh + oy) * ow + ox) * oc..((b * oh + oy) * ow + ox) * oc + oc];
                    for (d, &gv) in dst.iter_mut().zip(g_px) {
                        *d += xv * gv;
                    }
                }
            }
        }
    });
    out
}

/// `Conv2DBackpropInput` lowered onto the packed GEMM engine:
/// `dP = G * F^T` (grad `[n*oh*ow, oc]` by filter `[kh*kw*ic, oc]`
/// transposed), then [`crate::kernels::im2col::col2im`] folds the patch
/// gradient back onto the input grid. Numerically equivalent to
/// [`conv2d_backprop_input`]; bitwise deterministic across worker counts.
///
/// # Panics
///
/// Panics if `grad`'s shape is not the forward output shape for
/// `input_shape`/`filter`/`spec`.
pub fn conv2d_backprop_input_im2col(
    input_shape: &Shape,
    filter: &Tensor,
    grad: &Tensor,
    spec: Conv2dSpec,
    pool: &ExecPool,
) -> Tensor {
    use crate::kernels::im2col::{col2im, is_pointwise};

    let expect = spec.out_shape(input_shape, filter.shape());
    assert_eq!(grad.shape(), &expect, "grad shape {} != forward output {}", grad.shape(), expect);
    let (kh, kw, ic, oc) = dims4(filter.shape());
    let rows = expect.dim(0) * expect.dim(1) * expect.dim(2);
    let kdim = kh * kw * ic;
    if is_pointwise(kh, kw, spec) {
        // dP == dX: write the product straight into the input gradient.
        let mut dx = crate::recycle::take_buffer(rows * ic);
        gemm::gemm_into(
            &mut dx, rows, ic, oc, grad.data(), false, filter.data(), true, Precision::F32, None, pool,
        );
        return Tensor::from_vec(dx, input_shape.clone());
    }
    let mut dp = crate::recycle::take_buffer(rows * kdim);
    gemm::gemm_into(
        &mut dp, rows, kdim, oc, grad.data(), false, filter.data(), true, Precision::F32, None, pool,
    );
    let dx = col2im(&dp, input_shape, kh, kw, spec, pool);
    crate::recycle::give_buffer(dp);
    dx
}

/// `Conv2DBackpropFilter` lowered onto the packed GEMM engine:
/// `dF = P^T * G` where `P` is the im2col patch matrix and `G` the
/// output gradient viewed as `[n*oh*ow, oc]`. The transpose costs
/// nothing extra — GEMM packing absorbs it. Numerically equivalent to
/// [`conv2d_backprop_filter`]; bitwise deterministic across worker
/// counts.
///
/// # Panics
///
/// Panics if `grad`'s shape is not the forward output shape for
/// `input`/`filter_shape`/`spec`.
pub fn conv2d_backprop_filter_im2col(
    input: &Tensor,
    filter_shape: &Shape,
    grad: &Tensor,
    spec: Conv2dSpec,
    pool: &ExecPool,
) -> Tensor {
    use crate::kernels::im2col::{im2col, is_pointwise};

    let expect = spec.out_shape(input.shape(), filter_shape);
    assert_eq!(grad.shape(), &expect, "grad shape {} != forward output {}", grad.shape(), expect);
    let (kh, kw, ic, oc) = dims4(filter_shape);
    let rows = expect.dim(0) * expect.dim(1) * expect.dim(2);
    let kdim = kh * kw * ic;
    let mut df = crate::recycle::take_buffer(kdim * oc);
    if is_pointwise(kh, kw, spec) {
        gemm::gemm_into(
            &mut df, kdim, oc, rows, input.data(), true, grad.data(), false, Precision::F32, None, pool,
        );
    } else {
        let patches = im2col(input, kh, kw, spec, pool);
        gemm::gemm_into(
            &mut df, kdim, oc, rows, patches.data(), true, grad.data(), false, Precision::F32, None, pool,
        );
        crate::recycle::reclaim(patches);
    }
    Tensor::from_vec(df, filter_shape.clone())
}

pub(crate) fn dims4(s: &Shape) -> (usize, usize, usize, usize) {
    assert_eq!(s.rank(), 4, "expected rank-4 shape, got {s}");
    (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn pool() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    /// Brute-force reference convolution.
    fn conv_naive(input: &Tensor, filter: &Tensor, spec: Conv2dSpec) -> Tensor {
        let out_shape = spec.out_shape(input.shape(), filter.shape());
        let (n, h, w, ic) = dims4(input.shape());
        let (kh, kw, _, oc) = dims4(filter.shape());
        let (oh, ow) = (out_shape.dim(1), out_shape.dim(2));
        let mut out = Tensor::zeros(out_shape);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for o in 0..oc {
                        let mut acc = 0.0;
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let y = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                let x = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                                    continue;
                                }
                                for c in 0..ic {
                                    acc += input.at(&[b, y as usize, x as usize, c])
                                        * filter.at(&[ky, kx, c, o]);
                                }
                            }
                        }
                        out.set(&[b, oy, ox, o], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_shape_math() {
        let spec = Conv2dSpec { stride: 2, pad: 1 };
        assert_eq!(spec.out_extent(8, 3), 4);
        assert_eq!(Conv2dSpec::valid().out_extent(8, 3), 6);
        assert_eq!(Conv2dSpec::same(3).out_extent(8, 3), 8);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 on a single channel is the identity.
        let mut rng = Rng::seeded(1);
        let x = Tensor::randn([1, 4, 4, 1], 0.0, 1.0, &mut rng);
        let f = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d(&x, &f, Conv2dSpec::valid(), &pool());
        assert!(x.max_abs_diff(&y.reshaped([1, 4, 4, 1])) < 1e-6);
    }

    #[test]
    fn matches_naive_various_geometries() {
        let mut rng = Rng::seeded(2);
        for &(h, w, kh, kw, ic, oc, stride, pad) in &[
            (5, 5, 3, 3, 2, 3, 1, 0),
            (6, 6, 3, 3, 1, 2, 1, 1),
            (8, 8, 3, 3, 2, 2, 2, 1),
            (9, 7, 5, 3, 3, 4, 2, 2),
            (4, 4, 4, 4, 1, 1, 4, 0),
        ] {
            let spec = Conv2dSpec { stride, pad };
            let x = Tensor::randn([2, h, w, ic], 0.0, 1.0, &mut rng);
            let f = Tensor::randn([kh, kw, ic, oc], 0.0, 1.0, &mut rng);
            let fast = conv2d(&x, &f, spec, &pool());
            let slow = conv_naive(&x, &f, spec);
            assert!(
                fast.max_abs_diff(&slow) < 1e-4,
                "conv mismatch for h={h} w={w} k={kh}x{kw} s={stride} p={pad}"
            );
        }
    }

    /// Numerical check of both backward kernels via finite differences of
    /// the scalar `sum(conv2d(x, f))`.
    #[test]
    fn backprop_matches_finite_differences() {
        let mut rng = Rng::seeded(3);
        let spec = Conv2dSpec { stride: 2, pad: 1 };
        let x = Tensor::randn([1, 5, 5, 2], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([3, 3, 2, 2], 0.0, 1.0, &mut rng);
        let out = conv2d(&x, &f, spec, &pool());
        let ones = Tensor::ones(out.shape().clone());

        let dx = conv2d_backprop_input(x.shape(), &f, &ones, spec, &pool());
        let dw = conv2d_backprop_filter(&x, f.shape(), &ones, spec, &pool());

        let eps = 1e-2;
        for idx in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (conv2d(&xp, &f, spec, &pool()).sum() - conv2d(&xm, &f, spec, &pool()).sum())
                / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}]: numeric {num} vs analytic {}",
                dx.data()[idx]
            );
        }
        for idx in [0usize, 5, 17, 35] {
            let mut fp = f.clone();
            fp.data_mut()[idx] += eps;
            let mut fm = f.clone();
            fm.data_mut()[idx] -= eps;
            let num = (conv2d(&x, &fp, spec, &pool()).sum() - conv2d(&x, &fm, spec, &pool()).sum())
                / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dw[{idx}]: numeric {num} vs analytic {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = Rng::seeded(4);
        let spec = Conv2dSpec::same(3);
        let x = Tensor::randn([2, 16, 16, 8], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([3, 3, 8, 16], 0.0, 1.0, &mut rng);
        let serial = conv2d(&x, &f, spec, &ExecPool::serial());
        let par = conv2d(&x, &f, spec, &ExecPool::new(8).with_grain(1));
        assert!(serial.max_abs_diff(&par) < 1e-5);
    }

    #[test]
    fn backprop_im2col_lowerings_match_direct() {
        let mut rng = Rng::seeded(17);
        for &(h, w, k, ic, oc, stride, pad) in &[
            (6, 6, 3, 2, 4, 1, 1),
            (8, 8, 3, 3, 5, 2, 1),
            (9, 7, 5, 1, 3, 2, 2),
            (5, 5, 1, 4, 4, 1, 0), // pointwise fast path
            (20, 20, 8, 4, 16, 4, 0), // dqn geometry
        ] {
            let spec = Conv2dSpec { stride, pad };
            let x = Tensor::randn([2, h, w, ic], 0.0, 1.0, &mut rng);
            let f = Tensor::randn([k, k, ic, oc], 0.0, 1.0, &mut rng);
            let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);

            let dx_direct = conv2d_backprop_input(x.shape(), &f, &g, spec, &pool());
            let dx_gemm = conv2d_backprop_input_im2col(x.shape(), &f, &g, spec, &pool());
            assert!(
                dx_direct.max_abs_diff(&dx_gemm) < 1e-3,
                "dx mismatch for h={h} k={k} s={stride} p={pad}: {}",
                dx_direct.max_abs_diff(&dx_gemm)
            );

            let dw_direct = conv2d_backprop_filter(&x, f.shape(), &g, spec, &pool());
            let dw_gemm = conv2d_backprop_filter_im2col(&x, f.shape(), &g, spec, &pool());
            assert!(
                dw_direct.max_abs_diff(&dw_gemm) < 1e-3,
                "dw mismatch for h={h} k={k} s={stride} p={pad}: {}",
                dw_direct.max_abs_diff(&dw_gemm)
            );
        }
    }

    #[test]
    fn backprop_im2col_parallel_is_bitwise_identical_to_serial() {
        let mut rng = Rng::seeded(18);
        let spec = Conv2dSpec { stride: 2, pad: 1 };
        let x = Tensor::randn([2, 14, 14, 6], 0.0, 1.0, &mut rng);
        let f = Tensor::randn([3, 3, 6, 12], 0.0, 1.0, &mut rng);
        let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
        let serial = ExecPool::serial();
        let dx0 = conv2d_backprop_input_im2col(x.shape(), &f, &g, spec, &serial);
        let dw0 = conv2d_backprop_filter_im2col(&x, f.shape(), &g, spec, &serial);
        for threads in [2, 8] {
            let par = ExecPool::new(threads).with_grain(1);
            let dx = conv2d_backprop_input_im2col(x.shape(), &f, &g, spec, &par);
            let dw = conv2d_backprop_filter_im2col(&x, f.shape(), &g, spec, &par);
            assert_eq!(dx0.data(), dx.data(), "dx diverged at {threads} workers");
            assert_eq!(dw0.data(), dw.data(), "dw diverged at {threads} workers");
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        conv2d(
            &Tensor::zeros([1, 4, 4, 3]),
            &Tensor::zeros([3, 3, 2, 8]),
            Conv2dSpec::valid(),
            &pool(),
        );
    }
}

//! 2-D convolution (op class B in the paper's taxonomy) as implicit GEMM.
//!
//! Layout follows TensorFlow's defaults: activations are NHWC
//! (`[batch, height, width, channels]`) and filters are
//! `[kh, kw, in_channels, out_channels]`.
//!
//! The backward passes are separate entry points (`Conv2DBackpropInput`,
//! `Conv2DBackpropFilter`) because the paper's profiles treat them as
//! distinct operation types (see Figure 6a for `deepq`), but all three
//! are one call each into the packed driver in [`crate::kernels::gemm`]
//! with a [`PatchView`] of an activation tensor as the A operand. The
//! patch matrix `[n*oh*ow, kh*kw*ic]` that im2col would materialize is
//! only ever a *view*: the driver's tile tasks gather the block they are
//! about to multiply straight from the NHWC tensor.
//!
//! | op | product | A (lanes × depth) | B |
//! |---|---|---|---|
//! | forward | `Y = patches(X) · F` | pixels × `(ky,kx,c)` | the filter as stored, `[kh*kw*ic, oc]` |
//! | backprop-filter | `dF = patches(X)ᵀ · G` | `(ky,kx,c)` × pixels | `G` as `[n*oh*ow, oc]` |
//! | backprop-input, stride 1 | `dX = patches'(G) · F'` | input pixels × `(ky,kx,o)` | the filter, taps reversed, `c`/`o` swapped |
//!
//! `patches'` views `G` under the transposed geometry (`pad' = k - 1 -
//! pad` per axis). At stride > 1 that view would be mostly structural
//! zeros, so backprop-input instead takes the dense product `G · Fᵀ` and
//! folds it with `col2im` — the one place a `[rows, kh*kw*ic]` buffer
//! survives.
//!
//! Zero padding is literal: a padded position is a `0.0` that is
//! multiplied like any other, so a non-finite weight or gradient reaches
//! every output whose window covers it (`0 * inf = NaN`) exactly as it
//! does through a zero activation. Convolution always runs f32 panels.

use crate::kernels::fused::FusedProgram;
use crate::kernels::gemm::{self, Dense, Lhs};
use crate::kernels::quant::Precision;
use crate::pool::ExecPool;
use crate::recycle;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::ops::Range;

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

/// An NHWC tensor `[n, h, w, c]` viewed as a convolution's patch matrix:
/// one row per pixel of an `oh × ow` grid per sample, one column per
/// `(ky, kx, c)` of the `kh × kw` window whose corner sits at
/// `(oy * stride - pad_y, ox * stride - pad_x)`; positions outside the
/// image read as zero. NHWC keeps a window row's `kw * c` values
/// adjacent, so a patch row is `kh` contiguous runs of the tensor.
#[derive(Clone, Copy)]
pub(crate) struct PatchView<'a> {
    x: &'a [f32],
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    // Signed: the transposed geometry's `k - 1 - pad` is negative when
    // the forward pad exceeds the window.
    pad_y: isize,
    pad_x: isize,
    oh: usize,
    ow: usize,
}

impl<'a> PatchView<'a> {
    /// `x` (`[n, h, w, c]`) under `kh × kw` windows stepping `stride`
    /// from `(-pad_y, -pad_x)` across an `oh × ow` grid.
    fn new(
        x: &'a [f32],
        [n, h, w, c]: [usize; 4],
        [kh, kw]: [usize; 2],
        stride: usize,
        [pad_y, pad_x]: [isize; 2],
        [oh, ow]: [usize; 2],
    ) -> Self {
        PatchView { x, n, h, w, c, kh, kw, stride, pad_y, pad_x, oh, ow }
    }

    /// The forward geometry: `input` under `filter`-sized windows.
    fn forward(input: &'a Tensor, filter: &Shape, spec: Conv2dSpec) -> Self {
        let out = spec.out_shape(input.shape(), filter);
        let (n, h, w, c) = dims4(input.shape());
        let pad = spec.pad as isize;
        let grid = [out.dim(1), out.dim(2)];
        Self::new(input.data(), [n, h, w, c], [filter.dim(0), filter.dim(1)], spec.stride, [pad, pad], grid)
    }

    /// Patch rows: pixels over the whole batch.
    pub(crate) fn pixels(&self) -> usize {
        self.n * self.sample_pixels()
    }

    /// Patch rows one sample contributes.
    pub(crate) fn sample_pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Patch row length, `kh * kw * c`.
    pub(crate) fn kdim(&self) -> usize {
        self.kh * self.kw * self.c
    }

    /// Writes the patch sub-matrix of rows `pixels` by columns
    /// `d0..d0 + width` into `dst`, row-major; columns past the patch
    /// row's end are zeros like the padding.
    ///
    /// Walks the rows one grid line at a time: along a line, window row
    /// `ky` of consecutive pixels is the same image line read at offsets
    /// `stride * c` apart, so column `d` of pixel `ox` is that line's
    /// element `d + shift(ox)`, inside the image exactly when that offset
    /// is inside the line — one interval intersection per pixel and
    /// window row, no per-element test.
    pub(crate) fn read_block(&self, pixels: Range<usize>, d0: usize, width: usize, dst: &mut [f32]) {
        let dst = &mut dst[..pixels.len() * width];
        dst.fill(0.0);
        let run = self.kw * self.c;
        let line_len = self.w * self.c;
        let mut p = pixels.start;
        while p < pixels.end {
            let (b, oy, ox) = (p / self.sample_pixels(), p / self.ow % self.oh, p % self.ow);
            let span = (self.ow - ox).min(pixels.end - p);
            let rows = &mut dst[(p - pixels.start) * width..][..span * width];
            for ky in 0..self.kh {
                let y = (oy * self.stride + ky) as isize - self.pad_y;
                let (lo, hi) = ((ky * run).max(d0), ((ky + 1) * run).min(d0 + width));
                if y < 0 || y >= self.h as isize || lo >= hi {
                    continue;
                }
                let line = &self.x[(b * self.h + y as usize) * line_len..][..line_len];
                for (i, row) in rows.chunks_exact_mut(width).enumerate() {
                    let x0 = ((ox + i) * self.stride) as isize - self.pad_x;
                    let shift = x0 * self.c as isize - (ky * run) as isize;
                    let from = (lo as isize).max(-shift);
                    let to = (hi as isize).min(line_len as isize - shift);
                    if from < to {
                        let src = &line[(from + shift) as usize..(to + shift) as usize];
                        row[from as usize - d0..to as usize - d0].copy_from_slice(src);
                    }
                }
            }
            p += span;
        }
    }
}

/// Forward convolution: NHWC input by `[kh, kw, ic, oc]` filter, with
/// `epilogue` — a program and the operand slices it reads — applied in
/// the product's tile writeback. The NHWC output flattens to
/// `[n*oh*ow, oc]`, so a column operand is a per-output-channel bias and
/// a full operand is an output-shaped residual — the same broadcast
/// classes the matmul path uses. Bitwise identical to the same call
/// without an epilogue followed by [`FusedProgram::apply_flat`].
///
/// # Panics
///
/// Panics if the shapes are not a valid convolution (see
/// [`Conv2dSpec::out_shape`]), or the epilogue / operands are invalid for
/// the flattened output.
pub fn conv2d(
    input: &Tensor,
    filter: &Tensor,
    spec: Conv2dSpec,
    epilogue: Option<(&FusedProgram, &[&[f32]])>,
    pool: &ExecPool,
) -> Tensor {
    let out_shape = spec.out_shape(input.shape(), filter.shape());
    let patches = PatchView::forward(input, filter.shape(), spec);
    let weights = Dense::matrix(filter.data(), filter.shape().dim(3), patches.kdim(), false);
    let mut out = Tensor::pooled(out_shape);
    gemm::product(out.data_mut(), Lhs::Patches(patches), weights, Precision::F32, epilogue, pool);
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
    let (n, h, w, ic) = dims4(input_shape);
    let (kh, kw, _, oc) = dims4(filter.shape());
    if spec.stride != 1 {
        let (rows, kdim) = (n * expect.dim(1) * expect.dim(2), kh * kw * ic);
        let mut dp = recycle::take(rows * kdim);
        let (g, f) = (grad.data(), filter.data());
        gemm::gemm_into(&mut dp, rows, kdim, oc, g, false, f, true, Precision::F32, None, pool);
        let dx = col2im(&dp, input_shape, kh, kw, spec, pool);
        recycle::give(dp);
        return dx;
    }
    // dX[y, x] sums G over the windows that covered (y, x): itself a
    // convolution of G, by the filter with its taps reversed and c/o
    // swapped, under pad' = k - 1 - pad.
    let pad = [kh as isize - 1 - spec.pad as isize, kw as isize - 1 - spec.pad as isize];
    let patches = PatchView::new(grad.data(), [n, expect.dim(1), expect.dim(2), oc], [kh, kw], 1, pad, [h, w]);
    let weights = Dense::flipped_filter(filter.data(), kh * kw, ic, oc);
    let mut dx = Tensor::pooled(input_shape.clone());
    gemm::product(dx.data_mut(), Lhs::Patches(patches), weights, Precision::F32, None, pool);
    dx
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
    let patches = PatchView::forward(input, filter_shape, spec);
    let grads = Dense::matrix(grad.data(), filter_shape.dim(3), patches.pixels(), false);
    let mut df = Tensor::pooled(filter_shape.clone());
    gemm::product(df.data_mut(), Lhs::PatchesT(patches), grads, Precision::F32, None, pool);
    df
}

/// Folds a patch-matrix gradient `[n*oh*ow, kh*kw*ic]` back onto the
/// input grid, summing every patch that covered each input element.
///
/// Written in gather form — parallel spans are input rows, and each
/// input element accumulates its contributions in a fixed `ky, x, kx`
/// order — so parallel execution is bitwise identical to serial.
fn col2im(cols: &[f32], input_shape: &Shape, kh: usize, kw: usize, spec: Conv2dSpec, pool: &ExecPool) -> Tensor {
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

/// The definition all three ops are sums over: calls
/// `mac(x_index, filter_index, y_index)` once per multiply-accumulate of
/// the convolution, window positions outside the image skipped.
fn for_each_mac(input: &Shape, filter: &Shape, spec: Conv2dSpec, mut mac: impl FnMut(usize, usize, usize)) {
    let out = spec.out_shape(input, filter);
    let (n, h, w, ic) = dims4(input);
    let (kh, kw, _, oc) = dims4(filter);
    let (oh, ow) = (out.dim(1), out.dim(2));
    for (b, oy, ox) in (0..n * oh * ow).map(|p| (p / (oh * ow), p / ow % oh, p % ow)) {
        for (ky, kx) in (0..kh * kw).map(|t| (t / kw, t % kw)) {
            let y = (oy * spec.stride + ky) as isize - spec.pad as isize;
            let x = (ox * spec.stride + kx) as isize - spec.pad as isize;
            if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                continue;
            }
            let x_px = ((b * h + y as usize) * w + x as usize) * ic;
            let y_px = ((b * oh + oy) * ow + ox) * oc;
            for (c, o) in (0..ic * oc).map(|i| (i / oc, i % oc)) {
                mac(x_px + c, ((ky * kw + kx) * ic + c) * oc + o, y_px + o);
            }
        }
    }
}

/// Sums `for_each_mac`'s terms into a `shape`-sized f64 accumulator.
fn naive(shape: &Shape, input: &Shape, filter: &Shape, spec: Conv2dSpec, term: impl Fn(usize, usize, usize) -> (usize, f64)) -> Tensor {
    let mut acc = vec![0.0f64; shape.num_elements()];
    for_each_mac(input, filter, spec, |xi, fi, yi| {
        let (at, v) = term(xi, fi, yi);
        acc[at] += v;
    });
    Tensor::from_vec(acc.iter().map(|&v| v as f32).collect(), shape.clone())
}

/// Reference forward convolution: the defining sum, term by term, in
/// f64. No blocking, no skipping of zero terms — the oracle the engine
/// is tested against, as [`crate::kernels::matmul::matmul_naive`] is for
/// products.
pub fn conv2d_naive(input: &Tensor, filter: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (x, f) = (input.data(), filter.data());
    let out = spec.out_shape(input.shape(), filter.shape());
    naive(&out, input.shape(), filter.shape(), spec, |xi, fi, yi| (yi, f64::from(x[xi]) * f64::from(f[fi])))
}

/// Reference `Conv2DBackpropInput` (see [`conv2d_naive`]).
pub fn conv2d_backprop_input_naive(input_shape: &Shape, filter: &Tensor, grad: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (f, g) = (filter.data(), grad.data());
    naive(input_shape, input_shape, filter.shape(), spec, |xi, fi, yi| (xi, f64::from(g[yi]) * f64::from(f[fi])))
}

/// Reference `Conv2DBackpropFilter` (see [`conv2d_naive`]).
pub fn conv2d_backprop_filter_naive(input: &Tensor, filter_shape: &Shape, grad: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (x, g) = (input.data(), grad.data());
    naive(filter_shape, input.shape(), filter_shape, spec, |xi, fi, yi| (fi, f64::from(x[xi]) * f64::from(g[yi])))
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

    /// `[h, w, kh, kw, ic, oc, stride, pad]`
    const GEOMETRIES: [[usize; 8]; 8] = [
        [5, 5, 3, 3, 2, 3, 1, 0],
        [6, 6, 3, 3, 1, 2, 1, 1],
        [8, 8, 3, 3, 2, 2, 2, 1],
        [9, 7, 5, 3, 3, 4, 2, 2],
        [4, 4, 4, 4, 1, 1, 4, 0],
        [5, 5, 1, 1, 4, 4, 1, 0],    // pointwise
        [6, 5, 1, 2, 3, 16, 1, 2],   // pad beyond the window: negative transposed pad
        [20, 20, 8, 8, 4, 16, 4, 0], // dqn geometry
    ];

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
        let y = conv2d(&x, &f, Conv2dSpec::valid(), None, &pool());
        assert_eq!(x.data(), y.data());
    }

    #[test]
    fn all_three_ops_match_the_naive_sums() {
        let mut rng = Rng::seeded(2);
        for [h, w, kh, kw, ic, oc, stride, pad] in GEOMETRIES {
            let spec = Conv2dSpec { stride, pad };
            let x = Tensor::randn([2, h, w, ic], 0.0, 1.0, &mut rng);
            let f = Tensor::randn([kh, kw, ic, oc], 0.0, 1.0, &mut rng);
            let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
            let what = format!("h={h} w={w} k={kh}x{kw} c={ic}->{oc} s={stride} p={pad}");
            let y = conv2d(&x, &f, spec, None, &pool());
            assert!(y.max_abs_diff(&conv2d_naive(&x, &f, spec)) < 1e-4, "forward, {what}");
            let dx = conv2d_backprop_input(x.shape(), &f, &g, spec, &pool());
            let want = conv2d_backprop_input_naive(x.shape(), &f, &g, spec);
            assert!(dx.max_abs_diff(&want) < 1e-4, "backprop-input, {what}");
            let df = conv2d_backprop_filter(&x, f.shape(), &g, spec, &pool());
            let want = conv2d_backprop_filter_naive(&x, f.shape(), &g, spec);
            assert!(df.max_abs_diff(&want) < 1e-3, "backprop-filter, {what}");
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
        let fwd = |x: &Tensor, f: &Tensor| conv2d(x, f, spec, None, &pool()).sum();
        let ones = Tensor::ones(spec.out_shape(x.shape(), f.shape()));

        let dx = conv2d_backprop_input(x.shape(), &f, &ones, spec, &pool());
        let dw = conv2d_backprop_filter(&x, f.shape(), &ones, spec, &pool());

        let eps = 1e-2;
        for idx in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (fwd(&xp, &f) - fwd(&xm, &f)) / (2.0 * eps);
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
            let num = (fwd(&x, &fp) - fwd(&x, &fm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dw[{idx}]: numeric {num} vs analytic {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_serial() {
        let mut rng = Rng::seeded(18);
        for spec in [Conv2dSpec::same(3), Conv2dSpec { stride: 2, pad: 1 }] {
            let x = Tensor::randn([2, 14, 14, 6], 0.0, 1.0, &mut rng);
            let f = Tensor::randn([3, 3, 6, 12], 0.0, 1.0, &mut rng);
            let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
            let run = |pool: &ExecPool| {
                [
                    conv2d(&x, &f, spec, None, pool),
                    conv2d_backprop_input(x.shape(), &f, &g, spec, pool),
                    conv2d_backprop_filter(&x, f.shape(), &g, spec, pool),
                ]
            };
            let serial = run(&ExecPool::serial());
            for threads in [2, 8] {
                let par = run(&ExecPool::new(threads).with_grain(1));
                for (op, (s, p)) in ["y", "dx", "dw"].iter().zip(serial.iter().zip(&par)) {
                    assert_eq!(s.data(), p.data(), "{op} diverged at {threads} workers, {spec:?}");
                }
            }
        }
    }

    /// A zero activation (or gradient) against a non-finite weight is
    /// `NaN`, not nothing: no op may skip zero terms, or whether a
    /// guardrail sees the blow-up would depend on the data's sparsity.
    #[test]
    fn zero_times_infinity_propagates_as_nan_through_all_three_ops() {
        let spec = Conv2dSpec::valid();
        let zeros = Tensor::zeros([1, 4, 4, 2]);
        let mut f = Tensor::ones([3, 3, 2, 3]);
        f.data_mut()[7] = f32::INFINITY;
        let g_shape = spec.out_shape(zeros.shape(), f.shape());
        let mut g = Tensor::zeros(g_shape.clone());
        g.data_mut()[5] = f32::INFINITY;
        let nan_at = |t: &Tensor| t.data().iter().map(|v| v.is_nan()).collect::<Vec<_>>();

        let want = nan_at(&conv2d_naive(&zeros, &f, spec));
        assert!(want.contains(&true), "the oracle must not skip zero activations");
        assert_eq!(nan_at(&conv2d(&zeros, &f, spec, None, &pool())), want, "forward");

        // The transposed geometry pads even a valid convolution, and
        // padding is literal zeros: the engine's NaNs are a superset.
        let zero_g = Tensor::zeros(g_shape);
        let want = nan_at(&conv2d_backprop_input_naive(zeros.shape(), &f, &zero_g, spec));
        assert!(want.contains(&true), "the oracle must not skip zero gradients");
        let got = nan_at(&conv2d_backprop_input(zeros.shape(), &f, &zero_g, spec, &pool()));
        assert!(want.iter().zip(&got).all(|(w, g)| !w || *g), "backprop-input lost a NaN");

        let want = nan_at(&conv2d_backprop_filter_naive(&zeros, f.shape(), &g, spec));
        assert!(want.contains(&true), "the oracle must not skip zero activations");
        assert_eq!(nan_at(&conv2d_backprop_filter(&zeros, f.shape(), &g, spec, &pool())), want, "backprop-filter");
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        conv2d(
            &Tensor::zeros([1, 4, 4, 3]),
            &Tensor::zeros([3, 3, 2, 8]),
            Conv2dSpec::valid(),
            None,
            &pool(),
        );
    }
}

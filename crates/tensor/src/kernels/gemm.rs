//! Packed, register-tiled GEMM engine (op classes A and B in the paper's
//! taxonomy: every matrix product and every convolution runs here).
//!
//! This is the BLIS-style counterpart to the row-parallel kernel
//! [`matmul_rows`]: an MR×NR register-tiled microkernel walks *strips* of
//! the two operands — `MR` lanes of A, `NR` lanes of B, one K block deep
//! — and an MC×NC grid of output tiles fans the product out across
//! workers. Three things make that fast whatever the operand looks like:
//!
//! 1. The microkernel takes its strips by stride, so an operand that
//!    already streams (an untransposed B whose width is whole strips) is
//!    read where it lies, and everything else is *packed* into a strip
//!    layout that does: a transposed operand costs the same as a plain
//!    one, and a convolution's patch matrix is packed straight from the
//!    activation tensor without ever being written out.
//! 2. The accumulator tile is one vector register per A lane, updated
//!    with one fused multiply-add per lane and depth row; lanes never mix,
//!    so no floating-point sum is reassociated.
//! 3. Work splits over a 2D grid of MC×NC output tiles rather than rows
//!    of C, so small-m matrices (one row per request in serving,
//!    per-step seq2seq/memnet matrices) still fan out across workers.
//!
//! # One driver
//!
//! [`matmul`] and [`gemm_into`] are the entry points for matrix products
//! and [`crate::kernels::conv`] enters through [`product`] with a patch
//! view as its A operand; precision and the fused epilogue are arguments.
//! [`select`] is the one place that decides which engine a matrix product
//! runs on, and one driver walks the tile grid for every packed product.
//! What differs between f32 and bf16 panels — element type, K padding,
//! strip packers, microkernel, who packs A — sits behind the `Panels`
//! trait, a static parameter of the driver, so nothing dispatches inside
//! the loops.
//!
//! Where an operand is packed follows from its kind alone, never from
//! the batch extent or a setting:
//!
//! * **f32 A** is packed by each tile task, one MC×KC block at a time,
//!   into thread-local scratch ([`pack_block`]) immediately before the
//!   microkernel reads it, so the block is cache-resident when used and
//!   no `[m, k]` buffer exists. A matrix is copied row by row; a patch
//!   view ([`Lhs::Patches`], [`Lhs::PatchesT`]) is gathered from the NHWC
//!   tensor by [`PatchView::read_block`], zero outside the padded image.
//! * **f32 B** is read in place when it is an untransposed matrix of
//!   whole strips and the strided reads cost less than a pack pass
//!   (`F32Panels::reads_b_in_place`): a K block of a strip stays
//!   L1-resident at its row stride, or A is a patch view whose samples
//!   are no bigger than a macro tile, so few A strips meet each B strip.
//!   Otherwise it is packed once, up front, in parallel.
//! * **bf16** operands are always packed up front: the pack is the
//!   conversion point.
//!
//! bf16 panels exist because the pack step is the natural conversion
//! point: every operand element already takes exactly one pass through a
//! packer, so converting there costs one rounding per element, halves the
//! panel bytes the microkernel streams, and lets the panels carry the
//! k-pair-interleaved layout the AVX-512 BF16 dot-product instruction
//! consumes — on hosts with `vdpbf16ps` each instruction retires two
//! multiply-accumulates per f32 lane, which is where the speedup over
//! f32 panels comes from. Accumulation stays f32 everywhere.
//!
//! # Determinism
//!
//! Parallel output is bitwise identical to serial. Each C element is
//! owned by exactly one output tile (tiles partition the M×N plane), and
//! its value is produced by a fixed-order sum: K blocks are walked in
//! ascending order, each block's partial sum is one chain of fused
//! multiply-adds over ascending `kk` from a zero accumulator, and the
//! block results are added into a tile-resident accumulator left to right
//! before the tile is stored once. None of that order depends on worker
//! count, tile ownership, where a strip was read from (in place, packed
//! up front, packed by the task — the values are the same), or whether
//! the element sits in a full or edge tile — edge tiles compute the same
//! lanes against zero padding. The argument does not mention element
//! width, so it holds for both panel formats; within a micro tile bf16
//! panels associate the k sum in adjacent pairs, which changes last-bit
//! rounding relative to f32 panels but not the worker-count invariance.
//!
//! f32 results are also independent of the host: the AVX-512 microkernel
//! and the portable one issue the same correctly-rounded
//! `fma(a, b, acc)` per lane in the same order ([`f32::mul_add`] is the
//! IEEE operation whether the hardware has it or not), so vector width
//! only changes how many lanes retire per instruction.
//!
//! # Epilogue fusion
//!
//! An epilogue [`FusedProgram`] rides the writeback: because the tile
//! accumulator holds each element's final K-reduced value before any
//! store, bias adds / activations / residual adds apply to registers and
//! C is written exactly once, already post-processed. The epilogue runs
//! per element after the fixed-order reduction completes, so it changes
//! no sum order and the bitwise contract above carries over unchanged
//! (see [`crate::kernels::epilogue`] for the formula-level contract).
//!
//! Up-front panels and the output buffer come from the thread's installed
//! [`crate::BufferPool`] and the panels go back to it after the product,
//! so once the pool has learned each panel size's high-water mark,
//! training does no kernel-scratch allocation.

use crate::kernels::conv::PatchView;
use crate::kernels::fused::FusedProgram;
use crate::kernels::matmul::{matmul_rows, product_dims};
use crate::kernels::quant::{bf16_from_f32, bf16_to_f32, Precision};
use crate::pool::ExecPool;
use crate::recycle;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Microkernel tile rows: one accumulator row per A lane.
pub const MR: usize = 8;
/// Microkernel tile columns: one full-width vector of B lanes.
pub const NR: usize = 16;
/// K-dimension block: a KC-deep slice of the A and B strips stays
/// resident in L1/L2 while a tile's partial products accumulate. Part of
/// the numerical definition of a product (see "Determinism").
const KC: usize = 512;
/// Rows of C per parallel task (must be a multiple of `MR`): the A block
/// a task packs for itself is MC×KC floats (64 KB, L2-resident), and
/// products with few rows — a filter gradient has `kh*kw*ic` of them —
/// still split into enough tiles to balance across workers.
const MC: usize = 32;
/// Columns of C per parallel task (must be a multiple of `NR`).
const NC: usize = 64;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");
const _: () = assert!(KC.is_multiple_of(2), "every K block but the last must hold whole k pairs");

/// Raw pointer shared across pack or tile tasks.
struct SharedOut<T>(*mut T);
// SAFETY: tasks only write through the pointer, each to a region no other
// task touches (the strip grid partitions a panel buffer, the tile grid
// partitions C), and the owner outlives the parallel loop.
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    /// Accessor rather than field reads inside closures: 2021-edition
    /// closures capture individual fields, and a captured bare `*mut`
    /// would lose the wrapper's `Sync`.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// The engine a `[m,k]x[k,n]` product runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The row-parallel kernel [`matmul_rows`]; an epilogue runs as one
    /// flat pass over its output.
    Rows,
    /// The packed driver over f32 panels.
    PackedF32,
    /// The packed driver over bf16 panels (f32 accumulation).
    PackedBf16,
}

/// Picks the engine for a `[m,k]x[k,n]` product at the requested
/// `precision` — the only place the packing threshold and the bf16 depth
/// rule are evaluated.
///
/// Small `k*n` products do not amortize the packing pass, and `n < NR`
/// leaves most microkernel lanes padding: those stay on the row kernel at
/// either precision. bf16's entire win is halved panel bandwidth at the
/// pack step, so it only pays on products that pack anyway and whose
/// contraction is deep enough that panel streaming — not the one-pass
/// pack conversion — dominates (`k >= 64`); shallower packed products run
/// f32 panels even when bf16 is requested.
///
/// Deliberately independent of `m`: serving's batch-independence
/// contract compares batch-1 against batch-B outputs bitwise, and `m` is
/// the batch-scaled dimension. Keying the choice on `m` would make the
/// two runs take different kernels.
pub fn select(k: usize, n: usize, precision: Precision) -> Engine {
    if k < 32 || n < NR || k.saturating_mul(n) < 8192 {
        Engine::Rows
    } else if precision == Precision::Bf16 && k >= 64 {
        Engine::PackedBf16
    } else {
        Engine::PackedF32
    }
}

/// `C = op(A) * op(B)` where `op` optionally transposes its argument,
/// on the engine [`select`] picks for the geometry and `precision`, with
/// `epilogue` — a program and the operand slices it reads — applied to
/// every output element.
///
/// `a` must be `[m, k]` (or `[k, m]` when `transpose_a`), `b` must be
/// `[k, n]` (or `[n, k]` when `transpose_b`). The result is `[m, n]`. On
/// every engine the result is bitwise identical to the same call without
/// an epilogue followed by [`FusedProgram::apply_flat`] — and so to the
/// unfused elementwise chain the epilogue replaced.
///
/// # Panics
///
/// Panics on non-rank-2 inputs, contraction mismatch, an invalid
/// epilogue, or mis-sized operands.
#[allow(clippy::too_many_arguments)]
pub fn matmul(
    a: &Tensor,
    b: &Tensor,
    transpose_a: bool,
    transpose_b: bool,
    precision: Precision,
    epilogue: Option<(&FusedProgram, &[&[f32]])>,
    pool: &ExecPool,
) -> Tensor {
    let (m, k, n) = product_dims(a, b, transpose_a, transpose_b);
    let panels = match select(k, n, precision) {
        Engine::Rows => {
            let mut c = matmul_rows(a, b, transpose_a, transpose_b, pool);
            if let Some((ep, operands)) = epilogue {
                ep.apply_flat(c.data_mut(), m, n, operands, pool);
            }
            return c;
        }
        Engine::PackedF32 => Precision::F32,
        Engine::PackedBf16 => Precision::Bf16,
    };
    let mut c = Tensor::pooled([m, n]);
    gemm_into(c.data_mut(), m, n, k, a.data(), transpose_a, b.data(), transpose_b, panels, epilogue, pool);
    c
}

/// Writes `op(A) * op(B)` into `c` through the packed driver (`c` is
/// fully overwritten; prior contents are ignored) on `precision`'s panel
/// format unconditionally — callers have already decided that the driver
/// pays ([`matmul`] through [`select`]). `a` is `[m, k]` (`[k, m]` when
/// `transpose_a`) and `b` is `[k, n]` (`[n, k]` when `transpose_b`),
/// both row-major.
///
/// With an `epilogue` the program is applied to each accumulator tile
/// before it is stored. It sees the final K-reduced element values in
/// registers, so the result is bitwise identical to the same call
/// without one followed by [`FusedProgram::apply_flat`].
///
/// # Panics
///
/// Panics on length mismatches, an invalid epilogue, or mis-sized
/// operands.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    transpose_a: bool,
    b: &[f32],
    transpose_b: bool,
    precision: Precision,
    epilogue: Option<(&FusedProgram, &[&[f32]])>,
    pool: &ExecPool,
) {
    let a = Lhs::Matrix(Dense::matrix(a, m, k, !transpose_a));
    product(c, a, Dense::matrix(b, n, k, transpose_b), precision, epilogue, pool);
}

/// `C = A * B` through the packed driver, for any A the driver can pack:
/// `c` is `[a.lanes(), b.lanes]` row-major and fully overwritten.
///
/// # Panics
///
/// Panics on a contraction or output length mismatch, an invalid
/// epilogue, or a patch-view A with bf16 panels.
pub(crate) fn product(
    c: &mut [f32],
    a: Lhs<'_>,
    b: Dense<'_>,
    precision: Precision,
    epilogue: Option<(&FusedProgram, &[&[f32]])>,
    pool: &ExecPool,
) {
    let (m, n, k) = (a.lanes(), b.lanes, b.k);
    assert_eq!(a.k(), k, "gemm contraction mismatch");
    assert_eq!(c.len(), m * n, "gemm output length mismatch");
    if let Some((ep, operands)) = epilogue {
        ep.check_operands(m, n, operands);
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty contraction is all zeros; the epilogue still applies.
        c.fill(0.0);
        if let Some((ep, operands)) = epilogue {
            ep.apply_flat(c, m, n, operands, pool);
        }
        return;
    }
    match precision {
        Precision::F32 => drive::<F32Panels>(c, a, b, epilogue, pool),
        Precision::Bf16 => drive::<Bf16Panels>(c, a, b, epilogue, pool),
    }
}

/// A matrix operand as the packers see it: `lanes` rows of A (columns of
/// B), each `k` deep, addressed by strides. Element `(lane, kk)` lies at
/// `lane * lane_stride` plus the depth row's offset; the depth axis runs
/// in segments of `seg` consecutive `kk`, `depth_stride` apart inside a
/// segment, with segment bases `seg_stride` apart from `base`. A plain
/// matrix is one segment; the segmented form is what lets a convolution
/// filter stand in as the B of its own transposed product without being
/// copied.
#[derive(Clone, Copy)]
pub(crate) struct Dense<'a> {
    data: &'a [f32],
    lanes: usize,
    k: usize,
    lane_stride: usize,
    depth_stride: usize,
    seg: usize,
    seg_stride: isize,
    base: usize,
}

impl<'a> Dense<'a> {
    /// A row-major matrix: `[lanes, k]` when `lane_major` (an
    /// untransposed A, a transposed B), else `[k, lanes]`.
    pub(crate) fn matrix(data: &'a [f32], lanes: usize, k: usize, lane_major: bool) -> Self {
        assert_eq!(data.len(), lanes * k, "gemm operand length mismatch");
        let (lane_stride, depth_stride) = if lane_major { (k, 1) } else { (1, lanes) };
        Dense { data, lanes, k, lane_stride, depth_stride, seg: k.max(1), seg_stride: 0, base: 0 }
    }

    /// A `[taps, ic, oc]` convolution filter as the B of the transposed
    /// convolution: lanes are `ic`, depth is `(tap, oc)` with the taps in
    /// reverse order — `B[(t, o), c] = filter[taps - 1 - t, c, o]`.
    pub(crate) fn flipped_filter(filter: &'a [f32], taps: usize, ic: usize, oc: usize) -> Self {
        assert_eq!(filter.len(), taps * ic * oc, "filter length mismatch");
        Dense {
            data: filter,
            lanes: ic,
            k: taps * oc,
            lane_stride: oc,
            depth_stride: 1,
            seg: oc.max(1),
            seg_stride: -((ic * oc) as isize),
            base: taps.saturating_sub(1) * ic * oc,
        }
    }

    /// Whether the depth axis is a single segment.
    fn is_matrix(&self) -> bool {
        self.seg >= self.k
    }

    /// Offsets of depth rows `kstart, kstart + 1, ...` — by counters, not
    /// a division per row. Unbounded; callers stop at the operand's `k`.
    fn depth_offsets(&self, kstart: usize) -> impl Iterator<Item = usize> + '_ {
        let (mut q, mut r) = (kstart / self.seg, kstart % self.seg);
        std::iter::from_fn(move || {
            let seg_base = self.base as isize + q as isize * self.seg_stride;
            let off = seg_base as usize + r * self.depth_stride;
            r += 1;
            if r == self.seg {
                (q, r) = (q + 1, 0);
            }
            Some(off)
        })
    }
}

/// The A side of a product: a matrix, or an NHWC tensor viewed as the
/// patch matrix of a convolution — either way round — that is never
/// materialized.
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// A plain (single-segment) matrix.
    Matrix(Dense<'a>),
    /// `patches(X)`: lanes are the view's pixels, depth is `(ky, kx, c)`.
    Patches(PatchView<'a>),
    /// `patches(X)ᵀ`: lanes are `(ky, kx, c)`, depth is the pixel index.
    PatchesT(PatchView<'a>),
}

impl Lhs<'_> {
    fn lanes(&self) -> usize {
        match self {
            Lhs::Matrix(d) => d.lanes,
            Lhs::Patches(v) => v.pixels(),
            Lhs::PatchesT(v) => v.kdim(),
        }
    }

    fn k(&self) -> usize {
        match self {
            Lhs::Matrix(d) => d.k,
            Lhs::Patches(v) => v.kdim(),
            Lhs::PatchesT(v) => v.pixels(),
        }
    }
}

/// Where a run of strips lies, as the microkernel reads it: element
/// (strip `s`, lane `r`, depth row `kk`) is at
/// `ptr + s * strip + r * lane + kk * depth`.
#[derive(Clone, Copy)]
struct Strips<E> {
    ptr: *const E,
    strip: usize,
    lane: usize,
    depth: usize,
}

impl<E> Strips<E> {
    /// The run starting at strip `s`.
    fn at(self, s: usize) -> Self {
        Strips { ptr: self.ptr.wrapping_add(s * self.strip), ..self }
    }

    /// The same strides over another element type.
    fn cast<T>(self) -> Strips<T> {
        Strips { ptr: self.ptr.cast(), strip: self.strip, lane: self.lane, depth: self.depth }
    }

    /// Strips of panels [`pack_operand`] packed `W` lanes wide over
    /// `pad` lanes in total, at the K block `kstart..kstart + kc`.
    fn packed<P: Panels<Elem = E>, const W: usize>(panels: &[f32], pad: usize, kstart: usize, kc: usize) -> Self {
        let ptr = panels.as_ptr().cast::<E>().wrapping_add(kstart * pad);
        Strips { ptr, strip: W * P::depth(kc), lane: 1, depth: W }
    }
}

/// A panel format: everything the driver does not share between f32 and
/// bf16 panels.
///
/// A *strip* is `W` lanes (`MR` rows of A or `NR` columns of B) of one
/// K block. The contract:
///
/// * `pack` writes all `W * depth(kc)` elements of its strip, depth-major;
///   lanes past the operand's edge and depth rows past `kc` pack as
///   zeros, so edge tiles run the identical lane schedule as interior
///   tiles and padding contributes an exact `+0.0` per lane;
/// * `micro_kernel`'s result is a pure function of the strips' *values* —
///   its reduction order may not depend on anything else, which is what
///   makes parallel output bitwise identical to serial and a strip read
///   in place identical to the same strip packed;
/// * `depth(KC) == KC`, so every K block but the last starts at
///   `kstart * lanes_padded` whatever the format.
trait Panels {
    /// Panel element type; at most f32-aligned (panels live in pooled
    /// `Vec<f32>` scratch).
    type Elem: Copy + Send + Sync;

    /// Whether each tile task packs its own A blocks ([`pack_block`])
    /// rather than reading panels packed up front. Only such formats
    /// take a patch-view A.
    const TASK_PACKS_A: bool;

    /// Depth rows a `kc`-deep K block occupies in a packed strip.
    fn depth(kc: usize) -> usize;

    /// Whether the microkernel reads `b` where it lies.
    fn reads_b_in_place(a: &Lhs<'_>, b: &Dense<'_>) -> bool;

    /// Packs lanes `l0..l0 + W` of K rows `kstart..kstart + kc` of `src`
    /// into `strip`.
    fn pack<const W: usize>(
        strip: &mut [Self::Elem],
        src: &Dense<'_>,
        kstart: usize,
        kc: usize,
        l0: usize,
    );

    /// One MR×NR tile against one `kc`-deep K block of strips.
    ///
    /// # Safety
    ///
    /// Every element the strips address for `MR` (`a`) / `NR` (`b`) lanes
    /// and `depth(kc)` depth rows must be readable.
    unsafe fn micro_kernel(a: Strips<Self::Elem>, b: Strips<Self::Elem>, kc: usize) -> [[f32; NR]; MR];
}

/// Packs every strip of `src` in parallel, one task per (K block, strip).
/// Returns the pooled scratch holding `P::depth(k)` depth rows of
/// `lanes` rounded up to `W`, as `P::Elem`s.
fn pack_operand<P: Panels, const W: usize>(src: &Dense<'_>, pool: &ExecPool) -> Vec<f32> {
    const { assert!(align_of::<P::Elem>() <= align_of::<f32>()) };
    let strips = src.lanes.div_ceil(W);
    let pad = strips * W;
    let k = src.k;
    // The backing stays a `Vec<f32>` whatever the element type so the
    // buffer recycles through the same [`crate::BufferPool`].
    let mut buf = recycle::take((P::depth(k) * pad * size_of::<P::Elem>()).div_ceil(4));
    let out = SharedOut(buf.as_mut_ptr().cast::<P::Elem>());
    pool.for_indices(k.div_ceil(KC) * strips, KC * W, |idx| {
        let (p, s) = (idx / strips, idx % strips);
        let kstart = p * KC;
        let kc = KC.min(k - kstart);
        let len = W * P::depth(kc);
        // SAFETY: strip (p, s) owns exactly this region; the (p, s) ->
        // offset map is injective across tasks (every block before p is
        // a full KC deep, so kstart * pad is the block base), and the
        // backing allocation holds depth(k) * pad elements.
        let strip =
            unsafe { std::slice::from_raw_parts_mut(out.ptr().add(kstart * pad + s * len), len) };
        P::pack::<W>(strip, src, kstart, kc, s * W);
    });
    buf
}

thread_local! {
    /// The MC×KC A block a tile task packs for itself; grown once per
    /// thread, so steady-state products allocate nothing for it.
    static A_BLOCK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Packs lanes `lanes` × depth rows `kstart..kstart + kc` of `a` into
/// `scratch`, zero-padding the lanes to whole strips, in whichever strip
/// layout the operand streams into: lane-major (a strip lane is `kc`
/// contiguous floats) when a lane's depth run is contiguous in the
/// source, depth-major (a depth row is the block's lanes, contiguous)
/// when a depth row's lanes are.
fn pack_block(scratch: &mut [f32], a: &Lhs<'_>, lanes: Range<usize>, kstart: usize, kc: usize) -> Strips<f32> {
    let width = lanes.len();
    let wpad = width.next_multiple_of(MR);
    let ptr = scratch.as_ptr();
    let depth_major = Strips { ptr, strip: MR, lane: 1, depth: wpad };
    let lane_major = Strips { ptr, strip: MR * kc, lane: kc, depth: 1 };
    // The matrix arms index by the two strides alone.
    debug_assert!(!matches!(a, Lhs::Matrix(d) if !d.is_matrix() || d.base != 0), "a segmented A");
    match a {
        Lhs::Matrix(d) if d.lane_stride == 1 => {
            for (kk, row) in scratch[..kc * wpad].chunks_exact_mut(wpad).enumerate() {
                let at = (kstart + kk) * d.depth_stride + lanes.start;
                row[..width].copy_from_slice(&d.data[at..at + width]);
                row[width..].fill(0.0);
            }
            depth_major
        }
        Lhs::PatchesT(v) => {
            // Lanes past the patch row's end read as zeros.
            v.read_block(kstart..kstart + kc, lanes.start, wpad, scratch);
            depth_major
        }
        Lhs::Matrix(d) => {
            for (r, row) in scratch[..width * kc].chunks_exact_mut(kc).enumerate() {
                let at = (lanes.start + r) * d.lane_stride + kstart;
                row.copy_from_slice(&d.data[at..at + kc]);
            }
            scratch[width * kc..wpad * kc].fill(0.0);
            lane_major
        }
        Lhs::Patches(v) => {
            v.read_block(lanes, kstart, kc, scratch);
            scratch[width * kc..wpad * kc].fill(0.0);
            lane_major
        }
    }
}

/// The packed driver: packs up front what cannot be read in place or
/// packed by the tile tasks, then walks the MC×NC output-tile grid in
/// parallel.
fn drive<P: Panels>(
    c: &mut [f32],
    a: Lhs<'_>,
    b: Dense<'_>,
    epilogue: Option<(&FusedProgram, &[&[f32]])>,
    pool: &ExecPool,
) {
    let (m, n, k) = (a.lanes(), b.lanes, b.k);
    let m_pad = m.next_multiple_of(MR);
    let n_pad = n.next_multiple_of(NR);
    let a_panels = (!P::TASK_PACKS_A).then(|| match &a {
        Lhs::Matrix(d) => pack_operand::<P, MR>(d, pool),
        _ => panic!("a patch-view operand runs on panels the tile tasks pack"),
    });
    let b_panels = (!P::reads_b_in_place(&a, &b)).then(|| pack_operand::<P, NR>(&b, pool));
    // Where K block `kstart..kstart + kc`'s B strips lie. In place, strip
    // `t` is columns `t * NR..` of rows `kstart..` of the matrix itself.
    let b_strips = |kstart: usize, kc: usize| match &b_panels {
        Some(panels) => Strips::packed::<P, NR>(panels, n_pad, kstart, kc),
        None => {
            let ptr = b.data[kstart * b.depth_stride..].as_ptr();
            Strips { ptr, strip: NR, lane: 1, depth: b.depth_stride }.cast()
        }
    };

    // 2D parallelism over the MC×NC output-tile grid. Each task owns a
    // disjoint C rectangle (at most MC×NC floats, 8 KB — L1/L2
    // resident). Accumulation is per element in ascending p order into
    // either sink below, so the reduction order is fixed (see module
    // docs). With an epilogue the tile accumulates in a local block so
    // the whole program can be applied to it before the single store
    // (one dispatch per instruction per tile); without one it accumulates
    // directly into the cache-hot C rectangle — the first block stores
    // and later blocks add, which needs no zero-fill pass over C.
    let mc_blocks = m.div_ceil(MC);
    let nc_blocks = n.div_ceil(NC);
    let c_out = SharedOut(c.as_mut_ptr());
    pool.for_indices(mc_blocks * nc_blocks, 2 * MC * NC * k, |idx| {
        let (i_lo, j_lo) = (idx / nc_blocks * MC, idx % nc_blocks * NC);
        let i_hi = (i_lo + MC).min(m);
        let j_hi = (j_lo + NC).min(n);
        let strips_a = i_lo / MR..i_hi.div_ceil(MR);
        let strips_b = j_lo / NR..j_hi.div_ceil(NR);
        // SAFETY (both sinks): the rows and columns written lie inside
        // [i_lo, i_hi) × [j_lo, j_hi), this task's rectangle, and the
        // rectangles partition C.
        let c_row = |i: usize, j: usize, len: usize| unsafe {
            std::slice::from_raw_parts_mut(c_out.ptr().add(i * n + j), len)
        };
        A_BLOCK.with_borrow_mut(|scratch| {
            if P::TASK_PACKS_A && scratch.is_empty() {
                scratch.resize(MC * KC, 0.0);
            }
            // Where this tile's A strips lie for a K block: packed here,
            // now, or a window on the up-front panels.
            let a_strips = |kstart: usize, kc: usize| match &a_panels {
                Some(panels) => Strips::packed::<P, MR>(panels, m_pad, kstart, kc).at(strips_a.start),
                None => pack_block(scratch, &a, i_lo..i_hi, kstart, kc).cast(),
            };
            if let Some((ep, operands)) = epilogue {
                let mut block = [0.0f32; MC * NC];
                micro_tiles::<P>(k, strips_a.clone(), strips_b.clone(), a_strips, b_strips, |_, s, t, acc| {
                    let (r0, c0) = (s * MR - i_lo, t * NR - j_lo);
                    for (r, acc_row) in acc.iter().enumerate() {
                        let brow = &mut block[(r0 + r) * NC + c0..][..NR];
                        for (bv, &av) in brow.iter_mut().zip(acc_row) {
                            *bv += av;
                        }
                    }
                });
                let (rows, cols) = (i_hi - i_lo, j_hi - j_lo);
                ep.apply_block(&mut block, i_lo, j_lo, rows, cols, NC, n, operands);
                for r in 0..rows {
                    c_row(i_lo + r, j_lo, cols).copy_from_slice(&block[r * NC..][..cols]);
                }
            } else {
                micro_tiles::<P>(k, strips_a.clone(), strips_b.clone(), a_strips, b_strips, |p, s, t, acc| {
                    let rows = MR.min(i_hi - s * MR);
                    let cols = NR.min(j_hi - t * NR);
                    for (r, acc_row) in acc.iter().enumerate().take(rows) {
                        let c_row = c_row(s * MR + r, t * NR, cols);
                        if p == 0 {
                            for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                                *cv = av;
                            }
                        } else {
                            for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                                *cv += av;
                            }
                        }
                    }
                });
            }
        });
    });
    for panels in [a_panels, b_panels].into_iter().flatten() {
        recycle::give(panels);
    }
}

/// Runs the microkernel over one macro tile — A strips `strips_a`
/// against B strips `strips_b` — and hands each micro tile's accumulator
/// to `sink(p, s, t, acc)` (K block, A strip, B strip). `a_strips` yields
/// the tile's A strips for a K block (strip 0 is `strips_a.start`),
/// `b_strips` the product's B strips. K blocks are walked in the *outer*
/// loop so each strip is reused across the whole macro tile while hot —
/// with the K loop innermost, a deep contraction streams every strip per
/// register tile and the working set blows past cache.
///
/// Generic over the sink rather than branching on it per micro tile: each
/// sink gets its own copy of the walk, so the accumulator goes from the
/// microkernel's registers straight into the sink's loop (one shared
/// walk with a branch measured ~10 % slower on f32 panels).
#[inline(always)]
fn micro_tiles<P: Panels>(
    k: usize,
    strips_a: Range<usize>,
    strips_b: Range<usize>,
    mut a_strips: impl FnMut(usize, usize) -> Strips<P::Elem>,
    b_strips: impl Fn(usize, usize) -> Strips<P::Elem>,
    mut sink: impl FnMut(usize, usize, usize, [[f32; NR]; MR]),
) {
    for p in 0..k.div_ceil(KC) {
        let kstart = p * KC;
        let kc = KC.min(k - kstart);
        let (a, b) = (a_strips(kstart, kc), b_strips(kstart, kc));
        for s in strips_a.clone() {
            for t in strips_b.clone() {
                // SAFETY: `a` covers this tile's strips and `b` every B
                // strip of the product for this K block, each `MR`/`NR`
                // lanes by `depth(kc)` rows: packed strips are written in
                // full, and an in-place B is whole strips wide with `kc`
                // more rows below `kstart`.
                let acc = unsafe { P::micro_kernel(a.at(s - strips_a.start), b.at(t), kc) };
                sink(p, s, t, acc);
            }
        }
    }
}

/// f32 panels: the microkernel broadcasts `a` and streams `b`, one fused
/// multiply-add per accumulator row and depth row.
struct F32Panels;

impl Panels for F32Panels {
    type Elem = f32;

    const TASK_PACKS_A: bool = true;

    fn depth(kc: usize) -> usize {
        kc
    }

    /// An untransposed matrix of whole strips can be streamed where it
    /// lies: a strip's depth rows are `NR`-float runs — single cache
    /// lines — `lanes / NR` lines apart, which fill only
    /// `64 / gcd(64, lanes / NR)` of a 64-set L1's sets. Reading in place
    /// pays while a K block of them still stays resident between A strips
    /// (8 ways per set — what a 32–48 KB L1 has, less room for the A
    /// strip), or while one sample of a patch-view A is no more pixels
    /// than a macro tile has rows, so a B strip meets too few A strips
    /// for a pack pass to repay itself (a matrix does not say what its
    /// rows are). Both are properties of the geometry, not of the batch,
    /// and neither changes a bit of the result.
    ///
    /// The 64 sets × 8 ways are the reference host's L1, a model the
    /// measurements only pin at its ends. On the in-place side of
    /// `k.min(KC) <= 8 * sets`: a one-strip B (`n == NR`, 64 sets, every
    /// `k` — its rows *are* the packed layout) and `speech`'s 4×160×160
    /// (32 sets, 160 ≤ 256: 5 µs in place, 28 µs packed). On the packed
    /// side: 512³ (2 sets, 512 > 16: in place is 1.8× slower). Nothing
    /// in between has been timed. The patch-view clause was measured on
    /// `vgg`'s 2×2-spatial 3×3·128→128 (8 sets, K block 512 > 64: packing
    /// its 0.6 MB filter per call is 5× slower) and also admits the
    /// 3×3- and 4×4-spatial layers of `alexnet` and `residual`.
    fn reads_b_in_place(a: &Lhs<'_>, b: &Dense<'_>) -> bool {
        let streams = b.lane_stride == 1 && b.is_matrix() && b.lanes.is_multiple_of(NR);
        let sets = 64 >> (b.lanes / NR).trailing_zeros().min(6);
        let small_samples = matches!(a, Lhs::Patches(v) if v.sample_pixels() <= MC);
        streams && (b.k.min(KC) <= 8 * sets || small_samples)
    }

    #[inline]
    fn pack<const W: usize>(strip: &mut [f32], src: &Dense<'_>, kstart: usize, _kc: usize, l0: usize) {
        let live = W.min(src.lanes.saturating_sub(l0));
        for (row, off) in strip.chunks_exact_mut(W).zip(src.depth_offsets(kstart)) {
            let lanes = &src.data[off + l0 * src.lane_stride..];
            for (r, slot) in row[..live].iter_mut().enumerate() {
                *slot = lanes[r * src.lane_stride];
            }
            row[live..].fill(0.0);
        }
    }

    /// AVX-512F hosts run the explicit kernel; everything else the
    /// portable one. Both issue `acc[r] = fma(a[r], b, acc[r])` per depth
    /// row in ascending order, so they return identical bits.
    #[inline]
    unsafe fn micro_kernel(a: Strips<f32>, b: Strips<f32>, kc: usize) -> [[f32; NR]; MR] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature test gates the call; the strips are the
            // caller's obligation.
            return unsafe { micro_kernel_f32_avx512(a, b, kc) };
        }
        // SAFETY: the strips are the caller's obligation.
        unsafe { micro_kernel_f32_portable(a, b, kc) }
    }
}

/// One `zmm` accumulator per `MR` row; per depth row one 16-float load of
/// `b` and `MR` `vfmadd231ps` against a broadcast `a` — eight independent
/// dependency chains, the fewest that cover the FMA latency on two ports.
///
/// # Safety
///
/// As [`Panels::micro_kernel`], on a host with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_f32_avx512(a: Strips<f32>, b: Strips<f32>, kc: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps};
    const { assert!(NR == 16, "one zmm register holds a strip row") };
    let mut acc = [_mm512_setzero_ps(); MR];
    for kk in 0..kc {
        // SAFETY: depth row kk < kc of both strips is readable per the
        // caller's contract; loads are unaligned-tolerant.
        unsafe {
            let brow = _mm512_loadu_ps(b.ptr.add(kk * b.depth));
            let arow = a.ptr.add(kk * a.depth);
            for (r, acc_row) in acc.iter_mut().enumerate() {
                *acc_row = _mm512_fmadd_ps(_mm512_set1_ps(*arow.add(r * a.lane)), brow, *acc_row);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, acc_row) in out.iter_mut().zip(acc) {
        // SAFETY: each row holds exactly NR = 16 f32 slots.
        unsafe { _mm512_storeu_ps(row.as_mut_ptr(), acc_row) };
    }
    out
}

/// The same schedule in portable Rust. The accumulator lanes are
/// independent (no cross-lane sum), so the compiler vectorizes this
/// without changing any reduction order, and [`f32::mul_add`] is the
/// fused operation whether or not the target has the instruction.
///
/// # Safety
///
/// As [`Panels::micro_kernel`].
unsafe fn micro_kernel_f32_portable(a: Strips<f32>, b: Strips<f32>, kc: usize) -> [[f32; NR]; MR] {
    const { assert!(MR == 8, "micro_kernel unrolls exactly MR accumulator rows") };
    // One named accumulator row per MR lane, updated through `axpy`. The
    // row loop is unrolled by hand rather than written `for r in 0..MR`:
    // given a 2D accumulator array, LLVM's loop vectorizer (with wide
    // vectors available) prefers vectorizing *across rows* with
    // gather/scatter on the accumulator — an order of magnitude slower
    // than broadcasting `a` and streaming `b`. With the rows as distinct
    // locals only the contiguous NR axis is left to vectorize, which is
    // the canonical broadcast GEMM kernel.
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    for kk in 0..kc {
        // SAFETY: depth row kk < kc of both strips is readable per the
        // caller's contract; `[f32; NR]` has f32 alignment.
        let (brow, al) = unsafe {
            let arow = a.ptr.add(kk * a.depth);
            let al: [f32; MR] = std::array::from_fn(|r| *arow.add(r * a.lane));
            (&*b.ptr.add(kk * b.depth).cast::<[f32; NR]>(), al)
        };
        axpy(&mut r0, al[0], brow);
        axpy(&mut r1, al[1], brow);
        axpy(&mut r2, al[2], brow);
        axpy(&mut r3, al[3], brow);
        axpy(&mut r4, al[4], brow);
        axpy(&mut r5, al[5], brow);
        axpy(&mut r6, al[6], brow);
        axpy(&mut r7, al[7], brow);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// `acc = fma(a, b, acc)` over one register-width row; the independent
/// lanes vectorize without reordering any per-lane sum.
#[inline(always)]
fn axpy(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for (slot, &bv) in acc.iter_mut().zip(b) {
        *slot = a.mul_add(bv, *slot);
    }
}

/// bf16 panels in k-pair-interleaved strips: each strip stores, for every
/// pair of adjacent k rows, the pair's two values adjacent per lane —
/// `[A[2p,i], A[2p+1,i]]` in an a strip, `[B[2p,j], B[2p+1,j]]` in a b
/// strip. That is exactly the operand order of the AVX-512 BF16
/// dot-product instruction (`vdpbf16ps`) the microkernel issues when the
/// host has it; the scalar fallback walks the same layout. An odd-length
/// block pads its phantom k row with zero bits. Both operands are packed
/// up front (the pack is the conversion), so the microkernels read the
/// fixed packed layout and ignore the strips' strides.
struct Bf16Panels;

impl Panels for Bf16Panels {
    type Elem = u16;

    const TASK_PACKS_A: bool = false;

    fn depth(kc: usize) -> usize {
        kc.next_multiple_of(2)
    }

    fn reads_b_in_place(_: &Lhs<'_>, _: &Dense<'_>) -> bool {
        false
    }

    #[inline]
    fn pack<const W: usize>(strip: &mut [u16], src: &Dense<'_>, kstart: usize, kc: usize, l0: usize) {
        // B dominates pack cost (k*n elements against A's m*k, reused
        // only m/MR times), so the interior non-transposed b strip — the
        // only shape the hot geometries hit — gets the hardware convert.
        #[cfg(target_arch = "x86_64")]
        if W == NR
            && src.lane_stride == 1
            && src.is_matrix()
            && l0 + NR <= src.lanes
            && std::arch::is_x86_feature_detected!("avx512bf16")
        {
            // SAFETY: the feature test gates the call; columns
            // [l0, l0 + NR) are fully in range per the test above.
            unsafe { pack_b_strip_pairs_hw(strip, src.data, src.lanes, kstart, kc, l0) };
            return;
        }
        let mut offsets = src.depth_offsets(kstart);
        for (pp, pair_row) in strip.chunks_exact_mut(2 * W).enumerate() {
            let off: [usize; 2] = std::array::from_fn(|_| offsets.next().unwrap_or(0));
            for (r, slot_pair) in pair_row.chunks_exact_mut(2).enumerate() {
                let lane = l0 + r;
                for (h, slot) in slot_pair.iter_mut().enumerate() {
                    *slot = if lane >= src.lanes || 2 * pp + h >= kc {
                        0
                    } else {
                        bf16_from_f32(src.data[off[h] + lane * src.lane_stride])
                    };
                }
            }
        }
    }

    /// On hosts with AVX-512 BF16 each accumulator row takes one
    /// `vdpbf16ps` per k pair — two bf16 multiply-accumulates per f32
    /// lane per instruction, double the MAC density of the f32 kernel's
    /// one fused multiply-add, which (on top of the halved panel bytes)
    /// is where bf16 panels' speedup comes from. The scalar fallback
    /// computes the same pair sums (`acc += a0*b0 + a1*b1`) in plain f32
    /// over the same layout.
    ///
    /// Either way the reduction order is a pure function of the panel
    /// layout, so a given host produces bitwise-identical results at
    /// every worker count. The hardware and fallback paths may differ
    /// from each other in final-bit rounding — the determinism contract
    /// is per host, not cross-host.
    #[inline]
    unsafe fn micro_kernel(a: Strips<u16>, b: Strips<u16>, kc: usize) -> [[f32; NR]; MR] {
        let kc_pairs = kc.div_ceil(2);
        // SAFETY: both strips are packed panels, `depth(kc)` rows of
        // `MR` / `NR` contiguous lanes, readable per the caller's contract.
        let (apanel, bpanel) = unsafe {
            (
                std::slice::from_raw_parts(a.ptr, kc_pairs * 2 * MR),
                std::slice::from_raw_parts(b.ptr, kc_pairs * 2 * NR),
            )
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512bf16") {
            // SAFETY: the feature test above gates the call; avx512bf16
            // implies the avx512f registers the kernel uses.
            return unsafe { micro_kernel_bf16_vdp(apanel, bpanel, kc_pairs) };
        }
        micro_kernel_bf16_scalar(apanel, bpanel, kc_pairs)
    }
}

/// Packs one full-width, non-transposed B strip into the k-pair
/// interleaved layout with the AVX-512 BF16 convert: two k rows convert
/// (`vcvtne2ps2bf16`) and interleave (`vpermw`) in four instructions
/// per pair, against ~10 scalar integer ops per *element* for the
/// portable round-to-nearest-even — without this the conversion of a
/// large B outweighs the microkernel's win at small m. The hardware
/// convert rounds to nearest even like [`bf16_from_f32`] but flushes f32
/// denormals (|x| < 2^-126) to zero where the scalar path keeps their
/// bf16 denormal bits — a sub-1e-38 discrepancy below anything the
/// bf16 rounding the pack performs can represent distinctly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn pack_b_strip_pairs_hw(
    strip: &mut [u16],
    b: &[f32],
    n: usize,
    kstart: usize,
    kc: usize,
    j0: usize,
) {
    use std::arch::x86_64::{
        __m512i, _mm512_cvtne2ps_pbh, _mm512_loadu_ps, _mm512_loadu_si512,
        _mm512_permutexvar_epi16, _mm512_setzero_ps, _mm512_storeu_si512,
    };
    const { assert!(NR == 16, "the convert/interleave schedule is shaped for 16 lanes") };
    // Word j of cvtne2's result is column j of row k0 for j < 16 and
    // column j-16 of row k1 above; this permutation interleaves them
    // into the pair layout [B[k0,j], B[k1,j], ...].
    const INTERLEAVE: [u16; 32] = [
        0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23, 8, 24, 9, 25, 10, 26, 11, 27, 12,
        28, 13, 29, 14, 30, 15, 31,
    ];
    debug_assert!(j0 + NR <= n && strip.len().is_multiple_of(2 * NR));
    // SAFETY (all blocks below): row k0 < kstart + kc <= k, and the
    // caller guarantees j0 + NR <= n, so every 16-float load sits inside
    // `b`; the store target is strip-local; loads/stores are unaligned-
    // tolerant.
    unsafe {
        let idx = _mm512_loadu_si512(INTERLEAVE.as_ptr() as *const __m512i);
        for pp in 0..strip.len() / (2 * NR) {
            let k0 = kstart + 2 * pp;
            let row0 = _mm512_loadu_ps(b.as_ptr().add(k0 * n + j0));
            // An odd block tail pads its phantom second row with zeros.
            let row1 = if 2 * pp + 1 < kc {
                _mm512_loadu_ps(b.as_ptr().add((k0 + 1) * n + j0))
            } else {
                _mm512_setzero_ps()
            };
            let pair: __m512i = std::mem::transmute(_mm512_cvtne2ps_pbh(row1, row0));
            let interleaved = _mm512_permutexvar_epi16(idx, pair);
            _mm512_storeu_si512(strip.as_mut_ptr().add(pp * 2 * NR) as *mut __m512i, interleaved);
        }
    }
}

/// Hardware path: broadcast each a pair, stream the b pair row, and let
/// `vdpbf16ps` widen, multiply, and pair-sum into the f32 accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bf16")]
unsafe fn micro_kernel_bf16_vdp(apanel: &[u16], bpanel: &[u16], kc_pairs: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        __m512bh, __m512i, _mm512_dpbf16_ps, _mm512_loadu_si512, _mm512_set1_epi32,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };
    const { assert!(MR == 8 && NR == 16, "vdpbf16ps kernel is shaped for 8 zmm accumulators") };
    debug_assert!(apanel.len() >= kc_pairs * 2 * MR && bpanel.len() >= kc_pairs * 2 * NR);
    let mut acc = [_mm512_setzero_ps(); MR];
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    for pp in 0..kc_pairs {
        // SAFETY: pair pp spans [pp*2*NR, pp*2*NR + 2*NR) of bpanel and
        // [pp*2*MR, pp*2*MR + 2*MR) of apanel, both in bounds per the
        // debug_assert above; loads are unaligned-tolerant.
        unsafe {
            let b: __m512bh =
                std::mem::transmute(_mm512_loadu_si512(bp.add(pp * 2 * NR) as *const __m512i));
            let arow = ap.add(pp * 2 * MR).cast::<i32>();
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let a: __m512bh = std::mem::transmute(_mm512_set1_epi32(arow.add(r).read_unaligned()));
                *acc_row = _mm512_dpbf16_ps(*acc_row, a, b);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, acc_row) in out.iter_mut().zip(acc) {
        // SAFETY: each row holds exactly NR = 16 f32 slots.
        unsafe { _mm512_storeu_ps(row.as_mut_ptr(), acc_row) };
    }
    out
}

/// Portable path over the same pair-interleaved panels: widen both k
/// rows of the pair, then accumulate `a0*b0 + a1*b1` per lane.
fn micro_kernel_bf16_scalar(apanel: &[u16], bpanel: &[u16], kc_pairs: usize) -> [[f32; NR]; MR] {
    const { assert!(MR == 8, "micro_kernel_bf16_scalar unrolls exactly MR accumulator rows") };
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    for pp in 0..kc_pairs {
        let ah: &[u16; 2 * MR] = apanel[pp * 2 * MR..][..2 * MR].try_into().unwrap();
        let bh: &[u16; 2 * NR] = bpanel[pp * 2 * NR..][..2 * NR].try_into().unwrap();
        let mut b0 = [0.0f32; NR];
        let mut b1 = [0.0f32; NR];
        for j in 0..NR {
            b0[j] = bf16_to_f32(bh[2 * j]);
            b1[j] = bf16_to_f32(bh[2 * j + 1]);
        }
        axpy2(&mut r0, bf16_to_f32(ah[0]), &b0, bf16_to_f32(ah[1]), &b1);
        axpy2(&mut r1, bf16_to_f32(ah[2]), &b0, bf16_to_f32(ah[3]), &b1);
        axpy2(&mut r2, bf16_to_f32(ah[4]), &b0, bf16_to_f32(ah[5]), &b1);
        axpy2(&mut r3, bf16_to_f32(ah[6]), &b0, bf16_to_f32(ah[7]), &b1);
        axpy2(&mut r4, bf16_to_f32(ah[8]), &b0, bf16_to_f32(ah[9]), &b1);
        axpy2(&mut r5, bf16_to_f32(ah[10]), &b0, bf16_to_f32(ah[11]), &b1);
        axpy2(&mut r6, bf16_to_f32(ah[12]), &b0, bf16_to_f32(ah[13]), &b1);
        axpy2(&mut r7, bf16_to_f32(ah[14]), &b0, bf16_to_f32(ah[15]), &b1);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// `acc += a0 * b0 + a1 * b1` over one register-width row — the scalar
/// image of one `vdpbf16ps` (modulo that instruction's internal
/// rounding); lanes stay independent, so this vectorizes without
/// reordering any per-lane sum.
#[inline(always)]
fn axpy2(acc: &mut [f32; NR], a0: f32, b0: &[f32; NR], a1: f32, b1: &[f32; NR]) {
    for ((slot, &v0), &v1) in acc.iter_mut().zip(b0).zip(b1) {
        *slot += a0 * v0 + a1 * v1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::fused::{FusedInstr, FusedOp};
    use crate::kernels::matmul::matmul_naive;
    use crate::rng::Rng;

    const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Bf16];

    fn wide() -> ExecPool {
        ExecPool::new(4).with_grain(1)
    }

    /// The packed driver in `precision`'s panel format whatever the
    /// geometry — `matmul` would route small products to the row kernel.
    fn packed(a: &Tensor, b: &Tensor, ta: bool, tb: bool, precision: Precision, pool: &ExecPool) -> Tensor {
        let (m, k, n) = product_dims(a, b, ta, tb);
        let mut c = vec![f32::NAN; m * n];
        gemm_into(&mut c, m, n, k, a.data(), ta, b.data(), tb, precision, None, pool);
        Tensor::from_vec(c, [m, n])
    }

    /// The exact-arithmetic reference for `precision`'s panels: bf16
    /// panels round every operand element once at pack time, so against
    /// the naive product of pre-rounded operands only f32 accumulation
    /// order differs — the same budget as f32 panels.
    fn reference(a: &Tensor, b: &Tensor, ta: bool, tb: bool, precision: Precision) -> Tensor {
        let grid = |t: &Tensor| match precision {
            Precision::F32 => t.clone(),
            Precision::Bf16 => Tensor::from_vec(
                t.data().iter().map(|&v| bf16_to_f32(bf16_from_f32(v))).collect(),
                t.shape().dims(),
            ),
        };
        matmul_naive(&grid(a), &grid(b), ta, tb)
    }

    #[test]
    fn matches_naive_on_odd_shapes_for_all_transposes() {
        let mut rng = Rng::seeded(11);
        for &(m, k, n) in &[(1, 37, 17), (13, 300, 31), (67, 129, 19), (8, 256, 16)] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = Tensor::randn(if ta { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
                let b = Tensor::randn(if tb { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
                for precision in PRECISIONS {
                    let got = packed(&a, &b, ta, tb, precision, &wide());
                    let want = reference(&a, &b, ta, tb, precision);
                    let diff = got.max_abs_diff(&want);
                    assert!(diff < 1e-3, "{precision} m={m} k={k} n={n} ta={ta} tb={tb}: {diff}");
                }
            }
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_serial() {
        let mut rng = Rng::seeded(29);
        let a = Tensor::randn([129, 517], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([517, 143], 0.0, 1.0, &mut rng);
        for precision in PRECISIONS {
            let serial = packed(&a, &b, false, false, precision, &ExecPool::serial());
            for threads in [2, 4, 8] {
                let pool = ExecPool::new(threads).with_grain(1);
                let par = packed(&a, &b, false, false, precision, &pool);
                assert_eq!(serial.data(), par.data(), "{precision}: {threads} workers diverged");
            }
        }
    }

    /// The explicit-SIMD f32 microkernel and the portable one are the
    /// same function: same bits on random strips in every layout the
    /// driver hands them (packed depth-major, lane-major blocks, an
    /// in-place B wider than a strip), zero-padded edge lanes included,
    /// at one, two and a full K block's depth rows.
    #[test]
    fn f32_microkernels_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx512f") {
                eprintln!("skipped: no avx512f on this host");
                return;
            }
            let mut rng = Rng::seeded(77);
            for kc in [1usize, 2, 511, 512] {
                for (lane_major, b_width, live_lanes) in [(false, NR, MR), (true, NR, MR), (true, 5 * NR, 3), (false, 2 * NR, 1)] {
                    let mut a = Tensor::randn([MR * kc], 0.0, 1.0, &mut rng).into_vec();
                    let b = Tensor::randn([kc * b_width], 0.0, 1.0, &mut rng).into_vec();
                    let (lane, depth) = if lane_major { (kc, 1) } else { (1, MR) };
                    for r in live_lanes..MR {
                        (0..kc).for_each(|kk| a[r * lane + kk * depth] = 0.0);
                    }
                    let a = Strips { ptr: a.as_ptr(), strip: MR * kc, lane, depth };
                    // The second strip of a B read in place.
                    let b = Strips { ptr: b.as_ptr(), strip: NR, lane: 1, depth: b_width }.at(b_width / NR - 1);
                    // SAFETY: both strips address `kc` rows of `MR` / `NR`
                    // lanes inside the vectors above; the feature is present.
                    let (simd, portable) = unsafe {
                        (micro_kernel_f32_avx512(a, b, kc), micro_kernel_f32_portable(a, b, kc))
                    };
                    let bits = |t: [[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
                    assert_eq!(bits(simd), bits(portable), "kc={kc} lane_major={lane_major} b_width={b_width}");
                    for row in &simd[live_lanes..] {
                        assert!(row.iter().all(|&v| v == 0.0), "padded lanes stay zero");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_extents_yield_zeros_or_empty() {
        let pool = ExecPool::serial();
        for precision in PRECISIONS {
            let c = packed(&Tensor::zeros([0, 5]), &Tensor::zeros([5, 4]), false, false, precision, &pool);
            assert_eq!(c.shape().dims(), &[0, 4]);
            let c = packed(&Tensor::ones([3, 0]), &Tensor::ones([0, 4]), false, false, precision, &pool);
            assert_eq!(c.shape().dims(), &[3, 4]);
            assert!(c.data().iter().all(|&v| v == 0.0), "k=0 product must be all zeros");
        }
    }

    #[test]
    fn gemm_into_overwrites_stale_output() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        // `packed` hands the driver a NaN-filled output.
        let c = packed(&a, &b, false, false, Precision::F32, &ExecPool::serial());
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn select_ignores_m_and_holds_the_bf16_depth_rule() {
        for precision in PRECISIONS {
            assert_eq!(select(4, 512, precision), Engine::Rows, "tiny k cannot amortize packing");
            assert_eq!(select(512, 8, precision), Engine::Rows, "n below NR leaves lanes as padding");
            assert_eq!(select(64, 67, precision), Engine::Rows, "k*n below the packing floor");
        }
        assert_eq!(select(512, 512, Precision::F32), Engine::PackedF32);
        assert_eq!(select(512, 512, Precision::Bf16), Engine::PackedBf16);
        assert_eq!(select(64, 128, Precision::Bf16), Engine::PackedBf16);
        // Shallow k: the pack conversion dominates, so the product packs
        // f32 panels even when bf16 is requested — on every entry point.
        assert_eq!(select(48, 256, Precision::Bf16), Engine::PackedF32);
        assert_eq!(select(32, 512, Precision::Bf16), Engine::PackedF32);
    }

    fn bias_relu_epilogue() -> FusedProgram {
        FusedProgram {
            n_inputs: 2,
            instrs: vec![
                FusedInstr { op: FusedOp::Add, args: vec![0, 1] },
                FusedInstr { op: FusedOp::Relu, args: vec![2] },
            ],
        }
    }

    #[test]
    fn fused_epilogue_is_bitwise_identical_to_unfused_then_flat() {
        let mut rng = Rng::seeded(41);
        // Straddles tile edges on both axes, the packing threshold
        // (5x10x7 runs the row kernel) and the bf16 depth rule (k = 48
        // packs f32 panels at either precision).
        for &(m, k, n) in &[(1, 64, 160), (13, 300, 31), (67, 129, 19), (9, 48, 256), (5, 10, 7)] {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let bias = Tensor::randn([n], 0.0, 1.0, &mut rng);
            let ep = bias_relu_epilogue();
            let pool = wide();
            for precision in PRECISIONS {
                let ops: [&[f32]; 1] = [bias.data()];
                let fused = matmul(&a, &b, false, false, precision, Some((&ep, &ops)), &pool);
                let mut unfused = matmul(&a, &b, false, false, precision, None, &pool);
                ep.apply_flat(unfused.data_mut(), m, n, &ops, &pool);
                assert_eq!(fused.data(), unfused.data(), "{precision} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn fused_epilogue_parallel_is_bitwise_identical_to_serial() {
        let mut rng = Rng::seeded(43);
        let a = Tensor::randn([67, 300], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([300, 93], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn([93], 0.0, 1.0, &mut rng);
        let ep = bias_relu_epilogue();
        let ops: [&[f32]; 1] = [bias.data()];
        for precision in PRECISIONS {
            let run = |pool: &ExecPool| matmul(&a, &b, false, false, precision, Some((&ep, &ops)), pool);
            let serial = run(&ExecPool::serial());
            for threads in [2, 4, 8] {
                let par = run(&ExecPool::new(threads).with_grain(1));
                assert_eq!(serial.data(), par.data(), "{precision}: {threads} workers diverged");
            }
        }
    }

    #[test]
    fn zero_k_fused_product_applies_epilogue_to_zeros() {
        let bias = [1.0, -2.0];
        let ep = bias_relu_epilogue();
        let ops: [&[f32]; 1] = [&bias];
        for precision in PRECISIONS {
            // Through the driver directly: `matmul` routes k = 0 to the
            // row kernel.
            let mut c = vec![f32::NAN; 6];
            gemm_into(&mut c, 3, 2, 0, &[], false, &[], false, precision, Some((&ep, &ops)), &ExecPool::serial());
            // relu(0 + bias): [1, 0] per row.
            assert_eq!(c, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        }
        let (a, b) = (Tensor::zeros([3, 0]), Tensor::zeros([0, 2]));
        let c = matmul(&a, &b, false, false, Precision::F32, Some((&ep, &ops)), &ExecPool::serial());
        assert_eq!(c.data(), &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }
}

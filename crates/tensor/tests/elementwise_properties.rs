//! Oracle tests for the class C and D kernels that run as zipped slice
//! passes: every op of the class-C table (through [`ew::eval`]), `tile`
//! and `reduce_axis` must match, bit for bit, a one-element-at-a-time
//! loop kept here as the oracle, at widths 1, 2 and 8.
//!
//! Inputs come from a grid of special values (±0, NaN, ±inf, ±subnormal,
//! the largest finite value) plus a few ordinary ones, so a kernel that
//! reorders arithmetic, drops a sign of zero or loses a NaN shows. Shapes
//! reach past one span (1024 elements), so span and chunk boundaries fall
//! inside rows, and every broadcast operand kind is drawn: full, row
//! (`[n]`, `[1, n]`), column (`[…, m, 1]`), scalar and general.

use std::sync::OnceLock;

use fathom_tensor::kernels::elementwise as ew;
use fathom_tensor::kernels::fused::{FusedOp, OpVisitor};
use fathom_tensor::kernels::reduce::{reduce_axis, ReduceKind};
use fathom_tensor::kernels::transform::tile;
use fathom_tensor::{ExecPool, Shape, Tensor};
use proptest::prelude::*;

const GRID: [f32; 14] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    -1e-40,
    f32::MAX,
    1.0,
    -1.5,
    0.5,
    2.0,
    -7.25,
    3.0,
];

/// Width-1, 2 and 8 pools, built once: the wider ones split every
/// dispatch as finely as the spans allow.
fn pools() -> &'static [ExecPool; 3] {
    static POOLS: OnceLock<[ExecPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| [ExecPool::serial(), ExecPool::new(2).with_grain(1), ExecPool::new(8).with_grain(1)])
}

/// Equal shapes and equal bits in every element, where a NaN matches
/// any NaN: IEEE 754 leaves open which payload an operation on two NaNs
/// returns (x86 returns its first operand's), and the compiler may swap
/// the operands of a commutative add, so even the strided `reduce_axis`
/// loop gives `inf + -inf + NaN` another sign than a scalar loop does.
/// Everything else, the signs of zeros and infinities and subnormals
/// included, must match exactly.
fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#x}), the loop gives {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Up to four dims whose product stays at most `cap`.
fn dims_strategy(max_rank: usize, cap: usize) -> impl Strategy<Value = Vec<usize>> {
    let menu = [1usize, 2, 3, 4, 5, 7, 16, 33, 64, 130, 700];
    proptest::collection::vec(0..menu.len(), 1..max_rank + 1).prop_map(move |picks| {
        let mut dims: Vec<usize> = picks.iter().map(|&i| menu[i]).collect();
        while dims.iter().product::<usize>() > cap {
            let big = (0..dims.len()).max_by_key(|&i| dims[i]).expect("non-empty");
            dims[big] = dims[big].div_ceil(2);
        }
        dims
    })
}

/// A tensor of `dims` whose values come from the grid, seeded by `seed`.
fn grid_tensor(dims: &[usize], seed: u64) -> Tensor {
    let n: usize = dims.iter().product();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            GRID[(s % GRID.len() as u64) as usize]
        })
        .collect();
    Tensor::from_vec(data, Shape::new(dims.to_vec()))
}

/// The shape of one broadcast operand of kind `kind` against `out`:
/// 0 full, 1 row, 2 column, 3 scalar, 4 general (`mask` picks the axes
/// kept, and its top bit drops the leading axis).
fn operand_dims(out: &[usize], kind: usize, mask: usize) -> Vec<usize> {
    let r = out.len();
    match kind {
        0 => out.to_vec(),
        1 if mask & 1 == 0 => vec![out[r - 1]],
        1 => [vec![1; r - 1], vec![out[r - 1]]].concat(),
        2 => [&out[..r - 1], &[1]].concat(),
        3 if mask & 1 == 0 => vec![],
        3 => vec![1; r],
        _ => {
            let mut dims: Vec<usize> =
                out.iter().enumerate().map(|(i, &d)| if mask >> i & 1 == 1 { d } else { 1 }).collect();
            if mask >> 4 & 1 == 1 && r > 1 {
                dims.remove(0);
            }
            dims
        }
    }
}

/// Strides reading `t` at the broadcast shape `out`: broadcast axes step 0.
fn strides_at(t: &Tensor, out: &[usize]) -> Vec<usize> {
    let own = t.shape().strides();
    let lead = out.len() - t.shape().rank();
    let mut strides = vec![0; out.len()];
    for (i, &d) in t.shape().dims().iter().enumerate() {
        if d == out[i + lead] {
            strides[i + lead] = own[i];
        }
    }
    strides
}

/// The flat offset of output element `flat` in each input.
fn offsets<const N: usize>(flat: usize, out: &[usize], strides: &[Vec<usize>; N]) -> [usize; N] {
    let mut rem = flat;
    let mut off = [0; N];
    for axis in (0..out.len()).rev() {
        let coord = rem % out[axis];
        rem /= out[axis];
        for (o, s) in off.iter_mut().zip(strides) {
            *o += coord * s[axis];
        }
    }
    off
}

/// The oracle: each output element computed on its own from its inputs'
/// elements, in the op's left-to-right order.
struct Loop<'a>(&'a [&'a Tensor]);

impl Loop<'_> {
    fn each<const N: usize>(&self, f: impl Fn([f32; N]) -> f32) -> Tensor {
        let ins: [&Tensor; N] = std::array::from_fn(|i| self.0[i]);
        let out = ins[1..]
            .iter()
            .fold(ins[0].shape().clone(), |s, t| s.broadcast(t.shape()).expect("broadcastable"));
        let dims = out.dims().to_vec();
        let strides = ins.map(|t| strides_at(t, &dims));
        let data = (0..out.num_elements())
            .map(|flat| {
                let off = offsets(flat, &dims, &strides);
                f(std::array::from_fn(|i| ins[i].data()[off[i]]))
            })
            .collect();
        Tensor::from_vec(data, out)
    }
}

impl OpVisitor for Loop<'_> {
    type Out = Tensor;
    fn unary(self, _: &'static str, _: f64, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.each(|[x]| f(x))
    }
    fn binary(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        self.each(|[a, b]| f(a, b))
    }
    fn ternary(self, _: &'static str, _: f64, f: impl Fn(f32, f32, f32) -> f32 + Sync) -> Tensor {
        self.each(|[a, b, c]| f(a, b, c))
    }
    fn fold(self, _: &'static str, _: f64, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        let data = (0..self.0[0].len())
            .map(|j| self.0[1..].iter().fold(self.0[0].data()[j], |s, t| f(s, t.data()[j])))
            .collect();
        Tensor::from_vec(data, self.0[0].shape().clone())
    }
}

/// Checks `op` over `inputs` against the oracle at every width.
fn check_op(op: FusedOp, inputs: &[&Tensor]) {
    let want = op.visit(Loop(inputs));
    for pool in pools() {
        let shapes: Vec<String> = inputs.iter().map(|t| t.shape().to_string()).collect();
        let what = format!("{} of {} at width {}", op.name(), shapes.join(", "), pool.threads());
        assert_bits(&ew::eval(op, inputs, pool), &want, &what);
    }
}

/// The `Tile` oracle: every output element reads its input element.
fn tile_loop(x: &Tensor, reps: &[usize]) -> Tensor {
    let in_dims = x.shape().dims();
    let out: Vec<usize> = in_dims.iter().zip(reps).map(|(d, r)| d * r).collect();
    let strides = x.shape().strides();
    let data = (0..out.iter().product())
        .map(|flat: usize| {
            let (mut rem, mut off) = (flat, 0);
            for axis in (0..out.len()).rev() {
                off += (rem % out[axis] % in_dims[axis]) * strides[axis];
                rem /= out[axis];
            }
            x.data()[off]
        })
        .collect();
    Tensor::from_vec(data, Shape::new(out))
}

/// The axis-reduction oracle: each output starts from the identity and
/// takes the axis' elements in order (`-inf` and `v > m` for `Max`), and
/// `Mean` multiplies by `1 / extent`.
fn reduce_loop(x: &Tensor, axis: usize, kind: ReduceKind, keep_dims: bool) -> Tensor {
    let dims = x.shape().dims();
    let outer: usize = dims[..axis].iter().product();
    let extent = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let mut data = Vec::with_capacity(outer * inner);
    for o in 0..outer {
        for i in 0..inner {
            let mut acc = if kind == ReduceKind::Max { f32::NEG_INFINITY } else { 0.0 };
            for a in 0..extent {
                let v = x.data()[(o * extent + a) * inner + i];
                match kind {
                    ReduceKind::Max => {
                        if v > acc {
                            acc = v;
                        }
                    }
                    _ => acc += v,
                }
            }
            if kind == ReduceKind::Mean {
                acc *= 1.0 / extent as f32;
            }
            data.push(acc);
        }
    }
    let shape = if keep_dims { x.shape().with_axis_one(axis) } else { x.shape().without_axis(axis) };
    Tensor::from_vec(data, shape)
}

fn ops_of_arity(n: usize) -> impl Iterator<Item = FusedOp> {
    FusedOp::ALL.into_iter().filter(move |op| op.arity() == Some(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unary_ops_match_the_element_loop(dims in dims_strategy(4, 3000), seed in 0u64..1 << 32) {
        let x = grid_tensor(&dims, seed);
        for op in ops_of_arity(1) {
            check_op(op, &[&x]);
        }
    }

    #[test]
    fn binary_ops_match_the_strided_loop(
        out in dims_strategy(4, 3000),
        kinds in (0usize..5, 0usize..5),
        masks in (0usize..32, 0usize..32),
        seed in 0u64..1 << 32,
    ) {
        let a = grid_tensor(&operand_dims(&out, kinds.0, masks.0), seed);
        let b = grid_tensor(&operand_dims(&out, kinds.1, masks.1), seed + 1);
        for op in ops_of_arity(2) {
            check_op(op, &[&a, &b]);
        }
    }

    #[test]
    fn select_matches_the_strided_loop(
        out in dims_strategy(4, 3000),
        kinds in (0usize..5, 0usize..5, 0usize..5),
        masks in (0usize..32, 0usize..32, 0usize..32),
        seed in 0u64..1 << 32,
    ) {
        let c = grid_tensor(&operand_dims(&out, kinds.0, masks.0), seed);
        let a = grid_tensor(&operand_dims(&out, kinds.1, masks.1), seed + 1);
        let b = grid_tensor(&operand_dims(&out, kinds.2, masks.2), seed + 2);
        check_op(FusedOp::Select, &[&c, &a, &b]);
    }

    #[test]
    fn add_n_matches_the_element_fold(
        dims in dims_strategy(4, 3000),
        n in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let inputs: Vec<Tensor> = (0..n as u64).map(|i| grid_tensor(&dims, seed + i)).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        check_op(FusedOp::AddN, &refs);
    }

    #[test]
    fn tile_matches_the_element_loop(
        dims in dims_strategy(4, 400),
        reps in (2usize..5, 2usize..4),
        seed in 0u64..1 << 32,
    ) {
        // Every pattern of tiled and untiled axes at this rank.
        let x = grid_tensor(&dims, seed);
        for mask in 0..1usize << dims.len() {
            let r: Vec<usize> =
                (0..dims.len()).map(|i| if mask >> i & 1 == 1 { [reps.0, reps.1][i % 2] } else { 1 }).collect();
            let want = tile_loop(&x, &r);
            for pool in pools() {
                let what = format!("tile {} by {r:?} at width {}", x.shape(), pool.threads());
                assert_bits(&tile(&x, &r, pool), &want, &what);
            }
        }
    }

    #[test]
    fn reduce_axis_matches_the_strided_loop(
        dims in dims_strategy(4, 3000),
        keep in 0usize..2,
        seed in 0u64..1 << 32,
    ) {
        let x = grid_tensor(&dims, seed);
        for axis in 0..dims.len() {
            for kind in [ReduceKind::Sum, ReduceKind::Mean, ReduceKind::Max] {
                let want = reduce_loop(&x, axis, kind, keep == 1);
                for pool in pools() {
                    let what =
                        format!("{kind:?} of {} over axis {axis} at width {}", x.shape(), pool.threads());
                    assert_bits(&reduce_axis(&x, axis, kind, keep == 1, pool), &want, &what);
                }
            }
        }
    }
}

#[test]
fn operand_shapes_cover_each_broadcast_kind() {
    // `operand_dims` reaches each operand kind the kernels tell apart.
    let out = [3, 4, 5, 6];
    assert_eq!(operand_dims(&out, 1, 0), vec![6]);
    assert_eq!(operand_dims(&out, 1, 1), vec![1, 1, 1, 6]);
    assert_eq!(operand_dims(&out, 2, 0), vec![3, 4, 5, 1]);
    assert_eq!(operand_dims(&out, 3, 0), Vec::<usize>::new());
    assert_eq!(operand_dims(&out, 4, 0b10101), vec![1, 5, 1]);
    assert_eq!(operand_dims(&[7], 2, 0), vec![1]);
}

//! Property-based tests for the elementwise fusion pass: on randomly
//! composed elementwise DAGs, a fused graph must compute bit-identical
//! results to the unfused original — serial and parallel — and the pass
//! must respect its own legality rules (kept nodes stay fetchable).

use fathom_dataflow::optimize::fuse_in_place;
use fathom_dataflow::{Device, Graph, NodeId, OpClass, OpKind, Session};
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::{Rng, Shape, Tensor};
use proptest::prelude::*;

/// One op of the class-C table, drawn uniformly.
fn table_op() -> impl Strategy<Value = FusedOp> {
    (0..FusedOp::ALL.len()).prop_map(|i| FusedOp::ALL[i])
}

/// Grows a random elementwise DAG over two same-shaped placeholders and
/// one scalar constant, then funnels every matrix-shaped node into a
/// final `add_n` so the whole DAG is reachable from one fetch. Each step
/// applies a table op to as many prior nodes as its arity takes (three
/// for `AddN`). Operands are drawn from *all* prior nodes, so the DAG has
/// shared subexpressions, multi-consumer interiors, and scalar
/// broadcasts — the shapes the fusion grouping has to reason about, not
/// just chains.
fn dag_graph(
    ops: &[(FusedOp, u8, u8, u8)],
    cols: usize,
    seed: u64,
) -> (Graph, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let x = g.placeholder("x", Shape::matrix(3, cols));
    let y = g.placeholder("y", Shape::matrix(3, cols));
    let s = g.constant(Tensor::scalar((seed % 7) as f32 * 0.3 - 0.9));
    let mut nodes = vec![x, y, s];
    for &(op, ra, rb, rc) in ops {
        // The gradient ops and `AddN` require one shared shape (no scalar
        // broadcast), so their operands come from the matrix-shaped nodes
        // only.
        let same_shape =
            matches!(op, FusedOp::ReluGrad | FusedOp::TanhGrad | FusedOp::SigmoidGrad | FusedOp::AddN);
        let candidates: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&n| !same_shape || g.shape(n).num_elements() > 1)
            .collect();
        let arity = op.arity().unwrap_or(3);
        let args: Vec<NodeId> =
            [ra, rb, rc][..arity].iter().map(|&r| candidates[r as usize % candidates.len()]).collect();
        nodes.push(g.add(OpKind::Elementwise(op), &args));
    }
    let sinks: Vec<NodeId> =
        nodes.iter().copied().filter(|&n| g.shape(n).num_elements() > 1).collect();
    let out = g.add_n(&sinks);
    (g, x, y, out)
}

/// Runs `out` on a fresh session over `g` with the given device.
fn run(g: Graph, device: Device, x: NodeId, y: NodeId, out: NodeId, seed: u64) -> Tensor {
    let cols = g.shape(x).dim(1);
    let mut rng = Rng::seeded(seed ^ 0xD06);
    let x_val = Tensor::randn([3, cols], 0.0, 1.0, &mut rng);
    let y_val = Tensor::randn([3, cols], 0.0, 1.0, &mut rng);
    let mut sess = Session::new(g, device);
    sess.run1(out, &[(x, x_val), (y, y_val)]).expect("random elementwise DAGs are well-formed")
}

/// Bitwise tensor equality (`==` would treat NaNs as unequal and signed
/// zeros as equal; fusion promises exact bits).
fn assert_bits_eq(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (av, bv) in a.data().iter().zip(b.data()) {
        assert_eq!(av.to_bits(), bv.to_bits(), "{av} vs {bv}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused evaluation is bit-identical to unfused, serial and parallel.
    #[test]
    fn fused_dag_matches_unfused_bitwise(
        ops in proptest::collection::vec(
            (table_op(), 0u8..255, 0u8..255, 0u8..255), 1..12),
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (g, x, y, out) = dag_graph(&ops, cols, seed);
        let mut fused_g = g.clone();
        fuse_in_place(&mut fused_g, &[out]);
        let reference = run(g, Device::cpu(1), x, y, out, seed);
        let fused = run(fused_g.clone(), Device::cpu(1), x, y, out, seed);
        assert_bits_eq(&reference, &fused);
        let parallel = run(fused_g, Device::cpu_inter_op(2, 2), x, y, out, seed);
        assert_bits_eq(&reference, &parallel);
    }

    /// The pass keeps every requested node fetchable with its original
    /// value, whatever got fused around it.
    #[test]
    fn kept_interior_nodes_survive_fusion(
        ops in proptest::collection::vec(
            (table_op(), 0u8..255, 0u8..255, 0u8..255), 2..10),
        keep_raw in 0u8..255,
        seed in 0u64..1000,
    ) {
        let (g, x, y, out) = dag_graph(&ops, 3, seed);
        // Pin one random elementwise interior as a keep: fusion must
        // leave it fetchable and bit-identical.
        let interiors: Vec<NodeId> = g
            .iter()
            .filter(|(id, n)| {
                n.kind.class() == OpClass::ElementwiseArithmetic
                    && g.shape(*id).num_elements() > 1
            })
            .map(|(id, _)| id)
            .collect();
        prop_assume!(!interiors.is_empty());
        let kept = interiors[keep_raw as usize % interiors.len()];
        let mut fused_g = g.clone();
        fuse_in_place(&mut fused_g, &[out, kept]);
        let mut rng = Rng::seeded(seed ^ 0xD06);
        let x_val = Tensor::randn([3, 3], 0.0, 1.0, &mut rng);
        let y_val = Tensor::randn([3, 3], 0.0, 1.0, &mut rng);
        let mut s1 = Session::new(g, Device::cpu(1));
        let mut s2 = Session::new(fused_g, Device::cpu(1));
        let feeds = [(x, x_val), (y, y_val)];
        let before = s1.run(&[out, kept], &feeds).expect("well-formed");
        let after = s2.run(&[out, kept], &feeds).expect("well-formed");
        assert_bits_eq(&before[0], &after[0]);
        assert_bits_eq(&before[1], &after[1]);
    }
}

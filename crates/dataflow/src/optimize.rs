//! Graph fusion passes.
//!
//! The paper observes that most deep learning frameworks ship "an
//! application-level, compiler-esque optimizer" (§III-C). Here that
//! component is two rewrites over a finished graph, applied in place:
//!
//! * **elementwise fusion** — chains/DAGs of pure, shape-compatible
//!   class-C ops collapse into a single [`OpKind::Fused`] register
//!   program evaluated in one loop-jammed pass (see [`fuse_in_place`]);
//! * **GEMM epilogue fusion** — single-consumer elementwise chains
//!   hanging off packed-engine MatMul/Conv2D nodes are absorbed into the
//!   GEMM's register writeback as an [`OpKind::GemmFused`] node (see
//!   [`fuse_gemm_epilogues`]).
//!
//! Both run *after* autodiff, so gradients are always built against the
//! unfused graph, and both touch only ancestors of the kept nodes.

use fathom_tensor::kernels::epilogue::{MAX_EPILOGUE_ARGS, MAX_EPILOGUE_INSTRS};
use fathom_tensor::kernels::fused::{FusedInstr, FusedOp, FusedProgram};

use crate::graph::{Graph, NodeId};
use crate::op::{epilogue_operand_fits, GemmOp, OpKind};

/// What the fusion passes did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `Fused` nodes created.
    pub groups: usize,
    /// Original elementwise ops absorbed (roots included), so
    /// `ops_fused - groups` nodes disappear from the executed plan.
    pub ops_fused: usize,
    /// `GemmFused` nodes created by [`fuse_gemm_epilogues`].
    pub gemm_groups: usize,
    /// Original ops absorbed into `GemmFused` nodes (the GEMM root plus
    /// every epilogue chain member).
    pub gemm_ops: usize,
}

/// Marks every ancestor of `keep`, the kept nodes included.
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
fn reachable(g: &Graph, keep: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    let mut stack: Vec<NodeId> = keep.to_vec();
    while let Some(id) = stack.pop() {
        assert!(id.index() < g.len(), "kept node {id} is not in this graph");
        if !seen[id.index()] {
            seen[id.index()] = true;
            stack.extend(g.node(id).inputs.iter().copied());
        }
    }
    seen
}

/// The tables both fusion passes start from. Only nodes reachable from
/// the kept set are touched or counted as consumers; unreachable ones
/// stay behind as the unfused originals either way.
struct Reach {
    /// Ancestors of the kept set, the kept nodes included.
    reachable: Vec<bool>,
    /// Each node's consumers among the reachable nodes, in graph order;
    /// a consumer that reads a node twice is listed twice.
    consumers: Vec<Vec<u32>>,
    /// The kept nodes themselves.
    kept: Vec<bool>,
}

impl Reach {
    fn new(g: &Graph, keep: &[NodeId]) -> Self {
        let reachable = reachable(g, keep);
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); g.len()];
        for (id, node) in g.iter() {
            if reachable[id.index()] {
                for i in &node.inputs {
                    consumers[i.index()].push(id.0);
                }
            }
        }
        let mut kept = vec![false; g.len()];
        for k in keep {
            kept[k.index()] = true;
        }
        Reach { reachable, consumers, kept }
    }
}

/// Largest member count of one fused group. Bounds the register file
/// (which lives on the stack of every evaluating worker) and keeps
/// programs trivially within the `u16` register index space.
const MAX_GROUP: usize = 64;

/// Collapses chains/DAGs of pure elementwise ops into [`OpKind::Fused`]
/// nodes, **in place**: each group's root is rewritten to a `Fused` node
/// over the group's external inputs, while interior members stay in the
/// graph (as unreferenced dead nodes the executor's reachability walk
/// skips). Every previously handed-out [`NodeId`] therefore remains
/// valid — fetch handles, serving ports, and checkpoint variable order
/// are unaffected, and fetching a former interior node still runs the
/// original unfused chain.
///
/// Legality rules (each guarantees the fused single-flat-loop evaluation
/// is **bitwise identical** to the unfused kernels):
///
/// * members are class-C [`OpKind::Elementwise`] ops — pure,
///   elementwise, no session state, no RNG;
/// * every member produces exactly the root's shape, and every member
///   input is either another member, a root-shaped external, or a
///   single-element (broadcast scalar) external — precisely the cases
///   where the unfused kernels take their per-element fast paths;
/// * an interior member's consumers (among nodes reachable from `keep`)
///   must all be inside the group, so no fused-away intermediate is
///   needed elsewhere;
/// * nodes in `keep` are never interior (their values stay fetchable
///   from the fused graph);
/// * groups have at least two members and at most [`MAX_GROUP`].
///
/// Growth is greedy: roots are visited in reverse insertion order
/// (consumers before producers) and each group absorbs producers to a
/// fixpoint, so a chain fuses into its deepest consumer.
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
pub fn fuse_in_place(g: &mut Graph, keep: &[NodeId]) -> FusionStats {
    let n = g.len();
    let Reach { reachable, consumers, kept } = Reach::new(g, keep);

    let mut interior = vec![false; n]; // absorbed as a non-root member
    let mut rooted = vec![false; n]; // already the root of a group
    let mut stats = FusionStats::default();
    let mut rewrites: Vec<(NodeId, FusedProgram, Vec<NodeId>)> = Vec::new();
    // The group being grown: its members, and membership by node.
    let mut member = vec![false; n];
    let mut members: Vec<usize> = Vec::new();

    for root_idx in (0..n).rev() {
        let root = NodeId(root_idx as u32);
        if !reachable[root_idx] || interior[root_idx] || rooted[root_idx] {
            continue;
        }
        if !matches!(g.node(root).kind, OpKind::Elementwise(_)) {
            continue;
        }
        let root_shape = g.shape(root);
        let input_ok = |g: &Graph, i: NodeId| {
            g.shape(i) == root_shape || g.shape(i).num_elements() == 1
        };
        if !g.node(root).inputs.iter().all(|&i| input_ok(g, i)) {
            continue;
        }

        // Grow the group to a fixpoint, from a clean slate.
        for &m in &members {
            member[m] = false;
        }
        members.clear();
        member[root_idx] = true;
        members.push(root_idx);
        loop {
            let mut grew = false;
            for mi in 0..members.len() {
                if members.len() >= MAX_GROUP {
                    break;
                }
                for &cand in &g.node(NodeId(members[mi] as u32)).inputs {
                    let c = cand.index();
                    if member[c]
                        || !reachable[c]
                        || interior[c]
                        || rooted[c]
                        || kept[c]
                        || members.len() >= MAX_GROUP
                    {
                        continue;
                    }
                    if !matches!(g.node(cand).kind, OpKind::Elementwise(_))
                        || g.shape(cand) != root_shape
                        || !g.node(cand).inputs.iter().all(|&i| input_ok(g, i))
                        || !consumers[c].iter().all(|&u| member[u as usize])
                    {
                        continue;
                    }
                    member[c] = true;
                    members.push(c);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();

        // Compile the group: inputs first in the register file, then one
        // register per member in ascending (graph) order; the root is the
        // maximal member, so the last register is the output.
        let mut ext_inputs: Vec<NodeId> = Vec::new();
        for &m in &members {
            for &i in &g.node(NodeId(m as u32)).inputs {
                if !member[i.index()] && !ext_inputs.contains(&i) {
                    ext_inputs.push(i);
                }
            }
        }
        // The Fused node's inferred shape must reproduce the root's
        // exactly (an all-scalar group could disagree on scalar rank).
        let inferred = ext_inputs
            .iter()
            .find(|&&i| g.shape(i).num_elements() != 1)
            .or(ext_inputs.first())
            .map(|&i| g.shape(i).clone());
        if inferred.as_ref() != Some(root_shape) {
            continue;
        }
        let n_inputs = ext_inputs.len();
        // An input's register: its member's slot when it is a member
        // (`members` is sorted), else its place among the external inputs.
        let reg = |i: NodeId| match members.binary_search(&i.index()) {
            Ok(k) => (n_inputs + k) as u16,
            Err(_) => ext_inputs.iter().position(|&e| e == i).expect("an external input") as u16,
        };
        let instrs: Vec<FusedInstr> = members
            .iter()
            .map(|&m| {
                let node = g.node(NodeId(m as u32));
                let OpKind::Elementwise(op) = node.kind else { unreachable!("members are class C") };
                FusedInstr { op, args: node.inputs.iter().map(|&i| reg(i)).collect() }
            })
            .collect();

        rooted[root_idx] = true;
        for &m in &members {
            if m != root_idx {
                interior[m] = true;
            }
        }
        stats.groups += 1;
        stats.ops_fused += members.len();
        rewrites.push((root, FusedProgram { n_inputs, instrs }, ext_inputs));
    }

    for (root, program, ext) in rewrites {
        g.replace_node(root, OpKind::Fused(program), &ext)
            .expect("fusion rewrites are shape-preserving");
    }
    stats
}

/// Absorbs single-consumer elementwise chains hanging off packed-engine
/// `MatMul`/`Conv2D` nodes into [`OpKind::GemmFused`] nodes, **in
/// place**: the *last* chain member is rewritten (keeping its id, so
/// fetch handles stay valid) while the GEMM root and interior members
/// stay behind as unreferenced dead nodes.
///
/// This is the BLIS/cuBLAS "fused epilogue" idiom: the bias-add /
/// activation / residual that follows a GEMM is applied to the 8×16
/// accumulator tile while it is still in registers, instead of spilling
/// the product to memory and re-reading it once per elementwise op.
///
/// Legality rules (each preserves the bitwise contract):
///
/// * the root is a `MatMul` or `Conv2D` — any of them: the packed
///   engine (every convolution, most matmuls) applies the epilogue to
///   register-resident tiles and the row-kernel fallback applies it as
///   one flat pass over the output; either way the absorbed chain sheds
///   its node dispatches, intermediate allocations and round trips, so
///   fusion is never a loss (on RNN-style graphs with thousands of small
///   matmuls per step, the dispatch savings on the fallback path are
///   most of the win);
/// * the chain grows along *unique* reachable consumers: each tip has
///   exactly one distinct consumer, which is an [`OpKind::Elementwise`]
///   op producing exactly the root's shape, with every non-chain input a
///   scalar, a trailing-axis bias or a root-shaped tensor (the operands
///   the kernel reads as the unfused broadcast does; see
///   `epilogue_operand_fits`);
/// * interior chain members (and the GEMM root) must not be in `keep`;
///   the final member may be, since its id survives the rewrite;
/// * chains stop at nodes already claimed by another group, so two GEMMs
///   feeding one `Add` resolve greedily — the first claims the chain and
///   the second stays a plain node feeding a root-shaped operand;
/// * at most [`MAX_EPILOGUE_INSTRS`] members per chain.
///
/// Returns stats with only the `gemm_*` fields populated.
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
pub fn fuse_gemm_epilogues(g: &mut Graph, keep: &[NodeId]) -> FusionStats {
    let n = g.len();
    let Reach { reachable, consumers, kept } = Reach::new(g, keep);

    // Nodes already absorbed into some group (GEMM roots and members).
    let mut claimed = vec![false; n];
    let mut stats = FusionStats::default();
    let mut rewrites: Vec<(NodeId, OpKind, Vec<NodeId>)> = Vec::new();

    for root_idx in 0..n {
        let root = NodeId(root_idx as u32);
        if !reachable[root_idx] || claimed[root_idx] || kept[root_idx] {
            continue;
        }
        let gemm = match &g.node(root).kind {
            OpKind::MatMul { transpose_a, transpose_b } => {
                GemmOp::MatMul { transpose_a: *transpose_a, transpose_b: *transpose_b }
            }
            OpKind::Conv2D(spec) => GemmOp::Conv2D(*spec),
            _ => continue,
        };
        let root_shape = g.shape(root).clone();

        // Walk the unique-consumer chain off the GEMM. Each link's args
        // are `None` for the running accumulator, else an operand's
        // index (see `FusedProgram::epilogue`).
        let mut members: Vec<NodeId> = Vec::new();
        let mut links: Vec<(FusedOp, Vec<Option<u16>>)> = Vec::new();
        let mut operands: Vec<NodeId> = Vec::new();
        let mut tip = root;
        while links.len() < MAX_EPILOGUE_INSTRS {
            // Exactly one distinct consumer (which may read the tip twice).
            let Some((&first, rest)) = consumers[tip.index()].split_first() else { break };
            if rest.iter().any(|&c| c != first) {
                break;
            }
            let next = NodeId(first);
            let c = next.index();
            if claimed[c] {
                break;
            }
            let OpKind::Elementwise(op) = g.node(next).kind else { break };
            let inputs = &g.node(next).inputs;
            if g.shape(next) != &root_shape
                || inputs.len() > MAX_EPILOGUE_ARGS
                || !inputs.iter().all(|&i| i == tip || epilogue_operand_fits(g.shape(i), &root_shape))
            {
                break;
            }
            let args = inputs
                .iter()
                .map(|&i| {
                    (i != tip).then(|| {
                        let at = operands.iter().position(|&o| o == i).unwrap_or_else(|| {
                            operands.push(i);
                            operands.len() - 1
                        });
                        at as u16
                    })
                })
                .collect();
            // Interior members must not be kept (their values would need
            // the unfused chain anyway); the final member may be, so add
            // the node and then stop extending past it.
            members.push(next);
            links.push((op, args));
            tip = next;
            if kept[c] {
                break;
            }
        }
        if links.is_empty() {
            continue;
        }

        let epilogue = FusedProgram::epilogue(operands.len(), links);
        debug_assert!(epilogue.validate_epilogue().is_ok(), "built epilogue must validate");

        claimed[root_idx] = true;
        for &m in &members {
            claimed[m.index()] = true;
        }
        stats.gemm_groups += 1;
        stats.gemm_ops += members.len() + 1; // chain members plus the GEMM root
        let last = *members.last().expect("non-empty chain");
        let mut inputs = g.node(root).inputs.clone();
        inputs.extend(operands);
        rewrites.push((last, OpKind::GemmFused { gemm, epilogue }, inputs));
    }

    for (last, kind, inputs) in rewrites {
        g.replace_node(last, kind, &inputs)
            .expect("epilogue fusion rewrites are shape-preserving");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use fathom_tensor::{Shape, Tensor};

    fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn elementwise_chain_fuses_into_root() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(3, 4));
        let t = g.tanh(x);
        let s = g.square(t);
        let y = g.neg(s);
        let unfused = g.clone();
        let stats = fuse_in_place(&mut g, &[y]);
        assert_eq!(stats, FusionStats { groups: 1, ops_fused: 3, ..FusionStats::default() });
        let OpKind::Fused(program) = &g.node(y).kind else {
            panic!("root should be fused, got {:?}", g.node(y).kind)
        };
        assert_eq!(program.n_inputs, 1);
        assert_eq!(program.instrs.len(), 3);
        assert_eq!(g.node(y).inputs, vec![x]);
        // Interiors are untouched and still fetchable.
        assert!(matches!(g.node(t).kind, OpKind::Elementwise(FusedOp::Tanh)));

        let x_val = Tensor::randn([3, 4], 0.0, 1.0, &mut fathom_tensor::Rng::seeded(7));
        let mut a = Session::new(unfused, Device::cpu(1));
        let mut b = Session::new(g, Device::cpu(1));
        let want = a.run1(y, &[(x, x_val.clone())]).unwrap();
        let got = b.run1(y, &[(x, x_val.clone())]).unwrap();
        assert!(bitwise_eq(&want, &got));
        // The former interior still computes the original chain.
        let interior = b.run1(s, &[(x, x_val)]).unwrap();
        assert_eq!(interior.shape().dims(), &[3, 4]);
    }

    #[test]
    fn kept_nodes_are_never_interior() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(8));
        let t = g.tanh(x);
        let y = g.neg(t);
        let stats = fuse_in_place(&mut g, &[y, t]);
        // t is kept, so the only possible group {t, y} is blocked.
        assert_eq!(stats.groups, 0);
        assert!(matches!(g.node(y).kind, OpKind::Elementwise(FusedOp::Neg)));
    }

    #[test]
    fn outside_consumer_blocks_interior() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(8));
        let t = g.tanh(x);
        let y = g.neg(t);
        let other = g.sum_all(t); // non-fusible consumer of t
        let stats = fuse_in_place(&mut g, &[y, other]);
        assert_eq!(stats.groups, 0);
    }

    #[test]
    fn scalar_broadcast_fuses_but_row_broadcast_does_not() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 6));
        let s = g.placeholder("scale", Shape::scalar());
        let row = g.placeholder("row", Shape::matrix(1, 6));
        let scaled = g.mul(x, s);
        let act = g.relu(scaled);
        let keep_a = g.neg(act);
        let shifted = g.add_op(x, row); // row-broadcast: not fusible
        let keep_b = g.neg(shifted);
        let stats = fuse_in_place(&mut g, &[keep_a, keep_b]);
        assert_eq!(stats, FusionStats { groups: 1, ops_fused: 3, ..FusionStats::default() });
        assert!(matches!(g.node(keep_a).kind, OpKind::Fused(_)));
        assert!(matches!(g.node(keep_b).kind, OpKind::Elementwise(FusedOp::Neg)));
        assert!(matches!(g.node(shifted).kind, OpKind::Elementwise(FusedOp::Add)));
    }

    #[test]
    fn fused_dag_reuses_shared_member() {
        // d = (tanh x) * (tanh x + x): the tanh feeds two members but no
        // outside consumer, so the whole diamond fuses into one group.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(16));
        let t = g.tanh(x);
        let sum = g.add_op(t, x);
        let d = g.mul(t, sum);
        let unfused = g.clone();
        let stats = fuse_in_place(&mut g, &[d]);
        assert_eq!(stats, FusionStats { groups: 1, ops_fused: 3, ..FusionStats::default() });
        let x_val = Tensor::randn([16], 0.0, 2.0, &mut fathom_tensor::Rng::seeded(11));
        let mut a = Session::new(unfused, Device::cpu(1));
        let mut b = Session::new(g, Device::cpu(1));
        let want = a.run1(d, &[(x, x_val.clone())]).unwrap();
        let got = b.run1(d, &[(x, x_val)]).unwrap();
        assert!(bitwise_eq(&want, &got));
    }

    /// `[4,64] x [64,128]` routes to the packed engine
    /// (`use_packed(64, 128)`), so the bias/activation chain is an
    /// epilogue candidate.
    fn packed_matmul_graph() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        use fathom_tensor::Rng;
        let mut g = Graph::new();
        let mut rng = Rng::seeded(21);
        let x = g.placeholder("x", Shape::matrix(4, 64));
        let w = g.variable("w", Tensor::randn([64, 128], 0.0, 0.5, &mut rng));
        let b = g.variable("b", Tensor::randn([128], 0.0, 0.5, &mut rng));
        let mm = g.matmul(x, w);
        let biased = g.add_op(mm, b);
        (g, x, mm, biased, b)
    }

    #[test]
    fn gemm_bias_relu_chain_fuses_into_epilogue() {
        use fathom_tensor::Rng;
        let (mut g, x, mm, biased, b) = packed_matmul_graph();
        let act = g.relu(biased);
        let unfused = g.clone();
        let stats = fuse_gemm_epilogues(&mut g, &[act]);
        assert_eq!(stats.gemm_groups, 1);
        assert_eq!(stats.gemm_ops, 3); // matmul + add + relu
        let OpKind::GemmFused { gemm, epilogue } = &g.node(act).kind else {
            panic!("last member should be rewritten, got {:?}", g.node(act).kind)
        };
        assert!(matches!(gemm, GemmOp::MatMul { transpose_a: false, transpose_b: false }));
        // acc + bias into register 2, then relu of register 2.
        assert_eq!(epilogue.n_inputs, 2);
        let ops: Vec<(FusedOp, &[u16])> = epilogue.instrs.iter().map(|i| (i.op, &i.args[..])).collect();
        assert_eq!(ops, [(FusedOp::Add, &[0, 1][..]), (FusedOp::Relu, &[2][..])]);
        // Inputs are [a, b, operands...]; the GEMM root and the interior
        // Add stay behind as dead nodes.
        let w = unfused.node(mm).inputs[1];
        assert_eq!(g.node(act).inputs, vec![x, w, b]);
        assert!(matches!(g.node(mm).kind, OpKind::MatMul { .. }));
        assert!(matches!(g.node(biased).kind, OpKind::Elementwise(FusedOp::Add)));

        let x_val = Tensor::randn([4, 64], 0.0, 1.0, &mut Rng::seeded(22));
        for threads in [1, 4] {
            let mut a = Session::new(unfused.clone(), Device::cpu(threads));
            let mut f = Session::new(g.clone(), Device::cpu(threads));
            let want = a.run1(act, &[(x, x_val.clone())]).unwrap();
            let got = f.run1(act, &[(x, x_val.clone())]).unwrap();
            assert!(bitwise_eq(&want, &got), "fused epilogue diverged at {threads} threads");
        }
    }

    #[test]
    fn small_gemm_fuses_through_the_fallback_path() {
        // k = 8 routes through the row-parallel kernel, where the
        // epilogue runs as one flat pass after the matmul. The chain
        // still sheds its dispatches and round trips, so the pass takes
        // it — and the result is still bitwise identical.
        use fathom_tensor::Rng;
        let mut rng = Rng::seeded(31);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 8));
        let w = g.variable("w", Tensor::randn([8, 8], 0.0, 0.5, &mut rng));
        let b = g.variable("b", Tensor::randn([8], 0.0, 0.5, &mut rng));
        let mm = g.matmul(x, w);
        let biased = g.add_op(mm, b);
        let act = g.relu(biased);
        let unfused = g.clone();
        let stats = fuse_gemm_epilogues(&mut g, &[act]);
        assert_eq!(stats.gemm_groups, 1);
        assert_eq!(stats.gemm_ops, 3);
        assert!(matches!(g.node(act).kind, OpKind::GemmFused { .. }));
        assert!(matches!(g.node(mm).kind, OpKind::MatMul { .. }));

        let x_val = Tensor::randn([4, 8], 0.0, 1.0, &mut rng);
        let mut a = Session::new(unfused, Device::cpu(1));
        let mut f = Session::new(g, Device::cpu(1));
        let want = a.run1(act, &[(x, x_val.clone())]).unwrap();
        let got = f.run1(act, &[(x, x_val)]).unwrap();
        assert!(bitwise_eq(&want, &got), "fallback-path epilogue diverged");
    }

    #[test]
    fn kept_chain_member_becomes_the_rewrite_point() {
        let (mut g, _x, mm, biased, _b) = packed_matmul_graph();
        let act = g.relu(biased);
        // `biased` is kept, so the chain stops there: the Add is the
        // final member (its id survives the rewrite) and the Relu stays
        // a plain consumer of the now-fused node.
        let stats = fuse_gemm_epilogues(&mut g, &[act, biased]);
        assert_eq!(stats.gemm_groups, 1);
        assert_eq!(stats.gemm_ops, 2); // matmul + add only
        assert!(matches!(g.node(biased).kind, OpKind::GemmFused { .. }));
        assert!(matches!(g.node(act).kind, OpKind::Elementwise(FusedOp::Relu)));
        assert!(matches!(g.node(mm).kind, OpKind::MatMul { .. }));
    }

    #[test]
    fn shared_consumer_resolves_greedily_to_one_group() {
        use fathom_tensor::Rng;
        let mut g = Graph::new();
        let mut rng = Rng::seeded(23);
        let x = g.placeholder("x", Shape::matrix(4, 64));
        let w1 = g.variable("w1", Tensor::randn([64, 128], 0.0, 0.5, &mut rng));
        let w2 = g.variable("w2", Tensor::randn([64, 128], 0.0, 0.5, &mut rng));
        let mm1 = g.matmul(x, w1);
        let mm2 = g.matmul(x, w2);
        let s = g.add_op(mm1, mm2);
        let unfused = g.clone();
        let stats = fuse_gemm_epilogues(&mut g, &[s]);
        // The first matmul claims the Add; the second stays a plain node
        // feeding the epilogue as a Full operand (the speech BiRNN shape).
        assert_eq!(stats.gemm_groups, 1);
        assert_eq!(stats.gemm_ops, 2);
        assert!(matches!(g.node(s).kind, OpKind::GemmFused { .. }));
        assert_eq!(g.node(s).inputs, vec![x, w1, mm2]);
        assert!(matches!(g.node(mm2).kind, OpKind::MatMul { .. }));

        let x_val = Tensor::randn([4, 64], 0.0, 1.0, &mut Rng::seeded(24));
        let mut a = Session::new(unfused, Device::cpu(2));
        let mut f = Session::new(g, Device::cpu(2));
        let want = a.run1(s, &[(x, x_val.clone())]).unwrap();
        let got = f.run1(s, &[(x, x_val)]).unwrap();
        assert!(bitwise_eq(&want, &got));
    }

    #[test]
    fn conv_bias_chain_fuses_into_the_conv_product() {
        use fathom_tensor::kernels::conv::Conv2dSpec;
        use fathom_tensor::Rng;
        let mut g = Graph::new();
        let mut rng = Rng::seeded(25);
        let x = g.placeholder("x", Shape::from(vec![1, 8, 8, 64]));
        let f = g.variable("f", Tensor::randn([3, 3, 64, 64], 0.0, 0.1, &mut rng));
        let b = g.variable("b", Tensor::randn([64], 0.0, 0.1, &mut rng));
        let conv = g.conv2d(x, f, Conv2dSpec::same(3));
        let biased = g.add_op(conv, b);
        let act = g.relu(biased);
        let unfused = g.clone();
        let stats = fuse_gemm_epilogues(&mut g, &[act]);
        assert_eq!(stats.gemm_groups, 1, "a conv should take an epilogue");
        let OpKind::GemmFused { gemm: GemmOp::Conv2D(_), .. } = &g.node(act).kind else {
            panic!("expected fused conv, got {:?}", g.node(act).kind)
        };
        let x_val = Tensor::randn([1, 8, 8, 64], 0.0, 1.0, &mut Rng::seeded(26));
        let mut a = Session::new(unfused, Device::cpu(2));
        let mut fs = Session::new(g, Device::cpu(2));
        let want = a.run1(act, &[(x, x_val.clone())]).unwrap();
        let got = fs.run1(act, &[(x, x_val)]).unwrap();
        assert!(bitwise_eq(&want, &got));
    }

    #[test]
    fn epilogue_pass_then_elementwise_pass_do_not_double_claim() {
        use fathom_tensor::Rng;
        let (mut g, x, mm, biased, _b) = packed_matmul_graph();
        let act = g.relu(biased);
        let scaled = g.tanh(act);
        let y = g.neg(scaled);
        let unfused = g.clone();
        let gstats = fuse_gemm_epilogues(&mut g, &[y]);
        assert_eq!(gstats.gemm_groups, 1);
        assert_eq!(gstats.gemm_ops, 5); // the whole chain folds into the GEMM
        let estats = fuse_in_place(&mut g, &[y]);
        // Everything was claimed by the epilogue; nothing left to fuse
        // (the dead originals are unreachable so the pass skips them).
        assert_eq!(estats.groups, 0);
        assert!(matches!(g.node(y).kind, OpKind::GemmFused { .. }));
        assert!(matches!(g.node(mm).kind, OpKind::MatMul { .. }));

        let x_val = Tensor::randn([4, 64], 0.0, 1.0, &mut Rng::seeded(27));
        let mut a = Session::new(unfused, Device::cpu(1));
        let mut f = Session::new(g, Device::cpu(1));
        let want = a.run1(y, &[(x, x_val.clone())]).unwrap();
        let got = f.run1(y, &[(x, x_val)]).unwrap();
        assert!(bitwise_eq(&want, &got));
    }
}

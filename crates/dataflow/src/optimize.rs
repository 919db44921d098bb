//! Application-level graph optimization.
//!
//! The paper observes that most deep learning frameworks ship "an
//! application-level, compiler-esque optimizer" (§III-C). This module is
//! that component: a rewrite pipeline over a finished graph performing
//!
//! * **dead-code elimination** — only ancestors of the kept nodes survive;
//! * **identity elimination** — `Identity`/`StopGradient` pass-throughs
//!   are spliced out (gradients are already built by that point);
//! * **constant folding** — pure ops whose inputs are all constants are
//!   evaluated once at optimization time;
//! * **common-subexpression elimination** — structurally identical pure
//!   ops are merged (the autodiff pass emits many duplicate scalars and
//!   reduction chains, so this fires often in practice).
//!
//! * **elementwise fusion** — chains/DAGs of pure, shape-compatible
//!   class-C ops collapse into a single [`OpKind::Fused`] register
//!   program evaluated in one loop-jammed pass (see [`fuse_in_place`]);
//! * **GEMM epilogue fusion** — single-consumer elementwise chains
//!   hanging off packed-engine MatMul/Conv2D nodes are absorbed into the
//!   GEMM's register writeback as an [`OpKind::GemmFused`] node (see
//!   [`fuse_gemm_epilogues`]).
//!
//! Optimization is opt-in: the profiling experiments characterize the
//! graphs as built, and the `ablation_optimizer` bench quantifies what
//! the optimizer buys. Fusion runs *after* autodiff, like CSE, so
//! gradients are always built against the unfused graph.

use std::collections::HashMap;

use fathom_tensor::kernels::epilogue::{
    Epilogue, EpilogueArg, EpilogueInstr, OperandKind, MAX_EPILOGUE_ARGS, MAX_EPILOGUE_INSTRS,
};
use fathom_tensor::kernels::fused::{FusedInstr, FusedOp, FusedProgram};
use fathom_tensor::Shape;

use crate::device::Device;
use crate::exec::Session;
use crate::graph::{Graph, NodeId};
use crate::op::{GemmOp, OpKind};

/// What the optimizer did, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Node count before optimization.
    pub original_nodes: usize,
    /// Node count after optimization.
    pub optimized_nodes: usize,
    /// Nodes dropped because nothing kept depends on them.
    pub dead_removed: usize,
    /// `Identity`/`StopGradient` nodes spliced out.
    pub identities_removed: usize,
    /// Pure ops evaluated at optimization time.
    pub constants_folded: usize,
    /// Duplicate pure ops merged.
    pub subexpressions_merged: usize,
    /// `Fused` nodes created (only set by [`optimize_with`] with fusion
    /// enabled).
    pub fused_groups: usize,
    /// Original elementwise ops absorbed into fused groups (roots
    /// included).
    pub fused_ops: usize,
}

/// An optimized graph plus the id remapping for the caller's handles.
#[derive(Debug, Clone)]
pub struct OptimizedGraph {
    /// The rewritten graph.
    pub graph: Graph,
    map: Vec<Option<NodeId>>,
    /// Rewrite statistics.
    pub stats: OptimizeStats,
}

impl OptimizedGraph {
    /// The new id of an original node (`None` if it was dead code).
    pub fn remap(&self, old: NodeId) -> Option<NodeId> {
        self.map.get(old.index()).copied().flatten()
    }
}

/// Whether CSE/folding may touch this op at all.
fn is_pure(kind: &OpKind) -> bool {
    !kind.is_stateful()
        && !matches!(kind, OpKind::Placeholder { .. } | OpKind::Variable { .. } | OpKind::Group)
}

/// A structural key for CSE. `None` when the op must not be merged.
fn cse_key(kind: &OpKind, inputs: &[NodeId]) -> Option<String> {
    if !is_pure(kind) {
        return None;
    }
    match kind {
        // Tensor's Debug truncates large buffers, so constants key on the
        // exact bits.
        OpKind::Constant(t) => {
            let mut key = format!("Const:{}:", t.shape());
            for v in t.data() {
                key.push_str(&format!("{:08x}", v.to_bits()));
            }
            Some(key)
        }
        _ => Some(format!("{kind:?}|{inputs:?}")),
    }
}

/// Evaluates a pure op whose inputs are all constants, by running it in a
/// throwaway single-op session.
fn fold(kind: &OpKind, inputs: &[&OpKind]) -> Option<fathom_tensor::Tensor> {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = inputs
        .iter()
        .map(|k| match k {
            OpKind::Constant(t) => g.constant(t.clone()),
            _ => unreachable!("fold is only called with constant inputs"),
        })
        .collect();
    let node = g.try_add(kind.clone(), &ids).ok()?;
    let mut sess = Session::new(g, Device::cpu(1));
    sess.run1(node, &[]).ok()
}

/// Optimizes `g`, preserving the behavior of every node in `keep` (and,
/// transitively, the side effects of stateful ops they depend on).
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
pub fn optimize(g: &Graph, keep: &[NodeId]) -> OptimizedGraph {
    let mut stats = OptimizeStats { original_nodes: g.len(), ..OptimizeStats::default() };

    // Reachability from the kept set.
    let mut needed = vec![false; g.len()];
    let mut stack: Vec<NodeId> = keep.to_vec();
    while let Some(id) = stack.pop() {
        assert!(id.index() < g.len(), "kept node {id} is not in this graph");
        if needed[id.index()] {
            continue;
        }
        needed[id.index()] = true;
        stack.extend(g.node(id).inputs.iter().copied());
    }

    let mut out = Graph::new();
    let mut map: Vec<Option<NodeId>> = vec![None; g.len()];
    let mut cse: HashMap<String, NodeId> = HashMap::new();

    for (id, node) in g.iter() {
        if !needed[id.index()] {
            stats.dead_removed += 1;
            continue;
        }
        let inputs: Vec<NodeId> = node
            .inputs
            .iter()
            .map(|i| map[i.index()].expect("inputs precede outputs"))
            .collect();

        // Identity elimination.
        if matches!(node.kind, OpKind::Identity | OpKind::StopGradient) {
            stats.identities_removed += 1;
            map[id.index()] = Some(inputs[0]);
            continue;
        }

        // Constant folding.
        let mut kind = node.kind.clone();
        if is_pure(&kind)
            && !matches!(kind, OpKind::Constant(_))
            && !inputs.is_empty()
            && inputs
                .iter()
                .all(|i| matches!(out.node(*i).kind, OpKind::Constant(_)))
        {
            let input_kinds: Vec<&OpKind> = inputs.iter().map(|i| &out.node(*i).kind).collect();
            if let Some(folded) = fold(&kind, &input_kinds) {
                stats.constants_folded += 1;
                kind = OpKind::Constant(folded);
            }
        }

        // CSE (covers folded results too, so equal constants merge).
        let inputs_for_key = if matches!(kind, OpKind::Constant(_)) { Vec::new() } else { inputs.clone() };
        if let Some(key) = cse_key(&kind, &inputs_for_key) {
            if let Some(&existing) = cse.get(&key) {
                stats.subexpressions_merged += 1;
                map[id.index()] = Some(existing);
                continue;
            }
            let new_inputs = if matches!(kind, OpKind::Constant(_)) { Vec::new() } else { inputs };
            let new_id = out.add(kind, &new_inputs);
            if let Some(name) = &node.name {
                out.set_name(new_id, name.clone());
            }
            cse.insert(key, new_id);
            map[id.index()] = Some(new_id);
        } else {
            let new_id = out.add(kind, &inputs);
            if let Some(name) = &node.name {
                out.set_name(new_id, name.clone());
            }
            map[id.index()] = Some(new_id);
        }
    }

    stats.optimized_nodes = out.len();
    OptimizedGraph { graph: out, map, stats }
}

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
/// * members come from the fusible class-C set ([`OpKind::class_c`]) — pure,
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

    // Reachability from the kept set: unreachable nodes are never
    // touched (and never counted as consumers — they stay behind as the
    // unfused originals either way).
    let mut reachable = vec![false; n];
    let mut stack: Vec<NodeId> = keep.to_vec();
    while let Some(id) = stack.pop() {
        assert!(id.index() < n, "kept node {id} is not in this graph");
        if reachable[id.index()] {
            continue;
        }
        reachable[id.index()] = true;
        stack.extend(g.node(id).inputs.iter().copied());
    }

    // Consumer lists among reachable nodes.
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, node) in g.iter() {
        if reachable[id.index()] {
            for i in &node.inputs {
                consumers[i.index()].push(id.0);
            }
        }
    }
    let mut kept = vec![false; n];
    for k in keep {
        kept[k.index()] = true;
    }

    let mut interior = vec![false; n]; // absorbed as a non-root member
    let mut rooted = vec![false; n]; // already the root of a group
    let mut stats = FusionStats::default();
    let mut rewrites: Vec<(NodeId, FusedProgram, Vec<NodeId>)> = Vec::new();

    for root_idx in (0..n).rev() {
        let root = NodeId(root_idx as u32);
        if !reachable[root_idx] || interior[root_idx] || rooted[root_idx] {
            continue;
        }
        if g.node(root).kind.class_c().is_none() {
            continue;
        }
        let root_shape = g.shape(root).clone();
        let input_ok = |g: &Graph, i: NodeId| {
            g.shape(i) == &root_shape || g.shape(i).num_elements() == 1
        };
        if !g.node(root).inputs.iter().all(|&i| input_ok(g, i)) {
            continue;
        }

        // Grow the group to a fixpoint.
        let mut member = vec![false; n];
        member[root_idx] = true;
        let mut members = vec![root_idx];
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
                    if g.node(cand).kind.class_c().is_none()
                        || g.shape(cand) != &root_shape
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
        let mut ext_reg: HashMap<NodeId, u16> = HashMap::new();
        let mut member_reg: HashMap<usize, usize> = HashMap::new();
        let mut raw_instrs: Vec<(FusedOp, Vec<NodeId>)> = Vec::new();
        for (k, &m) in members.iter().enumerate() {
            let node = g.node(NodeId(m as u32));
            let op = node.kind.class_c().expect("members are fusible");
            raw_instrs.push((op, node.inputs.clone()));
            member_reg.insert(m, k);
        }
        for (_, inputs) in &raw_instrs {
            for &i in inputs {
                if !member[i.index()] && !ext_reg.contains_key(&i) {
                    let reg = ext_inputs.len() as u16;
                    ext_inputs.push(i);
                    ext_reg.insert(i, reg);
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
        if inferred.as_ref() != Some(&root_shape) {
            continue;
        }
        let n_inputs = ext_inputs.len();
        let instrs: Vec<FusedInstr> = raw_instrs
            .iter()
            .map(|(op, inputs)| FusedInstr {
                op: *op,
                args: inputs
                    .iter()
                    .map(|i| {
                        member_reg.get(&i.index()).map_or_else(
                            || ext_reg[i],
                            |&k| (n_inputs + k) as u16,
                        )
                    })
                    .collect(),
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

/// Which fusion passes [`crate::exec::Session::enable_fusion_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionOptions {
    /// Also run [`fuse_gemm_epilogues`] (before elementwise fusion, so
    /// packed GEMMs claim their consumer chains first).
    pub gemm_epilogues: bool,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions { gemm_epilogues: true }
    }
}

/// Classifies a non-accumulator input of an epilogue chain member against
/// the GEMM root's shape. `None` means the operand cannot be fed to the
/// microkernel writeback and the chain must stop before this member.
///
/// The three legal classes mirror the broadcast fast paths of the unfused
/// elementwise kernels, which is what makes the fused writeback bitwise
/// identical: a single element (`Scalar`), a trailing-axis vector of
/// exactly `cols` elements such as a bias (`Col`), or a tensor of the
/// root's exact shape such as a residual (`Full`).
fn classify_operand(shape: &Shape, root_shape: &Shape, cols: usize) -> Option<OperandKind> {
    if shape.num_elements() == 1 {
        Some(OperandKind::Scalar)
    } else if shape == root_shape {
        Some(OperandKind::Full)
    } else if shape.num_elements() == cols && shape.dim(shape.rank() - 1) == cols {
        // [cols] or [1, .., 1, cols]: broadcasts along the trailing axis.
        // The chain member's output shape already equals the root's, so
        // the unfused broadcast aligned this operand with the last axis.
        Some(OperandKind::Col)
    } else {
        None
    }
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
///   exactly one distinct consumer, which is a [`OpKind::class_c`] op producing
///   exactly the root's shape, with every non-chain input classifiable
///   by [`classify_operand`];
/// * interior chain members (and the GEMM root) must not be in `keep`;
///   the final member may be, since its id survives the rewrite;
/// * chains stop at nodes already claimed by another group, so two GEMMs
///   feeding one `Add` resolve greedily — the first claims the chain and
///   the second stays a plain node feeding a `Full` operand;
/// * at most [`MAX_EPILOGUE_INSTRS`] members per chain.
///
/// Returns stats with only the `gemm_*` fields populated.
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
pub fn fuse_gemm_epilogues(g: &mut Graph, keep: &[NodeId]) -> FusionStats {
    let n = g.len();

    let mut reachable = vec![false; n];
    let mut stack: Vec<NodeId> = keep.to_vec();
    while let Some(id) = stack.pop() {
        assert!(id.index() < n, "kept node {id} is not in this graph");
        if reachable[id.index()] {
            continue;
        }
        reachable[id.index()] = true;
        stack.extend(g.node(id).inputs.iter().copied());
    }

    // Consumer lists among reachable nodes (duplicates preserved: a
    // member consuming the tip twice contributes two `Acc` args).
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, node) in g.iter() {
        if reachable[id.index()] {
            for i in &node.inputs {
                consumers[i.index()].push(id.0);
            }
        }
    }
    let mut kept = vec![false; n];
    for k in keep {
        kept[k.index()] = true;
    }

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
        let cols = root_shape.dim(root_shape.rank() - 1);

        // Walk the unique-consumer chain off the GEMM.
        let mut members: Vec<NodeId> = Vec::new();
        let mut instrs: Vec<EpilogueInstr> = Vec::new();
        let mut operands: Vec<NodeId> = Vec::new();
        let mut operand_reg: HashMap<NodeId, u16> = HashMap::new();
        let mut tip = root;
        loop {
            if instrs.len() >= MAX_EPILOGUE_INSTRS {
                break;
            }
            let mut cs = consumers[tip.index()].clone();
            cs.sort_unstable();
            cs.dedup();
            if cs.len() != 1 {
                break;
            }
            let next = NodeId(cs[0]);
            let c = next.index();
            if claimed[c] {
                break;
            }
            let Some(op) = g.node(next).kind.class_c() else { break };
            if g.shape(next) != &root_shape
                || g.node(next).inputs.len() > MAX_EPILOGUE_ARGS
            {
                break;
            }
            let mut args: Vec<EpilogueArg> = Vec::new();
            let mut ok = true;
            for &inp in &g.node(next).inputs {
                if inp == tip {
                    args.push(EpilogueArg::Acc);
                    continue;
                }
                let Some(kind) = classify_operand(g.shape(inp), &root_shape, cols) else {
                    ok = false;
                    break;
                };
                let index = *operand_reg.entry(inp).or_insert_with(|| {
                    let reg = operands.len() as u16;
                    operands.push(inp);
                    reg
                });
                args.push(EpilogueArg::Operand { index, kind });
            }
            if !ok {
                break;
            }
            // Interior members must not be kept (their values would need
            // the unfused chain anyway); the final member may be, so add
            // the node and then stop extending past it.
            let next_kept = kept[c];
            members.push(next);
            instrs.push(EpilogueInstr { op, args });
            tip = next;
            if next_kept {
                break;
            }
        }
        if instrs.is_empty() {
            continue;
        }

        let epilogue = Epilogue { n_operands: operands.len(), instrs };
        debug_assert!(epilogue.validate().is_ok(), "built epilogue must validate");

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

/// Options for [`optimize_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Run the elementwise fusion pass after the base pipeline.
    pub fusion: bool,
}

/// Runs the base [`optimize`] pipeline and, when enabled, the
/// elementwise fusion pass followed by a second sweep that removes the
/// fused-away interior nodes from the rewritten graph. The returned map
/// composes all stages, so callers remap handles exactly as with
/// [`optimize`]. (Sessions that must keep their ids stable use
/// [`crate::exec::Session::enable_fusion`] instead, which fuses in place
/// and leaves interiors as unscheduled dead nodes.)
///
/// # Panics
///
/// Panics if a kept id does not belong to `g`.
pub fn optimize_with(g: &Graph, keep: &[NodeId], options: OptimizeOptions) -> OptimizedGraph {
    let mut base = optimize(g, keep);
    if !options.fusion {
        return base;
    }
    let kept: Vec<NodeId> = keep.iter().filter_map(|&k| base.remap(k)).collect();
    let fstats = fuse_in_place(&mut base.graph, &kept);
    let swept = optimize(&base.graph, &kept);
    let map = base.map.iter().map(|m| m.and_then(|id| swept.remap(id))).collect();
    OptimizedGraph {
        stats: OptimizeStats {
            original_nodes: g.len(),
            optimized_nodes: swept.stats.optimized_nodes,
            dead_removed: base.stats.dead_removed + swept.stats.dead_removed,
            identities_removed: base.stats.identities_removed + swept.stats.identities_removed,
            constants_folded: base.stats.constants_folded + swept.stats.constants_folded,
            subexpressions_merged: base.stats.subexpressions_merged
                + swept.stats.subexpressions_merged,
            fused_groups: fstats.groups,
            fused_ops: fstats.ops_fused,
        },
        graph: swept.graph,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_tensor::{Shape, Tensor};

    #[test]
    fn dead_code_is_removed() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let live = g.neg(x);
        let dead_in = g.placeholder("unused", Shape::vector(3));
        let _dead = g.exp(dead_in);
        let opt = optimize(&g, &[live]);
        assert_eq!(opt.stats.dead_removed, 2);
        assert_eq!(opt.graph.len(), 2);
        assert!(opt.remap(live).is_some());
        assert!(opt.remap(dead_in).is_none());
    }

    #[test]
    fn identities_are_spliced_out() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let i1 = g.add(OpKind::Identity, &[x]);
        let i2 = g.stop_gradient(i1);
        let y = g.neg(i2);
        let opt = optimize(&g, &[y]);
        assert_eq!(opt.stats.identities_removed, 2);
        // Only the placeholder and the Neg remain.
        assert_eq!(opt.graph.len(), 2);
        // The Neg's input is the placeholder directly.
        let new_y = opt.remap(y).unwrap();
        let new_x = opt.remap(x).unwrap();
        assert_eq!(opt.graph.node(new_y).inputs, vec![new_x]);
    }

    #[test]
    fn constants_fold() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from(vec![1.0, 2.0]));
        let b = g.constant(Tensor::from(vec![3.0, 4.0]));
        let sum = g.add_op(a, b);
        let x = g.placeholder("x", Shape::vector(2));
        let y = g.mul(sum, x);
        let opt = optimize(&g, &[y]);
        assert_eq!(opt.stats.constants_folded, 1);
        let new_y = opt.remap(y).unwrap();
        let folded_input = opt.graph.node(new_y).inputs[0];
        match &opt.graph.node(folded_input).kind {
            OpKind::Constant(t) => assert_eq!(t.data(), &[4.0, 6.0]),
            other => panic!("expected folded constant, got {other:?}"),
        }
    }

    #[test]
    fn folding_cascades() {
        // (1 + 2) * 3 folds all the way to a single constant.
        let mut g = Graph::new();
        let one = g.constant(Tensor::scalar(1.0));
        let two = g.constant(Tensor::scalar(2.0));
        let three = g.constant(Tensor::scalar(3.0));
        let sum = g.add_op(one, two);
        let product = g.mul(sum, three);
        let opt = optimize(&g, &[product]);
        assert_eq!(opt.stats.constants_folded, 2);
        let new = opt.remap(product).unwrap();
        match &opt.graph.node(new).kind {
            OpKind::Constant(t) => assert_eq!(t.scalar_value(), 9.0),
            other => panic!("expected constant, got {other:?}"),
        }
    }

    #[test]
    fn common_subexpressions_merge() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let s1 = g.square(x);
        let s2 = g.square(x); // duplicate
        let sum = g.add_op(s1, s2);
        let opt = optimize(&g, &[sum]);
        assert_eq!(opt.stats.subexpressions_merged, 1);
        assert_eq!(opt.remap(s1), opt.remap(s2));
    }

    #[test]
    fn duplicate_constants_merge_but_different_ones_do_not() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar(2.0));
        let b = g.constant(Tensor::scalar(2.0));
        let c = g.constant(Tensor::scalar(3.0));
        let ab = g.add_op(a, b);
        let abc = g.add_op(ab, c);
        let opt = optimize(&g, &[abc]);
        // a and b merge; everything then folds into one constant.
        assert_eq!(opt.remap(a), opt.remap(b));
        assert_ne!(opt.remap(a), opt.remap(c));
    }

    #[test]
    fn random_ops_are_never_merged() {
        let mut g = Graph::new();
        let r1 = g.random_normal([4]);
        let r2 = g.random_normal([4]);
        let sum = g.add_op(r1, r2);
        let opt = optimize(&g, &[sum]);
        assert_eq!(opt.stats.subexpressions_merged, 0);
        assert_ne!(opt.remap(r1), opt.remap(r2));
    }

    #[test]
    fn variables_are_never_merged_or_folded() {
        let mut g = Graph::new();
        let v1 = g.variable("a", Tensor::scalar(1.0));
        let v2 = g.variable("b", Tensor::scalar(1.0));
        let sum = g.add_op(v1, v2);
        let opt = optimize(&g, &[sum]);
        assert_ne!(opt.remap(v1), opt.remap(v2));
        assert_eq!(opt.stats.constants_folded, 0);
        // Variable initial values survive the rewrite.
        let new_graph = opt.graph.clone();
        assert_eq!(new_graph.variables().len(), 2);
    }

    #[test]
    fn optimized_graph_computes_identical_values() {
        use crate::grad::gradients;
        use fathom_tensor::Rng;
        // A training-shaped graph with gradients: optimize and compare.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(3, 4));
        let mut rng = Rng::seeded(5);
        let w = g.variable("w", Tensor::randn([4, 2], 0.0, 1.0, &mut rng));
        let y = g.matmul(x, w);
        let act = g.tanh(y);
        let loss = g.sum_all(act);
        let grads = gradients(&mut g, loss, &[w]);
        let opt = optimize(&g, &[loss, grads[0]]);
        assert!(opt.graph.len() < g.len(), "optimizer should shrink a grad graph");

        let x_val = Tensor::randn([3, 4], 0.0, 1.0, &mut rng);
        let mut original = Session::new(g, Device::cpu(1));
        let mut rewritten = Session::new(opt.graph.clone(), Device::cpu(1));
        let a = original.run(&[loss, grads[0]], &[(x, x_val.clone())]).unwrap();
        let b = rewritten
            .run(
                &[opt.remap(loss).unwrap(), opt.remap(grads[0]).unwrap()],
                &[(opt.remap(x).unwrap(), x_val)],
            )
            .unwrap();
        assert_eq!(a[0], b[0]);
        assert!(a[1].max_abs_diff(&b[1]) < 1e-6);
    }

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
        assert!(matches!(g.node(t).kind, OpKind::Tanh));

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
        assert!(matches!(g.node(y).kind, OpKind::Neg));
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
        assert!(matches!(g.node(keep_b).kind, OpKind::Neg));
        assert!(matches!(g.node(shifted).kind, OpKind::Add));
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

    #[test]
    fn optimize_with_fusion_compacts_and_remaps() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(32));
        let t = g.tanh(x);
        let s = g.square(t);
        let y = g.neg(s);
        let plain = optimize(&g, &[y]);
        let fused = optimize_with(&g, &[y], OptimizeOptions { fusion: true });
        assert_eq!(fused.stats.fused_groups, 1);
        assert_eq!(fused.stats.fused_ops, 3);
        // The second sweep removes the two interiors.
        assert_eq!(fused.graph.len(), plain.graph.len() - 2);
        let new_y = fused.remap(y).unwrap();
        assert!(matches!(fused.graph.node(new_y).kind, OpKind::Fused(_)));
        // Interiors are dead in the compacted graph.
        assert!(fused.remap(s).is_none());
        assert!(fused.remap(x).is_some());
    }

    #[test]
    fn optimize_with_fusion_off_matches_optimize() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let y = g.tanh(x);
        let plain = optimize(&g, &[y]);
        let opt = optimize_with(&g, &[y], OptimizeOptions::default());
        assert_eq!(opt.stats, plain.stats);
        assert_eq!(opt.graph.len(), plain.graph.len());
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
        use fathom_tensor::kernels::epilogue::{EpilogueArg, OperandKind};
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
        assert_eq!(epilogue.instrs.len(), 2);
        assert_eq!(epilogue.n_operands, 1);
        assert_eq!(
            epilogue.instrs[0].args,
            vec![EpilogueArg::Acc, EpilogueArg::Operand { index: 0, kind: OperandKind::Col }]
        );
        // Inputs are [a, b, operands...]; the GEMM root and the interior
        // Add stay behind as dead nodes.
        let w = unfused.node(mm).inputs[1];
        assert_eq!(g.node(act).inputs, vec![x, w, b]);
        assert!(matches!(g.node(mm).kind, OpKind::MatMul { .. }));
        assert!(matches!(g.node(biased).kind, OpKind::Add));

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
        assert!(matches!(g.node(act).kind, OpKind::Relu));
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

    #[test]
    fn stats_add_up() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let i = g.add(OpKind::Identity, &[x]);
        let s1 = g.square(i);
        let s2 = g.square(i);
        let keep = g.add_op(s1, s2);
        let _dead = g.exp(x);
        let opt = optimize(&g, &[keep]);
        let s = opt.stats;
        assert_eq!(s.original_nodes, 6);
        assert_eq!(s.dead_removed, 1);
        assert_eq!(s.identities_removed, 1);
        assert_eq!(s.subexpressions_merged, 1);
        assert_eq!(s.optimized_nodes, 3); // x, square, add
    }
}

//! Property tests for the moldable-task width rule, plus a pinned
//! fixture for what the planner sees of the convolution ops.
//!
//! The unified runtime relies on three contracts of
//! [`fathom_dataflow::sched::chosen_width`]: a width never exceeds the
//! available workers, it is monotone non-decreasing in the worker count
//! (a bigger machine never shrinks an op), and it is monotone
//! non-increasing in the number of co-runnable peers (more competition
//! never widens an op). The peer count itself comes from
//! [`fathom_dataflow::sched::comparable_peers`], which must keep
//! zero-cost neighbours from narrowing a heavy op: the planner's whole
//! rule, composed the way `Session::plan` composes it, is pinned below.

use fathom_dataflow::cost::estimate;
use fathom_dataflow::grad::gradients;
use fathom_dataflow::sched::{chosen_width, comparable_peers, SPLIT_GRAIN};
use fathom_dataflow::{Graph, OpKind};
use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Pins what the planner sees of the three convolution ops. They all run
/// on one engine now, so there is no lowering to pin; what is left is the
/// work `cost::estimate` reports — each of the three counts the same
/// `2 * out * kh*kw*ic` flops, the formula `tensor.kernels.gflops`
/// divides by, which must stay put for that metric to compare across
/// commits — and the width it molds them to: enough for the whole
/// machine when alone at their depth, an even share among peers.
#[test]
fn conv_ops_plan_at_full_width_under_the_pinned_flop_formulas() {
    // (h, k, ic, oc)
    let geometries = [(32usize, 3usize, 16usize, 16usize), (16, 3, 32, 32), (20, 8, 4, 16), (2, 3, 128, 128)];
    for (h, k, ic, oc) in geometries {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::new(vec![2, h, h, ic]));
        let f = g.variable("f", Tensor::zeros([k, k, ic, oc]));
        let y = g.conv2d(x, f, Conv2dSpec::same(k));
        let loss = g.sum_all(y);
        gradients(&mut g, loss, &[x, f]);
        let macs = (g.shape(y).num_elements() * k * k * ic) as f64;
        let mut seen = 0;
        for (id, node) in g.iter() {
            if !matches!(
                node.kind,
                OpKind::Conv2D(_) | OpKind::Conv2DBackpropInput { .. } | OpKind::Conv2DBackpropFilter { .. }
            ) {
                continue;
            }
            seen += 1;
            let shapes: Vec<&Shape> = node.inputs.iter().map(|&i| g.shape(i)).collect();
            let cost = estimate(g.node(id), &shapes);
            assert_eq!(cost.flops, 2.0 * macs, "{:?} flops drifted for {h}x{h} {k}x{k} c{ic}->{oc}", node.kind);
            let work = cost.work_elements();
            assert_eq!(chosen_width(work, 1, 8, SPLIT_GRAIN), 8, "{:?} alone", node.kind);
            assert_eq!(chosen_width(work, 2, 8, SPLIT_GRAIN), 4, "{:?} with a peer", node.kind);
        }
        assert_eq!(seen, 3, "forward, backprop-input and backprop-filter");
    }
}

/// The planner's rule for one op among the co-runnable ops of its depth.
fn planned_width(level_work: &[usize], own: usize, workers: usize) -> usize {
    let mut sorted = level_work.to_vec();
    sorted.sort_unstable();
    chosen_width(own, comparable_peers(&sorted, own), workers, SPLIT_GRAIN)
}

proptest! {
    /// Whatever shares its depth, a planned width is a usable thread
    /// count and never shrinks when the machine grows.
    #[test]
    fn planned_width_is_within_the_machine_and_monotone(
        level in proptest::collection::vec(0usize..100_000_000, 1..24),
        pick in 0usize..24,
    ) {
        let own = level[pick % level.len()];
        let mut prev = 0usize;
        for workers in 1..=16 {
            let w = planned_width(&level, own, workers);
            prop_assert!((1..=workers).contains(&w), "width {w} at {workers} workers");
            prop_assert!(w >= prev, "width shrank from {prev} to {w} at {workers} workers");
            prev = w;
        }
    }

    /// A heavy op whose same-depth neighbours are all trivial — the
    /// placeholders, constants, variable reads and reshapes of a real
    /// graph — gets the whole machine, however many of them there are.
    #[test]
    fn heavy_op_with_trivial_peers_gets_the_full_machine(
        workers in 1usize..17,
        trivial in proptest::collection::vec(0usize..1_000, 0..64),
        heavy_grains in 16usize..4_096,
    ) {
        let heavy = heavy_grains * SPLIT_GRAIN;
        let mut level = trivial;
        level.push(heavy);
        prop_assert_eq!(planned_width(&level, heavy, workers), workers);
    }

    /// Two equally heavy ops at one depth split the machine between
    /// them, trivial neighbours or not.
    #[test]
    fn two_equal_heavy_peers_split_the_machine(
        workers in 1usize..17,
        trivial in proptest::collection::vec(0usize..1_000, 0..64),
        heavy_grains in 16usize..4_096,
    ) {
        let heavy = heavy_grains * SPLIT_GRAIN;
        let mut level = trivial;
        level.extend([heavy, heavy]);
        prop_assert_eq!(planned_width(&level, heavy, workers), workers.div_ceil(2));
    }

    /// The peer count is at least one (the op itself), at most the
    /// depth's population, and never grows when the op gets heavier.
    #[test]
    fn peer_count_is_bounded_and_antitone_in_own_work(
        level in proptest::collection::vec(0usize..100_000_000, 1..24),
        own in 0usize..100_000_000,
        extra in 0usize..100_000_000,
    ) {
        let mut sorted = level;
        sorted.sort_unstable();
        let peers = comparable_peers(&sorted, own);
        prop_assert!((1..=sorted.len()).contains(&peers));
        prop_assert!(comparable_peers(&sorted, own.saturating_add(extra)) <= peers);
    }

    /// The chosen width is always a usable thread count: at least 1,
    /// and never more than the machine has.
    #[test]
    fn width_is_within_the_machine(
        work in 0usize..1_000_000_000,
        peers in 0usize..64,
        workers in 0usize..256,
        grain in 0usize..100_000,
    ) {
        let w = chosen_width(work, peers, workers, grain);
        prop_assert!(w >= 1);
        prop_assert!(w <= workers.max(1));
    }

    /// Growing the machine never shrinks an op's width.
    #[test]
    fn width_is_monotone_in_workers(
        work in 0usize..1_000_000_000,
        peers in 1usize..64,
        grain in 1usize..100_000,
    ) {
        let mut prev = 0usize;
        for workers in 1..64 {
            let w = chosen_width(work, peers, workers, grain);
            prop_assert!(w >= prev, "width shrank from {prev} to {w} at {workers} workers");
            prev = w;
        }
    }

    /// More co-runnable peers never widens an op (the fair share only
    /// tightens), and an op alone gets at least as much as any
    /// contended op.
    #[test]
    fn width_is_antitone_in_peers(
        work in 0usize..1_000_000_000,
        workers in 1usize..64,
        grain in 1usize..100_000,
    ) {
        let mut prev = usize::MAX;
        for peers in 1..32 {
            let w = chosen_width(work, peers, workers, grain);
            prop_assert!(w <= prev, "width grew from {prev} to {w} at {peers} peers");
            prev = w;
        }
    }

    /// The work cap holds: an op never gets more threads than one per
    /// grain of work.
    #[test]
    fn width_respects_the_work_cap(
        work in 0usize..1_000_000_000,
        peers in 1usize..64,
        workers in 1usize..256,
        grain in 1usize..100_000,
    ) {
        let w = chosen_width(work, peers, workers, grain);
        prop_assert!(w <= (work / grain).max(1));
    }
}

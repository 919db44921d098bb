//! Property tests for the moldable-task width rule, plus a pinned
//! fixture for the convolution-lowering heuristic.
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

use fathom_dataflow::cost::{conv2d_lowering_with, ConvLowering};
use fathom_dataflow::sched::{chosen_width, comparable_peers, SPLIT_GRAIN};
use fathom_dataflow::Precision;
use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::Shape;
use proptest::prelude::*;

/// Pins the scheduler's lowering decision for every geometry the conv
/// ablation (`ablation_conv_lowering`) measures, at both compute widths.
/// The threshold was re-fit against packed-panel byte counts when bf16
/// landed (DESIGN.md §18): a change to `cost::conv2d_lowering_with` that
/// silently flips one of these rows shows up here, next to the measured
/// direct-vs-im2col timings that justify each pin.
#[test]
fn conv_lowering_decisions_are_pinned_for_the_ablation_geometries() {
    // (h, k, ic, oc, decision at f32, decision at bf16)
    let expected = [
        // Small 9 KB weight panel: loses to direct loops in the ablation
        // despite clearing the intensity bar (the PR-4 3/4 miss).
        (32usize, 3usize, 16usize, 16usize, ConvLowering::Direct, ConvLowering::Direct),
        // Marginal 36 KB panel: pays at f32; bf16 halves the GEMM's
        // bandwidth win while the f32 patch copy stays, so it drops out.
        (16, 3, 32, 32, ConvLowering::Im2colGemm, ConvLowering::Direct),
        // Fat 8x8 window: patch duplication is the point — the GEMM
        // amortizes it at either width.
        (20, 8, 4, 16, ConvLowering::Im2colGemm, ConvLowering::Im2colGemm),
        // Deep channels both sides: GEMM-shaped at either width.
        (8, 3, 64, 64, ConvLowering::Im2colGemm, ConvLowering::Im2colGemm),
    ];
    for (h, k, ic, oc, at_f32, at_bf16) in expected {
        let input = Shape::new(vec![2, h, h, ic]);
        let filter = Shape::new(vec![k, k, ic, oc]);
        let spec = Conv2dSpec::same(k);
        assert_eq!(
            conv2d_lowering_with(&input, &filter, spec, Precision::F32),
            at_f32,
            "f32 lowering drifted for {h}x{h} {k}x{k} c{ic}->{oc}"
        );
        assert_eq!(
            conv2d_lowering_with(&input, &filter, spec, Precision::Bf16),
            at_bf16,
            "bf16 lowering drifted for {h}x{h} {k}x{k} c{ic}->{oc}"
        );
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

//! Integration: the inter-op parallel executor is an *optimization*, not
//! a semantic change. For every workload, training under the
//! dependency-counting scheduler — at any worker count, with or without
//! intra-op threads sharing the pool — produces bitwise-identical losses
//! and variable state to the serial plan walk; and once the buffer arena
//! has learned each size's high-water mark, both drivers step without
//! allocating.
//!
//! Stateful ops (variable reads/updates, RNG draws) are serialized by the
//! scheduler through plan-time ordering edges, which is what makes this
//! exact equality (not tolerance-based closeness) possible.

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::Device;
use fathom_suite::fathom_tensor::Tensor;

/// `steps` seeded training steps on `device`: (loss bits per step,
/// every variable afterwards).
fn train(kind: ModelKind, device: Device, steps: usize) -> (Vec<Option<u32>>, Vec<Tensor>) {
    let cfg = BuildConfig::training().with_seed(42).with_device(device);
    let mut model = kind.build(&cfg);
    let losses = (0..steps).map(|_| model.step().loss.map(f32::to_bits)).collect();
    let session = model.session();
    let variables = session
        .graph()
        .variables()
        .into_iter()
        .map(|id| session.variable_value(id).expect("variable is live").clone())
        .collect();
    (losses, variables)
}

/// Trains `kind` serially and at each `(intra, inter)` worker split,
/// asserting every parallel run lands on the serial run's bits.
fn assert_matches_serial(kind: ModelKind, steps: usize, splits: &[(usize, usize)]) {
    let (serial_losses, serial_vars) = train(kind, Device::cpu(1), steps);
    for &(intra, inter) in splits {
        let (losses, vars) = train(kind, Device::cpu_inter_op(intra, inter), steps);
        let at = format!("{kind} at {intra} intra x {inter} inter-op workers");
        assert_eq!(losses, serial_losses, "{at}: losses diverged");
        assert_eq!(vars.len(), serial_vars.len(), "{at}: variable count changed");
        for (i, (p, s)) in vars.iter().zip(&serial_vars).enumerate() {
            // Tensor equality is exact (element-wise f32 ==), and no
            // step produces NaN state, so this is a bitwise check.
            assert_eq!(p, s, "{at}: variable #{i} diverged");
        }
    }
}

#[test]
fn parallel_steps_are_bitwise_identical_to_serial() {
    for kind in ModelKind::ALL {
        assert_matches_serial(kind, 1, &[(1, 1), (1, 2), (1, 8)]);
    }
}

#[test]
fn intra_and_inter_op_parallelism_compose_deterministically() {
    // Both axes on one pool (kernel chunks and whole ops competing for
    // the same workers), over two steps so the second runs on a warm
    // arena, on the two small-op nets whose thousands of short launches
    // stress the runtime hardest.
    for kind in [ModelKind::Autoenc, ModelKind::Memnet] {
        assert_matches_serial(kind, 2, &[(1, 1), (2, 2), (8, 8)]);
    }
}

#[test]
fn serial_steps_after_the_second_allocate_nothing() {
    // The serial walk takes and gives the same buffers in the same order
    // every step, so the arena has learned every size's high-water mark
    // by the end of step 2 and steps 3-8 miss exactly zero times. Step 2
    // still allocates: it is the first step that journals the optimizer
    // slots step 1 created. deepq is not here: its data-dependent steps
    // still allocate a few buffers at step 5.
    for kind in [ModelKind::Autoenc, ModelKind::Memnet] {
        for fused in [false, true] {
            let cfg = BuildConfig::training().with_fusion(fused);
            let mut model = kind.build(&cfg);
            model.step();
            model.step();
            let warm = model.session().runtime_counters().allocations;
            for _ in 3..=8 {
                model.step();
            }
            let counters = model.session().runtime_counters();
            let at = format!("{kind} (fused: {fused})");
            assert_eq!(counters.allocations - warm, 0, "{at}: steps 3-8 allocated");
            assert!(counters.arena_bytes > 0, "{at}: the arena learned no footprint");
        }
    }
}

#[test]
fn pooled_steps_reach_an_allocation_free_steady_state_and_follow_chains() {
    // The pool driver's interleaving changes from step to step and the
    // arena learns each new concurrency record one buffer at a time, so
    // the warm-up length is not fixed: the steady state must *exist* —
    // `QUIET` consecutive steps that allocate nothing, within `BUDGET`
    // steps.
    const BUDGET: usize = 40;
    const QUIET: u32 = 4;
    for kind in [ModelKind::Autoenc, ModelKind::Memnet] {
        let cfg = BuildConfig::training().with_device(Device::cpu_inter_op(2, 2));
        let mut model = kind.build(&cfg);
        let (mut quiet, mut spent, mut last) = (0u32, 0usize, 0u64);
        while spent < BUDGET && quiet < QUIET {
            model.step();
            spent += 1;
            let now = model.session().runtime_counters().allocations;
            quiet = if now == last { quiet + 1 } else { 0 };
            last = now;
        }
        let counters = model.session().runtime_counters();
        assert!(
            quiet >= QUIET,
            "{kind}: no {QUIET} allocation-free steps in a row within {spent} ({} allocations)",
            counters.allocations
        );
        assert!(counters.arena_bytes > 0, "{kind}: the arena learned no footprint");
        // Every workload has producer -> consumer chains, so a zero count
        // means the pool driver's chain-following path is dead.
        assert!(counters.inline_ops > 0, "{kind}: no op ran by chain-following");
    }
}

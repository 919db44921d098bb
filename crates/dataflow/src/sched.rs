//! The plan-time width rule for moldable ops.
//!
//! On a device that co-schedules ops, the planner decides per op how
//! many intra-op threads its kernels may use: [`comparable_peers`] counts
//! the same-depth ops heavy enough to matter, and [`chosen_width`] caps
//! the op by its own work and by its fair share of the machine among
//! those peers. [`SPLIT_GRAIN`] is the work one worker must bring for a
//! split to pay, derived from the runtime's measured dispatch cost.

/// One `Runtime::for_chunks` round trip with a spinning peer, in
/// nanoseconds: publish, claim, retire. Measured on the 2-core reference
/// host (0.6 to 0.7 µs); a parked peer costs a futex wake on top, which
/// the spin budget makes rare inside a step.
const DISPATCH_NANOS: usize = 700;

/// Work elements one core retires per nanosecond on the bandwidth-bound
/// elementwise and reduction ops that make up most launches: about one
/// element a nanosecond at three f32 moved per element. GEMMs retire an
/// order of magnitude more, but their kernels cap their own width by
/// tile count, so the slow end is the one this threshold must get right.
const WORK_PER_NANO: usize = 3;

/// A split has to buy every worker this many dispatches' worth of work,
/// or the barrier at its end eats the gain.
const DISPATCHES_AMORTIZED: usize = 8;

/// Work (in [`crate::cost::OpCost::work_elements`]) each worker of a
/// split op must bring for the split to pay: the `grain` the planner
/// hands to [`chosen_width`].
pub const SPLIT_GRAIN: usize = DISPATCH_NANOS * WORK_PER_NANO * DISPATCHES_AMORTIZED;

/// How much lighter than an op a same-depth neighbour may be and still
/// count as its peer. A neighbour with less than `1 / PEER_FACTOR` of the
/// op's work finishes before it matters: the worker it occupied comes
/// back while the op is still running, and claims its chunks then.
pub const PEER_FACTOR: usize = 4;

/// How many of the co-runnable ops whose work is listed (ascending) in
/// `level_work` are peers of an op with `own` work: those at least
/// `own / PEER_FACTOR` heavy, the op itself included (so the answer is
/// at least one when `own` is in the list). Zero-cost neighbours —
/// placeholders, constants, variable reads, reshapes — are peers of one
/// another but never of a GEMM or a convolution.
pub fn comparable_peers(level_work: &[usize], own: usize) -> usize {
    let floor = own.div_ceil(PEER_FACTOR);
    let lighter = level_work.partition_point(|&w| w < floor);
    (level_work.len() - lighter).max(1)
}

/// Moldable-task width decision: how many intra-op threads one op should
/// use when `peers` ops are runnable at the same time on a machine with
/// `workers` threads, given the op's estimated `work` (in elements, see
/// [`crate::cost::OpCost::work_elements`]) and the pool's dispatch
/// `grain`.
///
/// The rule composes two caps:
///
/// * **work cap** — an op never gets more threads than its work can feed
///   (one per `grain` elements, matching the pool's own sizing policy),
/// * **fair share** — when `peers` independent ops are runnable, each is
///   molded down to `ceil(workers / peers)` so they co-schedule instead
///   of queueing behind one wide op.
///
/// The result is always in `1..=workers` and is monotone non-decreasing
/// in `workers` (more machine never shrinks an op's width) — properties
/// pinned by the `sched_properties` proptests.
pub fn chosen_width(work: usize, peers: usize, workers: usize, grain: usize) -> usize {
    let workers = workers.max(1);
    let by_work = (work / grain.max(1)).max(1);
    let share = workers.div_ceil(peers.max(1));
    by_work.min(share).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the moldable-width decisions for the five `BENCH_gemm`
    /// geometries: every bench GEMM is big enough to saturate the work
    /// cap, so its width is exactly the fair share of the machine.
    #[test]
    fn width_decisions_for_the_bench_gemm_geometries() {
        use crate::cost::OpCost;
        // (m, k, n) for the five BENCH_gemm geometries; the transpose
        // variants share the first geometry's work.
        const GEOMETRIES: [(usize, usize, usize); 5] = [
            (512, 512, 512),
            (512, 512, 512),
            (512, 512, 512),
            (64, 1024, 1024),
            (32, 512, 512),
        ];
        for &(m, k, n) in &GEOMETRIES {
            let cost = OpCost {
                flops: (2 * m * k * n) as f64,
                bytes: (4 * (m * k + k * n + m * n)) as f64,
            };
            let work = cost.work_elements();
            assert_eq!(chosen_width(work, 1, 8, SPLIT_GRAIN), 8, "{m}x{k}x{n} alone runs wide");
            assert_eq!(chosen_width(work, 2, 8, SPLIT_GRAIN), 4);
            assert_eq!(chosen_width(work, 4, 8, SPLIT_GRAIN), 2);
            assert_eq!(chosen_width(work, 8, 8, SPLIT_GRAIN), 1);
        }
        // A tiny op is molded to one thread even with the machine to
        // itself: its work cannot feed a second worker.
        assert_eq!(chosen_width(64, 1, 8, SPLIT_GRAIN), 1);
    }
}

//! Unified-runtime ablation: every workload on the single work-stealing
//! pool (the pool step driver, every op at the device's full intra-op
//! width, as `Device::cpu_inter_op` gives it) against a **serial leg**, the same
//! workload on one thread with no runtime at all (`Device::cpu(1)`), so
//! the report says whether the pool beats not having one. The serial leg
//! is the Figure 6 baseline every thread count is scaled against.
//!
//! The pool leg first steps until the arena reaches its allocation-free
//! steady state (a quiet window of consecutive allocation-free steps;
//! the warm-up length is interleaving-dependent, so the probe is
//! existential rather than fixed-length), then times `effort.steps`
//! steps. Both legs go through `rounds`; the document
//! (`BENCH_runtime.json`) carries each leg's median over the rounds and
//! their inter-quartile distance.

use std::fmt::Write as _;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::{Device, Json};
use fathom_tensor::Runtime;

use crate::measure::{emit, envelope, rounds, timed_ms, Spread, WithSpread};
use crate::{write_artifact, Effort};

/// Consecutive allocation-free steps required before timing starts.
pub const QUIET_STEPS: u32 = 4;

/// One round of one workload's pool leg.
#[derive(Debug, Clone, Copy)]
pub struct PoolPoint {
    /// Median training-step wall time, milliseconds.
    pub millis: f64,
    /// Whether the arena reached (and the timed window stayed in) the
    /// zero-allocation steady state.
    pub steady_zero_alloc: bool,
    /// The arena's learned footprint after the run.
    pub arena_bytes: u64,
    /// Deque steals observed by the work-stealing pool.
    pub steal_count: u64,
    /// Ops run at the device's full intra-op width: every op the pool
    /// leg ran.
    pub wide_ops: u64,
    /// Ops run narrower than the full width: always 0.
    pub coscheduled_ops: u64,
}

/// The serial and pool legs of one workload over the rounds.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSweep {
    /// Workload name.
    pub workload: &'static str,
    /// Training-step wall time on one thread with no runtime
    /// (`Device::cpu(1)`), milliseconds.
    pub serial_millis: Spread,
    /// The same workload's step time on the unified runtime.
    pub pool_millis: Spread,
    /// The last round's pool leg; its `steady_zero_alloc` is true when
    /// any round reached the steady state.
    pub pool: PoolPoint,
}

impl RuntimeSweep {
    /// Serial-over-pool step-time ratio (>1 means the pool beats one
    /// thread).
    pub fn speedup_vs_serial(&self) -> f64 {
        self.serial_millis.median / self.pool_millis.median
    }
}

/// Worker count for the ablation: the unified runtime's own sizing
/// (honoring `FATHOM_WORKERS`), clamped to [2, 8] so the pool leg always
/// exercises co-scheduling.
pub fn ablation_workers() -> usize {
    Runtime::workers().clamp(2, 8)
}

/// Measures one workload's pool leg at `workers` inter-op workers.
pub fn measure_pool(kind: ModelKind, workers: usize, effort: &Effort) -> PoolPoint {
    let cfg = BuildConfig::training().with_device(Device::cpu_inter_op(workers, workers));
    let mut workload = kind.build(&cfg);
    for _ in 0..effort.warmup {
        workload.step();
    }
    // Step until the arena stops allocating: QUIET_STEPS consecutive
    // allocation-free steps within a bounded budget. Concurrency records
    // arrive stochastically under work stealing, so a fixed warm-up
    // cannot guarantee convergence — the quiet window can.
    let max_probe = 8 + 8 * effort.steps.max(1);
    let quiet_window = |workload: &mut Box<dyn fathom::Workload>| {
        let mut quiet = 0u32;
        let mut spent = 0usize;
        let mut last = workload.session().runtime_counters().allocations;
        while spent < max_probe && quiet < QUIET_STEPS {
            workload.step();
            spent += 1;
            let now = workload.session().runtime_counters().allocations;
            quiet = if now == last { quiet + 1 } else { 0 };
            last = now;
        }
        quiet >= QUIET_STEPS
    };
    let converged = quiet_window(&mut workload);
    let allocs_before = workload.session().runtime_counters().allocations;
    let millis = timed_ms(0, effort.steps, || {
        workload.step();
    });
    let counters = workload.session().runtime_counters();
    // A concurrency record landing inside the timed window does not
    // falsify steady state — the arena learns it once and goes quiet
    // again. Re-probe instead of failing the flag (existential, like
    // the steady-state test in tests/scheduler.rs).
    let steady = converged
        && (counters.allocations == allocs_before || quiet_window(&mut workload));
    PoolPoint {
        millis,
        steady_zero_alloc: steady,
        arena_bytes: counters.arena_bytes,
        steal_count: counters.steal_count,
        wide_ops: counters.wide_ops,
        coscheduled_ops: counters.coscheduled_ops,
    }
}

/// Median training-step time of `kind` on one thread with no runtime,
/// milliseconds: the serial plan walk every speed-up is scaled against.
pub fn measure_serial(kind: ModelKind, effort: &Effort) -> f64 {
    let cfg = BuildConfig::training().with_device(Device::cpu(1));
    let mut workload = kind.build(&cfg);
    // The pool leg reaches its arena steady state before timing; give
    // the serial walk's arena the same chance.
    timed_ms(effort.warmup + QUIET_STEPS as usize, effort.steps, || {
        workload.step();
    })
}

/// Sweeps one workload over both legs in interleaved rounds. The
/// steady-state flag is existential across rounds, like the
/// steady-state test in tests/scheduler.rs.
pub fn sweep(kind: ModelKind, workers: usize, effort: &Effort) -> RuntimeSweep {
    let mut steady = false;
    let ([serial_millis, pool_millis], last) = rounds(effort, || {
        let serial = measure_serial(kind, effort);
        let pool = measure_pool(kind, workers, effort);
        steady |= pool.steady_zero_alloc;
        ([serial, pool.millis], pool)
    });
    let pool = PoolPoint { steady_zero_alloc: steady, ..last };
    RuntimeSweep { workload: kind.name(), serial_millis, pool_millis, pool }
}

/// The ablation as the `BENCH_runtime.json` document.
pub fn document(sweeps: &[RuntimeSweep], workers: usize, effort: &Effort) -> Json {
    let rows = sweeps.iter().map(|s| {
        let p = &s.pool;
        let pool = Json::obj()
            .with_spread("millis", s.pool_millis, 4)
            .with("steady_zero_alloc", p.steady_zero_alloc)
            .with("arena_bytes", p.arena_bytes)
            .with("steal_count", p.steal_count)
            .with("wide_ops", p.wide_ops)
            .with("coscheduled_ops", p.coscheduled_ops);
        Json::obj()
            .with("name", s.workload)
            .with_spread("serial_millis", s.serial_millis, 4)
            .with("pool", pool)
            .with("speedup_vs_serial", Json::fixed(s.speedup_vs_serial(), 3))
    });
    envelope("ablation_runtime", workers, effort)
        .with("workloads", Json::arr(rows))
        .with("beats_serial", sweeps.iter().filter(|s| s.speedup_vs_serial() > 1.0).count())
        .with("zero_alloc_workloads", sweeps.iter().filter(|s| s.pool.steady_zero_alloc).count())
        .with("total_workloads", sweeps.len())
}

/// Runs the runtime ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let workers = ablation_workers();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: unified runtime, one thread vs the pool ({workers} workers)\n\
         median step ms after the arena reaches its zero-allocation steady state,\n\
         over {} interleaved round(s)\n",
        effort.repeats
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>7} {:>8} {:>8} {:>8}",
        "workload", "serial", "pool", "vs serial", "0alloc", "steals", "wide", "cosched"
    );
    let sweeps: Vec<RuntimeSweep> =
        ModelKind::ALL.iter().map(|&k| sweep(k, workers, effort)).collect();
    for s in &sweeps {
        let _ = writeln!(
            out,
            "{:<12} {:>10.2} {:>10.2} {:>9.2}x {:>7} {:>8} {:>8} {:>8}",
            s.workload,
            s.serial_millis.median,
            s.pool_millis.median,
            s.speedup_vs_serial(),
            s.pool.steady_zero_alloc,
            s.pool.steal_count,
            s.pool.wide_ops,
            s.pool.coscheduled_ops
        );
    }
    let zero = sweeps.iter().filter(|s| s.pool.steady_zero_alloc).count();
    let beats_serial = sweeps.iter().filter(|s| s.speedup_vs_serial() > 1.0).count();
    let _ = writeln!(
        out,
        "\n{workers} workers beat one thread on {beats_serial}/{n}; \
         zero steady-state allocations on {zero}/{n}",
        n = sweeps.len()
    );

    emit("BENCH_runtime.json", &document(&sweeps, workers, effort));
    write_artifact("ablation_runtime.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_one_leg() {
        let p = measure_pool(ModelKind::Memnet, 2, &Effort::quick());
        assert!(p.millis > 0.0);
        assert!(p.arena_bytes > 0, "the arena learned a footprint");
    }

    #[test]
    fn sweep_compares_both_legs() {
        let s = sweep(ModelKind::Autoenc, 2, &Effort::quick());
        assert_eq!(s.workload, "autoenc");
        assert!(s.serial_millis.median > 0.0 && s.pool_millis.median > 0.0);
        assert!(s.speedup_vs_serial() > 0.0);
    }

    #[test]
    fn ablation_workers_stays_in_band() {
        let w = ablation_workers();
        assert!((2..=8).contains(&w));
    }
}

//! Unified-runtime ablation: every workload on the single work-stealing
//! pool (the pool step driver at the planner's molded widths, as
//! `Device::cpu_inter_op` gives it) against a **serial leg**, the same
//! workload on one thread with no runtime at all (`Device::cpu(1)`), so
//! the report says whether the pool beats not having one. The serial leg
//! is the Figure 6 baseline every thread count is scaled against.
//!
//! The pool leg first steps until the arena reaches its allocation-free
//! steady state (a quiet window of consecutive allocation-free steps;
//! the warm-up length is interleaving-dependent, so the probe is
//! existential rather than fixed-length), then times `effort.steps`
//! steps and reports the median. Emits `BENCH_runtime.json` into
//! `target/fathom-results/` and the repository root.

use std::fmt::Write as _;
use std::time::Instant;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::Device;
use fathom_tensor::Runtime;

use crate::{write_artifact, Effort};

/// Consecutive allocation-free steps required before timing starts.
pub const QUIET_STEPS: u32 = 4;

/// The pool leg of one workload.
#[derive(Debug, Clone, Copy)]
pub struct PoolPoint {
    /// Median training-step wall time, milliseconds.
    pub millis: f64,
    /// Whether the arena reached (and the timed window stayed in) the
    /// zero-allocation steady state.
    pub steady_zero_alloc: bool,
    /// Bytes held by the arena plan after the run.
    pub arena_bytes: u64,
    /// Deque steals observed by the work-stealing pool.
    pub steal_count: u64,
    /// Ops planned at the device's full intra-op width.
    pub wide_ops: u64,
    /// Ops molded narrower so independent peers co-schedule.
    pub coscheduled_ops: u64,
}

/// The serial and pool legs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSweep {
    /// Workload name.
    pub workload: &'static str,
    /// Median training-step wall time on one thread with no runtime
    /// (`Device::cpu(1)`), milliseconds.
    pub serial_millis: f64,
    /// The same workload on the unified runtime.
    pub pool: PoolPoint,
}

impl RuntimeSweep {
    /// Serial-over-pool step-time ratio (>1 means the pool beats one
    /// thread).
    pub fn speedup_vs_serial(&self) -> f64 {
        self.serial_millis / self.pool.millis
    }
}

/// Worker count for the ablation: the unified runtime's own sizing
/// (honoring `FATHOM_WORKERS`), clamped to [2, 8] so the pool leg always
/// exercises co-scheduling.
pub fn ablation_workers() -> usize {
    Runtime::workers().clamp(2, 8)
}

/// Median of a sample set (mean of the middle two for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite step times"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
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
    let mut samples = timed_steps(workload.as_mut(), effort);
    let counters = workload.session().runtime_counters();
    // A concurrency record landing inside the timed window does not
    // falsify steady state — the arena learns it once and goes quiet
    // again. Re-probe instead of failing the flag (existential gate,
    // matching `fathom runtime-check`).
    let steady = converged
        && (counters.allocations == allocs_before || quiet_window(&mut workload));
    PoolPoint {
        millis: median(&mut samples),
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
    for _ in 0..effort.warmup + QUIET_STEPS as usize {
        workload.step();
    }
    median(&mut timed_steps(workload.as_mut(), effort))
}

/// Wall time of each of `effort.steps` training steps, milliseconds.
fn timed_steps(workload: &mut dyn fathom::Workload, effort: &Effort) -> Vec<f64> {
    (0..effort.steps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            workload.step();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Sweeps one workload over both legs: `effort.repeats` interleaved
/// rounds per leg, keeping each leg's best median (the `ablation_fusion`
/// idiom — host throttle windows hit every leg instead of biasing
/// whichever ran last). The steady-state flag is existential across
/// rounds, like the `runtime-check` gate.
pub fn sweep(kind: ModelKind, workers: usize, effort: &Effort) -> RuntimeSweep {
    let mut serial_millis = f64::INFINITY;
    let mut pool: Option<PoolPoint> = None;
    for _ in 0..effort.repeats.max(1) {
        serial_millis = serial_millis.min(measure_serial(kind, effort));
        let next = measure_pool(kind, workers, effort);
        pool = Some(match pool {
            None => next,
            Some(prev) => {
                let mut keep = if next.millis < prev.millis { next } else { prev };
                keep.steady_zero_alloc = prev.steady_zero_alloc || next.steady_zero_alloc;
                keep
            }
        });
    }
    RuntimeSweep { workload: kind.name(), serial_millis, pool: pool.expect("at least one round") }
}

/// Renders the ablation as `BENCH_runtime.json` (written by hand; the
/// suite carries no JSON dependency).
pub fn to_json(sweeps: &[RuntimeSweep], workers: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"ablation_runtime\",\n");
    let _ = writeln!(out, "  \"workers\": {workers},");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let p = &s.pool;
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"serial_millis\": {:.4}, \"pool\": {{\"millis\": {:.4}, \
             \"steady_zero_alloc\": {}, \"arena_bytes\": {}, \"steal_count\": {}, \
             \"wide_ops\": {}, \"coscheduled_ops\": {}}}, \"speedup_vs_serial\": {:.3}}}",
            s.workload,
            s.serial_millis,
            p.millis,
            p.steady_zero_alloc,
            p.arena_bytes,
            p.steal_count,
            p.wide_ops,
            p.coscheduled_ops,
            s.speedup_vs_serial()
        );
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let zero = sweeps.iter().filter(|s| s.pool.steady_zero_alloc).count();
    let beats_serial = sweeps.iter().filter(|s| s.speedup_vs_serial() > 1.0).count();
    let _ = writeln!(out, "  \"beats_serial\": {beats_serial},");
    let _ = writeln!(out, "  \"zero_alloc_workloads\": {zero},");
    let _ = writeln!(out, "  \"total_workloads\": {}", sweeps.len());
    out.push_str("}\n");
    out
}

/// Runs the runtime ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let workers = ablation_workers();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: unified runtime, one thread vs the pool ({workers} workers)\n\
         median step ms after the arena reaches its zero-allocation steady state\n"
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
            s.serial_millis,
            s.pool.millis,
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

    let json = to_json(&sweeps, workers);
    write_artifact("BENCH_runtime.json", &json);
    // Also drop it at the repository root, where the PR driver tracks it.
    let repo_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join("BENCH_runtime.json"), &json)
        .expect("can write BENCH_runtime.json at the repo root");
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
        assert!(p.arena_bytes > 0, "a planned session holds arena bytes");
    }

    #[test]
    fn sweep_compares_both_legs() {
        let s = sweep(ModelKind::Autoenc, 2, &Effort::quick());
        assert_eq!(s.workload, "autoenc");
        assert!(s.serial_millis > 0.0 && s.pool.millis > 0.0);
        assert!(s.speedup_vs_serial() > 0.0);
    }

    #[test]
    fn json_shape() {
        let sweeps = vec![RuntimeSweep {
            workload: "memnet",
            serial_millis: 7.5,
            pool: PoolPoint {
                millis: 5.0,
                steady_zero_alloc: true,
                arena_bytes: 1024,
                steal_count: 7,
                wide_ops: 3,
                coscheduled_ops: 9,
            },
        }];
        let json = to_json(&sweeps, 4);
        assert!(json.contains("\"experiment\": \"ablation_runtime\""));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"name\": \"memnet\""));
        assert!(json.contains("\"serial_millis\": 7.5000"));
        assert!(json.contains("\"pool\": {\"millis\": 5.0000"));
        assert!(json.contains("\"coscheduled_ops\": 9"));
        assert!(json.contains("\"speedup_vs_serial\": 1.500"));
        assert!(json.contains("\"beats_serial\": 1"));
        assert!(json.contains("\"zero_alloc_workloads\": 1"));
        for gone in ["\"static\"", "\"speedup\"", "\"moldable_wins\"", "\"serve\""] {
            assert!(!json.contains(gone), "{gone} belongs to the removed width A/B");
        }
    }

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn ablation_workers_stays_in_band() {
        let w = ablation_workers();
        assert!((2..=8).contains(&w));
    }
}

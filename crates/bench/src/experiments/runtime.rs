//! Unified-runtime ablation: the legacy statically-partitioned width
//! assignment ([`WidthPolicy::Static`], every op at full intra-op width)
//! versus the cost-driven moldable planner ([`WidthPolicy::Moldable`])
//! on the single work-stealing pool, across all eight workloads — and
//! both against a **serial leg**, the same workload on one thread with
//! no runtime at all (`Device::cpu(1)`), so the report says whether the
//! pool beats not having one.
//!
//! The two policy legs run on the same unified runtime and the same
//! arena memory plan, so their A/B isolates exactly the plan-time width
//! decision — the piece the old split-pool executor could not make; the
//! serial leg is the Figure 6 baseline every thread count is scaled
//! against. Each policy leg first
//! steps until the arena reaches its allocation-free steady state (a
//! quiet window of consecutive allocation-free steps; the warm-up
//! length is interleaving-dependent, so the probe is existential rather
//! than fixed-length), then times `effort.steps` steps and reports the
//! median. A serving leg replays the PR 7 mixed-SLO cluster scenario
//! (sharded fleet on one shared runtime, 50/30/20 SLO mix, open-loop
//! load) under both policies and compares the interactive-class tail.
//! Emits `BENCH_runtime.json` into `target/fathom-results/` and the
//! repository root.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::{Device, WidthPolicy};
use fathom_serve::{
    serve_cluster, synth_inputs, BatchPolicy, ClusterConfig, ClusterRunner, ModelSpec,
    SessionWorker, SloClass,
};
use fathom_tensor::Runtime;

use crate::{write_artifact, Effort};

/// Consecutive allocation-free steps required before timing starts.
pub const QUIET_STEPS: u32 = 4;

/// Workload used for the serving A/B leg.
pub const SERVE_WORKLOAD: ModelKind = ModelKind::Alexnet;

/// Coalescing limit in the serving leg.
pub const SERVE_MAX_BATCH: usize = 4;

/// Shard groups in the serving leg.
pub const SERVE_SHARDS: usize = 2;

/// Offered open-loop load in the serving leg, requests/second.
pub const SERVE_RPS: f64 = 400.0;

/// Serve-leg p99 slack: the moldable tail may sit within this factor of
/// the static tail and still count as "no worse" (wall-clock service
/// times carry measurement noise even under virtual-time accounting).
pub const SERVE_P99_SLACK: f64 = 1.05;

/// One policy leg of one workload.
#[derive(Debug, Clone, Copy)]
pub struct PolicyPoint {
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

/// The serial, Static and Moldable legs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSweep {
    /// Workload name.
    pub workload: &'static str,
    /// Median training-step wall time on one thread with no runtime
    /// (`Device::cpu(1)`), milliseconds.
    pub serial_millis: f64,
    /// Full-width leg (the split-pool baseline behavior).
    pub fixed: PolicyPoint,
    /// Cost-driven leg (the unified runtime's default).
    pub moldable: PolicyPoint,
}

impl RuntimeSweep {
    /// Static-over-moldable step-time ratio (>1 means moldable wins).
    pub fn speedup(&self) -> f64 {
        ratio(self.fixed.millis, self.moldable.millis)
    }

    /// Serial-over-moldable step-time ratio (>1 means the pool at its
    /// default policy beats one thread).
    pub fn speedup_vs_serial(&self) -> f64 {
        ratio(self.serial_millis, self.moldable.millis)
    }
}

/// `base / new`, or 0 when `new` was not measured.
fn ratio(base: f64, new: f64) -> f64 {
    if new > 0.0 {
        base / new
    } else {
        0.0
    }
}

/// The serving A/B leg: the PR 7 mixed-SLO cluster scenario
/// ([`SERVE_WORKLOAD`] behind [`SERVE_SHARDS`] shard groups, 50/30/20
/// SLO mix, open loop at [`SERVE_RPS`]) under each width policy, with
/// the whole fleet sharing one runtime.
#[derive(Debug, Clone, Copy)]
pub struct ServeLeg {
    /// Interactive-class p99 request latency under each policy,
    /// milliseconds.
    pub fixed_p99_ms: f64,
    /// See [`ServeLeg::fixed_p99_ms`].
    pub moldable_p99_ms: f64,
    /// Completed requests per second under each policy.
    pub fixed_rps: f64,
    /// See [`ServeLeg::fixed_rps`].
    pub moldable_rps: f64,
}

impl ServeLeg {
    /// Whether the moldable tail is within [`SERVE_P99_SLACK`] of the
    /// static tail.
    pub fn p99_no_worse(&self) -> bool {
        self.moldable_p99_ms <= self.fixed_p99_ms * SERVE_P99_SLACK
    }
}

/// Worker count for the ablation: the unified runtime's own sizing
/// (honoring `FATHOM_WORKERS`), clamped to [2, 8] so the A/B always
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

/// Measures one (workload, policy) leg at `workers` inter-op workers.
pub fn measure_policy(
    kind: ModelKind,
    policy: WidthPolicy,
    workers: usize,
    effort: &Effort,
) -> PolicyPoint {
    let cfg = BuildConfig::training().with_device(Device::cpu_inter_op(workers, workers));
    let mut workload = kind.build(&cfg);
    workload.session_mut().set_width_policy(policy);
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
    PolicyPoint {
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
    // The policy legs reach their arena steady state before timing; give
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

/// Sweeps one workload over the serial leg and both policies:
/// `effort.repeats` interleaved rounds per leg, keeping each leg's best
/// median (the `ablation_fusion` idiom — host throttle windows hit every
/// leg instead of biasing whichever ran last). The steady-state flag is
/// existential across rounds, like the `runtime-check` gate.
pub fn sweep(kind: ModelKind, workers: usize, effort: &Effort) -> RuntimeSweep {
    let best = |acc: Option<PolicyPoint>, next: PolicyPoint| match acc {
        None => next,
        Some(prev) => {
            let mut keep = if next.millis < prev.millis { next } else { prev };
            keep.steady_zero_alloc = prev.steady_zero_alloc || next.steady_zero_alloc;
            keep
        }
    };
    let mut serial_millis = f64::INFINITY;
    let mut fixed: Option<PolicyPoint> = None;
    let mut moldable: Option<PolicyPoint> = None;
    for _ in 0..effort.repeats.max(1) {
        serial_millis = serial_millis.min(measure_serial(kind, effort));
        fixed = Some(best(fixed, measure_policy(kind, WidthPolicy::Static, workers, effort)));
        moldable =
            Some(best(moldable, measure_policy(kind, WidthPolicy::Moldable, workers, effort)));
    }
    RuntimeSweep {
        workload: kind.name(),
        serial_millis,
        fixed: fixed.expect("at least one round"),
        moldable: moldable.expect("at least one round"),
    }
}

/// One mixed-SLO cluster run of [`SERVE_WORKLOAD`] under `policy`,
/// returning (interactive p99 ms, throughput req/s). All replicas share
/// one runtime, matching the cluster CLI's fleet threading.
fn serve_policy(policy: WidthPolicy, workers: usize, effort: &Effort) -> (f64, f64) {
    let rt = Arc::new(Runtime::new(workers));
    let cfg = BuildConfig::inference()
        .with_batch(SERVE_MAX_BATCH)
        .with_device(Device::cpu_on_runtime(&rt, workers, workers));
    let mut shards: Vec<Vec<SessionWorker>> = (0..SERVE_SHARDS)
        .map(|_| {
            vec![SessionWorker::new(SERVE_WORKLOAD, &cfg).expect("every workload is servable")]
        })
        .collect();
    for shard in &mut shards {
        for worker in shard {
            worker.workload_mut().session_mut().set_width_policy(policy);
        }
    }
    let shapes = shards[0][0].item_shapes();
    let domains = shards[0][0].domains();
    let mut specs = vec![ModelSpec {
        name: SERVE_WORKLOAD.name().to_string(),
        shards: shards
            .iter_mut()
            .map(|s| s.iter_mut().map(|w| w as &mut dyn ClusterRunner).collect())
            .collect(),
        rps: SERVE_RPS,
        synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
    }];
    let cluster_cfg = ClusterConfig {
        batching: BatchPolicy::Continuous,
        duration_nanos: (effort.steps.max(1) as u64) * 100_000_000,
        seed: 0xFA7404,
        ..ClusterConfig::new(SERVE_MAX_BATCH)
    };
    let report = serve_cluster(&mut specs, &cluster_cfg).expect("a well-formed cluster serves");
    let p99 = report.per_class[SloClass::Interactive.idx()].latency.quantile(0.99) / 1e6;
    (p99, report.throughput_rps())
}

/// Runs the serving A/B leg: `effort.repeats` interleaved rounds per
/// policy, keeping each policy's best (lowest-p99) round — arrivals are
/// deterministic virtual time, so round-to-round spread is wall-clock
/// service noise, which interleaving cancels.
pub fn serve_leg(workers: usize, effort: &Effort) -> ServeLeg {
    let best = |acc: Option<(f64, f64)>, next: (f64, f64)| match acc {
        Some(prev) if prev.0 <= next.0 => prev,
        _ => next,
    };
    let mut fixed: Option<(f64, f64)> = None;
    let mut moldable: Option<(f64, f64)> = None;
    for _ in 0..effort.repeats.max(1) {
        fixed = Some(best(fixed, serve_policy(WidthPolicy::Static, workers, effort)));
        moldable = Some(best(moldable, serve_policy(WidthPolicy::Moldable, workers, effort)));
    }
    let (fixed_p99_ms, fixed_rps) = fixed.expect("at least one round");
    let (moldable_p99_ms, moldable_rps) = moldable.expect("at least one round");
    ServeLeg { fixed_p99_ms, moldable_p99_ms, fixed_rps, moldable_rps }
}

/// Renders the ablation as `BENCH_runtime.json` (written by hand; the
/// suite carries no JSON dependency).
pub fn to_json(sweeps: &[RuntimeSweep], serve: Option<&ServeLeg>, workers: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"ablation_runtime\",\n");
    let _ = writeln!(out, "  \"workers\": {workers},");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let leg = |p: &PolicyPoint| {
            format!(
                "{{\"millis\": {:.4}, \"steady_zero_alloc\": {}, \"arena_bytes\": {}, \
                 \"steal_count\": {}, \"wide_ops\": {}, \"coscheduled_ops\": {}}}",
                p.millis,
                p.steady_zero_alloc,
                p.arena_bytes,
                p.steal_count,
                p.wide_ops,
                p.coscheduled_ops
            )
        };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"serial_millis\": {:.4}, \"static\": {}, \"moldable\": {}, \
             \"speedup\": {:.3}, \"speedup_vs_serial\": {:.3}}}",
            s.workload,
            s.serial_millis,
            leg(&s.fixed),
            leg(&s.moldable),
            s.speedup(),
            s.speedup_vs_serial()
        );
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let wins = sweeps.iter().filter(|s| s.speedup() >= 1.0).count();
    let zero = sweeps.iter().filter(|s| s.moldable.steady_zero_alloc).count();
    let beats_serial = sweeps.iter().filter(|s| s.speedup_vs_serial() > 1.0).count();
    let _ = writeln!(out, "  \"moldable_wins\": {wins},");
    let _ = writeln!(out, "  \"beats_serial\": {beats_serial},");
    let _ = writeln!(out, "  \"zero_alloc_workloads\": {zero},");
    let _ = write!(out, "  \"total_workloads\": {}", sweeps.len());
    if let Some(leg) = serve {
        let _ = writeln!(out, ",");
        let _ = writeln!(
            out,
            "  \"serve\": {{\"workload\": \"{}\", \"scenario\": \"mixed-slo-cluster\", \
             \"shards\": {SERVE_SHARDS}, \"offered_rps\": {SERVE_RPS:.1}, \"max_batch\": {}, \
             \"static_p99_ms\": {:.3}, \"moldable_p99_ms\": {:.3}, \
             \"static_rps\": {:.1}, \"moldable_rps\": {:.1}, \"p99_no_worse\": {}}}",
            SERVE_WORKLOAD.name(),
            SERVE_MAX_BATCH,
            leg.fixed_p99_ms,
            leg.moldable_p99_ms,
            leg.fixed_rps,
            leg.moldable_rps,
            leg.p99_no_worse()
        );
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Runs the runtime ablation over every workload plus the serving leg.
pub fn run(effort: &Effort) -> String {
    let workers = ablation_workers();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: unified runtime, one thread vs static vs moldable widths ({workers} workers)\n\
         median step ms after the arena reaches its zero-allocation steady state\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>8} {:>10} {:>7} {:>8} {:>8} {:>8}",
        "workload",
        "serial",
        "static",
        "moldable",
        "speedup",
        "vs serial",
        "0alloc",
        "steals",
        "wide",
        "cosched"
    );
    let sweeps: Vec<RuntimeSweep> =
        ModelKind::ALL.iter().map(|&k| sweep(k, workers, effort)).collect();
    for s in &sweeps {
        let _ = writeln!(
            out,
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>9.2}x {:>7} {:>8} {:>8} {:>8}",
            s.workload,
            s.serial_millis,
            s.fixed.millis,
            s.moldable.millis,
            s.speedup(),
            s.speedup_vs_serial(),
            s.moldable.steady_zero_alloc,
            s.moldable.steal_count,
            s.moldable.wide_ops,
            s.moldable.coscheduled_ops
        );
    }
    let wins = sweeps.iter().filter(|s| s.speedup() >= 1.0).count();
    let zero = sweeps.iter().filter(|s| s.moldable.steady_zero_alloc).count();
    let beats_serial = sweeps.iter().filter(|s| s.speedup_vs_serial() > 1.0).count();
    let _ = writeln!(
        out,
        "\nmoldable >= static on {wins}/{n}; {workers} workers beat one thread on \
         {beats_serial}/{n}; zero steady-state allocations on {zero}/{n}",
        n = sweeps.len()
    );

    let leg = serve_leg(workers, effort);
    let _ = writeln!(
        out,
        "\nSERVE (mixed-SLO cluster: {} x {SERVE_SHARDS} shards @ {SERVE_RPS:.0} req/s, \
         batch {}):\n  interactive p99 — static {:.3} ms @ {:.1} req/s, \
         moldable {:.3} ms @ {:.1} req/s, no worse: {}",
        SERVE_WORKLOAD.name(),
        SERVE_MAX_BATCH,
        leg.fixed_p99_ms,
        leg.fixed_rps,
        leg.moldable_p99_ms,
        leg.moldable_rps,
        leg.p99_no_worse()
    );

    let json = to_json(&sweeps, Some(&leg), workers);
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
        let p = measure_policy(ModelKind::Memnet, WidthPolicy::Moldable, 2, &Effort::quick());
        assert!(p.millis > 0.0);
        assert!(p.arena_bytes > 0, "a planned session holds arena bytes");
    }

    #[test]
    fn sweep_compares_both_policies() {
        let s = sweep(ModelKind::Autoenc, 2, &Effort::quick());
        assert_eq!(s.workload, "autoenc");
        assert!(s.serial_millis > 0.0 && s.fixed.millis > 0.0 && s.moldable.millis > 0.0);
        assert!(s.speedup() > 0.0);
        assert!(s.speedup_vs_serial() > 0.0);
    }

    #[test]
    fn json_shape() {
        let point = |ms: f64| PolicyPoint {
            millis: ms,
            steady_zero_alloc: true,
            arena_bytes: 1024,
            steal_count: 7,
            wide_ops: 3,
            coscheduled_ops: 9,
        };
        let sweeps = vec![RuntimeSweep {
            workload: "memnet",
            serial_millis: 7.5,
            fixed: point(10.0),
            moldable: point(5.0),
        }];
        let json = to_json(&sweeps, None, 4);
        assert!(json.contains("\"experiment\": \"ablation_runtime\""));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"name\": \"memnet\""));
        assert!(json.contains("\"serial_millis\": 7.5000"));
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"speedup_vs_serial\": 1.500"));
        assert!(json.contains("\"moldable_wins\": 1"));
        assert!(json.contains("\"beats_serial\": 1"));
        assert!(json.contains("\"zero_alloc_workloads\": 1"));
        assert!(!json.contains("\"serve\""));
        let leg = ServeLeg {
            fixed_p99_ms: 2.0,
            moldable_p99_ms: 1.5,
            fixed_rps: 100.0,
            moldable_rps: 110.0,
        };
        let json = to_json(&sweeps, Some(&leg), 4);
        assert!(json.contains("\"serve\": {\"workload\": \"alexnet\""));
        assert!(json.contains("\"p99_no_worse\": true"));
    }

    #[test]
    fn serve_p99_slack_is_applied() {
        let leg = ServeLeg {
            fixed_p99_ms: 1.0,
            moldable_p99_ms: 1.04,
            fixed_rps: 1.0,
            moldable_rps: 1.0,
        };
        assert!(leg.p99_no_worse());
        let leg = ServeLeg { moldable_p99_ms: 1.10, ..leg };
        assert!(!leg.p99_no_worse());
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

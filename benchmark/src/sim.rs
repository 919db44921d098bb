//! `cluster_sim`: `serve_cluster` over stub replicas that compute
//! nothing. Service time is injected (a fixed cost plus a cost per
//! request in the batch) and payloads are empty, so only the serving
//! control plane works: arrival heap, router, SLO admission, priority
//! queues, histograms, the report. Open loop in virtual time; with a
//! stub's service time fixed, two runs from one seed are identical.
//!
//! The workload runs on one thread, and the reference host's single-thread
//! speed switches between two states about 25 % apart that each last for
//! seconds to a minute: whole runs fall into one or the other, so no
//! statistic over a run's segments removes it. Wall times here are
//! therefore scaled to the host's nominal speed by a calibration kernel
//! timed beside each measurement ([`HostSpeed`]).

use std::collections::BinaryHeap;
use std::time::Instant;

use fathom_dataflow::RuntimeCounters;
use fathom_serve::{
    serve_cluster, BatchResult, BatchRunner, ClusterConfig, ClusterReport, ClusterRunner,
    ModelSpec, ReloadPlan, Request, ServeError, SloPolicy,
};

use crate::config;
use crate::harness::{self, ms, Env};
use crate::serve::{conserved, goodput_share, merged, report_control_plane};

const SEED_ARRIVALS: u64 = 0x40;

/// A replica that answers at once with an injected service time.
struct Stub;

impl BatchRunner for Stub {
    fn capacity(&self) -> usize {
        config::MAX_BATCH
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        Ok(BatchResult {
            outputs: Vec::new(),
            service_nanos: config::SIM_BATCH_NANOS + config::SIM_REQUEST_NANOS * reqs.len() as f64,
            class_nanos: [0.0; 7],
        })
    }

    fn runtime_counters(&self) -> RuntimeCounters {
        RuntimeCounters::default()
    }
}

impl ClusterRunner for Stub {
    fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
        Ok(())
    }
}

type Fleet = Vec<Vec<Vec<Stub>>>;

fn build_fleet() -> Fleet {
    (0..config::SIM_MODELS)
        .map(|_| {
            (0..config::SIM_SHARDS)
                .map(|_| (0..config::SIM_REPLICAS).map(|_| Stub).collect())
                .collect()
        })
        .collect()
}

fn model_name(rank: usize) -> String {
    format!("m{rank}")
}

/// One measured segment.
struct Segment {
    report: ClusterReport,
    /// Wall time of the `serve_cluster` call as measured.
    wall_nanos: f64,
    /// The same at the host's nominal speed.
    nominal_nanos: f64,
}

/// Pushes and pops a fixed sequence through a binary heap, the kind of
/// work the engine's event loop does, using the standard library alone:
/// nothing in the repository can change how long it takes. Returns the
/// seconds it took.
fn calibration_kernel() -> f64 {
    let began = Instant::now();
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..config::SIM_CALIBRATION_PUSHES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x, i));
        if heap.len() > 4096 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
    }
    std::hint::black_box(acc);
    began.elapsed().as_secs_f64()
}

/// The host's single-thread speed beside each measurement, as the time of
/// [`calibration_kernel`] before and after it.
struct HostSpeed {
    /// The kernel's latest time, seconds.
    last: f64,
    /// Every factor applied, for the run's notes.
    factors: Vec<f64>,
}

impl HostSpeed {
    fn new() -> Self {
        HostSpeed {
            last: calibration_kernel(),
            factors: Vec::new(),
        }
    }

    /// Runs `f` and returns its result, its wall seconds, and the factor
    /// that turns wall time beside it into time at nominal speed: the
    /// nominal over the measured kernel time, the latter the mean of the
    /// kernel runs either side. Measurements follow each other, so one
    /// kernel run ends one and begins the next.
    fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let began = Instant::now();
        let result = f();
        let wall = began.elapsed().as_secs_f64();
        self.last = calibration_kernel();
        let factor = config::SIM_CALIBRATION_NOMINAL_S / (0.5 * (before + self.last));
        self.factors.push(factor);
        (result, wall, factor)
    }
}

/// One cluster run of `virtual_s`: model of rank `r` (1-based) is offered
/// `SIM_HEAD_RPS / r`, and the model of rank `SIM_RELOAD_RANK` is
/// hot-reloaded half-way through.
///
/// Returns the report and the wall nanoseconds `serve_cluster` took.
fn run_cluster(
    fleet: &mut Fleet,
    virtual_s: f64,
    seed: u64,
) -> Result<(ClusterReport, f64), String> {
    let mut specs: Vec<ModelSpec<'_>> = fleet
        .iter_mut()
        .enumerate()
        .map(|(i, shards)| ModelSpec {
            name: model_name(i + 1),
            shards: shards
                .iter_mut()
                .map(|s| s.iter_mut().map(|r| r as &mut dyn ClusterRunner).collect())
                .collect(),
            rps: config::SIM_HEAD_RPS / (i + 1) as f64,
            synth: Box::new(|_rng, _id| Vec::new()),
        })
        .collect();
    let cfg = ClusterConfig {
        duration_nanos: (virtual_s * 1e9) as u64,
        seed,
        reloads: vec![ReloadPlan {
            model: model_name(config::SIM_RELOAD_RANK),
            at_nanos: (virtual_s * 0.5e9) as u64,
            checkpoint: vec![0xFA; 64],
        }],
        ..ClusterConfig::new(config::MAX_BATCH)
    };
    let began = Instant::now();
    let outcome = serve_cluster(&mut specs, &cfg);
    let wall_nanos = began.elapsed().as_nanos() as f64;
    drop(specs);
    Ok((outcome.map_err(|e| e.to_string())?, wall_nanos))
}

/// `cluster_sim`.
pub fn run(env: &mut Env) {
    let trace = env.args.trace;
    let slo = SloPolicy::default_serving();

    // Set-up: the fleet and a short warm-up run.
    let mut setup_s = Vec::new();
    let mut fleet = build_fleet();
    let mut host = HostSpeed::new();
    for rep in 0..config::SETUP_REPS {
        let seed = env.seed_for(SEED_ARRIVALS);
        let (warm, wall_s, factor) = host.measure(|| {
            fleet = build_fleet();
            run_cluster(&mut fleet, config::SIM_WARMUP_VIRTUAL_S, seed)
        });
        setup_s.push(wall_s * factor);
        if let Err(e) = warm {
            env.out.failed += 1;
            env.out.note(format!("warm-up run {rep} failed: {e}"));
        }
    }
    env.out.set_median("setup_s", &setup_s);

    // Two short runs from one seed must give the same report, byte for byte.
    let mini = |fleet: &mut Fleet, seed| {
        run_cluster(fleet, config::SIM_WARMUP_VIRTUAL_S, seed).map(|(report, _)| report.to_json())
    };
    let seed = env.seed_for(SEED_ARRIVALS + 1);
    let (a, b) = (
        mini(&mut build_fleet(), seed),
        mini(&mut build_fleet(), seed),
    );
    env.out.check(
        "two same-seed runs give byte-identical ClusterReport::to_json()",
        a.is_ok() && a == b,
        format!("{} bytes", a.as_ref().map_or(0, String::len)),
    );

    // The stubs do no work and there is no session to trace, so the traced
    // run does what the untraced one does and keeps one `serve.cluster`
    // span per segment.
    let root = env.rec.open("bench.workload", "", 0, None);
    let mut runs: Vec<Segment> = Vec::new();
    let mut host = HostSpeed::new();
    for segment in 0..config::SIM_SEGMENTS {
        let seed = env.seed_for(SEED_ARRIVALS + ((segment as u64 + 2) << 8));
        let start = env.rec.now();
        let (result, wall_s, factor) =
            host.measure(|| run_cluster(&mut fleet, config::SIM_SEGMENT_VIRTUAL_S, seed));
        let op = segment as u64;
        let end = start + (wall_s * 1e9) as u64;
        env.rec
            .record("serve.cluster", "", op, Some(root), start, end);
        let now = env.rec.now();
        env.rec
            .record("bench.calibration", "", op, Some(root), end, now);
        match result {
            Ok((report, wall_nanos)) => runs.push(Segment {
                report,
                wall_nanos,
                nominal_nanos: wall_nanos * factor,
            }),
            Err(e) => {
                env.out.failed += 1;
                env.out.note(format!("segment {segment} failed: {e}"));
            }
        }
    }
    env.rec.close(root);
    if runs.is_empty() {
        env.out.attempted = env.out.attempted.max(1);
        return;
    }

    env.out.check(
        "conservation: issued == completed + shed + timed_out, per class and model",
        runs.iter().all(|r| conserved(&r.report)),
        format!("{} segments", runs.len()),
    );
    let replicas = (config::SIM_SHARDS * config::SIM_REPLICAS) as u64;
    env.out.check(
        "hot reload: every replica of the reloaded model swapped once per segment",
        runs.iter().all(|r| r.report.reloads() == replicas),
        format!("{replicas} replicas"),
    );
    let lost: u64 = runs
        .iter()
        .map(|r| r.report.recovery.crashes + r.report.recovery.dropped)
        .sum();
    env.out.failed += lost;

    let issued: u64 = runs.iter().map(|r| r.report.issued()).sum();
    env.out.attempted += issued;
    let first = &runs[0].report;
    env.out.note(format!(
        "{} segments of {} virtual s: {} models x {} shards x {} replicas, head model offered {} req/s, model of rank r 1/r of that",
        runs.len(),
        config::SIM_SEGMENT_VIRTUAL_S,
        config::SIM_MODELS,
        config::SIM_SHARDS,
        config::SIM_REPLICAS,
        config::SIM_HEAD_RPS
    ));
    env.out.note(format!(
        "first segment: issued {} completed {} shed {} timed out {} spilled {}",
        first.issued(),
        first.completed(),
        first.shed(),
        first.timed_out(),
        first.spilled()
    ));
    env.out.note("open loop in virtual time: requests are timed from their scheduled arrival; generator lag is 0 by construction");

    let raw: Vec<f64> = runs
        .iter()
        .map(|r| r.report.issued() as f64 / (r.wall_nanos / 1e9))
        .collect();
    let (slowest, fastest) = host
        .factors
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), f| (lo.min(*f), hi.max(*f)));
    env.out.note(format!(
        "wall times are scaled to the host's nominal speed: the calibration kernel ran at {slowest:.3} to {fastest:.3} of it; unscaled, the median segment resolved {:.0} req/s",
        crate::stats::median(&raw)
    ));

    if trace {
        let nominal: f64 = runs.iter().map(|r| r.nominal_nanos).sum();
        env.out.set(
            "serve.cluster.self_us_per_request",
            nominal / 1e3 / issued.max(1) as f64,
            issued as usize,
        );
        report_control_plane(env, runs.iter().map(|r| &r.report));
        return;
    }

    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.report.issued() as f64 / (r.nominal_nanos / 1e9))
        .collect();
    env.out.set_median("work_per_s", &rates);
    // Virtual-time latency is a function of the seed alone. Every
    // quantile sorts its segment's whole sample, outside the timed part.
    let q = config::tail_percentile(&env.args.workload);
    env.out.check_tail(q, first.completed() as usize);
    let (mut p50, mut tail) = (Vec::new(), Vec::new());
    for r in &runs {
        let all = merged(&r.report.per_class);
        p50.push(ms(all.quantile(0.5)));
        tail.push(ms(all.quantile(q)));
    }
    env.out.set_median("latency_p50_ms", &p50);
    env.out.set_median("latency_tail_ms", &tail);
    env.out.set(
        "goodput_share",
        goodput_share(first, &slo),
        first.issued() as usize,
    );
    env.out.set("peak_rss_mb", harness::peak_rss_mb(), 1);
}

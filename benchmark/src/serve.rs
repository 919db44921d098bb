//! `serve_fleet`: `serve_cluster` over real session workers, open loop in
//! virtual time at three fixed offered loads.
//!
//! Arrivals are a Poisson schedule the engine lays out in virtual time
//! before it starts, so every request is timed from the instant it was
//! due and the generator cannot run late: generator lag is zero by
//! construction. The virtual clock advances by each batch's measured
//! service time alone; what the event loop, payload synthesis and
//! pack/split cost in wall time shows only in `work_per_s`.

use std::time::Instant;

use fathom::{Mode, ModelKind};
use fathom_dataflow::{checkpoint, RuntimeCounters};
use fathom_serve::{
    serve_cluster, synth_inputs, BatchResult, BatchRunner, ClassStats, ClusterConfig,
    ClusterReport, ClusterRunner, LatencyHistogram, ModelSpec, ReloadPlan, Request, ServeError,
    SessionWorker, SloClass, SloPolicy,
};
use fathom_tensor::{Rng, Tensor};

use crate::config::{self, Phase};
use crate::harness::{self, ms, Env};
use crate::spans::{SpanBuf, SpanId};
use crate::stats;
use crate::train::{StepSpan, TraceSums};

const SEED_MODEL: u64 = 0x30;
const SEED_ARTIFACT: u64 = 0x31;
const SEED_WARMUP: u64 = 0x32;
const SEED_ARRIVALS: u64 = 0x33;

/// A replica with a stopwatch: forwards to the real worker and keeps what
/// the engine's report does not say.
struct TimedWorker {
    inner: SessionWorker,
    model: &'static str,
    origin: Instant,
    /// `service_nanos` of every batch, as the worker reported it.
    service_nanos: Vec<f64>,
    /// Wall time inside `run_batch`, around the worker's own stopwatch.
    wrapper_nanos: f64,
    /// Requests carried, and their batches' service time summed per request.
    requests: u64,
    request_service_nanos: f64,
    reload_nanos: Vec<f64>,
    errors: u64,
    /// Requests and outputs kept for the batch-of-one check.
    keep: usize,
    kept: Vec<(Request, Tensor)>,
    /// Traced run: session tracing on, spans and sums kept.
    trace: bool,
    sums: TraceSums,
    spans: SpanBuf,
    w: usize,
}

impl TimedWorker {
    fn new(inner: SessionWorker, model: &'static str, env: &Env) -> Self {
        TimedWorker {
            inner,
            model,
            origin: env.rec.origin(),
            service_nanos: Vec::new(),
            wrapper_nanos: 0.0,
            requests: 0,
            request_service_nanos: 0.0,
            reload_nanos: Vec::new(),
            errors: 0,
            keep: 0,
            kept: Vec::new(),
            trace: false,
            sums: TraceSums::default(),
            spans: SpanBuf::new(false),
            w: env.w,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl BatchRunner for TimedWorker {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        if self.trace {
            self.inner.workload_mut().session_mut().enable_tracing();
        }
        let start = self.now();
        let began = Instant::now();
        let result = self.inner.run_batch(reqs);
        let wall = began.elapsed().as_nanos() as f64;
        self.wrapper_nanos += wall;
        if self.trace {
            let end = start + wall as u64;
            let session_trace = self.inner.workload_mut().session_mut().take_trace();
            let op = self.service_nanos.len() as u64;
            let span =
                self.spans
                    .record("serve.worker.run_batch", self.model, op, None, start, end);
            // The session runs between pack and split; the worker's own
            // stopwatch says for how long, not when. Centre it.
            let service = result.as_ref().map_or(0.0, |r| r.service_nanos).min(wall) as u64;
            let lead = (wall as u64 - service) / 2;
            let at = StepSpan {
                parent: span,
                tag: self.model,
                op,
                start: start + lead,
                end: start + lead + service,
            };
            self.sums
                .absorb(&mut self.spans, self.w, &session_trace, at);
        }
        match &result {
            Ok(r) => {
                self.service_nanos.push(r.service_nanos);
                self.requests += reqs.len() as u64;
                self.request_service_nanos += r.service_nanos * reqs.len() as f64;
                for (req, out) in reqs.iter().zip(&r.outputs) {
                    if self.kept.len() < self.keep {
                        self.kept.push(((*req).clone(), out.clone()));
                    }
                }
            }
            Err(_) => self.errors += 1,
        }
        result
    }

    fn recover(&mut self) -> Result<(), ServeError> {
        self.inner.recover()
    }

    fn runtime_counters(&self) -> RuntimeCounters {
        self.inner.runtime_counters()
    }
}

impl ClusterRunner for TimedWorker {
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
        let start = self.now();
        let began = Instant::now();
        let result = self.inner.reload(checkpoint);
        let wall = began.elapsed().as_nanos() as f64;
        self.reload_nanos.push(wall);
        self.spans.record(
            "serve.worker.reload",
            self.model,
            0,
            None,
            start,
            start + wall as u64,
        );
        if result.is_err() {
            self.errors += 1;
        }
        result
    }
}

/// What payload synthesis cost one model during one cluster run.
#[derive(Default)]
struct SynthStats {
    nanos: f64,
    spans: SpanBuf,
}

/// The fleet: `fleet[model][shard]` is that shard's only replica.
type Fleet = Vec<Vec<TimedWorker>>;

/// Builds the fleet and the reload artefact and runs the warm-up batches:
/// one repetition of set-up.
fn build_fleet(env: &Env, build_ms: &mut [Vec<f64>]) -> Result<(Fleet, Vec<u8>), String> {
    let seed = env.seed_for(SEED_MODEL);
    let mut fleet = Vec::with_capacity(config::FLEET.len());
    for (m, served) in config::FLEET.iter().enumerate() {
        let cfg = env
            .build_cfg(Mode::Inference, seed)
            .with_batch(config::MAX_BATCH);
        let mut shards = Vec::with_capacity(config::FLEET_SHARDS);
        for _ in 0..config::FLEET_SHARDS {
            let t = Instant::now();
            let worker = SessionWorker::new(served.kind, &cfg).map_err(|e| e.to_string())?;
            build_ms[m].push(ms(t.elapsed().as_nanos() as f64));
            shards.push(TimedWorker::new(worker, served.kind.name(), env));
        }
        fleet.push(shards);
    }

    // The artefact the fleet swaps to mid-run: a briefly trained alexnet,
    // so the reloaded weights differ from the build-time ones.
    let mut trained =
        ModelKind::Alexnet.build(&env.build_cfg(Mode::Training, env.seed_for(SEED_ARTIFACT)));
    for _ in 0..2 {
        trained.try_step().map_err(|e| e.to_string())?;
    }
    let mut artifact = Vec::new();
    checkpoint::save(trained.session(), &mut artifact).map_err(|e| e.to_string())?;

    let mut rng = Rng::seeded(env.seed_for(SEED_WARMUP));
    for worker in fleet.iter_mut().flatten() {
        let (shapes, domains) = (worker.inner.item_shapes(), worker.inner.domains());
        let reqs: Vec<Request> = (0..config::MAX_BATCH as u64)
            .map(|id| Request {
                id,
                arrival: 0,
                inputs: synth_inputs(&shapes, &domains, &mut rng),
            })
            .collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        for _ in 0..config::WARMUP_STEPS {
            worker.inner.run_batch(&refs).map_err(|e| e.to_string())?;
        }
    }
    Ok((fleet, artifact))
}

/// One `serve_cluster` call's results.
struct RunResult {
    report: ClusterReport,
    wall_nanos: f64,
    synth_nanos: f64,
    /// Service time of the run's batches, summed once per carried request.
    request_service_nanos: f64,
    /// Requests the run's batches carried.
    carried: u64,
    /// Whether sessions were traced and spans kept during the run.
    traced: bool,
}

/// The fleet's running totals of (service time per carried request,
/// carried requests).
fn carried_totals(fleet: &Fleet) -> (f64, u64) {
    fleet.iter().flatten().fold((0.0, 0), |(s, n), w| {
        (s + w.request_service_nanos, n + w.requests)
    })
}

/// Offers `share` of every model's reference capacity for `virtual_s`.
/// Spans are recorded under `root` when there is one.
fn run_cluster(
    env: &mut Env,
    fleet: &mut Fleet,
    root: Option<SpanId>,
    share: f64,
    virtual_s: f64,
    seed: u64,
    reloads: Vec<ReloadPlan>,
) -> Result<RunResult, String> {
    let trace = root.is_some();
    let origin = env.rec.origin();
    let (service_before, carried_before) = carried_totals(fleet);
    for worker in fleet.iter_mut().flatten() {
        worker.trace = trace;
        worker.spans = SpanBuf::new(trace);
    }
    let mut synth: Vec<SynthStats> = config::FLEET
        .iter()
        .map(|_| SynthStats {
            spans: SpanBuf::new(trace),
            ..SynthStats::default()
        })
        .collect();
    let mut specs: Vec<ModelSpec<'_>> = Vec::with_capacity(fleet.len());
    for ((served, shards), stats) in config::FLEET
        .iter()
        .zip(fleet.iter_mut())
        .zip(synth.iter_mut())
    {
        let (shapes, domains) = (shards[0].inner.item_shapes(), shards[0].inner.domains());
        let name = served.kind.name();
        specs.push(ModelSpec {
            name: name.to_string(),
            shards: shards
                .iter_mut()
                .map(|w| vec![w as &mut dyn ClusterRunner])
                .collect(),
            rps: share * served.capacity_rps,
            synth: Box::new(move |rng, id| {
                let start = origin.elapsed().as_nanos() as u64;
                let began = Instant::now();
                let inputs = synth_inputs(&shapes, &domains, rng);
                let nanos = began.elapsed().as_nanos() as f64;
                stats.nanos += nanos;
                stats
                    .spans
                    .record("serve.synth", name, id, None, start, start + nanos as u64);
                inputs
            }),
        });
    }
    let cfg = ClusterConfig {
        duration_nanos: (virtual_s * 1e9) as u64,
        seed,
        reloads,
        ..ClusterConfig::new(config::MAX_BATCH)
    };
    let span = root.map(|r| env.rec.open("serve.cluster", "", seed, Some(r)));
    let began = Instant::now();
    let outcome = serve_cluster(&mut specs, &cfg);
    let wall_nanos = began.elapsed().as_nanos() as f64;
    drop(specs);
    let synth_nanos = synth.iter().map(|s| s.nanos).sum();
    if let Some(span) = span {
        env.rec.close(span);
        for s in synth {
            env.rec.adopt(span, s.spans);
        }
        for worker in fleet.iter_mut().flatten() {
            env.rec.adopt(span, std::mem::take(&mut worker.spans));
        }
    }
    let report = outcome.map_err(|e| e.to_string())?;
    let (service_after, carried_after) = carried_totals(fleet);
    Ok(RunResult {
        report,
        wall_nanos,
        synth_nanos,
        request_service_nanos: service_after - service_before,
        carried: carried_after - carried_before,
        traced: trace,
    })
}

/// All classes of one scope folded into one histogram.
pub fn merged(per_class: &[ClassStats]) -> LatencyHistogram {
    let mut all = LatencyHistogram::new();
    for c in per_class {
        all.merge(&c.latency);
    }
    all
}

/// Requests of `stats` that completed within `deadline_nanos`. The
/// histogram answers only quantile queries, so the count is found by
/// bisection on the rank.
pub fn completed_within(stats: &ClassStats, deadline_nanos: Option<u64>) -> u64 {
    let n = stats.latency.count();
    let Some(deadline) = deadline_nanos.map(|d| d as f64) else {
        return n as u64;
    };
    if n == 0 || stats.latency.max() <= deadline {
        return n as u64;
    }
    // Largest rank whose sample is within the deadline.
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if stats.latency.quantile(mid as f64 / n as f64) <= deadline {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo as u64
}

/// Share of issued requests that completed within their class's deadline,
/// averaged over the models with each model weighing the same: a shed or
/// timed-out request misses, and the model with the most requests does
/// not decide the figure alone.
pub fn goodput_share(report: &ClusterReport, slo: &SloPolicy) -> f64 {
    let shares: Vec<f64> = report
        .models
        .iter()
        .map(|m| {
            let good: u64 = SloClass::ALL
                .iter()
                .map(|c| completed_within(&m.per_class[c.idx()], slo.deadline(*c)))
                .sum();
            good as f64 / m.issued().max(1) as f64
        })
        .collect();
    stats::mean(&shares)
}

/// Per-class conservation, cluster-wide and per model.
pub fn conserved(report: &ClusterReport) -> bool {
    report.conserved()
        && report.models.iter().all(|m| {
            m.per_class
                .iter()
                .all(|c| c.issued == c.completed + c.shed + c.timed_out)
        })
}

/// `serve_fleet`.
pub fn run_fleet(env: &mut Env) {
    let trace = env.args.trace;
    let slo = SloPolicy::default_serving();

    let mut setup_s = Vec::new();
    let mut build_ms: Vec<Vec<f64>> = vec![Vec::new(); config::FLEET.len()];
    let mut built = None;
    for _ in 0..config::SETUP_REPS {
        // One fleet at a time, as in a process that sets up once.
        built = None;
        let began = Instant::now();
        match build_fleet(env, &mut build_ms) {
            Ok(b) => built = Some(b),
            Err(e) => {
                env.out.failed += 1;
                env.out.note(format!("fleet set-up failed: {e}"));
            }
        }
        setup_s.push(began.elapsed().as_secs_f64());
    }
    env.out.set_median("setup_s", &setup_s);
    let Some((mut fleet, artifact)) = built else {
        env.out.attempted = env.out.attempted.max(1);
        return;
    };

    let root = env.rec.open("bench.workload", "", 0, None);
    let mut runs: Vec<(Phase, RunResult)> = Vec::new();
    // Traced run: the first `mid` segment stays untraced, as the reference
    // the traced segments' wall throughput is compared against.
    let mut run_index = 0u64;
    for phase in config::PHASES {
        for segment in 0..phase.segments {
            let virtual_s = phase.virtual_s;
            let reloads = if phase.reload {
                vec![ReloadPlan {
                    model: ModelKind::Alexnet.name().to_string(),
                    at_nanos: (virtual_s * 0.5e9) as u64,
                    checkpoint: artifact.clone(),
                }]
            } else {
                Vec::new()
            };
            let traced_now = trace && !(phase.name == "mid" && segment == 0);
            // Requests for the batch-of-one check are kept from `mid` on,
            // after the reload, until every replica has its share.
            if phase.name == "mid" {
                for worker in fleet.iter_mut().flatten() {
                    worker.keep = config::CHECK_REQUESTS / config::FLEET_SHARDS;
                }
            }
            run_index += 1;
            let seed = env.seed_for(SEED_ARRIVALS + (run_index << 8));
            let under = traced_now.then_some(root);
            let reference = (trace && !traced_now)
                .then(|| env.rec.open("bench.untraced_reference", "", 0, Some(root)));
            let result = run_cluster(
                env,
                &mut fleet,
                under,
                phase.share,
                virtual_s,
                seed,
                reloads,
            );
            if let Some(span) = reference {
                env.rec.close(span);
            }
            match result {
                Ok(r) => {
                    runs.push((phase, r));
                }
                Err(e) => {
                    env.out.failed += 1;
                    env.out
                        .note(format!("serve_cluster failed in phase {}: {e}", phase.name));
                }
            }
        }
    }
    env.rec.close(root);
    if runs.is_empty() {
        env.out.attempted = env.out.attempted.max(1);
        return;
    }

    // ---- output checks --------------------------------------------------
    let all_conserved = runs.iter().all(|(_, r)| conserved(&r.report));
    env.out.check(
        "conservation: issued == completed + shed + timed_out, per class and model",
        all_conserved,
        format!("{} cluster runs", runs.len()),
    );
    let lost: u64 = runs
        .iter()
        .map(|(_, r)| r.report.recovery.dropped + r.report.recovery.crashes)
        .sum();
    let errors: u64 = fleet.iter().flatten().map(|w| w.errors).sum();
    env.out.failed += lost + errors;

    let reloaded: u64 = runs
        .iter()
        .filter(|(p, _)| p.reload)
        .map(|(_, r)| r.report.models[0].reloads)
        .sum();
    let mut holds_artifact = true;
    for worker in fleet[0].iter_mut() {
        let mut after = Vec::new();
        let saved = checkpoint::save(worker.inner.workload_mut().session(), &mut after);
        holds_artifact &= saved.is_ok() && after == artifact;
    }
    env.out.check(
        "hot reload: every alexnet replica swapped once and holds the artefact's bytes",
        holds_artifact && reloaded == config::FLEET_SHARDS as u64,
        format!("{reloaded} swaps, {} artefact bytes", artifact.len()),
    );

    for shards in fleet.iter_mut() {
        let name = shards[0].model;
        let (mut checked, mut equal) = (0usize, 0usize);
        for worker in shards.iter_mut() {
            for (req, batched) in std::mem::take(&mut worker.kept) {
                checked += 1;
                if let Ok(alone) = worker.inner.run_batch(&[&req]) {
                    let same = alone.outputs.len() == 1
                        && alone.outputs[0].shape() == batched.shape()
                        && alone.outputs[0]
                            .data()
                            .iter()
                            .zip(batched.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    equal += usize::from(same);
                }
            }
        }
        env.out.check(
            format!("{name}: outputs bitwise equal batched and alone"),
            checked == config::CHECK_REQUESTS && equal == checked,
            format!("{equal} of {checked} sampled requests"),
        );
    }

    // ---- end-to-end metrics ---------------------------------------------
    let issued: u64 = runs.iter().map(|(_, r)| r.report.issued()).sum();
    let wall: f64 = runs.iter().map(|(_, r)| r.wall_nanos).sum();
    env.out.attempted += issued;

    let runs = &runs;
    let phase_runs = |name: &'static str| {
        runs.iter()
            .filter(move |(p, _)| p.name == name)
            .map(|(_, r)| r)
    };
    let wall_rps = |r: &RunResult| r.report.issued() as f64 / (r.wall_nanos / 1e9);
    // Wall throughput: the `mid` segments offer equal work.
    let rates: Vec<f64> = phase_runs("mid").map(wall_rps).collect();
    env.out.set_median("work_per_s", &rates);

    // Per model: that model's percentile in every `mid` segment, then the
    // median over the segments, so that a segment the host disturbed does
    // not set the figure. Models are listed slowest first, so the first
    // one's segment sample is the smallest.
    let smallest = phase_runs("mid")
        .map(|r| r.report.models[0].completed())
        .min()
        .unwrap_or(0);
    let q = config::tail_percentile(&env.args.workload);
    let (mut p50s, mut tails, mut samples) = (Vec::new(), Vec::new(), 0usize);
    for (m, served) in config::FLEET.iter().enumerate() {
        let (mut p50, mut tail) = (Vec::new(), Vec::new());
        for r in phase_runs("mid") {
            let all = merged(&r.report.models[m].per_class);
            samples += all.count();
            p50.push(ms(all.quantile(0.5)));
            tail.push(ms(all.quantile(q)));
        }
        env.out.note(format!(
            "{:<8} mid: p50 {:.3} ms (iqr/median {:.3}), p{:.0} {:.3} ms (iqr/median {:.3}) over {} segments",
            served.kind.name(),
            stats::median(&p50),
            stats::spread(&p50),
            q * 100.0,
            stats::median(&tail),
            stats::spread(&tail),
            p50.len()
        ));
        p50s.push(stats::median(&p50));
        tails.push(stats::median(&tail));
    }
    env.out.check_tail(q, smallest as usize);
    env.out
        .set("latency_p50_ms", stats::geomean(&p50s), samples);
    env.out
        .set("latency_tail_ms", stats::geomean(&tails), samples);

    // A share of one overload run's requests, not a rate: the queues'
    // filling is part of what is measured, so the phase is not segmented.
    if let Some(over) = phase_runs("over").next() {
        env.out.set(
            "goodput_share",
            goodput_share(&over.report, &slo),
            over.report.issued() as usize,
        );
    }
    env.out.set("peak_rss_mb", harness::peak_rss_mb(), 1);
    for (phase, r) in runs {
        env.out.note(format!(
            "phase {:<4} {:.2}x capacity, {:.3} virtual s: issued {} completed {} shed {} timed out {} | {:.0} req/s wall | goodput {:.4}",
            phase.name,
            phase.share,
            phase.virtual_s,
            r.report.issued(),
            r.report.completed(),
            r.report.shed(),
            r.report.timed_out(),
            r.report.issued() as f64 / (r.wall_nanos / 1e9),
            goodput_share(&r.report, &slo),
        ));
    }
    env.out.note("open loop in virtual time: requests are timed from their scheduled arrival; generator lag is 0 by construction");
    if !trace {
        return;
    }

    // ---- per-layer metrics ----------------------------------------------
    for (served, samples) in config::FLEET.iter().zip(&build_ms) {
        env.out
            .set_median(format!("core.{}.build_ms", served.kind.name()), samples);
    }
    let mut sums = TraceSums::default();
    let mut counters = RuntimeCounters::default();
    let mut arena = 0u64;
    let (mut wrapper, mut service, mut batches, mut reload_ms) = (0.0, 0.0, 0usize, Vec::new());
    for shards in &fleet {
        let mut service_ms: Vec<f64> = Vec::new();
        for w in shards {
            service_ms.extend(w.service_nanos.iter().map(|n| ms(*n)));
            wrapper += w.wrapper_nanos;
            service += w.service_nanos.iter().sum::<f64>();
            batches += w.service_nanos.len();
            reload_ms.extend(w.reload_nanos.iter().map(|n| ms(*n)));
            for (a, b) in sums.class_nanos.iter_mut().zip(w.sums.class_nanos) {
                *a += b;
            }
            sums.ab_flops += w.sums.ab_flops;
            sums.launches += w.sums.launches;
            sums.step_wall_nanos += w.sums.step_wall_nanos;
            sums.steps += w.sums.steps;
            arena += w.inner.runtime_counters().arena_bytes;
        }
        env.out.set_median(
            format!("serve.worker.{}.service_ms_p50", shards[0].model),
            &service_ms,
        );
    }
    // The sums cover the traced runs; so must the counters.
    for (_, r) in runs.iter().filter(|(_, r)| r.traced) {
        counters.merge(&r.report.runtime);
    }
    sums.report(env, &counters, arena);
    env.out.set(
        "serve.worker.pack_split_us_per_batch",
        (wrapper - service) / 1e3 / batches.max(1) as f64,
        batches,
    );
    let synth: f64 = runs.iter().map(|(_, r)| r.synth_nanos).sum();
    let admitted: u64 = fleet.iter().flatten().map(|w| w.requests).sum();
    env.out.set(
        "serve.worker.synth_us_per_request",
        synth / 1e3 / admitted.max(1) as f64,
        admitted as usize,
    );
    env.out.set_median("serve.worker.reload_ms", &reload_ms);
    let reload: f64 = reload_ms.iter().sum::<f64>() * 1e6;
    env.out.set(
        "serve.cluster.self_us_per_request",
        (wall - wrapper - synth - reload) / 1e3 / issued.max(1) as f64,
        issued as usize,
    );

    let mut ladder = 0.0;
    for phase in config::PHASES {
        let reports: Vec<&ClusterReport> = phase_runs(phase.name).map(|r| &r.report).collect();
        if reports.is_empty() {
            continue;
        }
        let batched: u64 = reports
            .iter()
            .flat_map(|r| &r.models)
            .map(|m| m.batched_requests)
            .sum();
        let nbatches: u64 = reports
            .iter()
            .flat_map(|r| &r.models)
            .map(|m| m.batches)
            .sum();
        env.out.set(
            format!("serve.engine.mean_batch.{}", phase.name),
            batched as f64 / nbatches.max(1) as f64,
            nbatches as usize,
        );
        let mut all = LatencyHistogram::new();
        let mut interactive = LatencyHistogram::new();
        for r in &reports {
            all.merge(&merged(&r.per_class));
            interactive.merge(&r.per_class[SloClass::Interactive.idx()].latency);
        }
        // A request's latency is its queue wait plus its batch's service.
        let mean_service = phase_runs(phase.name)
            .map(|r| r.request_service_nanos)
            .sum::<f64>()
            / phase_runs(phase.name)
                .map(|r| r.carried)
                .sum::<u64>()
                .max(1) as f64;
        env.out.set(
            format!("serve.cluster.queue_wait_ms_mean.{}", phase.name),
            ms(all.mean() - mean_service),
            all.count(),
        );
        let shed: u64 = reports.iter().map(|r| r.shed()).sum();
        let timed_out: u64 = reports.iter().map(|r| r.timed_out()).sum();
        let phase_issued: u64 = reports.iter().map(|r| r.issued()).sum();
        match phase.name {
            "low" => env.out.set(
                "serve.cluster.p99_ms.low",
                ms(all.quantile(0.99)),
                all.count(),
            ),
            "over" => {
                env.out.set(
                    "serve.cluster.p99_ms.over",
                    ms(all.quantile(0.99)),
                    all.count(),
                );
                env.out.set(
                    "serve.cluster.interactive_p99_ms.over",
                    ms(interactive.quantile(0.99)),
                    interactive.count(),
                );
                env.out.set(
                    "serve.cluster.shed_share.over",
                    shed as f64 / phase_issued.max(1) as f64,
                    phase_issued as usize,
                );
            }
            _ => {}
        }
        let deadline = slo.deadline(SloClass::Interactive).unwrap_or(u64::MAX) as f64;
        if shed == 0 && timed_out == 0 && interactive.quantile(0.99) <= deadline {
            let offered: f64 = config::FLEET
                .iter()
                .map(|s| s.capacity_rps * phase.share)
                .sum();
            ladder = f64::max(ladder, offered);
        }
    }
    env.out
        .set("serve.cluster.max_rate_rps", ladder, config::PHASES.len());
    report_control_plane(env, runs.iter().map(|(_, r)| &r.report));
    if let Some(reference) = phase_runs("mid").find(|r| !r.traced) {
        let traced: Vec<f64> = phase_runs("mid")
            .filter(|r| r.traced)
            .map(wall_rps)
            .collect();
        env.out.set(
            "bench.trace_overhead_share",
            1.0 - stats::median(&traced) / wall_rps(reference),
            traced.len(),
        );
    }
}

/// Router and shedding counts, and what building the report costs: the
/// per-layer metrics `serve_fleet` and `cluster_sim` share.
pub fn report_control_plane<'a>(env: &mut Env, reports: impl Iterator<Item = &'a ClusterReport>) {
    let reports: Vec<&ClusterReport> = reports.collect();
    let issued: u64 = reports.iter().map(|r| r.issued()).sum();
    let spilled: u64 = reports.iter().map(|r| r.spilled()).sum();
    env.out.set(
        "serve.router.spilled_share",
        spilled as f64 / issued.max(1) as f64,
        issued as usize,
    );
    let mut reasons = fathom_serve::ShedBreakdown::default();
    for r in &reports {
        reasons.merge(&r.shed_reasons());
    }
    let n = reports.len();
    env.out.set(
        "serve.cluster.shed_queue_full",
        reasons.queue_full as f64,
        n,
    );
    env.out.set(
        "serve.cluster.shed_deadline_infeasible",
        reasons.deadline_infeasible as f64,
        n,
    );
    env.out.set(
        "serve.cluster.shed_priority_evicted",
        reasons.priority_evicted as f64,
        n,
    );
    // `to_json` takes every quantile the report prints; the largest run
    // is the one timed.
    if let Some(largest) = reports.iter().max_by_key(|r| r.issued()) {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(largest.to_json());
                ms(t.elapsed().as_nanos() as f64)
            })
            .collect();
        env.out.set_median("serve.metrics.report_ms", &samples);
    }
}

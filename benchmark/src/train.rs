//! The three training workloads: bare `Workload::step` loops over the
//! convolutional and the small-op models, and `Trainer::run` with
//! guardrail, snapshots and resume.
//!
//! All three are closed loops: one client per model, whose next step
//! starts when the previous one returns. A segment is one round over the
//! workload's models at fixed step counts, and a run takes a fixed number
//! of segments, so two runs of one commit do the same work; a throughput
//! is the median over segments.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fathom::{GuardrailPolicy, Mode, ModelKind, SnapshotPolicy, TrainOutcome, Trainer, Workload};
use fathom_dataflow::trace::RunTrace;
use fathom_dataflow::{checkpoint, OpClass, RuntimeCounters};

use crate::config::{self, TrainSlot};
use crate::harness::{self, ms, Env};
use crate::spans::{SpanBuf, SpanId};
use crate::{probes, stats};

/// Seed purposes (see [`Env::seed_for`]).
const SEED_MODEL: u64 = 0x10;

/// What the session traces of the traced steps add up to. Kept as sums
/// per step; no per-op record outlives its step.
#[derive(Debug, Default)]
pub struct TraceSums {
    /// Op time by paper class A to G, nanoseconds.
    pub class_nanos: [f64; 7],
    /// Cost-model flops of the class A and B ops (computed from shapes,
    /// not counted by hardware).
    pub ab_flops: f64,
    /// Op launches (trace events).
    pub launches: u64,
    /// Wall time of the steps the sums cover, measured around the call.
    pub step_wall_nanos: f64,
    /// Steps (or batches) the sums cover.
    pub steps: u64,
}

/// Where one traced step sits among the spans.
#[derive(Debug, Clone, Copy)]
pub struct StepSpan {
    /// The span of the call that ran the session.
    pub parent: SpanId,
    /// Model name.
    pub tag: &'static str,
    /// Step or batch number.
    pub op: u64,
    /// Start of the call, recorder nanoseconds.
    pub start: u64,
    /// End of the call, recorder nanoseconds.
    pub end: u64,
}

impl TraceSums {
    /// Folds one step's session trace in and records its spans:
    /// `dataflow.session.run` under the step's span, ending where the
    /// step ended, and under it one span per op class holding that
    /// class's op time averaged over the `w` workers, laid end to end.
    pub fn absorb(&mut self, buf: &mut SpanBuf, w: usize, trace: &RunTrace, at: StepSpan) {
        let StepSpan {
            parent,
            tag,
            op,
            start: step_start,
            end: step_end,
        } = at;
        let mut per_class = [0.0f64; 7];
        for e in &trace.events {
            let slot = class_slot(e.class);
            per_class[slot] += e.nanos;
            if slot < 2 {
                self.ab_flops += e.cost.flops;
            }
        }
        for (sum, c) in self.class_nanos.iter_mut().zip(per_class) {
            *sum += c;
        }
        self.launches += trace.events.len() as u64;
        self.step_wall_nanos += (step_end - step_start) as f64;
        self.steps += 1;
        if !buf.enabled() {
            return;
        }
        let run_nanos = (trace.total_nanos.max(0.0) as u64).min(step_end - step_start);
        let run_start = step_end - run_nanos;
        let run = buf.record(
            "dataflow.session.run",
            tag,
            op,
            Some(parent),
            run_start,
            step_end,
        );
        let mut at = run_start;
        for (slot, nanos) in per_class.iter().enumerate() {
            let share = (*nanos / w as f64) as u64;
            if share == 0 {
                continue;
            }
            let end = (at + share).min(step_end);
            buf.record(CLASS_SPANS[slot], tag, op, Some(run), at, end);
            at = end;
        }
    }

    /// Records the tensor- and dataflow-layer metrics the sums support.
    pub fn report(&self, env: &mut Env, counters: &RuntimeCounters, arena_bytes: u64) {
        let total: f64 = self.class_nanos.iter().sum();
        let n = self.steps as usize;
        if total > 0.0 {
            for (letter, nanos) in ["A", "B", "C", "D", "E", "F", "G"]
                .iter()
                .zip(self.class_nanos)
            {
                env.out
                    .set(format!("tensor.class_{letter}_share"), nanos / total, n);
            }
            let ab = self.class_nanos[0] + self.class_nanos[1];
            if ab > 0.0 {
                // flops per nanosecond is Gflop/s.
                env.out.set("tensor.kernels.gflops", self.ab_flops / ab, n);
            }
        }
        if self.steps > 0 {
            let per_step = |x: u64| x as f64 / self.steps as f64;
            env.out.set(
                "dataflow.exec.launches_per_step",
                per_step(self.launches),
                n,
            );
            env.out.set(
                "dataflow.exec.op_busy_share",
                total / (self.step_wall_nanos * env.w as f64),
                n,
            );
            env.out.set(
                "tensor.runtime.steals_per_step",
                per_step(counters.steal_count),
                n,
            );
            env.out
                .set("dataflow.plan.wide_ops", per_step(counters.wide_ops), n);
            env.out.set(
                "dataflow.plan.cosched_ops",
                per_step(counters.coscheduled_ops),
                n,
            );
        }
        env.out.set(
            "tensor.recycle.steady_allocations",
            counters.allocations as f64,
            n,
        );
        env.out.set(
            "tensor.recycle.arena_mb",
            arena_bytes as f64 / (1024.0 * 1024.0),
            n,
        );
    }
}

const CLASS_SPANS: [&str; 7] = [
    "tensor.class_A",
    "tensor.class_B",
    "tensor.class_C",
    "tensor.class_D",
    "tensor.class_E",
    "tensor.class_F",
    "tensor.class_G",
];

fn class_slot(class: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("OpClass::ALL lists all seven classes")
}

/// What one step returns to the measuring loop: its wall nanoseconds and
/// loss, or why it failed.
type StepResult = Result<(f64, Option<f32>), String>;

/// One model's samples over the timed phase.
#[derive(Debug)]
struct Lane {
    name: &'static str,
    slot: TrainSlot,
    /// Wall time of every timed step, milliseconds.
    step_ms: Vec<f64>,
    /// Steps per second of every segment's slice.
    seg_rate: Vec<f64>,
    /// Loss after the last step of segment `LOSS_CHECK_SEGMENTS`.
    check_loss: Option<f32>,
    /// Steps that returned an error or a non-finite loss.
    failed: u64,
}

impl Lane {
    fn new(slot: TrainSlot) -> Self {
        Lane {
            name: slot.kind.name(),
            slot,
            step_ms: Vec::new(),
            seg_rate: Vec::new(),
            check_loss: None,
            failed: 0,
        }
    }
}

/// Geometric mean over the lanes of each lane's median segment rate.
fn work_rate(lanes: &[Lane]) -> f64 {
    stats::geomean(
        &lanes
            .iter()
            .map(|l| stats::median(&l.seg_rate))
            .collect::<Vec<_>>(),
    )
}

/// Runs segments `first..first + count`. `step(env, lane, op)` runs one
/// step of lane `lane` and returns its wall nanoseconds and loss.
fn run_segments(
    env: &mut Env,
    lanes: &mut [Lane],
    first: usize,
    count: usize,
    step: &mut dyn FnMut(&mut Env, usize, u64) -> StepResult,
) {
    for segment in first..first + count {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut slice_nanos = 0.0;
            let mut last_loss = None;
            for k in 0..lane.slot.steps {
                env.out.attempted += 1;
                let op = ((segment * lane.slot.steps + k) * 16 + i) as u64;
                match step(env, i, op) {
                    Ok((nanos, loss)) => {
                        slice_nanos += nanos;
                        lane.step_ms.push(ms(nanos));
                        if loss.is_some_and(|l| !l.is_finite()) {
                            lane.failed += 1;
                        }
                        last_loss = loss;
                    }
                    Err(e) => {
                        lane.failed += 1;
                        env.out.note(format!("{} step failed: {e}", lane.name));
                    }
                }
            }
            lane.seg_rate
                .push(lane.slot.steps as f64 / (slice_nanos / 1e9));
            if segment + 1 == config::LOSS_CHECK_SEGMENTS {
                lane.check_loss = last_loss;
            }
        }
    }
}

/// The untraced run: every segment untraced, then the end-to-end metrics.
/// The traced run: an untraced reference leg, then the traced leg the
/// per-layer metrics come from; returns the lanes of the traced leg.
fn measure(
    env: &mut Env,
    slots: &[TrainSlot],
    segments: usize,
    root: SpanId,
    step: &mut dyn FnMut(&mut Env, usize, u64, bool) -> StepResult,
) -> Vec<Lane> {
    let mut lanes: Vec<Lane> = slots.iter().copied().map(Lane::new).collect();
    if !env.args.trace {
        run_segments(env, &mut lanes, 0, segments, &mut |e, i, op| {
            step(e, i, op, false)
        });
        env.out.note(format!(
            "{segments} segments of fixed work, closed loop, one client per model"
        ));
        report_end_to_end(env, &lanes);
        return lanes;
    }
    let reference = config::reference_segments(segments);
    let leg = env.rec.open("bench.untraced_reference", "", 0, Some(root));
    run_segments(env, &mut lanes, 0, reference, &mut |e, i, op| {
        step(e, i, op, false)
    });
    env.rec.close(leg);
    let untraced = work_rate(&lanes);
    let mut traced: Vec<Lane> = slots.iter().copied().map(Lane::new).collect();
    let rest = segments - reference;
    run_segments(env, &mut traced, reference, rest, &mut |e, i, op| {
        step(e, i, op, true)
    });
    env.out.note(format!(
        "{reference} untraced reference segments, then {rest} traced segments"
    ));
    if untraced > 0.0 {
        env.out.set(
            "bench.trace_overhead_share",
            1.0 - work_rate(&traced) / untraced,
            rest,
        );
    }
    for (t, l) in traced.iter_mut().zip(&lanes) {
        t.check_loss = t.check_loss.or(l.check_loss);
        t.failed += l.failed;
    }
    env.out.failed += traced.iter().map(|l| l.failed).sum::<u64>();
    for l in &traced {
        env.out.set(
            format!("core.{}.step_ms_p50", l.name),
            stats::median(&l.step_ms),
            l.step_ms.len(),
        );
        env.out.set(
            format!("core.{}.step_ms_p99", l.name),
            stats::quantile(&l.step_ms, 0.99),
            l.step_ms.len(),
        );
    }
    traced
}

/// Turns the lanes' samples into the end-to-end metrics every training
/// workload shares (all but `setup_s`).
fn report_end_to_end(env: &mut Env, lanes: &[Lane]) {
    let segs = lanes.iter().map(|l| l.seg_rate.len()).min().unwrap_or(0);
    // The geometric mean keeps a fast model from drowning a slow one.
    env.out.set("work_per_s", work_rate(lanes), segs);
    for l in lanes {
        env.out.note(format!(
            "{:<8} {:>9.3} steps/s  segments {}  iqr/median {:.4}  steps {}",
            l.name,
            stats::median(&l.seg_rate),
            l.seg_rate.len(),
            stats::spread(&l.seg_rate),
            l.step_ms.len()
        ));
    }

    let medians: Vec<f64> = lanes.iter().map(|l| stats::median(&l.step_ms)).collect();
    let p50 = stats::geomean(&medians);
    let steps: usize = lanes.iter().map(|l| l.step_ms.len()).sum();
    env.out.set("latency_p50_ms", p50, steps);

    // The tail is taken over every step of every model, each divided by
    // its own model's median, then put back in milliseconds at the
    // geometric-mean model: a slow model's ordinary steps are not a tail.
    let q = config::tail_percentile(&env.args.workload);
    let ratios: Vec<f64> = lanes
        .iter()
        .zip(&medians)
        .flat_map(|(l, m)| l.step_ms.iter().map(move |t| t / m))
        .collect();
    env.out
        .set("latency_tail_ms", stats::quantile(&ratios, q) * p50, steps);
    env.out.check_tail(q, steps);

    let failed: u64 = lanes.iter().map(|l| l.failed).sum();
    env.out.failed += failed;
    let attempted = env.out.attempted.max(1);
    env.out.set(
        "goodput_share",
        (attempted - failed.min(attempted)) as f64 / attempted as f64,
        steps,
    );
    env.out.set("peak_rss_mb", harness::peak_rss_mb(), 1);
}

fn check_loss_bands(env: &mut Env, lanes: &[Lane]) {
    for l in lanes {
        let (lo, hi) = l.slot.loss_band;
        let at = config::WARMUP_STEPS as usize + config::LOSS_CHECK_SEGMENTS * l.slot.steps;
        let (ok, detail) = match l.check_loss {
            Some(loss) => (
                loss.is_finite() && loss >= lo && loss <= hi,
                format!("loss {loss} after {at} steps, band [{lo}, {hi}]"),
            ),
            None => (false, format!("no loss after {at} steps")),
        };
        env.out.check(
            format!("{}: loss finite and inside its band", l.name),
            ok,
            detail,
        );
    }
}

/// Reports the tensor- and dataflow-layer metrics of the traced leg from
/// the sessions' counters now, when set-up ended (`base`) and when the
/// traced leg began (`traced_base`).
fn report_session_layers(
    env: &mut Env,
    sums: &TraceSums,
    now: &[RuntimeCounters],
    base: &[RuntimeCounters],
    traced_base: &[RuntimeCounters],
) {
    let mut counters = RuntimeCounters::default();
    let mut since_setup = RuntimeCounters::default();
    for ((n, b), tb) in now.iter().zip(base).zip(traced_base) {
        counters.merge(&n.delta_since(tb));
        since_setup.merge(&n.delta_since(b));
    }
    // Steady state starts when set-up ends: allocations are counted over
    // the whole timed phase, both legs.
    counters.allocations = since_setup.allocations;
    let arena: u64 = now.iter().map(|n| n.arena_bytes).sum();
    sums.report(env, &counters, arena);
}

fn report_build_ms(env: &mut Env, slots: &[TrainSlot], build_ms: &[Vec<f64>]) {
    for (slot, samples) in slots.iter().zip(build_ms) {
        env.out
            .set_median(format!("core.{}.build_ms", slot.kind.name()), samples);
    }
}

/// Runs `steps` steps and returns the bits of each loss.
fn loss_bits(model: &mut dyn Workload, steps: u64) -> Result<Vec<u32>, String> {
    (0..steps)
        .map(|_| {
            let s = model.try_step().map_err(|e| e.to_string())?;
            Ok(s.loss.map_or(0, f32::to_bits))
        })
        .collect()
}

/// `train_conv` and `train_smallop`.
pub fn run_bare(env: &mut Env, slots: &[TrainSlot], segments: usize) {
    let seed = env.seed_for(SEED_MODEL);

    // Set-up, several times over: build every model and take the warm-up
    // steps. The last repetition's models are the ones measured.
    let mut setup_s = Vec::new();
    let mut build_ms: Vec<Vec<f64>> = vec![Vec::new(); slots.len()];
    let mut models: Vec<Box<dyn Workload>> = Vec::new();
    let mut warm_bits: Vec<Vec<u32>> = Vec::new();
    let mut same_across_builds = true;
    for _ in 0..config::SETUP_REPS {
        // One set of models at a time, as in a process that sets up once.
        models.clear();
        let began = Instant::now();
        let mut built = Vec::with_capacity(slots.len());
        let mut bits = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let t = Instant::now();
            let mut model = slot.kind.build(&env.build_cfg(Mode::Training, seed));
            build_ms[i].push(ms(t.elapsed().as_nanos() as f64));
            match loss_bits(model.as_mut(), config::WARMUP_STEPS) {
                Ok(b) => bits.push(b),
                Err(e) => {
                    env.out.failed += 1;
                    env.out
                        .note(format!("{} warm-up failed: {e}", slot.kind.name()));
                    bits.push(Vec::new());
                }
            }
            built.push(model);
        }
        setup_s.push(began.elapsed().as_secs_f64());
        if !warm_bits.is_empty() && warm_bits != bits {
            same_across_builds = false;
        }
        warm_bits = bits;
        models = built;
    }
    env.out.set_median("setup_s", &setup_s);
    env.out.check(
        "same seed, same first losses across the set-up repetitions",
        same_across_builds,
        format!("{} builds of {} models", config::SETUP_REPS, slots.len()),
    );

    // First steps at W workers against one worker, bit for bit.
    for (slot, bits) in slots.iter().zip(&warm_bits) {
        let mut serial = slot.kind.build(&env.serial_cfg(Mode::Training, seed));
        let serial_bits = loss_bits(serial.as_mut(), config::WARMUP_STEPS).unwrap_or_default();
        env.out.check(
            format!(
                "{}: first {} losses bitwise equal at {} workers and 1",
                slot.kind.name(),
                config::WARMUP_STEPS,
                env.w
            ),
            !bits.is_empty() && *bits == serial_bits,
            format!("{bits:08x?} vs {serial_bits:08x?}"),
        );
    }

    let base: Vec<RuntimeCounters> = models
        .iter()
        .map(|m| m.session().runtime_counters())
        .collect();
    let mut traced_base: Option<Vec<RuntimeCounters>> = None;
    let names: Vec<&'static str> = slots.iter().map(|s| s.kind.name()).collect();
    let root = env.rec.open("bench.workload", "", 0, None);
    let mut sums = TraceSums::default();
    let lanes = measure(env, slots, segments, root, &mut |env, i, op, trace| {
        if trace {
            traced_base.get_or_insert_with(|| {
                models
                    .iter()
                    .map(|m| m.session().runtime_counters())
                    .collect()
            });
            models[i].session_mut().enable_tracing();
        }
        let start = env.rec.now();
        let t = Instant::now();
        let result = models[i].try_step();
        let nanos = t.elapsed().as_nanos() as f64;
        if trace {
            let end = start + nanos as u64;
            let session_trace = models[i].session_mut().take_trace();
            let span = env
                .rec
                .record("core.step", names[i], op, Some(root), start, end);
            let at = StepSpan {
                parent: span,
                tag: names[i],
                op,
                start,
                end,
            };
            sums.absorb(&mut env.rec.buf, env.w, &session_trace, at);
        }
        result.map(|s| (nanos, s.loss)).map_err(|e| e.to_string())
    });
    env.rec.close(root);
    check_loss_bands(env, &lanes);
    let Some(traced_base) = traced_base else {
        return;
    };

    let now: Vec<RuntimeCounters> = models
        .iter()
        .map(|m| m.session().runtime_counters())
        .collect();
    report_session_layers(env, &sums, &now, &base, &traced_base);
    report_build_ms(env, slots, &build_ms);
    probes::data_and_ale(env, slots);
}

/// A guarded trainer for `kind` that snapshots into `dir`.
fn guarded_trainer(env: &Env, kind: ModelKind, seed: u64, dir: &Path) -> Result<Trainer, String> {
    let model = kind.build(&env.build_cfg(Mode::Training, seed));
    Ok(Trainer::new(model)
        .map_err(|e| e.to_string())?
        .with_guardrail(GuardrailPolicy::default())
        .with_snapshots(
            SnapshotPolicy {
                every: config::SNAPSHOT_EVERY,
                keep: config::SNAPSHOT_KEEP,
            },
            dir,
        ))
}

fn run_to(trainer: &mut Trainer, target: u64) -> Result<Option<f32>, String> {
    match trainer.run(target) {
        Ok(TrainOutcome::Completed) => Ok(trainer.report().final_loss),
        Ok(TrainOutcome::Killed { at_step }) => Err(format!("killed at step {at_step}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Removes the run's snapshot directory when the workload ends, however
/// it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `train_guarded`.
pub fn run_guarded(env: &mut Env) {
    let seed = env.seed_for(SEED_MODEL);
    let slots = config::TRAIN_GUARDED;
    let scratch = ScratchDir(harness::out_dir().join(format!("snapshots-{}", std::process::id())));
    let dirs: Vec<PathBuf> = slots
        .iter()
        .map(|s| scratch.0.join(s.kind.name()))
        .collect();
    env.out.note(format!("snapshot_fs {}", scratch.0.display()));

    // The run that "crashed": uninterrupted to the first snapshot and
    // then through the warm-up steps, whose last loss a resumed trainer
    // must reproduce bit for bit.
    let first_snapshot = config::SNAPSHOT_EVERY;
    let warm_target = first_snapshot + config::WARMUP_STEPS;
    let mut reference_bits = Vec::new();
    for (slot, dir) in slots.iter().zip(&dirs) {
        let bits = guarded_trainer(env, slot.kind, seed, dir)
            .and_then(|mut t| run_to(&mut t, warm_target))
            .map(|loss| loss.map_or(0, f32::to_bits));
        match bits {
            Ok(b) => reference_bits.push(b),
            Err(e) => {
                env.out.failed += 1;
                env.out.note(format!(
                    "{} uninterrupted leg failed: {e}",
                    slot.kind.name()
                ));
                reference_bits.push(0);
            }
        }
    }

    // Set-up, several times over: a fresh process-state resumes from the
    // newest snapshot and takes the warm-up steps.
    let mut setup_s = Vec::new();
    let mut resume_ms = Vec::new();
    let mut build_ms: Vec<Vec<f64>> = vec![Vec::new(); slots.len()];
    let mut trainers: Vec<Trainer> = Vec::new();
    let mut resumed_equal = true;
    for _ in 0..config::RESUME_REPS {
        // One set of trainers at a time, as in a process that resumes once.
        trainers.clear();
        let began = Instant::now();
        let mut fresh = Vec::new();
        let mut resume_nanos = 0.0;
        for (i, (slot, dir)) in slots.iter().zip(&dirs).enumerate() {
            let t = Instant::now();
            let built = guarded_trainer(env, slot.kind, seed, dir);
            build_ms[i].push(ms(t.elapsed().as_nanos() as f64));
            let resumed = built.and_then(|mut tr| {
                let t = Instant::now();
                let at = tr.resume(dir).map_err(|e| e.to_string())?;
                resume_nanos += t.elapsed().as_nanos() as f64;
                if at != first_snapshot {
                    return Err(format!("resumed at step {at}, expected {first_snapshot}"));
                }
                let loss = run_to(&mut tr, warm_target)?;
                Ok((tr, loss.map_or(0, f32::to_bits)))
            });
            match resumed {
                Ok((tr, bits)) => {
                    resumed_equal &= bits == reference_bits[i];
                    fresh.push(tr);
                }
                Err(e) => {
                    env.out.failed += 1;
                    env.out
                        .note(format!("{} resume failed: {e}", slot.kind.name()));
                }
            }
        }
        setup_s.push(began.elapsed().as_secs_f64());
        resume_ms.push(ms(resume_nanos));
        trainers = fresh;
    }
    env.out.set_median("setup_s", &setup_s);
    env.out.check(
        "resumed loss bits equal the uninterrupted run",
        resumed_equal && trainers.len() == slots.len(),
        format!(
            "{} resumes of {} models to step {warm_target}",
            setup_s.len(),
            slots.len()
        ),
    );
    if trainers.len() != slots.len() {
        env.out.attempted = env.out.attempted.max(1);
        return;
    }

    let base: Vec<RuntimeCounters> = trainers
        .iter()
        .map(|t| t.model().session().runtime_counters())
        .collect();
    let mut traced_base: Option<Vec<RuntimeCounters>> = None;
    let names: Vec<&'static str> = slots.iter().map(|s| s.kind.name()).collect();
    let root = env.rec.open("bench.workload", "", 0, None);
    // Snapshot and in-step time as the trainer's own report counts them.
    let mut snapshot_ms: Vec<f64> = Vec::new();
    let mut plain_step_ms: Vec<Vec<f64>> = vec![Vec::new(); slots.len()];
    let mut sums = TraceSums::default();
    let lanes = measure(
        env,
        &slots,
        config::GUARDED_SEGMENTS,
        root,
        &mut |env, i, op, trace| {
            if trace {
                traced_base.get_or_insert_with(|| {
                    trainers
                        .iter()
                        .map(|t| t.model().session().runtime_counters())
                        .collect()
                });
            }
            let tr = &mut trainers[i];
            let (snap0, step0) = (tr.report().snapshot_nanos, tr.report().step_nanos);
            if trace {
                tr.model_mut().session_mut().enable_tracing();
            }
            let target = tr.global_step() + 1;
            let start = env.rec.now();
            let t = Instant::now();
            let result = run_to(tr, target);
            let nanos = t.elapsed().as_nanos() as f64;
            let snap = (tr.report().snapshot_nanos - snap0) as f64;
            let inner = (tr.report().step_nanos - step0) as f64;
            if snap > 0.0 {
                snapshot_ms.push(ms(snap));
            } else {
                plain_step_ms[i].push(ms(inner));
            }
            if trace {
                let end = start + nanos as u64;
                let session_trace = tr.model_mut().session_mut().take_trace();
                let run = env
                    .rec
                    .record("core.train.run", names[i], op, Some(root), start, end);
                // The snapshot is the last thing `run` does, the step before it.
                let snap_start = end - (snap as u64).min(end - start);
                if snap > 0.0 {
                    env.rec.record(
                        "core.train.snapshot",
                        names[i],
                        op,
                        Some(run),
                        snap_start,
                        end,
                    );
                }
                let step_start = snap_start - (inner as u64).min(snap_start - start);
                let span =
                    env.rec
                        .record("core.step", names[i], op, Some(run), step_start, snap_start);
                let at = StepSpan {
                    parent: span,
                    tag: names[i],
                    op,
                    start: step_start,
                    end: snap_start,
                };
                sums.absorb(&mut env.rec.buf, env.w, &session_trace, at);
            }
            result.map(|loss| (nanos, loss))
        },
    );
    env.rec.close(root);
    check_loss_bands(env, &lanes);
    let Some(traced_base) = traced_base else {
        return;
    };

    let now: Vec<RuntimeCounters> = trainers
        .iter()
        .map(|t| t.model().session().runtime_counters())
        .collect();
    report_session_layers(env, &sums, &now, &base, &traced_base);
    report_build_ms(env, &slots, &build_ms);
    let snap_total: u128 = trainers.iter().map(|t| t.report().snapshot_nanos).sum();
    let step_total: u128 = trainers.iter().map(|t| t.report().step_nanos).sum();
    env.out.set_median("core.train.resume_ms", &resume_ms);
    env.out
        .set_median("core.train.snapshot_ms_p50", &snapshot_ms);
    env.out.set(
        "core.train.snapshot_stall_share",
        snap_total as f64 / (snap_total + step_total).max(1) as f64,
        snapshot_ms.len(),
    );

    // Guard overhead: the trainer's in-step time against a short bare leg
    // of the same model from the same seed, no guardrail armed.
    let mut overheads = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let mut bare = slot.kind.build(&env.build_cfg(Mode::Training, seed));
        let mut bare_ms = Vec::new();
        for step in 0..(config::WARMUP_STEPS as usize + slot.steps) {
            let t = Instant::now();
            let ok = bare.try_step().is_ok();
            if ok && step >= config::WARMUP_STEPS as usize {
                bare_ms.push(ms(t.elapsed().as_nanos() as f64));
            }
        }
        let (guarded, plain) = (stats::median(&plain_step_ms[i]), stats::median(&bare_ms));
        if plain > 0.0 {
            overheads.push(guarded / plain - 1.0);
        }
    }
    env.out.set(
        "core.train.guard_overhead_share",
        stats::mean(&overheads),
        overheads.len(),
    );

    // Checkpoint codec, called directly on in-memory buffers.
    let (mut save_ms, mut load_ms, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..config::RESUME_REPS {
        let (mut save, mut load) = (0.0, 0.0);
        bytes = 0;
        for t in trainers.iter_mut() {
            let blob = t.model().export_pipeline();
            let mut buf = Vec::new();
            let cursor = checkpoint::TrainCursor {
                global_step: t.global_step(),
                epoch: 0,
                position: 0,
            };
            let began = Instant::now();
            let saved = checkpoint::save_resume(t.model().session(), cursor, &blob, &mut buf);
            save += began.elapsed().as_nanos() as f64;
            let began = Instant::now();
            let loaded = checkpoint::load_resume(t.model_mut().session_mut(), buf.as_slice());
            load += began.elapsed().as_nanos() as f64;
            env.out.attempted += 2;
            env.out.failed += u64::from(saved.is_err()) + u64::from(loaded.is_err());
            bytes += buf.len();
        }
        save_ms.push(ms(save));
        load_ms.push(ms(load));
    }
    env.out.set_median("dataflow.checkpoint.save_ms", &save_ms);
    env.out.set_median("dataflow.checkpoint.load_ms", &load_ms);
    env.out.set(
        "dataflow.checkpoint.mb",
        bytes as f64 / (1024.0 * 1024.0),
        1,
    );
}

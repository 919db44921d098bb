//! `fathom` — command-line driver for the Fathom-rs workload suite.
//!
//! ```text
//! fathom list
//! fathom run alexnet --steps 10 --threads 4
//! fathom profile seq2seq --steps 3
//! fathom trace deepq --out deepq.json     # open in chrome://tracing
//! fathom dot memnet --out memnet.dot      # render with graphviz
//! ```

mod args;

use std::process::ExitCode;
use std::sync::Arc;

use args::{parse, Command, RunArgs, ServeArgs, TrainArgs, USAGE};
use fathom::{
    BuildConfig, GuardrailPolicy, ModelKind, SnapshotPolicy, TrainOutcome, Trainer, Workload,
};
use fathom_dataflow::{checkpoint, export, Device, FaultPlan, Json};
use fathom_profile::{report, runner, OpProfile};
use fathom_serve::{
    serve_cluster, synth_inputs, ClusterReport, ClusterRunner, FaultyRunner, ModelSpec,
    RecoveryCounters, SessionWorker, SloClass,
};
use fathom_suite::FathomError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: Command) -> Result<(), FathomError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List { json } => {
            if json {
                print!("{}", list_json());
            } else {
                println!(
                    "{:<9} {:>5} {:<22} {:>6} {:<14} {:<10}",
                    "model", "year", "style", "layers", "task", "dataset"
                );
                for kind in ModelKind::ALL {
                    let m = kind.metadata();
                    println!(
                        "{:<9} {:>5} {:<22} {:>6} {:<14} {:<10}",
                        m.name, m.year, m.style, m.layers, m.task, m.dataset
                    );
                }
            }
            Ok(())
        }
        Command::Run(a) => cmd_run(a),
        Command::Profile(a) => cmd_profile(a),
        Command::Trace(a) => cmd_trace(a),
        Command::Dot(a) => cmd_dot(a),
        Command::ServeBench(a) => cmd_serve_bench(a),
        Command::Train(a) => cmd_train(a),
    }
}

/// The workload inventory as a JSON array, one workload per line.
fn list_json() -> String {
    Json::arr(ModelKind::ALL.iter().map(|kind| {
        let m = kind.metadata();
        Json::obj()
            .with("name", m.name)
            .with("year", u64::from(m.year))
            .with("style", m.style)
            .with("layers", m.layers)
            .with("task", m.task)
            .with("dataset", m.dataset)
            .with("reference", m.reference)
    }))
    .render()
}

fn build(a: &RunArgs) -> Box<dyn Workload> {
    let cfg = BuildConfig { mode: a.mode, ..BuildConfig::training() }
        .with_scale(a.scale)
        .with_device(Device::cpu_inter_op(a.threads, a.inter_ops))
        .with_seed(a.seed)
        .with_fusion(a.fuse)
        .with_precision(a.precision);
    a.model.build(&cfg)
}

fn cmd_run(a: RunArgs) -> Result<(), FathomError> {
    let mut model = build(&a);
    if let Some(path) = &a.load {
        checkpoint::load_from_path(model.session_mut(), std::path::Path::new(path))?;
        println!("restored variables from {path}");
    }
    println!(
        "{} | {} | {} ops in graph",
        model.name(),
        a.mode.label(),
        model.session().graph().len()
    );
    for step in 0..a.steps {
        let stats = model.step();
        match (stats.loss, stats.metric) {
            (Some(loss), Some(metric)) => println!("step {step}: loss {loss:.4}  metric {metric:.4}"),
            (Some(loss), None) => println!("step {step}: loss {loss:.4}"),
            (None, Some(metric)) => println!("step {step}: metric {metric:.4}"),
            (None, None) => println!("step {step}: done"),
        }
    }
    if let Some(path) = &a.save {
        // Crash-consistent: temp file, fsync, verify, atomic rename.
        checkpoint::save_to_path(model.session(), std::path::Path::new(path))?;
        println!("saved variables to {path}");
    }
    Ok(())
}

fn cmd_profile(a: RunArgs) -> Result<(), FathomError> {
    let mut model = build(&a);
    model.step(); // warm-up
    let trace = runner::trace_steps(model.as_mut(), a.steps);
    let profile = OpProfile::from_trace(a.model.name(), &trace);
    println!("{} | {} steps traced", a.model.name(), a.steps);
    print!("{}", report::render_profile_table(&profile, 15));
    println!("\nclass shares:");
    for (class, fraction) in profile.class_fractions() {
        if fraction > 0.0 {
            println!("  [{}] {:<24} {:>5.1}%", class.letter(), class.label(), fraction * 100.0);
        }
    }
    println!("\ninter-op overhead: {:.2}%", trace.overhead_fraction() * 100.0);
    Ok(())
}

fn cmd_trace(a: RunArgs) -> Result<(), FathomError> {
    let out = a.out.clone().expect("parser enforces --out");
    let mut model = build(&a);
    model.step();
    let trace = runner::trace_steps(model.as_mut(), a.steps);
    std::fs::write(&out, export::to_chrome_trace(&trace))?;
    println!(
        "wrote {} events to {out} (open in chrome://tracing or Perfetto)",
        trace.events.len()
    );
    Ok(())
}

/// `serve-bench`: every named model behind `--shards` shard groups of
/// `--replicas` replicas on one runtime, offered its load through
/// [`serve_cluster`] under [`ServeArgs::cluster_config`].
fn cmd_serve_bench(a: ServeArgs) -> Result<(), FathomError> {
    let plan = fault_plan(&a)?;

    // One work-stealing runtime for the whole fleet: every model's
    // replicas share the same worker set, so the process thread budget
    // is max(threads, inter_ops) regardless of fleet size.
    let fleet_rt = Arc::new(fathom_tensor::Runtime::new(a.threads.max(a.inter_ops).max(1)));

    // Replica indices for `replica<N>` fault specs run fleet-wide, in
    // model -> shard -> replica order.
    let mut fleet: Vec<Vec<Vec<FaultyRunner<SessionWorker>>>> =
        Vec::with_capacity(a.models.len());
    let mut replica_idx = 0usize;
    for kind in &a.models {
        let cfg = BuildConfig::inference()
            .with_scale(a.scale)
            .with_device(Device::cpu_on_runtime(&fleet_rt, a.threads, a.inter_ops))
            .with_seed(a.seed)
            .with_batch(a.max_batch);
        let mut shards = Vec::with_capacity(a.shards);
        for _ in 0..a.shards {
            let mut replicas = Vec::with_capacity(a.replicas);
            for _ in 0..a.replicas {
                let mut w = SessionWorker::new(*kind, &cfg)?;
                if let Some(path) = &a.load {
                    w.warm_start(std::io::BufReader::new(std::fs::File::open(path)?))?;
                }
                replicas.push(FaultyRunner::new(w, plan.clone(), replica_idx));
                replica_idx += 1;
            }
            shards.push(replicas);
        }
        fleet.push(shards);
    }
    if let Some(path) = &a.load {
        println!("restored variables from {path} into {replica_idx} replica(s)");
    }

    let mut specs: Vec<ModelSpec<'_>> = Vec::with_capacity(a.models.len());
    for (kind, shards_of) in a.models.iter().zip(fleet.iter_mut()) {
        let shapes = shards_of[0][0].inner().item_shapes();
        let domains = shards_of[0][0].inner().domains();
        specs.push(ModelSpec {
            name: kind.name().to_string(),
            shards: shards_of
                .iter_mut()
                .map(|s| s.iter_mut().map(|w| w as &mut dyn ClusterRunner).collect())
                .collect(),
            rps: a.rps,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
        });
    }
    let cfg = a.cluster_config();
    let report = serve_cluster(&mut specs, &cfg)?;
    drop(specs);

    let names: Vec<&str> = a.models.iter().map(|k| k.name()).collect();
    let load = match cfg.closed_loop {
        Some(c) => format!("closed loop, {} client(s), {} request(s)", c.clients, c.requests),
        None => format!("{:.0} rps/model over {:.1} s", a.rps, a.duration),
    };
    println!(
        "{} | serve-bench | {} shard(s) x {} replica(s) per model | {load}",
        names.join(","),
        a.shards,
        a.replicas
    );
    print_cluster_report(&report);
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json())?;
        println!("wrote report to {path}");
    }
    Ok(())
}

/// Human-readable fleet, per-class and per-model summary of a run.
fn print_cluster_report(report: &ClusterReport) {
    let ms = |nanos: f64| nanos / 1e6;
    println!(
        "issued {}  completed {}  shed {}  timed-out {}  spilled {}  reloads {}",
        report.issued(),
        report.completed(),
        report.shed(),
        report.timed_out(),
        report.spilled(),
        report.reloads()
    );
    println!(
        "throughput {:.1} req/s over {:.1} ms of virtual time",
        report.throughput_rps(),
        report.makespan_nanos as f64 / 1e6
    );
    let latency = report.latency();
    let [p50, p95, p99] = latency.quantiles([0.50, 0.95, 0.99]);
    println!(
        "latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
        ms(p50),
        ms(p95),
        ms(p99),
        ms(latency.max()),
    );
    for class in SloClass::ALL {
        let c = &report.per_class[class.idx()];
        if c.issued == 0 {
            continue;
        }
        let [p50, p99] = c.latency.quantiles([0.50, 0.99]);
        println!(
            "  {:<12} issued {:>5}  completed {:>5}  shed {:>4}  timed-out {:>4}  \
             p50 {:.3} ms  p99 {:.3} ms",
            class.name(),
            c.issued,
            c.completed,
            c.shed,
            c.timed_out,
            ms(p50),
            ms(p99),
        );
    }
    for m in &report.models {
        println!(
            "  model {:<9} issued {:>5}  completed {:>5}  batches {:>5}  mean size {:.2}  \
             max queue depth {}  spilled {}  reloads {}",
            m.model,
            m.issued(),
            m.completed(),
            m.batches,
            m.mean_batch(),
            m.max_queue_depth,
            m.spilled,
            m.reloads
        );
    }
    let reasons = report.shed_reasons();
    if reasons.any() {
        println!(
            "  shed reasons: queue-full {}  deadline-infeasible {}  priority-evicted {}  \
             replica-loss {}",
            reasons.queue_full,
            reasons.deadline_infeasible,
            reasons.priority_evicted,
            reasons.replica_loss
        );
    }
    print_recovery(&report.recovery);
    print_runtime(&report.runtime);
}

/// The serve commands' fault plan: `--fault-plan` parsed under the run
/// seed, or the empty plan, under which [`FaultyRunner`] only forwards.
fn fault_plan(a: &ServeArgs) -> Result<Arc<FaultPlan>, FathomError> {
    let Some(spec) = &a.fault_plan else { return Ok(Arc::new(FaultPlan::new(a.seed))) };
    let plan = FaultPlan::parse(spec, a.seed).map_err(FathomError::Message)?;
    println!("fault plan: {spec} (seed {})", plan.seed());
    Ok(Arc::new(plan))
}

/// One line of supervisor activity, only when there was any — fault-free
/// output stays identical to earlier builds.
fn print_recovery(r: &RecoveryCounters) {
    if r.any() {
        println!(
            "recovery: crashes {}  retried {}  dropped {}  quarantines {}  recoveries {}  dead replicas {}",
            r.crashes, r.retried, r.dropped, r.quarantines, r.recoveries, r.dead_replicas
        );
    }
}

/// One line of unified-runtime counters, printed only when the run
/// actually exercised the runtime (parallel device, learned arena).
fn print_runtime(rc: &fathom_dataflow::RuntimeCounters) {
    if rc.any() {
        println!(
            "runtime: allocations {}  arena {} B  steals {}  wide ops {}  co-scheduled ops {}  \
             parks {}  inline ops {}  copied {} B",
            rc.allocations,
            rc.arena_bytes,
            rc.steal_count,
            rc.wide_ops,
            rc.coscheduled_ops,
            rc.parks,
            rc.inline_ops,
            rc.copied_bytes
        );
    }
}

fn cmd_train(a: TrainArgs) -> Result<(), FathomError> {
    let guard = GuardrailPolicy {
        max_abs_loss: a.max_abs_loss,
        max_grad_norm: a.max_grad_norm,
        retry: a.retry,
        max_retries: a.max_retries,
    };
    let cfg = BuildConfig::training().with_device(Device::cpu(a.threads)).with_seed(a.seed);
    let mut trainer = Trainer::new(a.model.build(&cfg))?.with_guardrail(guard);
    if let Some(dir) = &a.dir {
        let snapshots = SnapshotPolicy { every: a.snap_every, keep: a.snap_keep };
        trainer = trainer.with_snapshots(snapshots, dir);
    }
    if let Some(spec) = &a.fault_plan {
        let plan = FaultPlan::parse(spec, a.seed).map_err(FathomError::Message)?;
        trainer = trainer.with_faults(Arc::new(plan));
    }
    println!(
        "{} | resilient training | target {} step(s) | seed {:#x} | retry {} (max {})",
        a.model.name(),
        a.steps,
        a.seed,
        a.retry,
        a.max_retries
    );
    if a.resume {
        let dir = a.dir.as_deref().expect("parser enforces --dir with --resume");
        let at = trainer.resume(dir)?;
        println!("resumed from step {at} in {dir}");
    }
    let outcome = trainer.run(a.steps)?;
    // The last snapshot may still be in flight: land it, and fail the
    // command if it could not be written.
    trainer.flush()?;
    let report = trainer.report();
    match outcome {
        TrainOutcome::Completed => println!("completed: {} step(s) done", report.steps),
        TrainOutcome::Killed { at_step } => println!(
            "killed by injected fault after {at_step} step(s); continue with --resume"
        ),
    }
    if let Some(loss) = report.final_loss {
        println!("final loss {loss:.6}");
    }
    for t in &report.trips {
        println!(
            "guardrail trip at step {} (attempt {}, action {}): {}",
            t.step, t.attempt, t.action, t.reason
        );
    }
    if report.snapshots_written > 0 {
        println!(
            "snapshots: {} written, {:.2} ms step-thread stall",
            report.snapshots_written,
            report.snapshot_nanos as f64 / 1e6
        );
    }
    print_runtime(&report.runtime);
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json(&outcome))?;
        println!("wrote run report to {path}");
    }
    Ok(())
}

fn cmd_dot(a: RunArgs) -> Result<(), FathomError> {
    let out = a.out.clone().expect("parser enforces --out");
    let model = build(&a);
    let dot = export::to_dot(model.session().graph());
    std::fs::write(&out, &dot)?;
    println!(
        "wrote {}-node graph to {out} (render with: dot -Tsvg {out} -o graph.svg)",
        model.session().graph().len()
    );
    Ok(())
}

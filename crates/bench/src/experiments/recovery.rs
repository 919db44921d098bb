//! Recovery ablation: what resilience costs when nothing goes wrong.
//!
//! The resilient training loop (`fathom::Trainer`) buys crash
//! survivability with two standing taxes: the divergence guardrail
//! (loss/grad-norm checks on every step) and the snapshot cadence
//! (serialize + fsync + rename every N steps). Both must be cheap
//! relative to a training step or nobody leaves them on, so this
//! experiment measures each against a bare training loop, per workload,
//! plus the one-off costs that matter at recovery time: snapshot size
//! on disk, save latency, and resume (load + restore) latency.
//!
//! The three legs run in interleaved rounds (`measure::rounds`), each
//! after `effort.warmup` untimed steps, and the guardrail overhead is
//! taken per round (guarded over bare of the *same* round) before the
//! median: single cold passes used to report overheads of -14 % to
//! +12 %, which is the host's drift between legs, not the guardrail.
//! Emits `BENCH_recovery.json` through `crate::measure` so the overhead
//! trajectory is tracked across PRs.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use fathom::{BuildConfig, GuardrailPolicy, ModelKind, SnapshotPolicy, Trainer};
use fathom_dataflow::Json;

use crate::measure::{emit, envelope, rounds, Spread, WithSpread};
use crate::{write_artifact, Effort};

/// One workload's recovery-cost measurements.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Workload name.
    pub workload: &'static str,
    /// Optimizer steps per leg.
    pub steps: u64,
    /// Snapshot cadence (steps between snapshots) on the snapshot leg.
    pub cadence: u64,
    /// Mean step wall time (ms), bare trainer — no guardrail, no
    /// snapshots.
    pub step_ms: Spread,
    /// Mean step wall time (ms) with the guardrail armed.
    pub guarded_step_ms: Spread,
    /// Guardrail overhead relative to the same round's bare step
    /// (percent; inside its spread it can be negative).
    pub guard_overhead_pct: Spread,
    /// Snapshot time as a percentage of step time on the snapshot leg.
    pub snapshot_overhead_pct: Spread,
    /// Newest snapshot generation's size on disk.
    pub snapshot_bytes: u64,
    /// Mean serialize + fsync + promote latency per snapshot (ms).
    pub save_ms: Spread,
    /// Wall time to resume from the newest generation (ms).
    pub load_ms: Spread,
}

/// Builds a fresh training-mode trainer for `kind`.
fn trainer(kind: ModelKind) -> Trainer {
    Trainer::new(kind.build(&BuildConfig::training())).expect("training workload")
}

/// Mean step wall time (ms) of `steps` steps after `warmup` untimed
/// ones, by the trainer's own step clock.
fn mean_step_ms(trainer: &mut Trainer, warmup: u64, steps: u64, leg: &str) -> f64 {
    trainer.run(warmup).expect(leg);
    let before = trainer.report().step_nanos;
    trainer.run(warmup + steps).expect(leg);
    (trainer.report().step_nanos - before) as f64 / 1e6 / steps as f64
}

/// Size of the newest `step-*.ckpt` generation in `dir`.
fn newest_snapshot_bytes(dir: &PathBuf) -> u64 {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
        .last()
        .and_then(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Measures one workload's three legs (bare, guarded, snapshotting)
/// plus resume latency, in interleaved rounds.
pub fn measure(kind: ModelKind, effort: &Effort) -> RecoveryRow {
    let steps = effort.steps.max(1) as u64 * 4;
    let cadence = effort.steps.max(1) as u64;
    let warmup = effort.warmup as u64;
    let (
        [step_ms, guarded_step_ms, guard_overhead_pct, snapshot_overhead_pct, save_ms, load_ms],
        snapshot_bytes,
    ) = rounds(effort, || {
        // Leg 1: bare loop — the baseline everything is relative to.
        let bare = mean_step_ms(&mut trainer(kind), warmup, steps, "bare leg");

        // Leg 2: guardrail armed, same work otherwise.
        let mut guarded = trainer(kind).with_guardrail(GuardrailPolicy::default());
        let guarded = mean_step_ms(&mut guarded, warmup, steps, "guarded leg");

        // Leg 3: guardrail + snapshot cadence into a scratch directory.
        let dir = std::env::temp_dir()
            .join(format!("fathom-bench-recovery-{}-{}", kind.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snapped = trainer(kind)
            .with_guardrail(GuardrailPolicy::default())
            .with_snapshots(SnapshotPolicy { every: cadence, keep: 3 }, &dir);
        snapped.run(warmup + steps).expect("snapshot leg");
        let r = snapped.report();
        let per = |total: f64, of: f64| if of > 0.0 { total / of } else { 0.0 };
        let snapshot_pct = per(r.snapshot_nanos as f64 * 100.0, r.step_nanos as f64);
        let save = per(r.snapshot_nanos as f64 / 1e6, r.snapshots_written as f64);
        let snapshot_bytes = newest_snapshot_bytes(&dir);

        // Resume latency: fresh model, restore the newest generation.
        let mut resumed = trainer(kind);
        let t0 = Instant::now();
        resumed.resume(&dir).expect("resume");
        let load = t0.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(&dir);

        let guard_pct = if bare > 0.0 { (guarded / bare - 1.0) * 100.0 } else { 0.0 };
        ([bare, guarded, guard_pct, snapshot_pct, save, load], snapshot_bytes)
    });
    RecoveryRow {
        workload: kind.name(),
        steps,
        cadence,
        step_ms,
        guarded_step_ms,
        guard_overhead_pct,
        snapshot_overhead_pct,
        snapshot_bytes,
        save_ms,
        load_ms,
    }
}

/// The rows as the `BENCH_recovery.json` document.
pub fn document(rows: &[RecoveryRow], effort: &Effort) -> Json {
    let workloads = rows.iter().map(|r| {
        Json::obj()
            .with("name", r.workload)
            .with("steps", r.steps)
            .with("cadence", r.cadence)
            .with_spread("step_ms", r.step_ms, 4)
            .with_spread("guarded_step_ms", r.guarded_step_ms, 4)
            .with_spread("guard_overhead_pct", r.guard_overhead_pct, 2)
            .with_spread("snapshot_overhead_pct", r.snapshot_overhead_pct, 2)
            .with("snapshot_bytes", r.snapshot_bytes)
            .with_spread("save_ms", r.save_ms, 4)
            .with_spread("load_ms", r.load_ms, 4)
    });
    // Every trainer steps on `Device::cpu(1)`.
    envelope("ablation_recovery", 1, effort).with("workloads", Json::arr(workloads))
}

/// Runs the full experiment and renders the human-readable table.
pub fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: resilience overhead (bare vs guardrail vs snapshot cadence)\n\
         (step times are means over the leg; snapshot % is serialize+fsync+rename\n\
         time relative to step time at the leg's cadence; load is a full resume;\n\
         every number is the median over {} interleaved round(s), guard% with its\n\
         inter-quartile distance beside it)\n",
        effort.repeats
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8} {:>10} {:>8} {:>8}",
        "workload", "steps", "cad", "step ms", "guard ms", "guard%", "+-", "snap%", "snap KiB",
        "save ms", "load ms"
    );
    let rows: Vec<RecoveryRow> = ModelKind::ALL.iter().map(|&k| measure(k, effort)).collect();
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>9.2} {:>9.2} {:>7.1}% {:>6.1}% {:>7.1}% {:>10.1} {:>8.2} {:>8.2}",
            r.workload,
            r.steps,
            r.cadence,
            r.step_ms.median,
            r.guarded_step_ms.median,
            r.guard_overhead_pct.median,
            r.guard_overhead_pct.iqr,
            r.snapshot_overhead_pct.median,
            r.snapshot_bytes as f64 / 1024.0,
            r.save_ms.median,
            r.load_ms.median,
        );
    }
    let worst = rows
        .iter()
        .map(|r| r.snapshot_overhead_pct.median)
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nworst-case snapshot overhead at this cadence: {worst:.1}% of step time"
    );
    emit("BENCH_recovery.json", &document(&rows, effort));
    write_artifact("ablation_recovery.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_costs() {
        let r = measure(ModelKind::Autoenc, &Effort::quick());
        assert_eq!(r.workload, "autoenc");
        assert!(r.step_ms.median > 0.0 && r.guarded_step_ms.median > 0.0);
        assert!(r.snapshot_bytes > 0, "snapshot leg must leave a generation on disk");
        assert!(r.save_ms.median > 0.0 && r.load_ms.median > 0.0);
        assert!(r.snapshot_overhead_pct.median >= 0.0);
    }

}

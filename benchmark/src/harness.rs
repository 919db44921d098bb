//! What every workload shares: the run's arguments and runtime, the
//! collected result, output checks, and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use fathom::{BuildConfig, FusionLevel, Mode, ModelScale};
use fathom_dataflow::{Device, Precision};
use fathom_tensor::Runtime;

use crate::catalogue::{self, MetricDef};
use crate::spans::Recorder;
use crate::{config, json, stats};

/// One measured value with how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples (segments, steps, requests) behind the value.
    pub n: usize,
    /// Interquartile range over median of those samples, where the value
    /// is a median of segments.
    pub spread: Option<f64>,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, Measured>,
    /// Operations attempted (steps, batches, requests).
    pub attempted: u64,
    /// Operations that failed hard: a step or batch returned an error, a
    /// cluster run failed, a request was lost. Sheds and timeouts are
    /// load-dependent and live in `goodput_share`, never here.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.values.insert(
            name.into(),
            Measured {
                value,
                n,
                spread: None,
            },
        );
    }

    /// Records a metric that is the median of `samples`.
    pub fn set_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.values.insert(
            name.into(),
            Measured {
                value: stats::median(samples),
                n: samples.len(),
                spread: Some(stats::spread(samples)),
            },
        );
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// Records the verdict of one output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Checks that the `q`-quantile `latency_tail_ms` reports leaves enough
    /// of its `n` samples beyond it to repeat.
    pub fn check_tail(&mut self, q: f64, n: usize) {
        let beyond = stats::beyond(n, q);
        self.check(
            format!(
                "latency_tail_ms: p{:.0} leaves at least {} samples beyond it",
                q * 100.0,
                stats::MIN_BEYOND
            ),
            beyond >= stats::MIN_BEYOND,
            format!("{beyond} of {n}"),
        );
    }

    /// Records a line of context for the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output check passed and nothing failed hard.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted >= 1 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The output checks, in the order they ran.
    pub fn checks(&self) -> &[(String, bool, String)] {
        &self.checks
    }
}

/// The arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workload.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// One run's context: arguments, the shared runtime, spans, results.
pub struct Env {
    /// The run's arguments.
    pub args: RunArgs,
    /// Workers of the shared runtime: `min(available cores, 4)`.
    pub w: usize,
    /// The one work-stealing runtime every session and replica uses.
    pub rt: Arc<Runtime>,
    /// Span recorder (disabled on the untraced run).
    pub rec: Recorder,
    /// Results so far.
    pub out: Outcome,
}

impl Env {
    /// Sets up the shared runtime and an empty result.
    pub fn new(args: RunArgs) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let w = cores.clamp(1, config::MAX_WORKERS);
        let trace = args.trace;
        Env {
            args,
            w,
            rt: Arc::new(Runtime::new(w)),
            rec: Recorder::new(trace),
            out: Outcome::default(),
        }
    }

    /// The fixed build configuration: reference scale, f32, full fusion,
    /// moldable widths (the planner's default), `w` intra-op workers and
    /// `w` ops in flight on the shared runtime.
    pub fn build_cfg(&self, mode: Mode, seed: u64) -> BuildConfig {
        BuildConfig {
            mode,
            scale: ModelScale::Reference,
            device: Device::cpu_on_runtime(&self.rt, self.w, self.w),
            seed,
            batch: None,
            fusion: FusionLevel::Full,
            precision: Precision::F32,
        }
    }

    /// The same configuration on one worker and no shared runtime: the
    /// reference side of the worker-count bitwise check.
    pub fn serial_cfg(&self, mode: Mode, seed: u64) -> BuildConfig {
        BuildConfig {
            device: Device::cpu(1),
            ..self.build_cfg(mode, seed)
        }
    }

    /// A seed for one purpose, derived from `--seed` so that every
    /// generated input changes with it and no two purposes share a stream.
    pub fn seed_for(&self, purpose: u64) -> u64 {
        mix(self.args.seed, purpose)
    }
}

/// Directory for run artefacts (snapshots, traces), inside the checkout;
/// `run.sh` names it.
pub fn out_dir() -> PathBuf {
    std::env::var_os("FATHOM_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// SplitMix64 over `seed` and a purpose tag.
pub fn mix(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), megabytes; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a nanosecond count.
pub fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

/// The metrics a run of this kind reports: every end-to-end metric on
/// the untraced run, every per-layer metric on the traced run.
pub fn reported(trace: bool) -> Vec<MetricDef> {
    if trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    }
}

/// Renders the human-readable block: checks, notes, then one line per
/// metric with unit, direction and sample count.
pub fn render_human(env: &Env) -> String {
    let mut s = String::new();
    let a = &env.args;
    s.push_str(&format!(
        "workload {} | seed {} | {} s | {} | W={} workers (of {} cores)\n",
        a.workload,
        a.seed,
        config::RUN_SECONDS,
        if a.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        env.w,
        std::thread::available_parallelism().map_or(1, usize::from),
    ));
    for n in &env.out.notes {
        s.push_str(&format!("  note  {n}\n"));
    }
    for (name, ok, detail) in env.out.checks() {
        s.push_str(&format!(
            "  {}  {name}  {detail}\n",
            if *ok { "PASS" } else { "FAIL" }
        ));
    }
    for m in reported(a.trace) {
        let line = match env.out.get(&m.name) {
            Some(v) => format!(
                "  {:<44} {:>16.6} {:<8} {:<6} n={}{}{}\n",
                m.name,
                v.value,
                m.unit,
                m.better.word(),
                v.n,
                v.spread
                    .map_or(String::new(), |sp| format!(" iqr/median={sp:.4}")),
                m.bound.map_or(String::new(), |b| format!(" bound={b}")),
            ),
            // A layer this workload never enters did no work.
            None => format!(
                "  {:<44} {:>16.6} {:<8} {:<6} n=0 (layer not on this workload)\n",
                m.name,
                0.0,
                m.unit,
                m.better.word()
            ),
        };
        s.push_str(&line);
    }
    s.push_str(&format!(
        "  ops_attempted {}  ops_failed {}  correct {}\n",
        env.out.attempted,
        env.out.failed,
        env.out.correct()
    ));
    s
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being the run kind's whole catalogue.
///
/// # Errors
///
/// Names an end-to-end metric the workload did not measure: every one of
/// them is defined on every workload, so a gap is a harness bug.
pub fn render_result(env: &Env) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in reported(env.args.trace) {
        let value = match (env.out.get(&m.name), env.args.trace) {
            (Some(v), _) => v.value,
            (None, true) => 0.0,
            (None, false) => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&m.name),
            json::number(value),
            json::quote(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        env.out.correct(),
        env.out.attempted.max(1),
        env.out.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(trace: bool) -> Env {
        Env::new(RunArgs {
            workload: "train_conv".into(),
            seed: 1,
            trace,
        })
    }

    #[test]
    fn result_line_is_valid_json_with_exactly_the_declared_names() {
        for trace in [false, true] {
            let mut e = env(trace);
            e.out.attempted = 12;
            for (i, m) in reported(trace).iter().enumerate() {
                e.out.set(m.name.clone(), 1.25 + i as f64, 3);
            }
            e.out.check("a check", true, "");
            let line = render_result(&e).unwrap();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("valid JSON");
            let keys: Vec<&str> = doc.members().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(12.0));
            let printed: Vec<&String> = doc
                .get("metrics")
                .unwrap()
                .members()
                .unwrap()
                .keys()
                .collect();
            let mut declared: Vec<String> = reported(trace).into_iter().map(|m| m.name).collect();
            declared.sort();
            assert_eq!(printed, declared.iter().collect::<Vec<_>>());
            for (name, v) in doc.get("metrics").unwrap().members().unwrap() {
                assert!(catalogue::valid_name(name), "{name}");
                assert!(v.get("value").unwrap().as_f64().is_some());
                assert!(catalogue::valid_unit(
                    v.get("unit").unwrap().as_str().unwrap()
                ));
                assert_eq!(v.members().unwrap().len(), 2);
            }
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error_a_missing_layer_reads_zero() {
        let mut e = env(false);
        e.out.attempted = 1;
        assert!(render_result(&e).is_err());
        let mut t = env(true);
        t.out.attempted = 1;
        let doc = json::parse(&render_result(&t).unwrap()).unwrap();
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("core.vgg.build_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut e = env(false);
        e.out.attempted = 5;
        assert!(e.out.correct());
        e.out.check("loss band", false, "nan");
        assert!(!e.out.correct());
        let mut f = env(false);
        f.out.attempted = 5;
        f.out.failed = 1;
        assert!(!f.out.correct());
    }

    #[test]
    fn sub_seeds_differ_by_purpose_and_by_seed() {
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_eq!(mix(7, 1), mix(7, 1));
    }
}

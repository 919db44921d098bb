//! The names the harness prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root declares
//! the same set; a unit test holds the two together.

use crate::config;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The five workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 5] = [
    "train_conv",
    "train_smallop",
    "train_guarded",
    "serve_fleet",
    "cluster_sim",
];

/// The eight models, in the paper's Table II order.
fn models() -> [&'static str; 8] {
    fathom::ModelKind::ALL.map(|k| k.name())
}

/// The four models `serve_fleet` serves.
fn served() -> [&'static str; 4] {
    config::FLEET.map(|s| s.kind.name())
}

/// The three offered-load phases of `serve_fleet`.
fn phases() -> [&'static str; 3] {
    config::PHASES.map(|p| p.name)
}

/// Every end-to-end metric, with its regression bound. Each is defined on
/// every workload (see the README's table for what it means on each), and
/// its bound is three times the widest spread it showed on any of them,
/// rounded up to a twentieth and capped at the contract's 0.25.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e("setup_s", "s", Better::Lower, 0.25),
        e("work_per_s", "1/s", Better::Higher, 0.20),
        e("latency_p50_ms", "ms", Better::Lower, 0.25),
        e("latency_tail_ms", "ms", Better::Lower, 0.25),
        e("goodput_share", "share", Better::Higher, 0.20),
        e("peak_rss_mb", "MB", Better::Lower, 0.25),
    ]
}

/// Every per-layer metric; a layer is a crate or one of its modules.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out: Vec<MetricDef> = Vec::new();
    let mut l = |name: String, unit, better| {
        out.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };

    // tensor: kernels, the work-stealing runtime, the recycler and arena.
    // A class share has no better direction of its own; "lower" marks the
    // share as time spent.
    for class in ["A", "B", "C", "D", "E", "F", "G"] {
        l(format!("tensor.class_{class}_share"), "share", Lower);
    }
    l("tensor.kernels.gflops".into(), "Gflop/s", Higher);
    l("tensor.runtime.steals_per_step".into(), "count", Lower);
    l("tensor.recycle.steady_allocations".into(), "count", Lower);
    l("tensor.recycle.arena_mb".into(), "MB", Lower);

    // dataflow: executor, planner, checkpoint codec.
    l("dataflow.exec.launches_per_step".into(), "count", Lower);
    l("dataflow.exec.op_busy_share".into(), "share", Higher);
    l("dataflow.plan.wide_ops".into(), "count", Higher);
    l("dataflow.plan.cosched_ops".into(), "count", Higher);
    l("dataflow.checkpoint.save_ms".into(), "ms", Lower);
    l("dataflow.checkpoint.load_ms".into(), "ms", Lower);
    l("dataflow.checkpoint.mb".into(), "MB", Lower);

    // core: model construction, bare steps, the resilient trainer.
    for m in models() {
        l(format!("core.{m}.build_ms"), "ms", Lower);
    }
    for m in models() {
        l(format!("core.{m}.step_ms_p50"), "ms", Lower);
        l(format!("core.{m}.step_ms_p99"), "ms", Lower);
    }
    l("core.train.snapshot_ms_p50".into(), "ms", Lower);
    l("core.train.snapshot_stall_share".into(), "share", Lower);
    l("core.train.guard_overhead_share".into(), "share", Lower);
    l("core.train.resume_ms".into(), "ms", Lower);

    // data, ale: input pipelines at the extents the reference models use.
    for corpus in ["wmt", "babi", "timit", "mnist", "imagenet"] {
        l(format!("data.{corpus}.batch_ms"), "ms", Lower);
    }
    l("ale.env_step_us".into(), "us", Lower);
    l("ale.replay_sample_ms".into(), "ms", Lower);

    // serve: workers, the cluster engine, the router, the report.
    for m in served() {
        l(format!("serve.worker.{m}.service_ms_p50"), "ms", Lower);
    }
    l("serve.worker.pack_split_us_per_batch".into(), "us", Lower);
    l("serve.worker.synth_us_per_request".into(), "us", Lower);
    l("serve.worker.reload_ms".into(), "ms", Lower);
    for p in phases() {
        l(format!("serve.engine.mean_batch.{p}"), "count", Higher);
    }
    for p in phases() {
        l(format!("serve.cluster.queue_wait_ms_mean.{p}"), "ms", Lower);
    }
    l("serve.cluster.p99_ms.low".into(), "ms", Lower);
    l("serve.cluster.p99_ms.over".into(), "ms", Lower);
    l("serve.cluster.interactive_p99_ms.over".into(), "ms", Lower);
    l("serve.cluster.shed_share.over".into(), "share", Lower);
    l("serve.cluster.shed_queue_full".into(), "count", Lower);
    l(
        "serve.cluster.shed_deadline_infeasible".into(),
        "count",
        Lower,
    );
    l("serve.cluster.shed_priority_evicted".into(), "count", Lower);
    l("serve.cluster.max_rate_rps".into(), "1/s", Higher);
    l("serve.router.spilled_share".into(), "share", Lower);
    l("serve.cluster.self_us_per_request".into(), "us", Lower);
    l("serve.metrics.report_ms".into(), "ms", Lower);

    // The harness's own cost.
    l("bench.trace_overhead_share".into(), "share", Lower);
    out
}

/// True for the characters a metric or workload name may use.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for the characters a unit may use.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn declared() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
            assert!(seen.insert(w.to_string()), "{w} used twice");
        }
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().len() <= 16);
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("req per s") && valid_unit("Gflop/s"));
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        let e2e = end_to_end();
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    /// The names the harness prints are exactly the set `BENCHMARK.json`
    /// declares, with the same unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let doc = declared();
        let keys: Vec<&str> = doc.members().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        for w in doc.get("workloads").unwrap().items() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
            assert_eq!(w.members().unwrap().len(), 2);
        }

        let check = |key: &str, ours: Vec<MetricDef>| {
            let theirs = doc.get(key).unwrap().items();
            assert_eq!(theirs.len(), ours.len(), "{key} count");
            for (t, o) in theirs.iter().zip(&ours) {
                assert_eq!(t.get("name").unwrap().as_str(), Some(o.name.as_str()));
                assert_eq!(t.get("unit").unwrap().as_str(), Some(o.unit), "{}", o.name);
                assert_eq!(
                    t.get("better").unwrap().as_str(),
                    Some(o.better.word()),
                    "{}",
                    o.name
                );
                assert_eq!(
                    t.get("bound").and_then(json::Value::as_f64),
                    o.bound,
                    "{}",
                    o.name
                );
                assert_eq!(
                    t.members().unwrap().len(),
                    if o.bound.is_some() { 4 } else { 3 }
                );
            }
        };
        check("end_to_end", end_to_end());
        check("per_layer", per_layer());

        assert_eq!(
            doc.get("paths").unwrap().items(),
            [json::Value::Str("benchmark".into())]
        );
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(secs, crate::config::RUN_SECONDS as f64);
    }
}

//! Serving latency/throughput sweep: batched inference through
//! `fathom-serve` across every workload and a range of coalescing
//! limits.
//!
//! For each workload and each batch size, a closed-loop load (clients =
//! twice the batch, zero think time) drives one `SessionWorker` built at
//! that batch extent. Service times are real wall-clock measurements of
//! the inference session; queueing, batching, and latency accounting run
//! in the serving loop's deterministic virtual time (`serve` is the
//! 1 model x 1 shard x N replica case of the cluster loop, so the sweep
//! and the cluster scenario below exercise the same code). The sweep reports
//! throughput and tail latency per configuration — the classic
//! batching trade: larger batches amortize per-op overhead (throughput
//! up) while requests wait longer for a slot (p99 up). Emits
//! `BENCH_serve.json` into `target/fathom-results/` and the repository
//! root.

use std::fmt::Write as _;

use fathom::{BuildConfig, ModelKind};
use fathom_serve::{
    serve, serve_cluster, synth_inputs, BatchPolicy, BatchRunner, ClusterConfig, ClusterReport,
    ClusterRunner, LoadModel, ModelSpec, ServeConfig, SessionWorker, SloClass,
};

use crate::{write_artifact, Effort};

/// Coalescing limits swept per workload.
pub const BATCH_SIZES: [usize; 3] = [1, 2, 4];

/// Shard groups per model in the cluster scenario.
pub const CLUSTER_SHARDS: usize = 2;

/// Coalescing limit in the cluster scenario.
pub const CLUSTER_MAX_BATCH: usize = 4;

/// Offered load as a multiple of measured fleet capacity.
pub const CLUSTER_OVERLOAD: f64 = 2.0;

/// One (workload, batch size) measurement.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Workload name.
    pub workload: &'static str,
    /// Batcher coalescing limit (= graph batch extent).
    pub max_batch: usize,
    /// Completed requests per second of virtual makespan.
    pub throughput_rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean carried batch size across dispatches.
    pub mean_batch: f64,
    /// Requests completed (none may be shed or timed out here).
    pub completed: u64,
}

/// Measures one (workload, batch size) cell.
pub fn measure(kind: ModelKind, max_batch: usize, effort: &Effort) -> ServePoint {
    let cfg = BuildConfig::inference().with_batch(max_batch);
    let mut worker = SessionWorker::new(kind, &cfg).expect("every workload is servable");
    let shapes = worker.item_shapes();
    let domains = worker.domains();
    let serve_cfg = ServeConfig {
        // Closed loops with zero think time never outrun the queue cap;
        // a generous bound keeps shed == 0 so throughput is comparable.
        queue_cap: 64 * max_batch.max(1),
        ..ServeConfig::new(max_batch)
    };
    // Enough completions that the p99 is a real tail statistic rather
    // than the max of a handful of samples (>= 128 per point).
    let requests = (effort.steps.max(1) * 32).max(128).max(2 * max_batch);
    let load = LoadModel::Closed { clients: 2 * max_batch, requests };
    let mut runners: Vec<&mut dyn BatchRunner> = vec![&mut worker];
    let report = serve(
        &mut runners,
        &serve_cfg,
        &load,
        &mut |rng, _| synth_inputs(&shapes, &domains, rng),
        kind.name(),
    )
    .expect("serving a well-formed workload succeeds");
    ServePoint {
        workload: kind.name(),
        max_batch,
        throughput_rps: report.throughput_rps(),
        p50_ms: report.latency.quantile(0.50) / 1e6,
        p99_ms: report.latency.quantile(0.99) / 1e6,
        mean_batch: report.mean_batch_size(),
        completed: report.completed,
    }
}

/// Runs one cluster leg: each workload behind [`CLUSTER_SHARDS`] shards
/// of one replica, offered `rates[i]` requests/second open-loop under
/// the default 50/30/20 SLO mix and per-class deadlines.
pub fn run_cluster_leg(
    kinds: &[ModelKind],
    rates: &[f64],
    batching: BatchPolicy,
    duration_nanos: u64,
) -> ClusterReport {
    let cfg = BuildConfig::inference().with_batch(CLUSTER_MAX_BATCH);
    let mut fleet: Vec<Vec<Vec<SessionWorker>>> = kinds
        .iter()
        .map(|kind| {
            (0..CLUSTER_SHARDS)
                .map(|_| {
                    vec![SessionWorker::new(*kind, &cfg).expect("every workload is servable")]
                })
                .collect()
        })
        .collect();
    let mut specs: Vec<ModelSpec<'_>> = Vec::with_capacity(kinds.len());
    for ((kind, rate), shards_of) in kinds.iter().zip(rates).zip(fleet.iter_mut()) {
        let shapes = shards_of[0][0].item_shapes();
        let domains = shards_of[0][0].domains();
        specs.push(ModelSpec {
            name: kind.name().to_string(),
            shards: shards_of
                .iter_mut()
                .map(|s| s.iter_mut().map(|w| w as &mut dyn ClusterRunner).collect())
                .collect(),
            rps: *rate,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
        });
    }
    let cluster_cfg = ClusterConfig {
        batching,
        duration_nanos,
        seed: 0xC1057E4,
        ..ClusterConfig::new(CLUSTER_MAX_BATCH)
    };
    serve_cluster(&mut specs, &cluster_cfg).expect("a well-formed cluster serves")
}

/// One cluster leg rendered as a JSON object (throughput plus per-class
/// completion and latency quantiles).
fn leg_json(report: &ClusterReport) -> String {
    let ms = |nanos: f64| nanos / 1e6;
    let classes: Vec<String> = SloClass::ALL
        .iter()
        .map(|class| {
            let c = &report.per_class[class.idx()];
            format!(
                "{{\"class\": \"{}\", \"issued\": {}, \"completed\": {}, \"shed\": {}, \
                 \"timed_out\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                class,
                c.issued,
                c.completed,
                c.shed,
                c.timed_out,
                ms(c.latency.quantile(0.50)),
                ms(c.latency.quantile(0.95)),
                ms(c.latency.quantile(0.99)),
            )
        })
        .collect();
    format!(
        "{{\"throughput_rps\": {:.3}, \"completed\": {}, \"shed\": {}, \"timed_out\": {}, \
         \"classes\": [{}]}}",
        report.throughput_rps(),
        report.completed(),
        report.shed(),
        report.timed_out(),
        classes.join(", ")
    )
}

/// Renders the sweep as `BENCH_serve.json` (written by hand; the suite
/// carries no JSON dependency). `cluster` is the pre-rendered cluster
/// scenario object, when the run produced one.
pub fn to_json(points: &[ServePoint], cluster: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"serve_latency\",\n");
    let _ = writeln!(
        out,
        "  \"batch_sizes\": [{}],",
        BATCH_SIZES.map(|b| b.to_string()).join(", ")
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"max_batch\": {}, \"throughput_rps\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_batch\": {:.2}, \"completed\": {}}}",
            p.workload, p.max_batch, p.throughput_rps, p.p50_ms, p.p99_ms, p.mean_batch, p.completed
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some(cluster) = cluster {
        out.push_str(",\n  \"cluster\": ");
        out.push_str(cluster);
    }
    out.push_str("\n}\n");
    out
}

/// Runs the serving sweep over every workload and batch size.
pub fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SERVING: closed-loop batched inference (fathom-serve)\n\
         throughput (req/s of virtual time) and latency vs coalescing limit\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>12} {:>10} {:>10} {:>10}",
        "workload", "batch", "thru req/s", "p50 ms", "p99 ms", "mean sz"
    );
    let mut points = Vec::new();
    for kind in ModelKind::ALL {
        for b in BATCH_SIZES {
            let p = measure(kind, b, effort);
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12.1} {:>10.3} {:>10.3} {:>10.2}",
                p.workload, p.max_batch, p.throughput_rps, p.p50_ms, p.p99_ms, p.mean_batch
            );
            points.push(p);
        }
    }

    // Cluster scenario: every workload behind a 2-shard group at 2x its
    // measured batch-4 capacity, mixed 50/30/20 SLO traffic, run once
    // with continuous batching and once with the fixed pack/run/split
    // rounds `serve` runs under — then a mixed fleet of four models.
    let duration_nanos = (effort.steps.max(1) as u64) * 100_000_000;
    let _ = writeln!(
        out,
        "\nCLUSTER: open-loop {CLUSTER_OVERLOAD}x overload, {CLUSTER_SHARDS} shards/model, \
         50/30/20 SLO mix\ncontinuous batching vs fixed rounds; interactive deadline 50 ms\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "workload", "cont req/s", "fixed req/s", "cont i-p99", "fixed i-p99", "cont wins"
    );
    let capacity = |kind: ModelKind| -> f64 {
        points
            .iter()
            .find(|p| p.workload == kind.name() && p.max_batch == CLUSTER_MAX_BATCH)
            .map(|p| p.throughput_rps)
            .unwrap_or(100.0)
    };
    let mut workload_rows = Vec::new();
    let mut wins = 0usize;
    for kind in ModelKind::ALL {
        let rps = CLUSTER_OVERLOAD * CLUSTER_SHARDS as f64 * capacity(kind);
        let cont =
            run_cluster_leg(&[kind], &[rps], BatchPolicy::Continuous, duration_nanos);
        let fixed = run_cluster_leg(
            &[kind],
            &[rps],
            BatchPolicy::FixedRound { max_delay_nanos: 2_000_000 },
            duration_nanos,
        );
        let won = cont.throughput_rps() >= fixed.throughput_rps();
        wins += won as usize;
        let i_p99 = |r: &ClusterReport| {
            r.per_class[SloClass::Interactive.idx()].latency.quantile(0.99) / 1e6
        };
        let _ = writeln!(
            out,
            "{:<12} {:>14.1} {:>14.1} {:>12.3} {:>12.3} {:>10}",
            kind.name(),
            cont.throughput_rps(),
            fixed.throughput_rps(),
            i_p99(&cont),
            i_p99(&fixed),
            won
        );
        workload_rows.push(format!(
            "      {{\"workload\": \"{}\", \"offered_rps\": {:.1}, \"continuous_wins\": {}, \
             \"continuous\": {}, \"fixed_round\": {}}}",
            kind.name(),
            rps,
            won,
            leg_json(&cont),
            leg_json(&fixed),
        ));
    }
    let _ = writeln!(
        out,
        "\ncontinuous batching won throughput on {wins}/{} workloads",
        ModelKind::ALL.len()
    );

    let mixed_kinds = [ModelKind::Memnet, ModelKind::Autoenc, ModelKind::Alexnet, ModelKind::Deepq];
    let mixed_rates: Vec<f64> = mixed_kinds
        .iter()
        .map(|k| CLUSTER_OVERLOAD * CLUSTER_SHARDS as f64 * capacity(*k))
        .collect();
    let mixed =
        run_cluster_leg(&mixed_kinds, &mixed_rates, BatchPolicy::Continuous, duration_nanos);
    let _ = writeln!(
        out,
        "\nmixed fleet ({}): issued {}  completed {}  shed {}  timed-out {}",
        mixed_kinds.map(|k| k.name()).join("+"),
        mixed.issued(),
        mixed.completed(),
        mixed.shed(),
        mixed.timed_out()
    );
    for class in SloClass::ALL {
        let c = &mixed.per_class[class.idx()];
        let _ = writeln!(
            out,
            "  {:<12} completed {:>5}  shed {:>5}  p50 {:>8.3} ms  p99 {:>8.3} ms",
            class.name(),
            c.completed,
            c.shed,
            c.latency.quantile(0.50) / 1e6,
            c.latency.quantile(0.99) / 1e6,
        );
    }

    let cluster_json = format!(
        "{{\n    \"shards\": {CLUSTER_SHARDS},\n    \"max_batch\": {CLUSTER_MAX_BATCH},\n    \
         \"overload\": {CLUSTER_OVERLOAD:.1},\n    \"slo_mix\": \"50,30,20\",\n    \
         \"interactive_deadline_ms\": 50.0,\n    \"continuous_wins\": {wins},\n    \
         \"workloads\": [\n{}\n    ],\n    \"mixed\": {{\"models\": \"{}\", \"report\": {}}}\n  }}",
        workload_rows.join(",\n"),
        mixed_kinds.map(|k| k.name()).join("+"),
        leg_json(&mixed),
    );
    let json = to_json(&points, Some(&cluster_json));
    write_artifact("BENCH_serve.json", &json);
    // Also drop it at the repository root, where the PR driver tracks it.
    let repo_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join("BENCH_serve.json"), &json)
        .expect("can write BENCH_serve.json at the repo root");
    write_artifact("serve_latency.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_one_cell() {
        let p = measure(ModelKind::Memnet, 2, &Effort::quick());
        assert_eq!(p.workload, "memnet");
        assert_eq!(p.max_batch, 2);
        assert!(p.completed >= 4);
        assert!(p.throughput_rps > 0.0);
        assert!(p.p99_ms >= p.p50_ms);
    }

    #[test]
    fn json_shape() {
        let points = vec![ServePoint {
            workload: "memnet",
            max_batch: 4,
            throughput_rps: 123.4,
            p50_ms: 1.0,
            p99_ms: 2.0,
            mean_batch: 3.5,
            completed: 32,
        }];
        let json = to_json(&points, None);
        assert!(json.contains("\"experiment\": \"serve_latency\""));
        assert!(json.contains("\"workload\": \"memnet\""));
        assert!(json.contains("\"throughput_rps\": 123.400"));
        assert!(json.contains("\"p99_ms\": 2.000"));
        assert!(!json.contains("\"cluster\""));
        let json = to_json(&points, Some("{\"shards\": 2}"));
        assert!(json.contains("\"cluster\": {\"shards\": 2}"));
    }

    #[test]
    fn cluster_leg_reports_per_class_quantiles() {
        let report = run_cluster_leg(
            &[ModelKind::Memnet],
            &[300.0],
            BatchPolicy::Continuous,
            100_000_000,
        );
        assert!(report.conserved());
        assert!(report.completed() > 0);
        let json = leg_json(&report);
        for key in ["\"class\": \"interactive\"", "\"p95_ms\"", "\"throughput_rps\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

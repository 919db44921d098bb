//! Serving latency/throughput sweep: batched inference through
//! `fathom-serve` across every workload and a range of coalescing
//! limits.
//!
//! For each workload and each batch size, a closed-loop load (clients =
//! twice the batch, zero think time) drives one `SessionWorker` built at
//! that batch extent. Service times are real wall-clock measurements of
//! the inference session; queueing, batching, and latency accounting run
//! in the serving loop's deterministic virtual time (the sweep is
//! `serve_cluster` over one model on one shard, so it and the cluster
//! scenario below exercise the same code). The sweep reports
//! throughput and tail latency per configuration — the classic
//! batching trade: larger batches amortize per-op overhead (throughput
//! up) while requests wait longer for a slot (p99 up). Every cell and
//! every cluster leg is re-run in interleaved rounds (service times are
//! wall-clock) and `BENCH_serve.json`, emitted through `crate::measure`,
//! carries each timed number's median and inter-quartile distance.

use std::fmt::Write as _;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::Json;
use fathom_serve::{
    serve_cluster, synth_inputs, ClosedLoop, ClusterConfig, ClusterReport, ClusterRunner,
    ModelSpec, SessionWorker, SloClass, SloMix, SloPolicy,
};

use crate::measure::{emit, envelope, rounds, Spread, WithSpread};
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
    pub throughput_rps: Spread,
    /// Median request latency, milliseconds.
    pub p50_ms: Spread,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: Spread,
    /// Mean carried batch size across dispatches.
    pub mean_batch: Spread,
    /// Requests completed (none may be shed or timed out here).
    pub completed: u64,
}

/// Measures one (workload, batch size) cell over the rounds.
pub fn measure(kind: ModelKind, max_batch: usize, effort: &Effort) -> ServePoint {
    let ([throughput_rps, p50_ms, p99_ms, mean_batch], completed) = rounds(effort, || {
        let report = serve_closed_loop(kind, max_batch, effort);
        let latency = report.latency();
        let numbers = [
            report.throughput_rps(),
            latency.quantile(0.50) / 1e6,
            latency.quantile(0.99) / 1e6,
            report.models[0].mean_batch(),
        ];
        (numbers, report.completed())
    });
    ServePoint { workload: kind.name(), max_batch, throughput_rps, p50_ms, p99_ms, mean_batch, completed }
}

/// One closed-loop run of one (workload, batch size) cell: one model on
/// one shard of one replica, every request Standard with no deadline.
fn serve_closed_loop(kind: ModelKind, max_batch: usize, effort: &Effort) -> ClusterReport {
    let cfg = BuildConfig::inference().with_batch(max_batch);
    let mut worker = SessionWorker::new(kind, &cfg).expect("every workload is servable");
    let shapes = worker.item_shapes();
    let domains = worker.domains();
    // Enough completions that the p99 is a real tail statistic rather
    // than the max of a handful of samples (>= 128 per point).
    let requests = (effort.steps.max(1) * 32).max(128).max(2 * max_batch);
    let serve_cfg = ClusterConfig {
        // Closed loops with zero think time never outrun the queue cap;
        // a generous bound keeps shed == 0 so throughput is comparable.
        queue_cap: 64 * max_batch.max(1),
        slo: SloPolicy { deadline_nanos: [None; SloClass::COUNT] },
        mix: SloMix::pure(SloClass::Standard),
        closed_loop: Some(ClosedLoop { clients: 2 * max_batch, requests }),
        seed: 0xFA7408,
        ..ClusterConfig::new(max_batch)
    };
    let mut models = [ModelSpec {
        name: kind.name().to_string(),
        shards: vec![vec![&mut worker as &mut dyn ClusterRunner]],
        rps: 0.0,
        synth: Box::new(move |rng, _| synth_inputs(&shapes, &domains, rng)),
    }];
    serve_cluster(&mut models, &serve_cfg).expect("serving a well-formed workload succeeds")
}

/// Runs one cluster leg: each workload behind [`CLUSTER_SHARDS`] shards
/// of one replica, offered `rates[i]` requests/second open-loop under
/// the default 50/30/20 SLO mix and per-class deadlines.
pub fn run_cluster_leg(kinds: &[ModelKind], rates: &[f64], duration_nanos: u64) -> ClusterReport {
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
        duration_nanos,
        seed: 0xC1057E4,
        ..ClusterConfig::new(CLUSTER_MAX_BATCH)
    };
    serve_cluster(&mut specs, &cluster_cfg).expect("a well-formed cluster serves")
}

/// Timed numbers of one cluster leg: throughput, then p50/p95/p99 (ms)
/// per SLO class.
const LEG_NUMBERS: usize = 1 + 3 * SloClass::COUNT;

/// One cluster leg over the rounds: its timed numbers with their
/// spreads, and the last round's report for the counts.
struct ClusterLeg {
    /// Throughput, then p50/p95/p99 per class in `SloClass::ALL` order.
    numbers: [Spread; LEG_NUMBERS],
    report: ClusterReport,
}

impl ClusterLeg {
    /// Completed requests per second of virtual makespan.
    fn throughput_rps(&self) -> Spread {
        self.numbers[0]
    }

    /// The `q`-th (0 = p50, 1 = p95, 2 = p99) latency quantile of
    /// `class`, milliseconds.
    fn quantile_ms(&self, class: SloClass, q: usize) -> Spread {
        self.numbers[1 + 3 * class.idx() + q]
    }

    /// The leg as a JSON object (throughput plus per-class completion
    /// and latency quantiles).
    fn json(&self) -> Json {
        let classes = SloClass::ALL.iter().map(|&class| {
            let c = &self.report.per_class[class.idx()];
            let row = Json::obj()
                .with("class", class.name())
                .with("issued", c.issued)
                .with("completed", c.completed)
                .with("shed", c.shed)
                .with("timed_out", c.timed_out);
            ["p50_ms", "p95_ms", "p99_ms"]
                .iter()
                .enumerate()
                .fold(row, |row, (q, key)| row.with_spread(key, self.quantile_ms(class, q), 3))
        });
        Json::obj()
            .with_spread("throughput_rps", self.throughput_rps(), 3)
            .with("completed", self.report.completed())
            .with("shed", self.report.shed())
            .with("timed_out", self.report.timed_out())
            .with("classes", Json::arr(classes))
    }
}

/// One round's timed numbers of a cluster leg.
fn leg_numbers(report: &ClusterReport) -> [f64; LEG_NUMBERS] {
    let mut out = [report.throughput_rps(); LEG_NUMBERS];
    for class in SloClass::ALL {
        for (q, quantile) in [0.50, 0.95, 0.99].into_iter().enumerate() {
            out[1 + 3 * class.idx() + q] =
                report.per_class[class.idx()].latency.quantile(quantile) / 1e6;
        }
    }
    out
}

/// The sweep and the cluster scenario as the `BENCH_serve.json`
/// document.
pub fn document(points: &[ServePoint], cluster: Option<Json>, effort: &Effort) -> Json {
    let rows = points.iter().map(|p| {
        Json::obj()
            .with("workload", p.workload)
            .with("max_batch", p.max_batch)
            .with_spread("throughput_rps", p.throughput_rps, 3)
            .with_spread("p50_ms", p.p50_ms, 3)
            .with_spread("p99_ms", p.p99_ms, 3)
            .with_spread("mean_batch", p.mean_batch, 2)
            .with("completed", p.completed)
    });
    // Every replica is a `Device::cpu(1)` session.
    let doc = envelope("serve_latency", 1, effort)
        .with("batch_sizes", Json::arr(BATCH_SIZES))
        .with("points", Json::arr(rows));
    match cluster {
        Some(cluster) => doc.with("cluster", cluster),
        None => doc,
    }
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
                p.workload,
                p.max_batch,
                p.throughput_rps.median,
                p.p50_ms.median,
                p.p99_ms.median,
                p.mean_batch.median
            );
            points.push(p);
        }
    }

    // Cluster scenario: every workload behind a 2-shard group at 2x its
    // measured batch-4 capacity, mixed 50/30/20 SLO traffic — then a
    // mixed fleet of four models.
    let duration_nanos = (effort.steps.max(1) as u64) * 100_000_000;
    let _ = writeln!(
        out,
        "\nCLUSTER: open-loop {CLUSTER_OVERLOAD}x overload, {CLUSTER_SHARDS} shards/model, \
         50/30/20 SLO mix\ninteractive deadline 50 ms\n"
    );
    let _ = writeln!(out, "{:<12} {:>14} {:>12}", "workload", "req/s", "i-p99 ms");
    let capacity = |kind: ModelKind| -> f64 {
        points
            .iter()
            .find(|p| p.workload == kind.name() && p.max_batch == CLUSTER_MAX_BATCH)
            .map(|p| p.throughput_rps.median)
            .unwrap_or(100.0)
    };
    let mut workload_rows = Vec::new();
    for kind in ModelKind::ALL {
        let rps = CLUSTER_OVERLOAD * CLUSTER_SHARDS as f64 * capacity(kind);
        let (numbers, report) = rounds(effort, || {
            let report = run_cluster_leg(&[kind], &[rps], duration_nanos);
            (leg_numbers(&report), report)
        });
        let leg = ClusterLeg { numbers, report };
        let _ = writeln!(
            out,
            "{:<12} {:>14.1} {:>12.3}",
            kind.name(),
            leg.throughput_rps().median,
            leg.quantile_ms(SloClass::Interactive, 2).median,
        );
        workload_rows.push(
            Json::obj()
                .with("workload", kind.name())
                .with("offered_rps", Json::fixed(rps, 1))
                .with("report", leg.json()),
        );
    }

    let mixed_kinds = [ModelKind::Memnet, ModelKind::Autoenc, ModelKind::Alexnet, ModelKind::Deepq];
    let mixed_rates: Vec<f64> = mixed_kinds
        .iter()
        .map(|k| CLUSTER_OVERLOAD * CLUSTER_SHARDS as f64 * capacity(*k))
        .collect();
    let (numbers, report) = rounds(effort, || {
        let report = run_cluster_leg(&mixed_kinds, &mixed_rates, duration_nanos);
        (leg_numbers(&report), report)
    });
    let mixed = ClusterLeg { numbers, report };
    let mixed_names = mixed_kinds.map(|k| k.name()).join("+");
    let _ = writeln!(
        out,
        "\nmixed fleet ({mixed_names}): issued {}  completed {}  shed {}  timed-out {}",
        mixed.report.issued(),
        mixed.report.completed(),
        mixed.report.shed(),
        mixed.report.timed_out()
    );
    for class in SloClass::ALL {
        let c = &mixed.report.per_class[class.idx()];
        let _ = writeln!(
            out,
            "  {:<12} completed {:>5}  shed {:>5}  p50 {:>8.3} ms  p99 {:>8.3} ms",
            class.name(),
            c.completed,
            c.shed,
            mixed.quantile_ms(class, 0).median,
            mixed.quantile_ms(class, 2).median,
        );
    }

    let cluster = Json::obj()
        .with("shards", CLUSTER_SHARDS)
        .with("max_batch", CLUSTER_MAX_BATCH)
        .with("overload", Json::fixed(CLUSTER_OVERLOAD, 1))
        .with("slo_mix", "50,30,20")
        .with("interactive_deadline_ms", Json::fixed(50.0, 1))
        .with("workloads", Json::Arr(workload_rows))
        .with("mixed", Json::obj().with("models", mixed_names.as_str()).with("report", mixed.json()));
    emit("BENCH_serve.json", &document(&points, Some(cluster), effort));
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
        assert!(p.throughput_rps.median > 0.0);
        assert!(p.p99_ms.median >= p.p50_ms.median);
    }

    #[test]
    fn cluster_leg_reports_per_class_quantiles() {
        let report = run_cluster_leg(&[ModelKind::Memnet], &[300.0], 100_000_000);
        assert!(report.conserved());
        assert!(report.completed() > 0);
        let numbers = leg_numbers(&report).map(|median| Spread { median, iqr: 0.0 });
        let json = ClusterLeg { numbers, report }.json().render_nested();
        for key in ["\"class\": \"interactive\"", "\"p95_ms\"", "\"throughput_rps\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

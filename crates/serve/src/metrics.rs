//! Per-request observability: latency distribution, queue pressure,
//! batch shape, and op-class time slices for a serving run.
//!
//! Everything here is plain data plus a [`Json`] tree per report,
//! rendered by the workspace's one writer (`fathom_dataflow::json`:
//! escaping, non-finite floats as `null` and omitted all-default blocks
//! are its rules, not this module's), so a [`ServeReport`] can be
//! dropped next to the other `BENCH_*.json` artifacts and diffed across
//! runs. The blocks it shares with
//! [`ClusterReport`](crate::cluster::ClusterReport) — `latency_ms`,
//! `recovery`, `shed_reasons` — are built here, once.

use fathom_dataflow::{Json, OpClass, RuntimeCounters};
use serde::Serialize;

/// An exact-quantile latency recorder. Samples are kept raw (a serving
/// run records at most a few thousand requests), so percentiles are
/// computed from the sorted data rather than from bucket midpoints.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyHistogram {
    samples: Vec<f64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&mut self, nanos: f64) {
        self.samples.push(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, by the
    /// nearest-rank method: the smallest sample with at least `q * n`
    /// samples at or below it.
    ///
    /// Contract at the edges (covered by unit tests): an empty histogram
    /// returns 0 regardless of `q`; `q = 0.0` returns the minimum
    /// (rank clamps up to 1); `q = 1.0` returns the maximum; a singleton
    /// histogram returns its only sample for every `q`. Out-of-range or
    /// NaN `q` never panics or indexes out of bounds — the rank is
    /// clamped into `1..=n`, so `q < 0.0` and NaN degrade to the minimum
    /// and `q > 1.0` to the maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles([q])[0]
    }

    /// Several quantiles from one sort of the samples.
    fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        if self.samples.is_empty() {
            return [0.0; N];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        // `ceil` then clamp: the float-to-usize cast saturates (NaN to
        // 0), and the clamp keeps every pathological rank in bounds.
        qs.map(|q| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1])
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Folds another histogram's samples into this one. Because samples
    /// are kept raw, merging per-shard histograms yields exactly the
    /// quantiles a single combined histogram would report — the property
    /// the cluster report relies on for cross-shard aggregation (covered
    /// by `tests/metrics_properties.rs`).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The `latency_ms` object of a report: quantiles, mean and max in
    /// milliseconds.
    pub(crate) fn json_ms(&self) -> Json {
        let ms = |nanos: f64| Json::fixed(nanos / 1e6, 3);
        let [p50, p95, p99] = self.quantiles([0.50, 0.95, 0.99]);
        Json::obj()
            .with("p50", ms(p50))
            .with("p95", ms(p95))
            .with("p99", ms(p99))
            .with("mean", ms(self.mean()))
            .with("max", ms(self.max()))
    }
}

/// Supervisor activity over one serving run: how often replicas failed
/// and what the recovery machinery did about it. All zeros on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryCounters {
    /// Batch dispatches that returned an error (replica crash).
    pub crashes: u64,
    /// Requests re-queued for another attempt after their batch failed.
    pub retried: u64,
    /// Requests dropped after exhausting the retry budget (these are
    /// also counted in [`ServeReport::shed`] so conservation holds).
    pub dropped: u64,
    /// Times a replica entered quarantine after a failure.
    pub quarantines: u64,
    /// Successful replica rebuilds (quarantine exits back to service).
    pub recoveries: u64,
    /// Replicas retired permanently after exhausting restarts.
    pub dead_replicas: u64,
}

impl RecoveryCounters {
    /// True when any failure or recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }

}

/// The `recovery` block of a report.
impl From<RecoveryCounters> for Json {
    fn from(c: RecoveryCounters) -> Json {
        Json::obj()
            .with("crashes", c.crashes)
            .with("retried", c.retried)
            .with("dropped", c.dropped)
            .with("quarantines", c.quarantines)
            .with("recoveries", c.recoveries)
            .with("dead_replicas", c.dead_replicas)
    }
}

/// Why requests were shed, itemized. The sum of the fields equals the
/// report's `shed` counter; a run that sheds nothing leaves all fields
/// zero and the breakdown out of the JSON entirely (so no-shed output
/// stays byte-identical to earlier builds, like the `recovery` block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShedBreakdown {
    /// Refused at admission because the queue was at capacity.
    pub queue_full: u64,
    /// Refused at admission because the backlog made the request's
    /// deadline provably unmeetable (cluster admission only).
    pub deadline_infeasible: u64,
    /// Evicted from the queue to make room for a higher-priority
    /// arrival (cluster admission only).
    pub priority_evicted: u64,
    /// Lost to replica failure: retry budget exhausted after crashed
    /// batches, or stranded when every replica died.
    pub replica_loss: u64,
}

impl ShedBreakdown {
    /// True when any shed was recorded.
    pub fn any(&self) -> bool {
        *self != ShedBreakdown::default()
    }

    /// Sum across all reasons — must equal the companion `shed` counter.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_infeasible + self.priority_evicted + self.replica_loss
    }

    /// Folds another breakdown into this one (cross-shard aggregation).
    pub fn merge(&mut self, other: &ShedBreakdown) {
        self.queue_full += other.queue_full;
        self.deadline_infeasible += other.deadline_infeasible;
        self.priority_evicted += other.priority_evicted;
        self.replica_loss += other.replica_loss;
    }

    /// The breakdown as a JSON object string, as it appears inside a
    /// report.
    pub fn to_json(&self) -> String {
        Json::from(*self).render_nested()
    }
}

/// The `shed_reasons` block of a report.
impl From<ShedBreakdown> for Json {
    fn from(b: ShedBreakdown) -> Json {
        Json::obj()
            .with("queue_full", b.queue_full)
            .with("deadline_infeasible", b.deadline_infeasible)
            .with("priority_evicted", b.priority_evicted)
            .with("replica_loss", b.replica_loss)
    }
}

/// Everything measured over one single-model serving run: the flat view
/// [`serve`](crate::engine::serve) takes of its one-model
/// [`ClusterReport`](crate::cluster::ClusterReport).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Workload short name.
    pub workload: String,
    /// Batcher coalescing limit.
    pub max_batch: usize,
    /// Session workers serving in parallel.
    pub replicas: usize,
    /// Requests generated by the load model.
    pub issued: u64,
    /// Requests that returned a result.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub shed: u64,
    /// Why each shed happened; `shed_reasons.total() == shed` always.
    pub shed_reasons: ShedBreakdown,
    /// Requests dropped from the queue past their deadline.
    pub timed_out: u64,
    /// Virtual time from the first arrival to the last completion, ns.
    pub makespan_nanos: u64,
    /// End-to-end request latency (admission to batch completion).
    pub latency: LatencyHistogram,
    /// Supervisor counters: crashes, retries, quarantines, recoveries.
    pub recovery: RecoveryCounters,
    /// Unified-runtime counters folded across all replica sessions.
    pub runtime: RuntimeCounters,
    /// Requests admitted to the queue; each sampled the queue depth.
    pub(crate) admitted: u64,
    pub(crate) max_queue_depth: usize,
    pub(crate) batches: u64,
    /// Requests carried across the executed batches.
    pub(crate) batched_requests: u64,
    pub(crate) class_nanos: [f64; 7],
}

impl ServeReport {
    /// Creates an empty report shell for `workload`.
    pub fn new(workload: &str, max_batch: usize, replicas: usize) -> Self {
        ServeReport {
            workload: workload.to_string(),
            max_batch,
            replicas,
            issued: 0,
            completed: 0,
            shed: 0,
            shed_reasons: ShedBreakdown::default(),
            timed_out: 0,
            makespan_nanos: 0,
            latency: LatencyHistogram::new(),
            recovery: RecoveryCounters::default(),
            runtime: RuntimeCounters::default(),
            admitted: 0,
            max_queue_depth: 0,
            batches: 0,
            batched_requests: 0,
            class_nanos: [0.0; 7],
        }
    }

    /// Completed requests per second of virtual makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_nanos == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.makespan_nanos as f64
    }

    /// Executed batches.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Mean carried batch size across executed batches (0 when none ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }

    /// Deepest queue observed at any admission.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Total op time attributed to each paper class across all traced
    /// batches, A-G order.
    pub fn class_nanos(&self) -> [f64; 7] {
        self.class_nanos
    }

    /// Serializes the report to a JSON document. `shed_reasons`,
    /// `recovery` and `runtime` appear only when something was shed, the
    /// supervisor acted, or the unified runtime recorded something, so
    /// runs that exercise none of them keep byte-identical output.
    pub fn to_json(&self) -> String {
        let classes = OpClass::ALL
            .iter()
            .zip(self.class_nanos)
            .fold(Json::obj(), |o, (c, nanos)| o.with(&c.letter().to_string(), Json::fixed(nanos, 0)));
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("max_batch", self.max_batch)
            .with("replicas", self.replicas)
            .with("issued", self.issued)
            .with("completed", self.completed)
            .with("shed", self.shed)
            .with_nondefault("shed_reasons", self.shed_reasons)
            .with("timed_out", self.timed_out)
            .with("makespan_ms", Json::fixed(self.makespan_nanos as f64 / 1e6, 3))
            .with("throughput_rps", Json::fixed(self.throughput_rps(), 3))
            .with("latency_ms", self.latency.json_ms())
            .with("queue_depth", Json::obj().with("max", self.max_queue_depth).with("samples", self.admitted))
            .with(
                "batches",
                Json::obj().with("count", self.batches).with("mean_size", Json::fixed(self.mean_batch_size(), 3)),
            )
            .with_nondefault("recovery", self.recovery)
            .with_nondefault("runtime", self.runtime)
            .with("class_nanos", classes)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.99), 100.0);
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_edge_ranks() {
        let mut h = LatencyHistogram::new();
        for v in [30.0, 10.0, 20.0] {
            h.record(v);
        }
        // q=0 clamps the rank up to 1 (the minimum), q=1 lands exactly
        // on rank n (the maximum) — no off-by-one at either edge.
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(1.0), 30.0);
        // One third of 3 samples is exactly rank 1.
        assert_eq!(h.quantile(1.0 / 3.0), 10.0);
        assert_eq!(h.quantile(1.0 / 3.0 + 1e-9), 20.0);
    }

    #[test]
    fn singleton_histogram_returns_its_sample_for_every_q() {
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0);
        }
    }

    #[test]
    fn pathological_q_never_panics() {
        let mut h = LatencyHistogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        // Out-of-range and NaN q degrade to the edges instead of
        // panicking or indexing out of bounds.
        assert_eq!(h.quantile(-0.5), 10.0);
        assert_eq!(h.quantile(f64::NAN), 10.0);
        assert_eq!(h.quantile(1.5), 30.0);
        assert_eq!(h.quantile(f64::INFINITY), 30.0);
    }

    #[test]
    fn merged_histograms_match_a_single_combined_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for (i, v) in [5.0, 90.0, 15.0, 70.0, 30.0, 55.0, 10.0, 85.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            combined.record(*v);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), combined.count());
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={q}");
        }
        assert_eq!(merged.mean(), combined.mean());
        assert_eq!(merged.max(), combined.max());
    }

    #[test]
    fn merging_an_empty_histogram_is_a_noop() {
        let mut h = LatencyHistogram::new();
        h.record(7.0);
        h.merge(&LatencyHistogram::new());
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 7.0);
        let mut empty = LatencyHistogram::new();
        empty.merge(&h);
        assert_eq!(empty.quantile(1.0), 7.0);
    }

    #[test]
    fn shed_breakdown_totals_and_merge() {
        let mut a = ShedBreakdown { queue_full: 2, ..ShedBreakdown::default() };
        assert!(a.any());
        assert_eq!(a.total(), 2);
        let b = ShedBreakdown { deadline_infeasible: 1, priority_evicted: 3, replica_loss: 4, ..ShedBreakdown::default() };
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert!(!ShedBreakdown::default().any());
    }

    #[test]
    fn shed_reasons_appear_in_json_only_when_nonzero() {
        let mut r = ServeReport::new("vgg", 4, 1);
        assert!(!r.to_json().contains("shed_reasons"));
        r.shed = 3;
        r.shed_reasons.queue_full = 2;
        r.shed_reasons.replica_loss = 1;
        let json = r.to_json();
        assert!(json.contains("\"shed_reasons\""));
        assert!(json.contains("\"queue_full\": 2"));
        assert!(json.contains("\"replica_loss\": 1"));
    }

    #[test]
    fn report_derives_means_from_its_aggregates() {
        let mut r = ServeReport::new("alexnet", 4, 1);
        assert_eq!(r.mean_batch_size(), 0.0, "no batch ran");
        r.batches = 2;
        r.batched_requests = 6;
        r.completed = 6;
        r.makespan_nanos = 3_000_000_000;
        assert_eq!(r.batches(), 2);
        assert_eq!(r.mean_batch_size(), 3.0);
        assert!((r.throughput_rps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_samples_degrade_to_null_not_bare_tokens() {
        let mut r = ServeReport::new("speech", 4, 1);
        r.issued = 2;
        r.completed = 2;
        r.latency.record(f64::NAN);
        r.latency.record(f64::INFINITY);
        r.class_nanos[3] = f64::NEG_INFINITY;
        let json = r.to_json();
        assert!(json.contains("null"), "poisoned fields should emit null: {json}");
        for token in ["NaN", "inf", "Infinity"] {
            assert!(!json.contains(token), "bare {token} leaked into JSON: {json}");
        }
        // Integer-derived fields are untouched by the degradation.
        assert!(json.contains("\"issued\": 2"));
    }

    #[test]
    fn json_has_the_headline_fields() {
        let mut r = ServeReport::new("vgg", 8, 2);
        r.issued = 3;
        r.completed = 3;
        r.latency.record(1_000_000.0);
        let json = r.to_json();
        for key in [
            "\"workload\": \"vgg\"",
            "\"max_batch\": 8",
            "\"replicas\": 2",
            "\"throughput_rps\"",
            "\"latency_ms\"",
            "\"p99\"",
            "\"class_nanos\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

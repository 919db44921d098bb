//! Per-request observability: the latency distribution, supervisor
//! counters and shed reasons of a serving run.
//!
//! Everything here is plain data plus a [`Json`] block each, rendered
//! by the workspace's one writer (`fathom_dataflow::json`: escaping,
//! non-finite floats as `null` and omitted all-default blocks are its
//! rules, not this module's). [`ClusterReport`](crate::cluster::ClusterReport)
//! assembles them — `latency_ms`, `recovery`, `shed_reasons` — into a
//! document that can be dropped next to the other `BENCH_*.json`
//! artifacts and diffed across runs.

use std::sync::Arc;

use fathom_dataflow::Json;

/// An exact-quantile latency recorder. Samples are kept raw, so
/// percentiles are computed from the sorted data rather than from bucket
/// midpoints.
///
/// A run records hundreds of thousands of samples and its report folds
/// them twice (shard into model, model into cluster), so the samples sit
/// in immutable shared runs plus one growing tail: [`record`] pushes to
/// the tail, and [`merge`] freezes the receiver's tail into a run and
/// shares the other histogram's runs by reference. Only tails are ever
/// copied, at exact length, so a sample recorded by a shard is copied
/// once into its model's report and held once however many reports fold
/// it. Insertion order is kept, so [`mean`] sums in the order the
/// samples were recorded and merged; two histograms are equal when they
/// hold the same sample sequence.
///
/// [`record`]: LatencyHistogram::record
/// [`merge`]: LatencyHistogram::merge
/// [`mean`]: LatencyHistogram::mean
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Frozen samples, shared with every histogram they were merged into.
    runs: Vec<Arc<[f64]>>,
    /// Samples recorded since the last freeze.
    tail: Vec<f64>,
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count() == other.count() && self.samples().eq(other.samples())
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&mut self, nanos: f64) {
        self.tail.push(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.tail.len()
    }

    /// Every sample in insertion order.
    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs.iter().flat_map(|r| r.iter()).chain(&self.tail).copied()
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

    /// Several quantiles from one sort of the samples, each as
    /// [`quantile`](LatencyHistogram::quantile) would return it.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut sorted = Vec::with_capacity(self.count());
        for run in &self.runs {
            sorted.extend_from_slice(run);
        }
        sorted.extend_from_slice(&self.tail);
        if sorted.is_empty() {
            return [0.0; N];
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        // `ceil` then clamp: the float-to-usize cast saturates (NaN to
        // 0), and the clamp keeps every pathological rank in bounds.
        qs.map(|q| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1])
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.samples().sum::<f64>() / n as f64
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples().fold(0.0, f64::max)
    }

    /// Appends another histogram's samples after this one's. Because
    /// samples are kept raw, merging per-shard histograms yields exactly
    /// the quantiles a single combined histogram would report — the
    /// property the cluster report relies on for cross-shard aggregation
    /// (covered by `tests/metrics_properties.rs`). `other`'s runs are
    /// shared, not copied; only its tail is copied, once, into a new run.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !self.tail.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            self.runs.push(tail.into());
        }
        self.runs.extend(other.runs.iter().cloned());
        if !other.tail.is_empty() {
            self.runs.push(other.tail.as_slice().into());
        }
    }

    /// True when every sample of `self` sits in a run that one of
    /// `owners` holds too, so `self` adds no sample memory beside them.
    #[cfg(test)]
    pub(crate) fn held_by(&self, owners: &[&LatencyHistogram]) -> bool {
        self.tail.is_empty()
            && self.runs.iter().all(|r| {
                owners.iter().flat_map(|o| &o.runs).any(|o| Arc::ptr_eq(r, o))
            })
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Batch dispatches that returned an error (replica crash).
    pub crashes: u64,
    /// Requests re-queued for another attempt after their batch failed.
    pub retried: u64,
    /// Requests dropped after exhausting the retry budget (these are
    /// also counted as shed, `replica_loss`, so conservation holds).
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

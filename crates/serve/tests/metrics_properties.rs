//! Property-based tests for serve metrics: merging per-shard latency
//! histograms must be indistinguishable from having recorded every
//! sample into one histogram — the invariant the cluster report's
//! cross-shard aggregation rests on.

use fathom_serve::{LatencyHistogram, ShedBreakdown};
use proptest::prelude::*;

/// Random latency samples (nanoseconds) plus a shard assignment.
fn samples_and_shards() -> impl Strategy<Value = (Vec<f64>, Vec<usize>)> {
    proptest::collection::vec(1.0f64..5e8, 1..200).prop_flat_map(|samples| {
        let n = samples.len();
        (Just(samples), proptest::collection::vec(0usize..4, n))
    })
}

/// Random latency samples plus cut points that split them into
/// consecutive chunks (empty chunks included; there is always at least
/// one chunk).
fn samples_and_cuts() -> impl Strategy<Value = (Vec<f64>, Vec<usize>)> {
    proptest::collection::vec(1.0f64..5e8, 0..200).prop_flat_map(|samples| {
        let n = samples.len();
        (Just(samples), proptest::collection::vec(0..n + 1, 0..6))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Consecutive chunks recorded into separate histograms and merged
    /// in order are the one histogram that recorded the sequence
    /// directly, sample for sample: equal, with every quantile and the
    /// mean's bits exactly the same. Merging whole merged histograms
    /// (a report folding its models' stats) keeps that too.
    #[test]
    fn in_order_merges_equal_direct_recording((samples, mut cuts) in samples_and_cuts()) {
        let mut direct = LatencyHistogram::new();
        for s in &samples {
            direct.record(*s);
        }
        cuts.push(0);
        cuts.push(samples.len());
        cuts.sort_unstable();
        let chunks: Vec<LatencyHistogram> = cuts
            .windows(2)
            .map(|w| {
                let mut h = LatencyHistogram::new();
                for s in &samples[w[0]..w[1]] {
                    h.record(*s);
                }
                h
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        for h in &chunks {
            merged.merge(h);
        }
        // A receiver that recorded samples of its own before merging.
        let mut recorded_then_merged = chunks[0].clone();
        for h in &chunks[1..] {
            recorded_then_merged.merge(h);
        }
        // Halves merged first, then folded together.
        let half = chunks.len() / 2;
        let fold = |hs: &[LatencyHistogram]| {
            let mut m = LatencyHistogram::new();
            for h in hs {
                m.merge(h);
            }
            m
        };
        let mut nested = fold(&chunks[..half]);
        nested.merge(&fold(&chunks[half..]));
        for h in [&merged, &recorded_then_merged, &nested] {
            prop_assert!(*h == direct);
            prop_assert_eq!(h.count(), direct.count());
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(h.quantile(q).to_bits(), direct.quantile(q).to_bits(), "quantile {}", q);
            }
            prop_assert_eq!(h.mean().to_bits(), direct.mean().to_bits());
            prop_assert_eq!(h.max().to_bits(), direct.max().to_bits());
        }
    }

    /// Partition samples over up to four shards, merge the shard
    /// histograms, and compare every statistic against one combined
    /// histogram over the same samples.
    #[test]
    fn merged_shard_histograms_match_one_combined((samples, shards) in samples_and_shards()) {
        let mut combined = LatencyHistogram::new();
        let mut per_shard = vec![LatencyHistogram::new(); 4];
        for (s, shard) in samples.iter().zip(&shards) {
            combined.record(*s);
            per_shard[*shard].record(*s);
        }
        let mut merged = LatencyHistogram::new();
        for h in &per_shard {
            merged.merge(h);
        }
        prop_assert_eq!(merged.count(), combined.count());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), combined.quantile(q), "quantile {}", q);
        }
        // Means sum in different sample orders, so allow FP slack.
        prop_assert!((merged.mean() - combined.mean()).abs() <= 1e-9 * combined.mean().abs());
        prop_assert_eq!(merged.max(), combined.max());
    }

    /// Merge order never matters: folding shard histograms in reverse
    /// yields the same quantiles.
    #[test]
    fn merge_is_order_insensitive((samples, shards) in samples_and_shards()) {
        let mut per_shard = vec![LatencyHistogram::new(); 4];
        for (s, shard) in samples.iter().zip(&shards) {
            per_shard[*shard].record(*s);
        }
        let fold = |hs: &[LatencyHistogram]| {
            let mut m = LatencyHistogram::new();
            for h in hs {
                m.merge(h);
            }
            (m.count(), m.quantile(0.5), m.quantile(0.99), m.max())
        };
        let forward = fold(&per_shard);
        per_shard.reverse();
        prop_assert_eq!(forward, fold(&per_shard));
    }

    /// Shed-reason totals are additive under merge.
    #[test]
    fn shed_breakdown_merge_is_additive(
        a in proptest::collection::vec(0u64..1000, 4),
        b in proptest::collection::vec(0u64..1000, 4),
    ) {
        let mk = |v: &[u64]| ShedBreakdown {
            queue_full: v[0],
            deadline_infeasible: v[1],
            priority_evicted: v[2],
            replica_loss: v[3],
        };
        let (x, y) = (mk(&a), mk(&b));
        let mut merged = x;
        merged.merge(&y);
        prop_assert_eq!(merged.total(), x.total() + y.total());
        prop_assert_eq!(merged.queue_full, x.queue_full + y.queue_full);
        prop_assert_eq!(merged.any(), x.any() || y.any());
    }
}

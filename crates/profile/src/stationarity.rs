//! Per-operation execution-time stability across steps (Figure 1).
//!
//! "Sampling the execution time of operations across many steps allows us
//! to quantify stability, and Figure 1 shows that this distribution is
//! stationary and has low variance." These statistics make the same
//! check: per-op-type step samples, their coefficient of variation, and a
//! first-half/second-half drift test.

use std::collections::BTreeMap;

use fathom_dataflow::trace::RunTrace;

/// Step-time statistics for one op type.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStability {
    /// Operation type name.
    pub op: String,
    /// Per-step total time samples, in nanoseconds.
    pub samples: Vec<f64>,
    /// Mean of the samples.
    pub mean: f64,
    /// Standard deviation of the samples.
    pub std: f64,
}

impl OpStability {
    /// Coefficient of variation (std / mean; 0 for zero-mean series).
    pub fn cov(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }

    /// Relative drift between the first- and second-half means: a
    /// stationary series stays near 0.
    pub fn drift(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let half = n / 2;
        let first: f64 = self.samples[..half].iter().sum::<f64>() / half as f64;
        let second: f64 = self.samples[half..].iter().sum::<f64>() / (n - half) as f64;
        if first == 0.0 {
            0.0
        } else {
            (second - first) / first
        }
    }
}

/// Stability analysis of a multi-step trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StabilityReport {
    /// Per-op stability, keyed by op name.
    pub ops: BTreeMap<String, OpStability>,
    /// Total per-step times (one sample per traced step).
    pub step_totals: Vec<f64>,
}

impl StabilityReport {
    /// Builds the report, bucketing event times by `(op, step)`.
    pub fn from_trace(trace: &RunTrace) -> Self {
        if trace.events.is_empty() {
            return StabilityReport::default();
        }
        let first_step = trace.events.iter().map(|e| e.step).min().expect("non-empty");
        let last_step = trace.events.iter().map(|e| e.step).max().expect("non-empty");
        let steps = (last_step - first_step + 1) as usize;
        let mut per_op: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut step_totals = vec![0.0; steps];
        for e in &trace.events {
            let idx = (e.step - first_step) as usize;
            per_op.entry(e.op.to_string()).or_insert_with(|| vec![0.0; steps])[idx] += e.nanos;
            step_totals[idx] += e.nanos;
        }
        let ops = per_op
            .into_iter()
            .map(|(op, samples)| {
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
                    / samples.len() as f64;
                (op.clone(), OpStability { op, samples, mean, std: var.sqrt() })
            })
            .collect();
        StabilityReport { ops, step_totals }
    }

    /// Time-weighted mean coefficient of variation across op types — the
    /// scalar summary of Figure 1's "low variance" claim.
    pub fn weighted_cov(&self) -> f64 {
        let total: f64 = self.ops.values().map(|o| o.mean).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.ops.values().map(|o| o.cov() * o.mean / total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::cost::OpCost;
    use fathom_dataflow::trace::TraceEvent;
    use fathom_dataflow::{NodeId, OpClass};

    fn trace_with(step_times: &[(&'static str, u64, f64)]) -> RunTrace {
        RunTrace {
            events: step_times
                .iter()
                .map(|(op, step, nanos)| TraceEvent {
                    node: NodeId::default(),
                    op,
                    class: OpClass::MatrixOps,
                    step: *step,
                    nanos: *nanos,
                    cost: OpCost::default(),
                })
                .collect(),
            steps: 3,
            ..RunTrace::default()
        }
    }

    #[test]
    fn constant_series_has_zero_cov_and_drift() {
        let t = trace_with(&[("MatMul", 0, 10.0), ("MatMul", 1, 10.0), ("MatMul", 2, 10.0)]);
        let r = StabilityReport::from_trace(&t);
        let s = &r.ops["MatMul"];
        assert!(s.cov() < 1e-12);
        assert!(s.drift().abs() < 1e-12);
        assert_eq!(s.mean, 10.0);
    }

    #[test]
    fn trending_series_has_drift() {
        let t = trace_with(&[("Add", 0, 10.0), ("Add", 1, 20.0), ("Add", 2, 30.0), ("Add", 3, 40.0)]);
        let r = StabilityReport::from_trace(&t);
        assert!(r.ops["Add"].drift() > 1.0, "drift {}", r.ops["Add"].drift());
    }

    #[test]
    fn multiple_events_per_step_accumulate() {
        let t = trace_with(&[("MatMul", 0, 5.0), ("MatMul", 0, 5.0), ("MatMul", 1, 10.0)]);
        let r = StabilityReport::from_trace(&t);
        assert_eq!(r.ops["MatMul"].samples, vec![10.0, 10.0]);
        assert_eq!(r.step_totals, vec![10.0, 10.0]);
    }

    #[test]
    fn weighted_cov_emphasizes_heavy_ops() {
        // A noisy tiny op must barely move the weighted CoV.
        let t = trace_with(&[
            ("Big", 0, 100.0),
            ("Big", 1, 100.0),
            ("Tiny", 0, 0.1),
            ("Tiny", 1, 2.0),
        ]);
        let r = StabilityReport::from_trace(&t);
        assert!(r.weighted_cov() < 0.05, "weighted cov {}", r.weighted_cov());
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = StabilityReport::from_trace(&RunTrace::new());
        assert!(r.ops.is_empty());
        assert_eq!(r.weighted_cov(), 0.0);
    }
}

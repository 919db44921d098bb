//! Cumulative execution-time skew (Figure 2).
//!
//! "A handful of 'heavy' operation types (usually 5 to 15) are
//! collectively responsible for upwards of 90% of the programs'
//! duration." These curves quantify that skew per workload.

use crate::profile::OpProfile;

/// The cumulative time-share curve of one workload: element `i` is the
/// fraction of total time covered by the `i+1` heaviest op types.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewCurve {
    /// Workload name.
    pub workload: String,
    /// Cumulative fractions, non-decreasing, ending at ~1.0.
    pub cumulative: Vec<f64>,
    /// Op names in descending time order (parallel to `cumulative`).
    pub ops: Vec<String>,
}

impl SkewCurve {
    /// Computes the curve from a profile.
    pub fn from_profile(profile: &OpProfile) -> Self {
        let mut cumulative = Vec::new();
        let mut ops = Vec::new();
        let mut acc = 0.0;
        for e in profile.ranked() {
            acc += e.nanos / profile.total_nanos().max(f64::MIN_POSITIVE);
            cumulative.push(acc);
            ops.push(e.op.clone());
        }
        SkewCurve { workload: profile.workload.clone(), cumulative, ops }
    }

    /// Number of distinct op types observed.
    pub fn num_ops(&self) -> usize {
        self.cumulative.len()
    }

    /// The smallest number of op types covering at least `fraction` of
    /// total time (`None` when the curve never reaches it).
    pub fn ops_for_fraction(&self, fraction: f64) -> Option<usize> {
        self.cumulative.iter().position(|&c| c >= fraction).map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::cost::OpCost;
    use fathom_dataflow::trace::{RunTrace, TraceEvent};
    use fathom_dataflow::{NodeId, OpClass};

    fn profile_with(times: &[(&'static str, f64)]) -> OpProfile {
        let events = times
            .iter()
            .map(|(op, nanos)| TraceEvent {
                node: NodeId::default(),
                op,
                class: OpClass::MatrixOps,
                step: 0,
                nanos: *nanos,
                cost: OpCost::default(),
            })
            .collect();
        OpProfile::from_trace("toy", &RunTrace { events, steps: 1, ..RunTrace::default() })
    }

    #[test]
    fn cumulative_is_monotone_and_complete() {
        let p = profile_with(&[("A", 50.0), ("B", 30.0), ("C", 15.0), ("D", 5.0)]);
        let c = SkewCurve::from_profile(&p);
        assert_eq!(c.num_ops(), 4);
        for w in c.cumulative.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((c.cumulative.last().unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(c.ops[0], "A");
    }

    #[test]
    fn ops_for_fraction_counts_heavy_ops() {
        let p = profile_with(&[("A", 50.0), ("B", 30.0), ("C", 15.0), ("D", 5.0)]);
        let c = SkewCurve::from_profile(&p);
        assert_eq!(c.ops_for_fraction(0.5), Some(1));
        assert_eq!(c.ops_for_fraction(0.8), Some(2));
        assert_eq!(c.ops_for_fraction(0.9), Some(3));
        assert_eq!(c.ops_for_fraction(1.0), Some(4));
    }

    #[test]
    fn skewed_profile_reaches_90_percent_quickly() {
        // One dominant op among many tiny ones, like a conv net.
        const SMALL_OPS: [&str; 20] = [
            "op0", "op1", "op2", "op3", "op4", "op5", "op6", "op7", "op8", "op9", "op10",
            "op11", "op12", "op13", "op14", "op15", "op16", "op17", "op18", "op19",
        ];
        let mut times = vec![("Conv2D", 900.0)];
        for n in SMALL_OPS {
            times.push((n, 5.0));
        }
        let p = profile_with(&times);
        let c = SkewCurve::from_profile(&p);
        assert!(c.ops_for_fraction(0.9).unwrap() <= 2);
        assert_eq!(c.num_ops(), 21);
    }
}

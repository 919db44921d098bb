//! Aggregation of raw traces into operation-type profiles.
//!
//! A profile is "a single row in Figure 3": the fraction of execution
//! time attributable to each operation type, with the paper's A-G class
//! attached to each entry.

use std::collections::BTreeMap;

use fathom_dataflow::trace::RunTrace;
use fathom_dataflow::OpClass;

/// Aggregate statistics for one operation type.
#[derive(Debug, Clone, PartialEq)]
pub struct OpEntry {
    /// Operation type name (`"MatMul"`, …).
    pub op: String,
    /// The paper's A-G class.
    pub class: OpClass,
    /// Total time attributed to this op type, in nanoseconds.
    pub nanos: f64,
    /// Number of executions.
    pub count: u64,
    /// Total estimated flops.
    pub flops: f64,
}

/// An operation-type profile of one workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpProfile {
    /// Workload name the profile belongs to.
    pub workload: String,
    /// Per-op-type aggregates, keyed by op name.
    entries: BTreeMap<String, OpEntry>,
    /// Total op time, in nanoseconds.
    total_nanos: f64,
    /// Steps aggregated.
    pub steps: u64,
}

impl OpProfile {
    /// Builds a profile from a raw trace.
    pub fn from_trace(workload: impl Into<String>, trace: &RunTrace) -> Self {
        let mut entries: BTreeMap<String, OpEntry> = BTreeMap::new();
        let mut total = 0.0;
        for e in &trace.events {
            total += e.nanos;
            let entry = entries.entry(e.op.to_string()).or_insert_with(|| OpEntry {
                op: e.op.to_string(),
                class: e.class,
                nanos: 0.0,
                count: 0,
                flops: 0.0,
            });
            entry.nanos += e.nanos;
            entry.count += 1;
            entry.flops += e.cost.flops;
        }
        OpProfile {
            workload: workload.into(),
            entries,
            total_nanos: total,
            steps: trace.steps,
        }
    }

    /// Total op time in nanoseconds.
    pub fn total_nanos(&self) -> f64 {
        self.total_nanos
    }

    /// Entries sorted by descending time share. Durations are not
    /// guaranteed finite — chaos runs and modeled-time edge cases can
    /// inject NaN — so the sort uses IEEE total order, which places NaN
    /// entries first (after `+inf`) instead of panicking.
    pub fn ranked(&self) -> Vec<&OpEntry> {
        let mut v: Vec<&OpEntry> = self.entries.values().collect();
        v.sort_by(|a, b| b.nanos.total_cmp(&a.nanos));
        v
    }

    /// The fraction of total time spent in an op type (0 when absent).
    pub fn fraction(&self, op: &str) -> f64 {
        if self.total_nanos <= 0.0 {
            return 0.0;
        }
        self.entries.get(op).map_or(0.0, |e| e.nanos / self.total_nanos)
    }

    /// Entry lookup by op name.
    pub fn entry(&self, op: &str) -> Option<&OpEntry> {
        self.entries.get(op)
    }

    /// All op names present.
    pub fn op_names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Time share per operation class, in A-G order.
    pub fn class_fractions(&self) -> [(OpClass, f64); 7] {
        let mut out = OpClass::ALL.map(|c| (c, 0.0));
        if self.total_nanos <= 0.0 {
            return out;
        }
        for e in self.entries.values() {
            let idx = OpClass::ALL.iter().position(|c| *c == e.class).expect("class in ALL");
            out[idx].1 += e.nanos / self.total_nanos;
        }
        out
    }

    /// The profile as a dense vector over a shared op-name universe, for
    /// similarity math. Missing ops contribute zero.
    pub fn vector(&self, universe: &[String]) -> Vec<f64> {
        universe.iter().map(|op| self.fraction(op)).collect()
    }

    /// Union of op names across profiles, sorted, as the shared universe.
    pub fn universe(profiles: &[OpProfile]) -> Vec<String> {
        let mut names: Vec<String> = profiles
            .iter()
            .flat_map(|p| p.op_names().map(str::to_string))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Drops entries below a time-share threshold (Figure 3 "only
    /// include\[s\] operations with more than 1% execution time").
    pub fn filtered(&self, min_fraction: f64) -> OpProfile {
        let entries: BTreeMap<String, OpEntry> = self
            .entries
            .iter()
            .filter(|(op, _)| self.fraction(op) >= min_fraction)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        OpProfile {
            workload: self.workload.clone(),
            entries,
            total_nanos: self.total_nanos,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::cost::OpCost;
    use fathom_dataflow::trace::TraceEvent;
    use fathom_dataflow::NodeId;

    fn fake_trace() -> RunTrace {
        let mk = |op: &'static str, class: OpClass, nanos: f64| TraceEvent {
            node: NodeId::default(),
            op,
            class,
            step: 0,
            nanos,
            cost: OpCost { flops: nanos * 2.0, bytes: 0.0 },
        };
        RunTrace {
            events: vec![
                mk("MatMul", OpClass::MatrixOps, 60.0),
                mk("MatMul", OpClass::MatrixOps, 20.0),
                mk("Add", OpClass::ElementwiseArithmetic, 15.0),
                mk("Tile", OpClass::DataMovement, 5.0),
            ],
            total_nanos: 102.0,
            steps: 2,
            ..RunTrace::default()
        }
    }

    #[test]
    fn aggregates_by_op_type() {
        let p = OpProfile::from_trace("toy", &fake_trace());
        assert_eq!(p.entry("MatMul").unwrap().count, 2);
        assert_eq!(p.entry("MatMul").unwrap().nanos, 80.0);
        assert!((p.fraction("MatMul") - 0.8).abs() < 1e-9);
        assert!((p.fraction("Add") - 0.15).abs() < 1e-9);
        assert_eq!(p.fraction("Conv2D"), 0.0);
    }

    #[test]
    fn ranked_is_descending() {
        let p = OpProfile::from_trace("toy", &fake_trace());
        let ranked = p.ranked();
        assert_eq!(ranked[0].op, "MatMul");
        assert_eq!(ranked[2].op, "Tile");
    }

    #[test]
    fn class_fractions_sum_to_one() {
        let p = OpProfile::from_trace("toy", &fake_trace());
        let total: f64 = p.class_fractions().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let matrix = p.class_fractions()[0];
        assert_eq!(matrix.0, OpClass::MatrixOps);
        assert!((matrix.1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn vector_over_universe() {
        let p = OpProfile::from_trace("toy", &fake_trace());
        let universe = vec!["Add".to_string(), "Conv2D".to_string(), "MatMul".to_string()];
        let v = p.vector(&universe);
        assert_eq!(v.len(), 3);
        assert!((v[0] - 0.15).abs() < 1e-9);
        assert_eq!(v[1], 0.0);
        assert!((v[2] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn filtering_drops_small_ops() {
        let p = OpProfile::from_trace("toy", &fake_trace());
        let f = p.filtered(0.10);
        assert!(f.entry("Tile").is_none());
        assert!(f.entry("MatMul").is_some());
        // Fractions stay relative to the unfiltered total.
        assert!((f.fraction("MatMul") - 0.8).abs() < 1e-9);
    }

    #[test]
    fn universe_is_sorted_union() {
        let a = OpProfile::from_trace("a", &fake_trace());
        let mut t = fake_trace();
        t.events.push(TraceEvent {
            node: NodeId::default(),
            op: "Conv2D",
            class: OpClass::Convolution,
            step: 0,
            nanos: 1.0,
            cost: OpCost::default(),
        });
        let b = OpProfile::from_trace("b", &t);
        let u = OpProfile::universe(&[a, b]);
        assert_eq!(u, vec!["Add", "Conv2D", "MatMul", "Tile"]);
    }

    #[test]
    fn ranked_survives_nan_durations() {
        // Chaos runs can leave NaN in modeled durations; ranking must
        // not panic, and finite entries must still come out in
        // descending order.
        let mut t = fake_trace();
        t.events.push(TraceEvent {
            node: NodeId::default(),
            op: "Conv2D",
            class: OpClass::Convolution,
            step: 0,
            nanos: f64::NAN,
            cost: OpCost::default(),
        });
        let p = OpProfile::from_trace("chaos", &t);
        let ranked = p.ranked();
        assert_eq!(ranked.len(), 4);
        // NaN sorts first under descending total order.
        assert_eq!(ranked[0].op, "Conv2D");
        let finite: Vec<&str> =
            ranked.iter().filter(|e| e.nanos.is_finite()).map(|e| e.op.as_str()).collect();
        assert_eq!(finite, vec!["MatMul", "Add", "Tile"]);
    }
}

//! Arithmetic-intensity analysis: where each workload sits on a roofline.
//!
//! The paper's §V discussion of "where the cycles are being spent" has a
//! natural companion question for accelerator designers: is a workload
//! compute-bound or memory-bound? Using the per-op cost estimates carried
//! in every trace event, this module aggregates flops and bytes per op
//! class and computes the intensity (flop/byte) each workload presents to
//! a device.

use fathom_dataflow::trace::RunTrace;
use fathom_dataflow::OpClass;

/// Flops/bytes aggregates for one op class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassWork {
    /// Total estimated floating-point operations.
    pub flops: f64,
    /// Total estimated bytes moved.
    pub bytes: f64,
}

impl ClassWork {
    /// Arithmetic intensity in flops per byte (0 when nothing moved).
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            0.0
        } else {
            self.flops / self.bytes
        }
    }
}

/// Work aggregates for one traced workload.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityReport {
    /// Workload name.
    pub workload: String,
    /// Per-class work, in A-G order.
    pub per_class: [ClassWork; 7],
    /// Whole-workload totals.
    pub total: ClassWork,
    /// Steps aggregated.
    pub steps: u64,
}

impl IntensityReport {
    /// Aggregates a trace.
    pub fn from_trace(workload: impl Into<String>, trace: &RunTrace) -> Self {
        let mut per_class = [ClassWork::default(); 7];
        let mut total = ClassWork::default();
        for e in &trace.events {
            let idx = OpClass::ALL.iter().position(|c| *c == e.class).expect("class in ALL");
            per_class[idx].flops += e.cost.flops;
            per_class[idx].bytes += e.cost.bytes;
            total.flops += e.cost.flops;
            total.bytes += e.cost.bytes;
        }
        IntensityReport { workload: workload.into(), per_class, total, steps: trace.steps }
    }

    /// Work for one class.
    pub fn class(&self, class: OpClass) -> ClassWork {
        let idx = OpClass::ALL.iter().position(|c| *c == class).expect("class in ALL");
        self.per_class[idx]
    }

    /// Whether the workload is compute-bound on a device with the given
    /// flops-per-byte balance point (its "ridge"): intensities above the
    /// ridge saturate compute, below it saturate memory.
    pub fn compute_bound_on(&self, ridge_flops_per_byte: f64) -> bool {
        self.total.intensity() > ridge_flops_per_byte
    }

    /// Estimated flops per step.
    pub fn flops_per_step(&self) -> f64 {
        self.total.flops / self.steps.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::cost::OpCost;
    use fathom_dataflow::trace::TraceEvent;
    use fathom_dataflow::NodeId;

    fn trace() -> RunTrace {
        let mk = |op: &'static str, class: OpClass, flops: f64, bytes: f64| TraceEvent {
            node: NodeId::default(),
            op,
            class,
            step: 0,
            nanos: 1.0,
            cost: OpCost { flops, bytes },
        };
        RunTrace {
            events: vec![
                mk("MatMul", OpClass::MatrixOps, 1000.0, 100.0),
                mk("MatMul", OpClass::MatrixOps, 500.0, 50.0),
                mk("Add", OpClass::ElementwiseArithmetic, 10.0, 40.0),
            ],
            steps: 2,
            ..RunTrace::default()
        }
    }

    #[test]
    fn aggregates_per_class() {
        let r = IntensityReport::from_trace("toy", &trace());
        assert_eq!(r.class(OpClass::MatrixOps).flops, 1500.0);
        assert_eq!(r.class(OpClass::MatrixOps).bytes, 150.0);
        assert_eq!(r.class(OpClass::ElementwiseArithmetic).flops, 10.0);
        assert_eq!(r.total.flops, 1510.0);
        assert_eq!(r.flops_per_step(), 755.0);
    }

    #[test]
    fn intensity_and_roofline_position() {
        let r = IntensityReport::from_trace("toy", &trace());
        // Matrix class: 1500/150 = 10 flops/byte; elementwise: 0.25.
        assert!((r.class(OpClass::MatrixOps).intensity() - 10.0).abs() < 1e-12);
        assert!((r.class(OpClass::ElementwiseArithmetic).intensity() - 0.25).abs() < 1e-12);
        // Total intensity ~7.9: compute-bound on a ridge of 1, memory-bound on 20.
        assert!(r.compute_bound_on(1.0));
        assert!(!r.compute_bound_on(20.0));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let r = IntensityReport::from_trace("empty", &RunTrace::new());
        assert_eq!(r.total.flops, 0.0);
        assert_eq!(r.total.intensity(), 0.0);
        assert!(!r.compute_bound_on(0.1));
    }
}

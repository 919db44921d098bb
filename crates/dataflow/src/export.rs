//! Graph and trace visualization exports.
//!
//! The paper names two Google-internal tools: TensorBoard ("a
//! visualization tool for TensorFlow's dataflow graphs") and EEG ("a
//! distributed tracing tool which can reconstruct the dynamic execution
//! timeline ... unfortunately, Google has not released EEG to the
//! public"). This module provides open equivalents: Graphviz DOT export
//! for graphs and Chrome-trace JSON for execution timelines (loadable in
//! `chrome://tracing` or Perfetto).

use std::fmt::Write as _;

use crate::graph::Graph;
use crate::json::Json;
use crate::op::OpClass;
use crate::trace::RunTrace;

/// Fill colors per op class for the DOT rendering, in A-G order.
fn fill_color(class: OpClass) -> &'static str {
    match class {
        OpClass::MatrixOps => "#8dd3c7",
        OpClass::Convolution => "#80b1d3",
        OpClass::ElementwiseArithmetic => "#ffffb3",
        OpClass::ReductionExpansion => "#fb8072",
        OpClass::RandomSampling => "#bebada",
        OpClass::Optimization => "#fdb462",
        OpClass::DataMovement => "#d9d9d9",
    }
}

/// Renders the graph in Graphviz DOT format: one node per operation,
/// colored by op class, labeled with the op type, any debug name, and
/// the output shape.
///
/// # Examples
///
/// ```
/// use fathom_dataflow::{export, Graph};
/// use fathom_tensor::Shape;
///
/// let mut g = Graph::new();
/// let x = g.placeholder("x", Shape::matrix(2, 2));
/// let _y = g.relu(x);
/// let dot = export::to_dot(&g);
/// assert!(dot.starts_with("digraph fathom"));
/// assert!(dot.contains("Relu"));
/// ```
pub fn to_dot(g: &Graph) -> String {
    let mut out = String::from("digraph fathom {\n  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\"];\n");
    for (id, node) in g.iter() {
        let name = node
            .name
            .as_deref()
            .map(|n| format!("\\n{}", n.replace('\\', "\\\\").replace('"', "\\\"")))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {id} [label=\"{}{}\\n{}\", fillcolor=\"{}\"];",
            node.kind.name(),
            name,
            node.shape,
            fill_color(node.kind.class())
        );
        for input in &node.inputs {
            let _ = writeln!(out, "  {input} -> {id};");
        }
    }
    out.push_str("}\n");
    out
}

/// Serializes a trace as Chrome-trace JSON ("complete" events on one
/// thread lane per op class), viewable in `chrome://tracing` or
/// Perfetto. Events are laid out back-to-back per class lane in
/// execution order, using each event's measured/modeled duration.
pub fn to_chrome_trace(trace: &RunTrace) -> String {
    // One virtual timeline cursor per class lane.
    let mut cursors = [0.0f64; 7];
    let events = trace.events.iter().map(|e| {
        let lane = OpClass::ALL
            .iter()
            .position(|c| *c == e.class)
            .expect("class in ALL");
        let start_us = cursors[lane];
        let dur_us = e.nanos / 1_000.0;
        cursors[lane] += dur_us;
        let args = Json::obj()
            .with("node", e.node.to_string().as_str())
            .with("step", e.step)
            .with("flops", e.cost.flops);
        Json::obj()
            .with("name", e.op)
            .with("cat", e.class.label())
            .with("ph", "X")
            .with("ts", Json::fixed(start_us, 3))
            .with("dur", Json::fixed(dur_us, 3))
            .with("pid", 1u64)
            .with("tid", lane + 1)
            .with("args", args)
    });
    Json::obj()
        .with("traceEvents", Json::arr(events))
        .with("displayTimeUnit", "ms")
        .with("otherData", Json::obj().with("generator", "fathom-rs"))
        .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCost;
    use crate::device::Device;
    use crate::exec::Session;
    use crate::graph::NodeId;
    use crate::trace::TraceEvent;
    use fathom_tensor::{Shape, Tensor};

    fn traced_session() -> (Graph, RunTrace) {
        let mut g = Graph::new();
        let x = g.placeholder("input", Shape::matrix(4, 4));
        let w = g.variable("weights", Tensor::ones([4, 4]));
        let y = g.matmul(x, w);
        let z = g.softmax(y);
        let mut s = Session::new(g.clone(), Device::cpu(1));
        s.enable_tracing();
        s.run(&[z], &[(x, Tensor::ones([4, 4]))]).expect("runs");
        (g, s.take_trace())
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let (g, _) = traced_session();
        let dot = to_dot(&g);
        assert!(dot.contains("digraph fathom"));
        assert!(dot.contains("MatMul"));
        assert!(dot.contains("Softmax"));
        assert!(dot.contains("weights"));
        // One edge per input: matmul has 2, softmax 1.
        assert_eq!(dot.matches(" -> ").count(), 3);
        // Matrix ops get the class-A color.
        assert!(dot.contains("#8dd3c7"));
    }

    #[test]
    fn dot_escapes_names() {
        let mut g = Graph::new();
        let x = g.placeholder("weird\"name", Shape::scalar());
        let _ = x;
        let dot = to_dot(&g);
        assert!(dot.contains("weird\\\"name"));
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let (_, trace) = traced_session();
        let json = to_chrome_trace(&trace);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.events.len());
        assert!(json.contains("\"name\":\"MatMul\""));
        assert!(json.contains("\"cat\":\"Matrix Operations\""));
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_lanes_accumulate() {
        let (_, trace) = traced_session();
        let json = to_chrome_trace(&trace);
        // Two class-G events (Placeholder, Variable) share lane 7, so the
        // second must start after the first (ts > 0 appears).
        assert!(json.contains("\"tid\":7"));
    }

    fn event(node: u32, op: &'static str, class: OpClass, step: u64, nanos: f64, flops: f64) -> TraceEvent {
        TraceEvent { node: NodeId(node), op, class, step, nanos, cost: OpCost { flops, bytes: 0.0 } }
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let trace = RunTrace {
            events: vec![
                event(3, "MatMul", OpClass::MatrixOps, 0, 1234.5678, 2048.0),
                event(4, "Relu", OpClass::ElementwiseArithmetic, 0, 10.0, 0.5),
                event(3, "MatMul", OpClass::MatrixOps, 1, 2000.0, 1e21),
            ],
            ..RunTrace::new()
        };
        // Recorded from the hand-formatted writer this one replaced.
        assert_eq!(
            to_chrome_trace(&trace),
            "{\"traceEvents\":[\
             {\"name\":\"MatMul\",\"cat\":\"Matrix Operations\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.235,\
             \"pid\":1,\"tid\":1,\"args\":{\"node\":\"n3\",\"step\":0,\"flops\":2048}},\
             {\"name\":\"Relu\",\"cat\":\"Elementwise Arithmetic\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.010,\
             \"pid\":1,\"tid\":3,\"args\":{\"node\":\"n4\",\"step\":0,\"flops\":0.5}},\
             {\"name\":\"MatMul\",\"cat\":\"Matrix Operations\",\"ph\":\"X\",\"ts\":1.235,\"dur\":2.000,\
             \"pid\":1,\"tid\":1,\"args\":{\"node\":\"n3\",\"step\":1,\"flops\":1000000000000000000000}}],\
             \"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"fathom-rs\"}}"
        );
    }

    #[test]
    fn chrome_trace_escapes_control_characters_in_names() {
        let trace = RunTrace {
            events: vec![event(0, "in\nput\t\"x\"", OpClass::DataMovement, 0, 1.0, 0.0)],
            ..RunTrace::new()
        };
        let json = to_chrome_trace(&trace);
        assert!(json.contains("\"name\":\"in\\nput\\t\\\"x\\\"\""), "{json}");
        assert!(!json.contains('\n') && !json.contains('\t'), "raw control character in {json}");
    }

    #[test]
    fn chrome_trace_degrades_non_finite_durations_to_null() {
        let trace = RunTrace {
            events: vec![
                event(0, "MatMul", OpClass::MatrixOps, 0, f64::NAN, f64::INFINITY),
                event(1, "MatMul", OpClass::MatrixOps, 0, 5.0, 1.0),
            ],
            ..RunTrace::new()
        };
        let json = to_chrome_trace(&trace);
        // The poisoned event and everything after it on its lane lose
        // their times, not the file its well-formedness.
        assert_eq!(json.matches("\"ts\":null").count(), 1, "{json}");
        assert_eq!(json.matches("\"dur\":null").count(), 1, "{json}");
        assert!(json.contains("\"flops\":null"), "{json}");
        for token in ["NaN", "inf"] {
            assert!(!json.contains(token), "bare {token} in {json}");
        }
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let json = to_chrome_trace(&RunTrace::new());
        assert!(json.contains("\"traceEvents\":[]"));
    }
}

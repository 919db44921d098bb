//! Calibration and int8 quantization: recording activation ranges on
//! calibration runs and building the inference-only [`QuantPlan`] that
//! `super::dispatch::run_matmul` consults before the precision knob.

use std::collections::HashMap;
use std::sync::Arc;

use fathom_tensor::kernels::quant::QuantizedGemm;
use fathom_tensor::Tensor;

use super::session::Session;
use crate::graph::{Graph, NodeId};
use crate::op::{GemmOp, OpKind};

/// Per-node activation ranges recorded by a calibration pass: graph node
/// index → per-k-channel max-abs of the GEMM's activation operand,
/// max-merged over every calibrated batch. A `BTreeMap` so iteration —
/// and therefore the checkpoint serialization of the ranges — is
/// deterministic.
pub type CalibrationRanges = std::collections::BTreeMap<u32, Vec<f32>>;

/// An inference-only int8 execution plan: one quantized GEMM per
/// eligible MatMul node, built by
/// [`Session::quantize_from_calibration`] from the graph's weights and
/// the calibrated activation ranges. Dispatch consults it before the
/// precision knob: a planned node runs `i8×i8→i32` with f32 dequant in
/// the writeback, everything else takes the session's usual path.
#[derive(Debug, Clone, Default)]
pub struct QuantPlan {
    /// Graph node index → quantized weights and scales.
    pub per_node: HashMap<u32, QuantizedGemm>,
}

impl Session {
    /// Starts a calibration pass: until [`Session::finish_calibration`],
    /// every run records per-k-channel max-abs ranges of each eligible
    /// MatMul's activation operand (merged with any ranges already held,
    /// including checkpoint-restored ones). Calibration runs execute on
    /// the serial driver regardless of the device's inter-op width —
    /// recording mutates session state per op.
    pub fn begin_calibration(&mut self) {
        self.calibrating = true;
        if self.calib.is_none() {
            self.calib = Some(CalibrationRanges::new());
        }
    }

    /// Stops recording activation ranges and returns how many GEMM nodes
    /// have ranges (from this pass or restored earlier).
    pub fn finish_calibration(&mut self) -> usize {
        self.calibrating = false;
        self.calib.as_ref().map_or(0, |c| c.len())
    }

    /// The recorded (or restored) calibration ranges, if any.
    pub fn calibration_ranges(&self) -> Option<&CalibrationRanges> {
        self.calib.as_ref()
    }

    /// Installs calibration ranges captured elsewhere (checkpoint
    /// restore). Replaces any ranges currently held.
    pub fn set_calibration_ranges(&mut self, ranges: CalibrationRanges) {
        self.calib = Some(ranges);
    }

    /// Builds and arms the int8 inference plan from the graph's weights
    /// and the calibrated activation ranges: per-output-channel
    /// symmetric weight scales, one per-tensor activation scale (the max
    /// over the recorded channel ranges — a per-channel activation scale
    /// cannot be factored out of the i32 accumulation). Only MatMuls
    /// whose weight operand is a `Variable` or `Constant` quantize; a
    /// computed weight (attention-style) has no static tensor to
    /// quantize and keeps its float path. Returns the number of GEMMs
    /// quantized.
    ///
    /// # Errors
    ///
    /// Returns a description when no calibration ranges are held or no
    /// recorded node could be quantized.
    pub fn quantize_from_calibration(&mut self) -> Result<usize, String> {
        let ranges = self.calib.as_ref().ok_or("no calibration ranges recorded")?;
        let mut per_node = HashMap::new();
        for (&node_index, channel_max) in ranges {
            let id = NodeId(node_index);
            if id.index() >= self.graph.len() {
                continue;
            }
            let node = self.graph.node(id);
            let (transpose_b, weight_id) = match &node.kind {
                OpKind::MatMul { transpose_a: false, transpose_b } => {
                    (*transpose_b, node.inputs[1])
                }
                OpKind::GemmFused {
                    gemm: GemmOp::MatMul { transpose_a: false, transpose_b },
                    ..
                } => (*transpose_b, node.inputs[1]),
                _ => continue,
            };
            let weight = match &self.graph.node(weight_id).kind {
                // Quantize the *current* value, not the initializer.
                OpKind::Variable { .. } => match self.state.variables.get(&weight_id) {
                    Some(w) => w,
                    None => continue,
                },
                OpKind::Constant(w) => w,
                _ => continue,
            };
            if weight.shape().rank() != 2 {
                continue;
            }
            let (k, n) = if transpose_b {
                (weight.shape().dim(1), weight.shape().dim(0))
            } else {
                (weight.shape().dim(0), weight.shape().dim(1))
            };
            if channel_max.len() != k {
                continue;
            }
            let act_max = channel_max.iter().fold(0.0f32, |acc, &v| acc.max(v));
            per_node.insert(
                node_index,
                QuantizedGemm::from_weights(weight.data(), k, n, transpose_b, act_max),
            );
        }
        if per_node.is_empty() {
            return Err("calibration ranges matched no quantizable GEMM".to_string());
        }
        let count = per_node.len();
        self.quant = Some(Arc::new(QuantPlan { per_node }));
        Ok(count)
    }

    /// Drops the armed int8 plan; subsequent runs take the float paths.
    pub fn clear_quantization(&mut self) {
        self.quant = None;
    }

    /// Drops held calibration ranges along with any armed int8 plan —
    /// used before restoring a checkpoint so a stream without a
    /// calibration section yields an unquantized session rather than
    /// one quantized from stale ranges.
    pub fn clear_calibration(&mut self) {
        self.calib = None;
        self.quant = None;
    }

    /// The armed int8 inference plan, if any.
    pub fn quant_plan(&self) -> Option<&QuantPlan> {
        self.quant.as_deref()
    }
}

/// Records the activation operand of an eligible GEMM node during a
/// calibration run: per-k-channel max-abs, merged into `ranges`.
pub(super) fn record_calibration(
    ranges: &mut CalibrationRanges,
    graph: &Graph,
    id: NodeId,
    values: &[Option<Tensor>],
) {
    let node = graph.node(id);
    let act_id = match &node.kind {
        OpKind::MatMul { transpose_a: false, .. }
        | OpKind::GemmFused { gemm: GemmOp::MatMul { transpose_a: false, .. }, .. } => {
            node.inputs[0]
        }
        _ => return,
    };
    let Some(a) = values[act_id.index()].as_ref() else { return };
    if a.shape().rank() != 2 {
        return;
    }
    let k = a.shape().dim(1);
    if k == 0 {
        return;
    }
    let entry = ranges.entry(id.index() as u32).or_insert_with(|| vec![0.0; k]);
    if entry.len() != k {
        return;
    }
    for row in a.data().chunks_exact(k) {
        for (m, &v) in entry.iter_mut().zip(row) {
            *m = m.max(v.abs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use fathom_tensor::kernels::gemm as kgemm;
    use fathom_tensor::{ExecPool, Precision, Rng, Shape};

    /// Graph with one bf16-eligible GEMM: x:[4,128] @ w:[128,64]
    /// (k = 128 ≥ 64, n = 64 ≥ 16, k·n = 8192 — [`kgemm::select`]
    /// routes it to the bf16 panels).
    fn gemm_session(device: Device) -> (Session, NodeId, Tensor, Tensor) {
        let mut rng = Rng::seeded(0x18);
        let xv = Tensor::randn([4, 128], 0.0, 1.0, &mut rng);
        let wv = Tensor::randn([128, 64], 0.0, 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 128));
        let w = g.variable("w", wv.clone());
        let y = g.matmul(x, w);
        (Session::new(g, device), y, xv, wv)
    }

    #[test]
    fn bf16_precision_switches_the_gemm_kernel() {
        let (mut s, y, xv, wv) = gemm_session(Device::cpu(2));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let f32_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        assert_eq!(s.precision(), Precision::F32);
        s.set_precision(Precision::Bf16);
        assert_eq!(s.precision(), Precision::Bf16);
        let bf16_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // The bf16 session output is bitwise the packed driver's over
        // bf16 panels.
        let mut expect = vec![0.0; 4 * 64];
        let pool = ExecPool::new(2);
        kgemm::gemm_into(
            &mut expect, 4, 64, 128, xv.data(), false, wv.data(), false, Precision::Bf16, None, &pool,
        );
        assert_eq!(bf16_out.data(), &expect[..], "session must use the bf16 engine");
        // And it genuinely lost mantissa bits relative to f32.
        assert!(bf16_out.max_abs_diff(&f32_out) > 0.0, "bf16 path was a no-op");

        // Switching back restores the f32 result bitwise.
        s.set_precision(Precision::F32);
        assert_eq!(s.run1(y, &[(x, xv)]).unwrap().data(), f32_out.data());
    }

    #[test]
    fn bf16_session_is_bitwise_identical_serial_vs_parallel() {
        let (mut serial, y, xv, _) = gemm_session(Device::cpu(1));
        let (mut par, yp, _, _) = gemm_session(Device::cpu_inter_op(2, 4));
        let x = serial.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let xq = par.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        serial.set_precision(Precision::Bf16);
        par.set_precision(Precision::Bf16);
        let a = serial.run1(y, &[(x, xv.clone())]).unwrap();
        let b = par.run1(yp, &[(xq, xv)]).unwrap();
        assert_eq!(a.data(), b.data(), "bf16 must stay executor-independent");
    }

    #[test]
    fn calibrate_quantize_run_pipeline() {
        let (mut s, y, xv, wv) = gemm_session(Device::cpu(2));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let f32_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // Quantizing without calibration is a typed error, not a panic.
        assert!(s.quantize_from_calibration().is_err());

        // Calibrate over two batches; ranges merge via per-channel max.
        let mut rng = Rng::seeded(0x19);
        let batch2 = Tensor::randn([4, 128], 0.0, 2.0, &mut rng);
        s.begin_calibration();
        s.run1(y, &[(x, xv.clone())]).unwrap();
        s.run1(y, &[(x, batch2.clone())]).unwrap();
        assert_eq!(s.finish_calibration(), 1, "one GEMM input observed");

        let ranges = s.calibration_ranges().expect("ranges recorded").clone();
        let (_, chans) = ranges.iter().next().unwrap();
        assert_eq!(chans.len(), 128, "one range per k-channel");
        for (c, &chan) in chans.iter().enumerate() {
            let expect = (0..4)
                .map(|r| xv.data()[r * 128 + c].abs().max(batch2.data()[r * 128 + c].abs()))
                .fold(0.0f32, f32::max);
            assert!((chan - expect).abs() < 1e-6, "channel {c} range is the running max");
        }

        assert_eq!(s.quantize_from_calibration(), Ok(1));
        let q_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // The session output is bitwise the standalone quantized kernel's.
        let act_max = chans.iter().fold(0.0f32, |m, &v| m.max(v));
        let qg = QuantizedGemm::from_weights(wv.data(), 128, 64, false, act_max);
        let expect = qg.matmul(&xv, &ExecPool::new(2));
        assert_eq!(q_out.data(), expect.data(), "session must use the int8 engine");
        // int8 tracks f32 within the quantization grid error bound.
        let w_max = wv.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = 128.0 * act_max * w_max / 127.0;
        assert!(q_out.max_abs_diff(&f32_out) <= tol, "int8 drifted past the grid bound");
        assert!(q_out.max_abs_diff(&f32_out) > 0.0, "int8 path was a no-op");

        // Dropping the plan restores the f32 result bitwise.
        s.clear_quantization();
        assert!(s.quant_plan().is_none());
        assert_eq!(s.run1(y, &[(x, xv)]).unwrap().data(), f32_out.data());
    }

    #[test]
    fn calibration_ranges_round_trip_through_setter() {
        let (mut s, y, xv, _) = gemm_session(Device::cpu(1));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        s.begin_calibration();
        s.run1(y, &[(x, xv.clone())]).unwrap();
        s.finish_calibration();
        let saved = s.calibration_ranges().expect("recorded").clone();

        // A fresh session (as after checkpoint restore) accepts the saved
        // ranges and produces the same quantization plan.
        s.quantize_from_calibration().unwrap();
        let direct = s.run1(y, &[(x, xv.clone())]).unwrap();

        let (mut fresh, yf, _, _) = gemm_session(Device::cpu(1));
        let xf = fresh.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        fresh.set_calibration_ranges(saved.clone());
        assert_eq!(fresh.calibration_ranges(), Some(&saved));
        fresh.quantize_from_calibration().unwrap();
        assert_eq!(fresh.run1(yf, &[(xf, xv)]).unwrap().data(), direct.data());
    }
}

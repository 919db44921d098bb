//! `speech` — Baidu's Deep Speech recognition engine (Hannun et al.,
//! arXiv 2014).
//!
//! Five layers — three per-frame dense layers, one bidirectional
//! recurrent layer, one dense layer — feeding a CTC loss over the frame
//! sequence. The model is deliberately homogeneous: "we have limited
//! ourselves to a single recurrent layer … and we do not use LSTM
//! circuits", which is why its profile is almost pure matrix
//! multiplication plus the CTC computation (paper §V-B).
//!
//! As in the paper, TIMIT-shaped data stands in for Baidu's proprietary
//! corpus; here the TIMIT stand-in is itself synthesized (see DESIGN.md).

use fathom_data::timit::SpeechCorpus;
use fathom_dataflow::{Graph, NodeId, Optimizer};
use fathom_nn::{bidirectional_rnn, Activation, Init, Params};
use fathom_tensor::Tensor;

use crate::models::common::{BatchSource, Metric, Parts, Shell};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, ModelScale, OutputPort, PortDomain, WorkloadMetadata,
};

struct Dims {
    batch: usize,
    label_len: usize,
    features: usize,
    hidden: usize,
    phonemes: usize,
}

impl Dims {
    /// Frames are padded/limited to this fixed length (phonemes last at
    /// most 3 frames in the synthetic corpus).
    fn time(&self) -> usize {
        self.label_len * 3
    }
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => {
            Dims { batch: 4, label_len: 6, features: 13, hidden: 160, phonemes: 30 }
        }
        ModelScale::Full => {
            Dims { batch: 16, label_len: 20, features: 26, hidden: 2048, phonemes: 30 }
        }
    }
}

/// Table II metadata for `speech`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "speech",
        year: 2014,
        reference: "Hannun et al., arXiv:1412.5567",
        style: "Recurrent, Full",
        layers: 5,
        task: "Supervised",
        dataset: "TIMIT",
        purpose: "Baidu's speech recognition engine. Proved purely \
                  deep-learned networks can beat hand-tuned systems.",
    }
}

/// The `speech` workload (Deep Speech).
pub type Speech = Shell<Utterances>;

/// `speech`'s batch source: TIMIT-shaped utterances, padded with
/// silence to the graph's fixed time extent, and their phoneme labels.
pub struct Utterances {
    corpus: SpeechCorpus,
    frames: NodeId,
    labels: NodeId,
    d: Dims,
}

impl BatchSource for Utterances {
    fn draw(&mut self) -> Vec<(NodeId, Tensor)> {
        let t = self.d.time();
        let (frames, labels) = self.corpus.batch(self.d.batch, self.d.label_len);
        let t_actual = frames.shape().dim(0);
        let mut padded = Tensor::zeros([t, self.d.batch, self.d.features]);
        // Both are [time, batch, features]: the first frames are one
        // contiguous prefix of each.
        let n = t_actual.min(t) * self.d.batch * self.d.features;
        padded.data_mut()[..n].copy_from_slice(&frames.data()[..n]);
        vec![(self.frames, padded), (self.labels, labels)]
    }

    fn rng_state(&self) -> [u64; 4] {
        self.corpus.rng_state()
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.corpus.set_rng_state(state);
    }
}

impl Speech {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        Self::build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload with its variables drawn from, or adopted
    /// by, `p` (see [`crate::ModelKind::build_adopting`]).
    pub(crate) fn build_with(cfg: &BuildConfig, mut p: Params) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let t = d.time();
        let mut g = Graph::new();
        let frames = g.placeholder("frames", [t, d.batch, d.features]);
        let labels = g.placeholder("labels", [d.batch, d.label_len]);

        // Shared per-frame dense stack (layers 1-3).
        let w1 = p.variable(&mut g, "h1/w", [d.features, d.hidden], Init::He);
        let b1 = p.variable(&mut g, "h1/b", [d.hidden], Init::Zeros);
        let w2 = p.variable(&mut g, "h2/w", [d.hidden, d.hidden], Init::He);
        let b2 = p.variable(&mut g, "h2/b", [d.hidden], Init::Zeros);
        let w3 = p.variable(&mut g, "h3/w", [d.hidden, d.hidden], Init::He);
        let b3 = p.variable(&mut g, "h3/b", [d.hidden], Init::Zeros);
        let mut per_frame = Vec::with_capacity(t);
        for ti in 0..t {
            let sliced = g.slice(frames, 0, ti, 1);
            let x = g.reshape(sliced, [d.batch, d.features]);
            let mut h = x;
            for (w, b) in [(w1, b1), (w2, b2), (w3, b3)] {
                let mm = g.matmul(h, w);
                let pre = g.add_op(mm, b);
                h = Activation::Relu.apply(&mut g, pre);
            }
            per_frame.push(h);
        }

        // Layer 4: the single bidirectional recurrent layer.
        let recurrent = bidirectional_rnn(&mut g, &mut p, "h4", &per_frame, d.hidden);

        // Layer 5 + output projection to phoneme logits, restacked to
        // [time, batch, phonemes] for CTC.
        let w5 = p.variable(&mut g, "h5/w", [d.hidden, d.hidden], Init::He);
        let b5 = p.variable(&mut g, "h5/b", [d.hidden], Init::Zeros);
        let w6 = p.variable(&mut g, "out/w", [d.hidden, d.phonemes], Init::Xavier);
        let b6 = p.variable(&mut g, "out/b", [d.phonemes], Init::Zeros);
        let mut steps = Vec::with_capacity(t);
        for &h in &recurrent {
            let mm5 = g.matmul(h, w5);
            let pre5 = g.add_op(mm5, b5);
            let h5 = Activation::Relu.apply(&mut g, pre5);
            let mm6 = g.matmul(h5, w6);
            let logit = g.add_op(mm6, b6);
            steps.push(g.reshape(logit, [1, d.batch, d.phonemes]));
        }
        let logits = g.concat(&steps, 0);
        let loss = g.ctc_loss(logits, labels, 0);

        // Deep Speech is time-major: both the frames placeholder and the
        // CTC logits are `[time, batch, features]`, so requests pack and
        // split on axis 1.
        let spec = BatchSpec {
            inputs: vec![InputPort { node: frames, batch_axis: 1, domain: PortDomain::Real }],
            output: OutputPort { node: logits, batch_axis: 1 },
            capacity: d.batch,
        };
        let corpus = SpeechCorpus::new(d.phonemes, d.features, cfg.seed ^ 0x71417);
        Shell::new(
            metadata(),
            cfg,
            Parts {
                graph: g,
                params: p,
                optimizer: Optimizer::adam(1e-3),
                loss,
                // The greedy path's peak logit as the inference metric.
                infer: logits,
                metric: Metric::Peak,
                keep: vec![loss, logits],
                spec: Some(spec),
                source: Utterances { corpus, frames, labels, d },
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use fathom_dataflow::OpKind;
    use fathom_tensor::kernels::fused::FusedOp;

    #[test]
    fn training_reduces_ctc_loss() {
        let mut m = Speech::build(&BuildConfig::training());
        let first = m.step().loss.unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = m.step().loss.unwrap();
        }
        assert!(last < first, "CTC loss did not improve: {first} -> {last}");
        assert!(first.is_finite());
    }

    #[test]
    fn exactly_one_recurrent_layer_no_lstm() {
        // Deep Speech's design point: no LSTM circuitry — so no Sigmoid
        // gates anywhere in the inference graph.
        let m = Speech::build(&BuildConfig::inference());
        let sigmoids = m
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Elementwise(FusedOp::Sigmoid)))
            .count();
        assert_eq!(sigmoids, 0, "Deep Speech must not contain gate sigmoids");
    }

    #[test]
    fn profile_is_matmul_dominated() {
        let mut m = Speech::build(&BuildConfig::inference());
        m.session_mut().enable_tracing();
        m.step();
        let trace = m.session_mut().take_trace();
        let matmul: f64 = trace.events.iter().filter(|e| e.op == "MatMul").map(|e| e.nanos).sum();
        let total = trace.op_nanos();
        assert!(matmul / total > 0.5, "MatMul share {} too low", matmul / total);
    }
}

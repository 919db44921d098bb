//! `memnet` — end-to-end memory networks (Sukhbaatar, Szlam, Weston &
//! Fergus, NIPS 2015).
//!
//! "One of two novel architectures which explore a topology beyond
//! feed-forward lattices of neurons" (paper Table II): an indirectly
//! addressable memory joined to a neural controller. Three hops of
//! content-based addressing over embedded story sentences answer bAbI
//! questions. The hop arithmetic — `Mul`, `Tile`, `Sum`, `Softmax` over
//! small, skinny tensors — is exactly the operation mix the paper's
//! Figure 6c shows refusing to parallelize.

use fathom_data::babi::BabiTask;
use fathom_dataflow::{Graph, NodeId, Optimizer};
use fathom_nn::{Init, Params};
use fathom_tensor::Tensor;

use crate::models::common::{BatchSource, Metric, Parts, Shell};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, ModelScale, OutputPort, PortDomain, WorkloadMetadata,
};

struct Dims {
    batch: usize,
    sentences: usize,
    embed: usize,
    hops: usize,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims { batch: 32, sentences: 20, embed: 64, hops: 3 },
        ModelScale::Full => Dims { batch: 32, sentences: 50, embed: 64, hops: 3 },
    }
}

/// Table II metadata for `memnet`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "memnet",
        year: 2015,
        reference: "Sukhbaatar, Szlam, Weston & Fergus, NIPS 2015",
        style: "Memory Network",
        layers: 3,
        task: "Supervised",
        dataset: "bAbI",
        purpose: "Facebook's memory-oriented neural system. One of two novel \
                  architectures which explore a topology beyond feed-forward \
                  lattices of neurons.",
    }
}

/// The `memnet` workload (end-to-end memory network, 3 hops).
pub type Memnet = Shell<Stories>;

/// `memnet`'s batch source: bAbI stories, questions and answers.
pub struct Stories {
    task: BabiTask,
    stories: NodeId,
    questions: NodeId,
    answers: NodeId,
    batch: usize,
}

impl BatchSource for Stories {
    fn draw(&mut self) -> Vec<(NodeId, Tensor)> {
        let (stories, questions, answers) = self.task.batch(self.batch);
        vec![(self.stories, stories), (self.questions, questions), (self.answers, answers)]
    }

    fn rng_state(&self) -> [u64; 4] {
        self.task.rng_state()
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.task.set_rng_state(state);
    }
}

impl Memnet {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        Self::build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload with its variables drawn from, or adopted
    /// by, `p` (see [`crate::ModelKind::build_adopting`]).
    pub(crate) fn build_with(cfg: &BuildConfig, mut p: Params) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let task = BabiTask::new(d.sentences, cfg.seed ^ 0xBAB1);
        let vocab = task.vocab();
        let classes = task.classes();
        let words = task.sentence_len();
        let (b, s, w, dim) = (d.batch, d.sentences, words, d.embed);

        let mut g = Graph::new();
        let stories = g.placeholder("stories", [b, s, w]);
        let questions = g.placeholder("questions", [b, w]);
        let answers = g.placeholder("answers", [b]);

        // Embeddings: A (memory keys), C (memory values), B (question).
        let emb_a = p.variable(&mut g, "emb_a", [vocab, dim], Init::Normal(0.1));
        let emb_c = p.variable(&mut g, "emb_c", [vocab, dim], Init::Normal(0.1));
        let emb_b = p.variable(&mut g, "emb_b", [vocab, dim], Init::Normal(0.1));

        // Bag-of-words sentence encodings: sum embedded words, plus the
        // original's temporal encoding (a learnable per-slot offset) so
        // the model can order memories and find the *latest* fact.
        let temporal_a = p.variable(&mut g, "temporal_a", [s, dim], Init::Normal(0.1));
        let temporal_c = p.variable(&mut g, "temporal_c", [s, dim], Init::Normal(0.1));
        let story_a = g.gather(emb_a, stories); // [b, s, w, dim]
        let bow_a = g.sum_axis(story_a, 2); // [b, s, dim]
        let memory_keys = g.add_op(bow_a, temporal_a); // broadcast over batch
        let story_c = g.gather(emb_c, stories);
        let bow_c = g.sum_axis(story_c, 2); // [b, s, dim]
        let memory_values = g.add_op(bow_c, temporal_c);
        let q_emb = g.gather(emb_b, questions); // [b, w, dim]
        let mut u = g.sum_axis(q_emb, 1); // [b, dim]

        // Hop transform H (shared), as in the layer-wise weight tying of
        // the original.
        let hop_transform = p.variable(&mut g, "hop_h", [dim, dim], Init::Xavier);

        for _hop in 0..d.hops {
            // Addressing: p = softmax_s(sum_d keys * u)
            let u3 = g.reshape(u, [b, 1, dim]);
            let u_tiled = g.tile(u3, vec![1, s, 1]); // [b, s, dim]
            let scored = g.mul(memory_keys, u_tiled);
            let scores = g.sum_axis(scored, 2); // [b, s]
            let weights = g.softmax(scores);
            // Readout: o = sum_s p * values
            let w3 = g.reshape(weights, [b, s, 1]);
            let w_tiled = g.tile(w3, vec![1, 1, dim]); // [b, s, dim]
            let weighted = g.mul(memory_values, w_tiled);
            let o = g.sum_axis(weighted, 1); // [b, dim]
            // Controller update: u' = H u + o
            let hu = g.matmul(u, hop_transform);
            u = g.add_op(hu, o);
        }

        let out_w = p.variable(&mut g, "out_w", [dim, classes], Init::Xavier);
        let logits = g.matmul(u, out_w);
        let loss = g.softmax_cross_entropy(logits, answers);
        let spec = BatchSpec {
            inputs: vec![
                InputPort { node: stories, batch_axis: 0, domain: PortDomain::Tokens { vocab } },
                InputPort { node: questions, batch_axis: 0, domain: PortDomain::Tokens { vocab } },
            ],
            output: OutputPort { node: logits, batch_axis: 0 },
            capacity: d.batch,
        };
        Shell::new(
            metadata(),
            cfg,
            Parts {
                graph: g,
                params: p,
                optimizer: Optimizer::adam(5e-3),
                loss,
                infer: logits,
                metric: Metric::Accuracy(answers),
                keep: vec![loss, logits],
                spec: Some(spec),
                source: Stories { task, stories, questions, answers, batch: d.batch },
            },
        )
    }

    /// Classification accuracy over one fresh batch (used by tests and
    /// examples).
    pub fn evaluate_accuracy(&mut self) -> f32 {
        let feeds = self.source.draw();
        self.infer(&feeds).expect("workload graphs are well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use fathom_dataflow::OpKind;

    #[test]
    fn training_learns_the_babi_task() {
        let mut m = Memnet::build(&BuildConfig::training());
        let eval = |m: &mut Memnet| -> f32 {
            (0..4).map(|_| m.evaluate_accuracy()).sum::<f32>() / 4.0
        };
        let before = eval(&mut m);
        for _ in 0..300 {
            m.step();
        }
        let after = eval(&mut m);
        assert!(
            after > before + 0.2 || after > 0.8,
            "accuracy did not improve: {before} -> {after}"
        );
    }

    #[test]
    fn three_hops_emit_three_softmaxes() {
        let m = Memnet::build(&BuildConfig::inference());
        let softmaxes = m
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Softmax))
            .count();
        assert_eq!(softmaxes, 3, "one addressing softmax per hop");
    }

    #[test]
    fn profile_contains_skinny_tensor_ops() {
        // The memory layers "operate on small, skinny tensors" — the ops
        // the paper shows failing to parallelize: Mul, Tile, Sum.
        let mut m = Memnet::build(&BuildConfig::inference());
        m.session_mut().enable_tracing();
        m.step();
        let trace = m.session_mut().take_trace();
        for op in ["Mul", "Tile", "Sum", "Softmax", "MatMul", "Gather"] {
            assert!(
                trace.events.iter().any(|e| e.op == op),
                "expected {op} in the memnet profile"
            );
        }
    }
}

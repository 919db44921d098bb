//! `seq2seq` — sequence-to-sequence translation (Sutskever, Vinyals & Le,
//! NIPS 2014) with the attention mechanism of Bahdanau, Cho & Bengio.
//!
//! "A canonical example of a recurrent encoder-decoder model": a deep
//! LSTM encoder embeds the source sentence, a deep LSTM decoder re-emits
//! it in the target language with teacher forcing, and an attention head
//! tracks source context. The LSTM gates produce the elementwise
//! multiplications, and the attention/loss plumbing the `Tile`/`Sum`/
//! `Sub` traffic, that the paper's Figure 6b highlights.

use fathom_data::wmt::{TranslationBatch, TranslationCorpus};
use fathom_dataflow::{Graph, NodeId, Optimizer};
use fathom_nn::{lstm_stack, Attention, Init, Params};
use fathom_tensor::Tensor;

use crate::models::common::{BatchSource, Metric, Parts, Shell};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, Mode, ModelScale, OutputPort, PortDomain, WorkloadMetadata,
};

struct Dims {
    batch: usize,
    src_len: usize,
    vocab: usize,
    embed: usize,
    hidden: usize,
    layers: usize,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        // Reference widths are calibrated so the op-share profile matches
        // the paper's Figure 3 row: small hidden state keeps the O(d^2)
        // matmuls from swamping the O(d) gate arithmetic and the O(T^2)
        // attention plumbing that dominate the published profile.
        ModelScale::Reference => Dims {
            batch: 32,
            src_len: 12,
            vocab: 90,
            embed: 12,
            hidden: 12,
            layers: 7,
        },
        ModelScale::Full => Dims {
            batch: 64,
            src_len: 30,
            vocab: 40_000,
            embed: 512,
            hidden: 512,
            layers: 7,
        },
    }
}

/// Table II metadata for `seq2seq`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "seq2seq",
        year: 2014,
        reference: "Sutskever, Vinyals & Le, NIPS 2014",
        style: "Recurrent",
        layers: 7,
        task: "Supervised",
        dataset: "WMT-15",
        purpose: "Direct language-to-language sentence translation. \
                  State-of-the-art accuracy with a simple, language-agnostic \
                  architecture.",
    }
}

/// The `seq2seq` workload (attention encoder-decoder).
pub type Seq2Seq = Shell<Sentences>;

/// `seq2seq`'s batch source: WMT-shaped sentence pairs, fed as source
/// tokens, teacher-forced target tokens and one label vector per
/// decoder step.
pub struct Sentences {
    corpus: TranslationCorpus,
    source: NodeId,
    target_in: NodeId,
    target_out_steps: Vec<NodeId>,
    logit_steps: Vec<NodeId>,
    batch: usize,
}

impl Sentences {
    fn feeds(&self, batch: &TranslationBatch) -> Vec<(NodeId, Tensor)> {
        let mut feeds = vec![
            (self.source, batch.source.clone()),
            (self.target_in, batch.target_in.clone()),
        ];
        for (t, &ph) in self.target_out_steps.iter().enumerate() {
            let mut labels = Tensor::zeros([self.batch]);
            for b in 0..self.batch {
                labels.set(&[b], batch.target_out.at(&[b, t]));
            }
            feeds.push((ph, labels));
        }
        feeds
    }
}

impl BatchSource for Sentences {
    fn draw(&mut self) -> Vec<(NodeId, Tensor)> {
        let batch = self.corpus.batch(self.batch);
        self.feeds(&batch)
    }

    fn rng_state(&self) -> [u64; 4] {
        self.corpus.rng_state()
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.corpus.set_rng_state(state);
    }
}

impl Seq2Seq {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        Self::build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload with its variables drawn from, or adopted
    /// by, `p` (see [`crate::ModelKind::build_adopting`]).
    pub(crate) fn build_with(cfg: &BuildConfig, mut p: Params) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let tgt_len = d.src_len + 1; // GO/EOS shifted sequences
        let mut g = Graph::new();
        let source = g.placeholder("source", [d.batch, d.src_len]);
        let target_in = g.placeholder("target_in", [d.batch, tgt_len]);
        // Per-step label placeholders (the fused loss takes [batch]).
        let target_out_steps: Vec<NodeId> = (0..tgt_len)
            .map(|t| g.placeholder(format!("target_out_{t}"), [d.batch]))
            .collect();

        // Shared embedding table for both languages (byte-pair style).
        let embedding = p.variable(&mut g, "embedding", [d.vocab, d.embed], Init::Normal(0.1));

        // Encoder: embed source tokens, run the deep LSTM.
        let src_emb = g.gather(embedding, source); // [b, src_len, embed]
        let enc_inputs: Vec<NodeId> = (0..d.src_len)
            .map(|t| {
                let s = g.slice(src_emb, 1, t, 1);
                g.reshape(s, [d.batch, d.embed])
            })
            .collect();
        let enc_states = lstm_stack(&mut g, &mut p, "encoder", &enc_inputs, d.hidden, d.layers);

        // Decoder: embed target inputs (teacher forcing), run the deep
        // LSTM, attend over encoder states per step.
        let tgt_emb = g.gather(embedding, target_in);
        let dec_inputs: Vec<NodeId> = (0..tgt_len)
            .map(|t| {
                let s = g.slice(tgt_emb, 1, t, 1);
                g.reshape(s, [d.batch, d.embed])
            })
            .collect();
        let dec_states = lstm_stack(&mut g, &mut p, "decoder", &dec_inputs, d.hidden, d.layers);

        let attention = Attention::new(&mut g, &mut p, "attention", d.hidden, d.hidden, d.hidden);
        let combine = p.variable(&mut g, "combine", [2 * d.hidden, d.hidden], Init::Xavier);
        let out_proj = p.variable(&mut g, "out_proj", [d.hidden, d.vocab], Init::Xavier);

        let enc_projections = attention.precompute(&mut g, &enc_states);
        let mut step_losses = Vec::with_capacity(tgt_len);
        let mut logit_steps = Vec::with_capacity(tgt_len);
        for (t, &h) in dec_states.iter().enumerate() {
            let context = attention.context(&mut g, &enc_states, &enc_projections, h);
            let cat = g.concat(&[h, context], 1); // [b, 2*hidden]
            let mixed = g.matmul(cat, combine);
            let act = g.tanh(mixed);
            let logits = g.matmul(act, out_proj); // [b, vocab]
            logit_steps.push(logits);
            step_losses.push(g.softmax_cross_entropy(logits, target_out_steps[t]));
        }
        let total = g.add_n(&step_losses);
        let scale = g.constant(Tensor::scalar(1.0 / tgt_len as f32));
        let loss = g.mul(total, scale);

        // A single `[b, tgt_len * vocab]` fetch for the serving layer:
        // per-step logits concatenated along the feature axis, so one
        // node carries the whole decode and splits per request on axis 0.
        let serve_logits = match cfg.mode {
            Mode::Inference => Some(g.concat(&logit_steps, 1)),
            Mode::Training => None,
        };
        let tokens = PortDomain::Tokens { vocab: d.vocab };
        let spec = serve_logits.map(|node| BatchSpec {
            inputs: vec![
                InputPort { node: source, batch_axis: 0, domain: tokens },
                InputPort { node: target_in, batch_axis: 0, domain: tokens },
            ],
            output: OutputPort { node, batch_axis: 0 },
            capacity: d.batch,
        });
        let mut keep = vec![loss];
        keep.extend_from_slice(&logit_steps);
        keep.extend(serve_logits);
        let corpus = TranslationCorpus::new(d.vocab, d.src_len, cfg.seed ^ 0x3E92);
        Shell::new(
            metadata(),
            cfg,
            Parts {
                graph: g,
                params: p,
                optimizer: Optimizer::adam(2e-3),
                loss,
                infer: loss,
                metric: Metric::Value,
                keep,
                spec,
                source: Sentences {
                    corpus,
                    source,
                    target_in,
                    target_out_steps,
                    logit_steps,
                    batch: d.batch,
                },
            },
        )
    }

    /// Greedy next-token accuracy under teacher forcing over one batch.
    pub fn evaluate_accuracy(&mut self) -> f32 {
        let src = &mut self.source;
        let batch = src.corpus.batch(src.batch);
        let feeds = src.feeds(&batch);
        let out = self.session.run(&src.logit_steps, &feeds).expect("workload graphs are well-formed");
        let mut correct = 0;
        let mut total = 0;
        for (t, logits) in out.iter().enumerate() {
            let pred = logits.argmax_last_axis();
            for b in 0..src.batch {
                if pred.data()[b] == batch.target_out.at(&[b, t]) {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f32 / total as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn training_reduces_loss() {
        let mut m = Seq2Seq::build(&BuildConfig::training());
        let first = m.step().loss.unwrap();
        let mut last = first;
        for _ in 0..25 {
            last = m.step().loss.unwrap();
        }
        assert!(last < first, "loss did not improve: {first} -> {last}");
    }

    #[test]
    fn has_fourteen_lstm_layers_total() {
        // 7 encoder + 7 decoder layers, one kernel variable each.
        let m = Seq2Seq::build(&BuildConfig::inference());
        let kernels = m
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| {
                n.name.as_deref().is_some_and(|s| s.ends_with("/kernel"))
            })
            .count();
        assert_eq!(kernels, 14);
    }

    #[test]
    fn profile_has_lstm_signature_ops() {
        // "The elementwise multiplications in seq2seq are a result of the
        // LSTM neurons, and the data movement operations are part of the
        // attention-based encoder/decoder."
        let mut m = Seq2Seq::build(&BuildConfig::inference());
        m.session_mut().enable_tracing();
        m.step();
        let trace = m.session_mut().take_trace();
        for op in ["Mul", "Tanh", "Sigmoid", "Tile", "ConcatV2", "Slice", "MatMul"] {
            assert!(
                trace.events.iter().any(|e| e.op == op),
                "expected {op} in the seq2seq profile"
            );
        }
    }
}

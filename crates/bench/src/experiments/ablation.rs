//! Design-choice ablations (DESIGN.md §4): quantify what the graph
//! optimizer and batch size buy.

use std::fmt::Write as _;
use std::time::Instant;

use fathom_dataflow::optimize::optimize;
use fathom_dataflow::{Device, Graph, NodeId, Optimizer, Session};
use fathom_nn::{conv2d, dense, flatten, lstm_stack, max_pool, Activation, Params};
use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::{Rng, Shape, Tensor};

use crate::{write_artifact, Effort};

/// A small conv classifier training graph (alexnet-shaped) used by the
/// optimizer and batch ablations. Returns `(graph, image placeholder,
/// label placeholder, loss, train op)`.
fn conv_training_graph(batch: usize, seed: u64) -> (Graph, NodeId, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let mut p = Params::seeded(seed);
    let images = g.placeholder("images", [batch, 16, 16, 3]);
    let labels = g.placeholder("labels", [batch]);
    let x = conv2d(&mut g, &mut p, "c1", images, 3, 8, Conv2dSpec::same(3), Activation::Relu);
    let x = max_pool(&mut g, x, 2, 2);
    let x = conv2d(&mut g, &mut p, "c2", x, 3, 16, Conv2dSpec::same(3), Activation::Relu);
    let x = max_pool(&mut g, x, 2, 2);
    let x = flatten(&mut g, x);
    let x = dense(&mut g, &mut p, "fc", x, 32, Activation::Relu);
    let logits = dense(&mut g, &mut p, "out", x, 4, Activation::Linear);
    let loss = g.softmax_cross_entropy(logits, labels);
    let train = Optimizer::momentum(0.01).minimize(&mut g, loss, p.trainable());
    (g, images, labels, loss, train)
}

/// An unrolled LSTM regression graph, the op-heavy case where the
/// autodiff pass leaves the most duplicate constants and reductions.
fn lstm_training_graph(seed: u64) -> (Graph, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let mut p = Params::seeded(seed);
    let x = g.placeholder("x", Shape::matrix(4, 6));
    let steps = lstm_stack(&mut g, &mut p, "lstm", &[x; 6], 12, 2);
    let last = *steps.last().expect("non-empty sequence");
    let sq = g.square(last);
    let loss = g.mean_all(sq);
    let train = Optimizer::sgd(0.01).minimize(&mut g, loss, p.trainable());
    (g, x, loss, train)
}

/// Mean seconds per `run` of the given fetches.
fn time_steps(
    sess: &mut Session,
    fetches: &[NodeId],
    feeds: &[(NodeId, Tensor)],
    steps: usize,
) -> f64 {
    let start = Instant::now();
    for _ in 0..steps {
        sess.run(fetches, feeds).expect("graph is well-formed");
    }
    start.elapsed().as_secs_f64() / steps.max(1) as f64
}

/// Ablation 1: the application-level graph optimizer.
pub fn run_optimizer(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ABLATION: application-level graph optimizer (paper SIII-C)\n");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "graph", "nodes", "after", "dead", "ident", "cse", "before s/st", "after s/st"
    );
    let mut rows = Vec::new();
    let steps = (effort.steps * 4).max(8);

    // Conv classifier.
    {
        let (g, images, labels, loss, train) = conv_training_graph(4, 1);
        let opt = optimize(&g, &[loss, train]);
        let mut rng = Rng::seeded(2);
        let feeds_old = vec![
            (images, Tensor::randn([4, 16, 16, 3], 0.0, 1.0, &mut rng)),
            (labels, Tensor::from(vec![0.0, 1.0, 2.0, 3.0])),
        ];
        let feeds_new: Vec<(NodeId, Tensor)> = feeds_old
            .iter()
            .map(|(id, t)| (opt.remap(*id).expect("feeds survive"), t.clone()))
            .collect();
        let mut before = Session::new(g, Device::cpu(1));
        let mut after = Session::new(opt.graph.clone(), Device::cpu(1));
        let t_before = time_steps(&mut before, &[loss, train], &feeds_old, steps);
        let t_after = time_steps(
            &mut after,
            &[opt.remap(loss).expect("kept"), opt.remap(train).expect("kept")],
            &feeds_new,
            steps,
        );
        let s = opt.stats;
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>6} {:>6} {:>6} {:>10.5} {:>10.5}",
            "conv-train", s.original_nodes, s.optimized_nodes, s.dead_removed,
            s.identities_removed, s.subexpressions_merged, t_before, t_after
        );
        rows.push(("conv-train".to_string(), vec![
            s.original_nodes as f64,
            s.optimized_nodes as f64,
            t_before,
            t_after,
        ]));
    }

    // LSTM chain.
    {
        let (g, x, loss, train) = lstm_training_graph(3);
        let opt = optimize(&g, &[loss, train]);
        let mut rng = Rng::seeded(4);
        let feeds_old = vec![(x, Tensor::randn([4, 6], 0.0, 1.0, &mut rng))];
        let feeds_new = vec![(opt.remap(x).expect("fed"), feeds_old[0].1.clone())];
        let mut before = Session::new(g, Device::cpu(1));
        let mut after = Session::new(opt.graph.clone(), Device::cpu(1));
        let t_before = time_steps(&mut before, &[loss, train], &feeds_old, steps);
        let t_after = time_steps(
            &mut after,
            &[opt.remap(loss).expect("kept"), opt.remap(train).expect("kept")],
            &feeds_new,
            steps,
        );
        let s = opt.stats;
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>6} {:>6} {:>6} {:>10.5} {:>10.5}",
            "lstm-train", s.original_nodes, s.optimized_nodes, s.dead_removed,
            s.identities_removed, s.subexpressions_merged, t_before, t_after
        );
        rows.push(("lstm-train".to_string(), vec![
            s.original_nodes as f64,
            s.optimized_nodes as f64,
            t_before,
            t_after,
        ]));
    }
    let _ = writeln!(
        out,
        "\nThe CSE pass mostly merges the duplicate scalar constants and Sum\n\
         chains that symbolic autodiff emits; values are bit-identical before\n\
         and after (verified by property tests)."
    );
    write_artifact(
        "ablation_optimizer.csv",
        &fathom_profile::report::to_csv(&["graph", "nodes", "after", "s_before", "s_after"], &rows),
    );
    write_artifact("ablation_optimizer.txt", &out);
    out
}

/// Ablation 2: batch size vs operation balance — "the performance
/// behavior of deep learning models is inextricably tied to their
/// application-level structure" (paper §V-E).
pub fn run_batch_balance(effort: &Effort) -> String {
    use fathom_profile::OpProfile;

    let mut out = String::new();
    let _ = writeln!(out, "ABLATION: batch size vs op-class balance (conv classifier)\n");
    let _ = writeln!(
        out,
        "{:<7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10}",
        "batch", "B conv%", "A mat%", "C elem%", "F opt%", "G mov%", "s/step"
    );
    let mut rows = Vec::new();
    for &batch in &[1usize, 4, 16] {
        let (g, images, labels, loss, train) = conv_training_graph(batch, 7);
        let mut sess = Session::new(g, Device::cpu(1));
        let mut rng = Rng::seeded(8);
        let feeds = vec![
            (images, Tensor::randn([batch, 16, 16, 3], 0.0, 1.0, &mut rng)),
            (
                labels,
                Tensor::from_vec((0..batch).map(|i| (i % 4) as f32).collect(), [batch]),
            ),
        ];
        sess.run(&[loss, train], &feeds).expect("warms up");
        sess.enable_tracing();
        let start = Instant::now();
        for _ in 0..effort.steps.max(2) {
            sess.run(&[loss, train], &feeds).expect("steps");
        }
        let per_step = start.elapsed().as_secs_f64() / effort.steps.max(2) as f64;
        let trace = sess.take_trace();
        let profile = OpProfile::from_trace(format!("batch{batch}"), &trace);
        let f = profile.class_fractions();
        let _ = writeln!(
            out,
            "{:<7} {:>6.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>10.5}",
            batch,
            f[1].1 * 100.0,
            f[0].1 * 100.0,
            f[2].1 * 100.0,
            f[5].1 * 100.0,
            f[6].1 * 100.0,
            per_step
        );
        rows.push((batch.to_string(), f.iter().map(|(_, v)| *v).collect()));
    }
    let _ = writeln!(
        out,
        "\nExpected shape: compute classes (B) grow with batch while the\n\
         fixed-size optimizer (F) and per-step data movement (G) shrink\n\
         relatively — amortization of model-size-proportional work."
    );
    write_artifact(
        "ablation_batch.csv",
        &fathom_profile::report::to_csv(&["batch", "A", "B", "C", "D", "E", "F", "G"], &rows),
    );
    write_artifact("ablation_batch.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_ablation_shrinks_graphs() {
        let out = run_optimizer(&Effort::quick());
        assert!(out.contains("conv-train"));
        assert!(out.contains("lstm-train"));
    }

    #[test]
    fn batch_ablation_reports_three_batches() {
        let out = run_batch_balance(&Effort::quick());
        for b in ["1", "4", "16"] {
            assert!(out.lines().any(|l| l.trim_start().starts_with(b)), "missing batch {b}");
        }
    }

    #[test]
    fn lstm_graph_optimizer_merges_duplicates() {
        let (g, _, loss, train) = lstm_training_graph(1);
        let opt = optimize(&g, &[loss, train]);
        assert!(
            opt.stats.subexpressions_merged > 10,
            "expected CSE to fire on autodiff output, merged only {}",
            opt.stats.subexpressions_merged
        );
        assert!(opt.stats.optimized_nodes < opt.stats.original_nodes);
    }
}

//! Property-based tests for the dataflow runtime: randomly composed
//! graphs must satisfy autodiff correctness (vs finite differences) and
//! shape-inference consistency.

use fathom_dataflow::grad::gradients;
use fathom_dataflow::{Device, Graph, NodeId, Session};
use fathom_tensor::{Rng, Shape, Tensor};
use proptest::prelude::*;

/// The unary op menu used to build random chains.
#[derive(Debug, Clone, Copy)]
enum UnaryChoice {
    Tanh,
    Sigmoid,
    Square,
    Neg,
    Exp,
    Relu,
}

fn unary_choice() -> impl Strategy<Value = UnaryChoice> {
    prop_oneof![
        Just(UnaryChoice::Tanh),
        Just(UnaryChoice::Sigmoid),
        Just(UnaryChoice::Square),
        Just(UnaryChoice::Neg),
        Just(UnaryChoice::Exp),
        Just(UnaryChoice::Relu),
    ]
}

fn apply_unary(g: &mut Graph, choice: UnaryChoice, x: NodeId) -> NodeId {
    match choice {
        UnaryChoice::Tanh => g.tanh(x),
        UnaryChoice::Sigmoid => g.sigmoid(x),
        UnaryChoice::Square => g.square(x),
        UnaryChoice::Neg => g.neg(x),
        UnaryChoice::Exp => g.exp(x),
        UnaryChoice::Relu => g.relu(x),
    }
}

/// Builds `loss = sum(chain(x * w))` for a random unary chain, returning
/// the graph, placeholder, and loss.
fn chain_graph(chain: &[UnaryChoice], cols: usize, seed: u64) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new();
    let x = g.placeholder("x", Shape::matrix(2, cols));
    let mut rng = Rng::seeded(seed);
    // Scale inputs down so exp chains stay in a numerically safe range.
    let w = g.constant(Tensor::randn([2, cols], 0.0, 0.3, &mut rng));
    let mut node = g.mul(x, w);
    for &c in chain {
        node = apply_unary(&mut g, c, node);
    }
    let loss = g.mean_all(node);
    (g, x, loss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reverse-mode gradients of random op chains agree with central
    /// finite differences.
    #[test]
    fn random_chain_gradients_match_finite_differences(
        chain in proptest::collection::vec(unary_choice(), 1..5),
        cols in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (mut g, x, loss) = chain_graph(&chain, cols, seed);
        let grads = gradients(&mut g, loss, &[x]);
        let mut sess = Session::new(g, Device::cpu(1));
        let mut rng = Rng::seeded(seed ^ 0xF00D);
        // Keep inputs away from ReLU's kink and exp overflow.
        let x_val = Tensor::rand_uniform([2, cols], 0.2, 1.2, &mut rng);
        let analytic = sess.run1(grads[0], &[(x, x_val.clone())]).unwrap();
        let eps = 1e-2;
        for idx in 0..x_val.len() {
            let mut xp = x_val.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x_val.clone();
            xm.data_mut()[idx] -= eps;
            let fp = sess.run1(loss, &[(x, xp)]).unwrap().scalar_value();
            let fm = sess.run1(loss, &[(x, xm)]).unwrap().scalar_value();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data()[idx];
            let tol = 1e-2 * (1.0 + numeric.abs().max(a.abs()));
            prop_assert!(
                (numeric - a).abs() <= tol,
                "chain {chain:?} grad[{idx}]: numeric {numeric} vs analytic {a}"
            );
        }
    }

    /// The inferred static shape always matches the executed shape.
    #[test]
    fn inferred_shapes_match_execution(
        chain in proptest::collection::vec(unary_choice(), 0..4),
        rows in 1usize..4,
        cols in 1usize..5,
    ) {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(rows, cols));
        let mut node = x;
        for &c in &chain {
            node = apply_unary(&mut g, c, node);
        }
        let reduced = g.sum_axis_keep(node, 1);
        let expected = g.shape(reduced).clone();
        let mut sess = Session::new(g, Device::cpu(1));
        let out = sess.run1(reduced, &[(x, Tensor::ones([rows, cols]))]).unwrap();
        prop_assert_eq!(out.shape(), &expected);
    }

    /// SGD with a small enough rate never increases a convex quadratic
    /// loss, whatever the starting point.
    #[test]
    fn sgd_descends_a_quadratic(start in -5.0f32..5.0, target in -5.0f32..5.0) {
        use fathom_dataflow::Optimizer;
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::scalar(start));
        let t = g.constant(Tensor::scalar(target));
        let d = g.sub(v, t);
        let loss = g.square(d);
        let loss = g.mean_all(loss);
        let train = Optimizer::sgd(0.1).minimize_all(&mut g, loss);
        let mut sess = Session::new(g, Device::cpu(1));
        let mut prev = f32::INFINITY;
        for _ in 0..20 {
            let out = sess.run(&[loss, train], &[]).unwrap();
            let l = out[0].scalar_value();
            prop_assert!(l <= prev + 1e-6, "loss rose: {prev} -> {l}");
            prev = l;
        }
    }
}

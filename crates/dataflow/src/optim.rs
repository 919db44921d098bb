//! Optimizers and the class-F op table.
//!
//! An optimizer's `minimize` extends the graph with the backward pass and
//! one stateful [`OpKind::Apply`] node per variable (op class F,
//! "Optimization"), grouped behind a single train-step handle — exactly the
//! structure whose cost becomes visible at high thread counts in the paper's
//! Figure 6a ("the optimizer … rises to around 7% of the execution time").
//!
//! [`Optimizer`] is the class-F table. Each optimizer's profile name, state
//! slots, flop weight, learning-rate lever and update rule are written once,
//! in its arm of the methods below; the op vocabulary, cost model, dispatch,
//! session and checkpoint restore all read them from here.

use fathom_tensor::kernels::elementwise::generate;
use fathom_tensor::{ExecPool, Shape, Tensor};

use crate::grad::gradients;
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Handles returned by [`Optimizer::minimize_tracked`]: the train-step
/// group plus a scalar node carrying the global gradient L2 norm, so
/// guardrails, profilers, and benches can fetch one shared numeric-health
/// signal instead of recomputing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainHandles {
    /// The `Group` node to fetch as the train step.
    pub step: NodeId,
    /// Scalar `sqrt(sum_i ||g_i||^2)` over all variable gradients.
    pub grad_norm: NodeId,
}

/// A gradient-descent-family optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Vanilla stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with momentum.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// RMSProp (used by the original DQN work).
    RmsProp {
        /// Learning rate.
        lr: f32,
        /// Squared-gradient decay.
        decay: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// Numerical-stability constant.
        epsilon: f32,
    },
    /// Adam (used by the end-to-end memory network and VAE works).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical-stability constant.
        epsilon: f32,
    },
}

/// One optimizer-state tensor an `Apply` node keeps between steps. The
/// session stores it under `(node, name)`, and resume checkpoints save it
/// under the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The slot's key.
    pub(crate) name: &'static str,
    /// A scalar (Adam's step count) rather than a tensor shaped like the
    /// variable.
    scalar: bool,
}

impl Slot {
    /// The slot's shape for a variable of shape `var`.
    pub(crate) fn shape(&self, var: &Shape) -> Shape {
        if self.scalar {
            Shape::scalar()
        } else {
            var.clone()
        }
    }

    /// The slot's value before the first update: zeros of [`Slot::shape`].
    pub(crate) fn init(&self, var: &Shape) -> Tensor {
        Tensor::zeros(self.shape(var))
    }
}

impl Optimizer {
    /// SGD with a typical default rate.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// Momentum SGD with the common 0.9 coefficient.
    pub fn momentum(lr: f32) -> Self {
        Optimizer::Momentum { lr, momentum: 0.9 }
    }

    /// RMSProp with the DQN paper's settings.
    pub fn rms_prop(lr: f32) -> Self {
        Optimizer::RmsProp { lr, decay: 0.95, momentum: 0.0, epsilon: 1e-6 }
    }

    /// Adam with the original paper's defaults.
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam { lr, beta1: 0.9, beta2: 0.999, epsilon: 1e-8 }
    }

    /// The TensorFlow name of this optimizer's `Apply` op in profiles.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Optimizer::Sgd { .. } => "ApplyGradientDescent",
            Optimizer::Momentum { .. } => "ApplyMomentum",
            Optimizer::RmsProp { .. } => "ApplyRMSProp",
            Optimizer::Adam { .. } => "ApplyAdam",
        }
    }

    /// The state slots [`Optimizer::update`] reads and writes, in the
    /// order it takes them.
    pub(crate) fn slots(&self) -> &'static [Slot] {
        match self {
            Optimizer::Sgd { .. } => &[],
            Optimizer::Momentum { .. } => &[Slot { name: "momentum", scalar: false }],
            Optimizer::RmsProp { .. } => {
                &[Slot { name: "ms", scalar: false }, Slot { name: "mom", scalar: false }]
            }
            Optimizer::Adam { .. } => &[
                Slot { name: "t", scalar: true },
                Slot { name: "m", scalar: false },
                Slot { name: "v", scalar: false },
            ],
        }
    }

    /// Flops one update spends per variable element.
    pub(crate) fn flops_per_elem(&self) -> f64 {
        match self {
            Optimizer::Sgd { .. } => 2.0,
            Optimizer::Momentum { .. } => 4.0,
            Optimizer::RmsProp { .. } => 8.0,
            Optimizer::Adam { .. } => 10.0,
        }
    }

    /// Multiplies the learning rate by `factor`.
    pub(crate) fn scale_lr(&mut self, factor: f32) {
        match self {
            Optimizer::Sgd { lr }
            | Optimizer::Momentum { lr, .. }
            | Optimizer::RmsProp { lr, .. }
            | Optimizer::Adam { lr, .. } => *lr *= factor,
        }
    }

    /// The update of `var` by `grad`, written out of place: returns the
    /// new variable and replaces each of `slots` — one tensor per entry of
    /// [`Optimizer::slots`], in that order, each of that entry's shape —
    /// with its new value. The old buffers are read and never written,
    /// so whoever else holds them (the undo journal, a snapshot, a
    /// variable read still in flight) keeps its bits. Each pass is
    /// elementwise and runs through `pool`; an element's arithmetic is
    /// the same, in the same order, at any width.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not hold one tensor per slot, or `grad` is
    /// not the variable's length.
    pub(crate) fn update(&self, var: &Tensor, grad: &[f32], slots: &mut [Tensor], pool: &ExecPool) -> Tensor {
        // Each pass writes one fresh arena buffer of the variable's shape
        // (every slot but Adam's scalar `t` has it), one span at a time;
        // no element's arithmetic depends on its span, so the bits are
        // the same at any width.
        let pass = |fill: &(dyn Fn(usize, &mut [f32]) + Sync)| generate(var.shape().clone(), 0, pool, fill);
        let v = var.data();
        let (n, name) = (v.len(), self.name());
        assert_eq!(grad.len(), n, "{name} of {n} elements by a {}-element gradient", grad.len());
        match (*self, slots) {
            (Optimizer::Sgd { lr }, []) => pass(&|at, out| {
                for ((o, v), g) in out.iter_mut().zip(&v[at..]).zip(&grad[at..]) {
                    *o = v - lr * g;
                }
            }),
            (Optimizer::Momentum { lr, momentum }, [accum]) => {
                let old = accum.data();
                let m = pass(&|at, out| {
                    for ((o, m), g) in out.iter_mut().zip(&old[at..]).zip(&grad[at..]) {
                        *o = momentum * m + g;
                    }
                });
                let new = m.data();
                let var = pass(&|at, out| {
                    for ((o, v), m) in out.iter_mut().zip(&v[at..]).zip(&new[at..]) {
                        *o = v - lr * m;
                    }
                });
                *accum = m;
                var
            }
            (Optimizer::RmsProp { lr, decay, momentum, epsilon }, [ms, mom]) => {
                let old = ms.data();
                let ms_new = pass(&|at, out| {
                    for ((o, m), g) in out.iter_mut().zip(&old[at..]).zip(&grad[at..]) {
                        *o = decay * m + (1.0 - decay) * g * g;
                    }
                });
                let (old, m) = (mom.data(), ms_new.data());
                let mom_new = pass(&|at, out| {
                    let inputs = old[at..].iter().zip(&grad[at..]).zip(&m[at..]);
                    for (o, ((mo, g), m)) in out.iter_mut().zip(inputs) {
                        *o = momentum * mo + lr * g / (m.sqrt() + epsilon);
                    }
                });
                let mo = mom_new.data();
                let var = pass(&|at, out| {
                    for ((o, v), mo) in out.iter_mut().zip(&v[at..]).zip(&mo[at..]) {
                        *o = v - mo;
                    }
                });
                (*ms, *mom) = (ms_new, mom_new);
                var
            }
            (Optimizer::Adam { lr, beta1, beta2, epsilon }, [t_slot, m, v2]) => {
                let t = t_slot.scalar_value() + 1.0;
                *t_slot = Tensor::scalar(t);
                let old = m.data();
                let m_new = pass(&|at, out| {
                    for ((o, mv), g) in out.iter_mut().zip(&old[at..]).zip(&grad[at..]) {
                        *o = beta1 * mv + (1.0 - beta1) * g;
                    }
                });
                let old = v2.data();
                let v2_new = pass(&|at, out| {
                    for ((o, vv), g) in out.iter_mut().zip(&old[at..]).zip(&grad[at..]) {
                        *o = beta2 * vv + (1.0 - beta2) * g * g;
                    }
                });
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                let (mv, vv) = (m_new.data(), v2_new.data());
                let var = pass(&|at, out| {
                    let inputs = v[at..].iter().zip(&mv[at..]).zip(&vv[at..]);
                    for (o, ((v, mv), vv)) in out.iter_mut().zip(inputs) {
                        let m_hat = mv / bc1;
                        let v_hat = vv / bc2;
                        *o = v - lr * m_hat / (v_hat.sqrt() + epsilon);
                    }
                });
                (*m, *v2) = (m_new, v2_new);
                var
            }
            (opt, slots) => {
                panic!("{} takes {} slots, got {}", opt.name(), opt.slots().len(), slots.len())
            }
        }
    }

    /// One `Apply` node per `(variable, gradient)` pair, behind the
    /// train-step `Group` node.
    fn apply_all(&self, g: &mut Graph, variables: &[NodeId], grads: &[NodeId]) -> NodeId {
        let applies: Vec<NodeId> = variables
            .iter()
            .zip(grads)
            .map(|(&var, &grad)| g.add(OpKind::Apply(*self), &[var, grad]))
            .collect();
        g.add(OpKind::Group, &applies)
    }

    /// Builds the backward pass for `loss` w.r.t. `variables` and one
    /// update op per variable, returning a single `Group` node to fetch as
    /// the train step.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar or the loss's ancestry contains an
    /// op without a gradient (see [`gradients`]).
    pub fn minimize(&self, g: &mut Graph, loss: NodeId, variables: &[NodeId]) -> NodeId {
        let grads = gradients(g, loss, variables);
        self.apply_all(g, variables, &grads)
    }

    /// Like [`Optimizer::minimize`], targeting every variable in the graph.
    ///
    /// # Panics
    ///
    /// Same as [`Optimizer::minimize`].
    pub fn minimize_all(&self, g: &mut Graph, loss: NodeId) -> NodeId {
        let vars = g.variables();
        self.minimize(g, loss, &vars)
    }

    /// Like [`Optimizer::minimize`], additionally emitting a scalar node
    /// with the global gradient L2 norm (built from ordinary graph ops,
    /// so it shows up in profiles). The norm nodes are pure readers of
    /// the gradients and never feed the `Apply` updates, so the training
    /// trajectory is bitwise-identical to [`Optimizer::minimize`].
    ///
    /// # Panics
    ///
    /// Same as [`Optimizer::minimize`].
    pub fn minimize_tracked(
        &self,
        g: &mut Graph,
        loss: NodeId,
        variables: &[NodeId],
    ) -> TrainHandles {
        let grads = gradients(g, loss, variables);
        let sq_sums: Vec<NodeId> = grads
            .iter()
            .map(|&d| {
                let sq = g.square(d);
                g.sum_all(sq)
            })
            .collect();
        let total = if sq_sums.len() == 1 { sq_sums[0] } else { g.add_n(&sq_sums) };
        let grad_norm = g.sqrt(total);
        TrainHandles { step: self.apply_all(g, variables, &grads), grad_norm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use fathom_tensor::{Rng, Shape, Tensor};

    /// Linear regression: y = x*w + b must fit a known line.
    fn linear_regression_with(opt: Optimizer, steps: usize) -> f32 {
        let mut rng = Rng::seeded(42);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(16, 1));
        let t = g.placeholder("t", Shape::matrix(16, 1));
        let w = g.variable("w", Tensor::zeros([1, 1]));
        let b = g.variable("b", Tensor::zeros([1]));
        let xw = g.matmul(x, w);
        let pred = g.add_op(xw, b);
        let err = g.sub(pred, t);
        let sq = g.square(err);
        let loss = g.mean_all(sq);
        let train = opt.minimize_all(&mut g, loss);
        let mut sess = Session::new(g, Device::cpu(1));
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            let xs = Tensor::randn([16, 1], 0.0, 1.0, &mut rng);
            // target line: y = 3x - 1
            let ts = Tensor::from_vec(xs.data().iter().map(|&v| 3.0 * v - 1.0).collect(), [16, 1]);
            let out = sess.run(&[loss, train], &[(x, xs), (t, ts)]).unwrap();
            last = out[0].scalar_value();
        }
        last
    }

    #[test]
    fn sgd_fits_a_line() {
        assert!(linear_regression_with(Optimizer::sgd(0.1), 200) < 1e-3);
    }

    #[test]
    fn momentum_fits_a_line() {
        assert!(linear_regression_with(Optimizer::momentum(0.02), 200) < 1e-3);
    }

    #[test]
    fn rmsprop_fits_a_line() {
        assert!(linear_regression_with(Optimizer::rms_prop(0.02), 300) < 1e-2);
    }

    #[test]
    fn adam_fits_a_line() {
        assert!(linear_regression_with(Optimizer::adam(0.05), 300) < 1e-2);
    }

    #[test]
    fn tracked_norm_matches_hand_computed_gradient() {
        use fathom_tensor::Tensor;
        // loss = mean((v - 1)^2) at v = [3, 1]: grad = [2, 0]/1... per-
        // element mean gradient is 2(v-1)/n = [2, 0], norm = 2.
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from_vec(vec![3.0, 1.0], [2]));
        let t = g.constant(Tensor::from_vec(vec![1.0, 1.0], [2]));
        let d = g.sub(v, t);
        let sq = g.square(d);
        let loss = g.mean_all(sq);
        let h = Optimizer::sgd(0.1).minimize_tracked(&mut g, loss, &[v]);
        let mut sess = Session::new(g, Device::cpu(1));
        let out = sess.run(&[h.grad_norm, h.step], &[]).unwrap();
        assert!((out[0].scalar_value() - 2.0).abs() < 1e-6, "norm {}", out[0].scalar_value());
    }

    #[test]
    fn tracked_trajectory_matches_untracked_bitwise() {
        // The norm chain must be a pure reader: variables after N tracked
        // steps are bitwise-equal to N plain-minimize steps.
        let run = |tracked: bool| -> Vec<f32> {
            let mut rng = Rng::seeded(31);
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(8, 3));
            let w = g.variable("w", Tensor::randn([3, 1], 0.0, 1.0, &mut rng));
            let y = g.matmul(x, w);
            let loss = g.mean_all(y);
            let fetches = if tracked {
                let h = Optimizer::adam(0.01).minimize_tracked(&mut g, loss, &[w]);
                vec![loss, h.grad_norm, h.step]
            } else {
                let t = Optimizer::adam(0.01).minimize(&mut g, loss, &[w]);
                vec![loss, t]
            };
            let mut sess = Session::new(g, Device::cpu(1));
            for i in 0..5 {
                let xs = Tensor::randn([8, 3], i as f32, 1.0, &mut Rng::seeded(100 + i as u64));
                sess.run(&fetches, &[(x, xs)]).unwrap();
            }
            sess.variable_value(w).unwrap().data().to_vec()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn minimize_emits_apply_ops_in_class_f() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 2));
        let w = g.variable("w", Tensor::zeros([2, 1]));
        let b = g.variable("b", Tensor::zeros([1]));
        let xw = g.matmul(x, w);
        let y = g.add_op(xw, b);
        let loss = g.mean_all(y);
        let opt = Optimizer::rms_prop(0.01);
        let train = opt.minimize_all(&mut g, loss);
        let applies: Vec<_> = g.iter().filter(|(_, n)| matches!(n.kind, OpKind::Apply(_))).collect();
        assert_eq!(applies.len(), 2, "one Apply per variable");
        for (_, n) in &applies {
            assert_eq!(n.kind, OpKind::Apply(opt));
            assert_eq!(n.kind.name(), "ApplyRMSProp");
            assert_eq!(n.kind.class(), crate::op::OpClass::Optimization);
        }
        assert!(matches!(g.node(train).kind, OpKind::Group));
        assert_eq!(g.node(train).inputs, applies.iter().map(|(id, _)| *id).collect::<Vec<_>>());
    }
}

//! Weight initialization and parameter tracking.

use std::collections::HashMap;

use fathom_dataflow::{Graph, NodeId};
use fathom_tensor::{Rng, Shape, Tensor};

/// Weight-initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// All ones (batch-norm scales).
    Ones,
    /// A constant value.
    Const(f32),
    /// Normal with the given standard deviation.
    Normal(f32),
    /// Xavier/Glorot: `N(0, sqrt(2 / (fan_in + fan_out)))`.
    Xavier,
    /// He/Kaiming: `N(0, sqrt(2 / fan_in))`, for ReLU stacks.
    He,
}

impl Init {
    /// Materializes an initial value of the given shape.
    ///
    /// Fan-in/fan-out are derived from the shape: for matrices
    /// `[in, out]`; for conv filters `[kh, kw, ic, oc]`,
    /// `fan_in = kh*kw*ic` and `fan_out = kh*kw*oc`; otherwise the first
    /// and last extents.
    pub fn materialize(&self, shape: &Shape, rng: &mut Rng) -> Tensor {
        let (fan_in, fan_out) = fans(shape);
        match *self {
            Init::Zeros => Tensor::zeros(shape.clone()),
            Init::Ones => Tensor::ones(shape.clone()),
            Init::Const(v) => Tensor::filled(shape.clone(), v),
            Init::Normal(std) => Tensor::randn(shape.clone(), 0.0, std, rng),
            Init::Xavier => {
                let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
                Tensor::randn(shape.clone(), 0.0, std, rng)
            }
            Init::He => {
                let std = (2.0 / fan_in as f32).sqrt();
                Tensor::randn(shape.clone(), 0.0, std, rng)
            }
        }
    }

    /// Raw 64-bit draws [`materialize`](Self::materialize) takes from
    /// the RNG for `shape`: two per element (Box-Muller) for the random
    /// schemes, none for the constant ones.
    fn draws(&self, shape: &Shape) -> usize {
        match self {
            Init::Zeros | Init::Ones | Init::Const(_) => 0,
            Init::Normal(_) | Init::Xavier | Init::He => 2 * shape.num_elements(),
        }
    }
}

fn fans(shape: &Shape) -> (usize, usize) {
    match shape.rank() {
        0 => (1, 1),
        1 => (shape.dim(0), shape.dim(0)),
        2 => (shape.dim(0), shape.dim(1)),
        4 => {
            let receptive = shape.dim(0) * shape.dim(1);
            (receptive * shape.dim(2), receptive * shape.dim(3))
        }
        _ => (shape.dim(0), shape.dim(shape.rank() - 1)),
    }
}

/// Creates graph variables with deterministic initialization and records
/// them so optimizers can enumerate the trainable set.
///
/// # Examples
///
/// ```
/// use fathom_dataflow::Graph;
/// use fathom_nn::{Init, Params};
///
/// let mut g = Graph::new();
/// let mut p = Params::seeded(7);
/// let w = p.variable(&mut g, "w", [3, 4], Init::Xavier);
/// assert_eq!(g.shape(w).dims(), &[3, 4]);
/// assert_eq!(p.trainable(), &[w]);
/// ```
#[derive(Debug, Clone)]
pub struct Params {
    rng: Rng,
    /// Draws adopted variables owe `rng`, taken when it is next used: a
    /// build that adopts every variable never pays for them.
    owed: usize,
    vars: Vec<NodeId>,
    /// Values to take instead of drawing, by variable name.
    adopt: HashMap<String, Tensor>,
}

impl Params {
    /// A parameter set with a deterministic seed.
    pub fn seeded(seed: u64) -> Self {
        Params::adopting(seed, HashMap::new())
    }

    /// A seeded parameter set that takes its values from `weights`: a
    /// variable whose name and shape match an entry shares that tensor
    /// instead of drawing one, and the RNG still advances as the draw
    /// would have, so every later value keeps its bits. A variable with
    /// no match is drawn as under [`Params::seeded`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::collections::HashMap;
    /// use fathom_dataflow::Graph;
    /// use fathom_nn::{Init, Params};
    /// use fathom_tensor::Tensor;
    ///
    /// let w = Tensor::ones([3, 4]);
    /// let mut g = Graph::new();
    /// let mut p = Params::adopting(7, HashMap::from([("w".to_string(), w.clone())]));
    /// p.variable(&mut g, "w", [3, 4], Init::Xavier);
    /// let mut drawn = Params::seeded(7);
    /// drawn.variable(&mut Graph::new(), "w", [3, 4], Init::Xavier);
    /// assert_eq!(p.rng().state(), drawn.rng().state());
    /// ```
    pub fn adopting(seed: u64, weights: HashMap<String, Tensor>) -> Self {
        Params { rng: Rng::seeded(seed), owed: 0, vars: Vec::new(), adopt: weights }
    }

    /// The initial value of variable `name`: the adopted tensor when one
    /// of that name and shape was given, otherwise a fresh draw. Either
    /// way the RNG ends where [`Init::materialize`] leaves it.
    pub fn initial(&mut self, name: &str, shape: &Shape, init: Init) -> Tensor {
        match self.adopt.get(name).filter(|t| t.shape() == shape) {
            Some(value) => {
                self.owed += init.draws(shape);
                value.clone()
            }
            None => init.materialize(shape, self.rng()),
        }
    }

    /// Adds a trainable variable.
    pub fn variable(
        &mut self,
        g: &mut Graph,
        name: impl Into<String>,
        shape: impl Into<Shape>,
        init: Init,
    ) -> NodeId {
        let (name, shape) = (name.into(), shape.into());
        let value = self.initial(&name, &shape, init);
        let id = g.variable(name, value);
        self.vars.push(id);
        id
    }

    /// Adds a trainable variable with a custom initial value (used when a
    /// layer needs one no [`Init`] scheme draws); an adopted tensor of
    /// that name and shape takes its place.
    pub fn variable_from(
        &mut self,
        g: &mut Graph,
        name: impl Into<String>,
        value: Tensor,
    ) -> NodeId {
        let name = name.into();
        let value = match self.adopt.get(&name).filter(|t| t.shape() == value.shape()) {
            Some(adopted) => adopted.clone(),
            None => value,
        };
        let id = g.variable(name, value);
        self.vars.push(id);
        id
    }

    /// All variables created so far, in creation order.
    pub fn trainable(&self) -> &[NodeId] {
        &self.vars
    }

    /// Number of scalar parameters across all variables.
    pub fn parameter_count(&self, g: &Graph) -> usize {
        self.vars.iter().map(|&v| g.shape(v).num_elements()).sum()
    }

    /// Draws from the internal RNG (for data-side randomness that should
    /// share the parameter seed), after taking the draws adopted
    /// variables owe it.
    pub fn rng(&mut self) -> &mut Rng {
        for _ in 0..std::mem::take(&mut self.owed) {
            self.rng.next_u64();
        }
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_scale_tracks_fans() {
        let mut rng = Rng::seeded(1);
        let big = Init::Xavier.materialize(&Shape::matrix(1000, 1000), &mut rng);
        let small = Init::Xavier.materialize(&Shape::matrix(10, 10), &mut rng);
        let std = |t: &Tensor| {
            let m = t.mean();
            (t.data().iter().map(|v| (v - m) * (v - m)).sum::<f32>() / t.len() as f32).sqrt()
        };
        let expected_big = (2.0f32 / 2000.0).sqrt();
        let expected_small = (2.0f32 / 20.0).sqrt();
        assert!((std(&big) - expected_big).abs() / expected_big < 0.1);
        assert!((std(&small) - expected_small).abs() / expected_small < 0.2);
    }

    #[test]
    fn conv_fans_use_receptive_field() {
        assert_eq!(fans(&Shape::new(vec![3, 3, 16, 32])), (144, 288));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let mut p1 = Params::seeded(5);
        let mut p2 = Params::seeded(5);
        let a = p1.variable(&mut g1, "w", [4, 4], Init::He);
        let b = p2.variable(&mut g2, "w", [4, 4], Init::He);
        let va = match &g1.node(a).kind {
            fathom_dataflow::OpKind::Variable { init } => init.clone(),
            _ => unreachable!(),
        };
        let vb = match &g2.node(b).kind {
            fathom_dataflow::OpKind::Variable { init } => init.clone(),
            _ => unreachable!(),
        };
        assert_eq!(va, vb);
    }

    #[test]
    fn adopting_advances_the_rng_as_materialize_does() {
        let shape = Shape::new(vec![2, 3, 4, 5]);
        for init in
            [Init::Zeros, Init::Ones, Init::Const(0.5), Init::Normal(0.1), Init::Xavier, Init::He]
        {
            let mut drawn = Params::seeded(17);
            let fresh = drawn.initial("w", &shape, init);
            let given = Tensor::filled(shape.clone(), 3.0);
            let mut adopted = Params::adopting(17, HashMap::from([("w".into(), given.clone())]));
            let took = adopted.initial("w", &shape, init);
            assert_eq!(took.data().as_ptr(), given.data().as_ptr(), "{init:?}: shares, not copies");
            assert_eq!(adopted.rng().state(), drawn.rng().state(), "{init:?}");
            // The next draw keeps its bits.
            assert_eq!(adopted.rng().uniform(), drawn.rng().uniform(), "{init:?}");

            let wrong = HashMap::from([("w".into(), Tensor::ones([2]))]);
            let drawn_again = Params::adopting(17, wrong).initial("w", &shape, init);
            assert_eq!(drawn_again, fresh, "{init:?}: a wrong shape draws");
        }
    }

    #[test]
    fn parameter_count_sums_elements() {
        let mut g = Graph::new();
        let mut p = Params::seeded(0);
        p.variable(&mut g, "a", [3, 4], Init::Zeros);
        p.variable(&mut g, "b", [5], Init::Zeros);
        assert_eq!(p.parameter_count(&g), 17);
    }
}

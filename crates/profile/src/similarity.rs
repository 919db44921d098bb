//! Performance similarity and hierarchical clustering (Figure 4).
//!
//! "Each profile is interpreted as a vector in high-dimensional space.
//! Pairwise similarity can be computed using cosine similarity, and we
//! use the inverse form (1 - A.B/|A||B|) as a distance metric. We can
//! then use agglomerative clustering with centroidal linkage." (§V-C)

use crate::profile::OpProfile;

/// Cosine distance `1 - cos(a, b)` between two non-negative vectors.
/// Returns 1.0 when either vector is all zeros.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must share a dimension");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na * nb)).max(0.0)
}

/// A node of the clustering tree: a leaf workload or a merge of two
/// subtrees at a given cosine distance.
#[derive(Debug, Clone, PartialEq)]
pub enum DendrogramNode {
    /// An original workload profile.
    Leaf {
        /// Workload name.
        name: String,
    },
    /// A merge of two clusters.
    Merge {
        /// Cosine distance between the merged clusters' centroids.
        distance: f64,
        /// Left subtree.
        left: Box<DendrogramNode>,
        /// Right subtree.
        right: Box<DendrogramNode>,
    },
}

impl DendrogramNode {
    /// Leaf names, left-to-right.
    pub fn leaves(&self) -> Vec<&str> {
        match self {
            DendrogramNode::Leaf { name } => vec![name.as_str()],
            DendrogramNode::Merge { left, right, .. } => {
                let mut v = left.leaves();
                v.extend(right.leaves());
                v
            }
        }
    }

    /// The merge distance at which two workloads join, or `None` if
    /// either is absent.
    pub fn join_distance(&self, a: &str, b: &str) -> Option<f64> {
        match self {
            DendrogramNode::Leaf { .. } => None,
            DendrogramNode::Merge { distance, left, right } => {
                let (la, lb) = (left.leaves(), right.leaves());
                let split = (la.contains(&a) && lb.contains(&b))
                    || (la.contains(&b) && lb.contains(&a));
                if split {
                    Some(*distance)
                } else {
                    left.join_distance(a, b).or_else(|| right.join_distance(a, b))
                }
            }
        }
    }
}

/// The full clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Root of the merge tree.
    pub root: DendrogramNode,
    /// Pairwise distance matrix between the original profiles, indexed by
    /// `names`.
    pub distances: Vec<Vec<f64>>,
    /// Workload names in input order (matrix index order).
    pub names: Vec<String>,
}

/// Clusters profiles by cosine distance with centroidal linkage: the two
/// nearest clusters are merged greedily and replaced by their centroid,
/// until one cluster remains.
///
/// # Panics
///
/// Panics if `profiles` is empty.
pub fn cluster(profiles: &[OpProfile]) -> Dendrogram {
    assert!(!profiles.is_empty(), "cluster needs at least one profile");
    let universe = OpProfile::universe(profiles);
    let names: Vec<String> = profiles.iter().map(|p| p.workload.clone()).collect();
    let vectors: Vec<Vec<f64>> = profiles.iter().map(|p| p.vector(&universe)).collect();

    let distances: Vec<Vec<f64>> = vectors
        .iter()
        .map(|a| vectors.iter().map(|b| cosine_distance(a, b)).collect())
        .collect();

    // Active clusters: (centroid, member count, tree).
    let mut clusters: Vec<(Vec<f64>, usize, DendrogramNode)> = vectors
        .into_iter()
        .zip(&names)
        .map(|(v, n)| (v, 1, DendrogramNode::Leaf { name: n.clone() }))
        .collect();

    while clusters.len() > 1 {
        // Find the closest pair of centroids.
        let (mut bi, mut bj, mut best) = (0, 1, f64::INFINITY);
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let d = cosine_distance(&clusters[i].0, &clusters[j].0);
                if d < best {
                    (bi, bj, best) = (i, j, d);
                }
            }
        }
        // bi < bj, so removing bj first leaves bi stable.
        let (cj_v, cj_n, cj_t) = clusters.swap_remove(bj);
        let (ci_v, ci_n, ci_t) = clusters.swap_remove(bi);
        // Size-weighted centroid of the merged cluster.
        let total = (ci_n + cj_n) as f64;
        let centroid: Vec<f64> = ci_v
            .iter()
            .zip(&cj_v)
            .map(|(a, b)| (a * ci_n as f64 + b * cj_n as f64) / total)
            .collect();
        clusters.push((
            centroid,
            ci_n + cj_n,
            DendrogramNode::Merge { distance: best, left: Box::new(ci_t), right: Box::new(cj_t) },
        ));
    }

    Dendrogram {
        root: clusters.pop().expect("one cluster remains").2,
        distances,
        names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::cost::OpCost;
    use fathom_dataflow::trace::{RunTrace, TraceEvent};
    use fathom_dataflow::{NodeId, OpClass};

    fn profile(name: &str, times: &[(&'static str, f64)]) -> OpProfile {
        let events = times
            .iter()
            .map(|(op, nanos)| TraceEvent {
                node: NodeId::default(),
                op,
                class: OpClass::MatrixOps,
                step: 0,
                nanos: *nanos,
                cost: OpCost::default(),
            })
            .collect();
        OpProfile::from_trace(name, &RunTrace { events, steps: 1, ..RunTrace::default() })
    }

    #[test]
    fn cosine_distance_basics() {
        assert!((cosine_distance(&[1.0, 0.0], &[1.0, 0.0])).abs() < 1e-12);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_distance(&[2.0, 0.0], &[5.0, 0.0])).abs() < 1e-12, "scale invariant");
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mismatched_vectors_panic() {
        cosine_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn similar_profiles_cluster_first() {
        // Two conv-heavy workloads and one matmul-heavy outlier.
        let a = profile("conv_a", &[("Conv2D", 90.0), ("MatMul", 10.0)]);
        let b = profile("conv_b", &[("Conv2D", 85.0), ("MatMul", 15.0)]);
        let c = profile("fc", &[("MatMul", 95.0), ("Add", 5.0)]);
        let d = cluster(&[a, b, c]);
        // conv_a and conv_b must join before either joins fc.
        let ab = d.root.join_distance("conv_a", "conv_b").unwrap();
        let ac = d.root.join_distance("conv_a", "fc").unwrap();
        assert!(ab < ac, "ab {ab} should be below ac {ac}");
        assert_eq!(d.root.leaves().len(), 3);
    }

    #[test]
    fn identical_profiles_join_at_zero() {
        let a = profile("x", &[("MatMul", 50.0), ("Add", 50.0)]);
        let b = profile("y", &[("MatMul", 50.0), ("Add", 50.0)]);
        let d = cluster(&[a, b]);
        assert!(d.root.join_distance("x", "y").unwrap() < 1e-12);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let a = profile("a", &[("Conv2D", 1.0)]);
        let b = profile("b", &[("MatMul", 1.0)]);
        let c = profile("c", &[("Conv2D", 1.0), ("MatMul", 1.0)]);
        let d = cluster(&[a, b, c]);
        for i in 0..3 {
            assert!(d.distances[i][i].abs() < 1e-12);
            for j in 0..3 {
                assert!((d.distances[i][j] - d.distances[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_profile_is_a_leaf() {
        let d = cluster(&[profile("solo", &[("MatMul", 1.0)])]);
        assert_eq!(d.root, DendrogramNode::Leaf { name: "solo".into() });
    }
}

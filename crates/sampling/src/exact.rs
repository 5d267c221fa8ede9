//! Exact connection probabilities by exhaustive world enumeration.
//!
//! For a graph with `u` *uncertain* edges (probability strictly below 1)
//! there are `2^u` possible worlds; enumerating them yields exact
//! two-terminal reliabilities in `O(2^u · poly(n))`. Exact computation is
//! #P-complete in general, so this is only feasible for tiny graphs — which
//! is exactly its role here: ground truth for estimator tests, optimality
//! brute-forcing on small instances, and the `reliability_oracle` example.
//! [`ExactOracle`] implements [`Oracle`], so the clustering algorithms run
//! on exact probabilities unchanged.

use ugraph_graph::{bfs_distances, Bitset, NodeId, UncertainGraph, UnionFind, WorldView};

use crate::error::SamplingError;
use crate::oracle::Oracle;

/// Error raised when a graph is too large for exhaustive enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyUncertainEdges {
    /// Number of uncertain edges in the graph.
    pub count: usize,
    /// The enumeration limit.
    pub max: usize,
}

impl std::fmt::Display for TooManyUncertainEdges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph has {} uncertain edges; exact enumeration is limited to {}",
            self.count, self.max
        )
    }
}

impl std::error::Error for TooManyUncertainEdges {}

/// Exact all-pairs connection probabilities of a small uncertain graph.
#[derive(Clone, Debug)]
pub struct ExactOracle {
    n: usize,
    /// Row-major `n × n` symmetric matrix; diagonal is 1.
    probs: Vec<f64>,
}

impl ExactOracle {
    /// Maximum number of uncertain edges accepted (2^25 ≈ 33M worlds).
    pub const MAX_UNCERTAIN_EDGES: usize = 25;

    /// Computes exact **unlimited** connection probabilities.
    pub fn new(g: &UncertainGraph) -> Result<Self, TooManyUncertainEdges> {
        Self::build(g, None)
    }

    /// Computes exact **depth-limited** d-connection probabilities
    /// `Pr(u ~d~ v)` (paper §3.4): the probability that `u` and `v` are at
    /// hop distance at most `depth` in a random world.
    pub fn with_depth(g: &UncertainGraph, depth: u32) -> Result<Self, TooManyUncertainEdges> {
        Self::build(g, Some(depth))
    }

    fn build(g: &UncertainGraph, depth: Option<u32>) -> Result<Self, TooManyUncertainEdges> {
        let n = g.num_nodes();
        let m = g.num_edges();
        let mut uncertain: Vec<usize> = Vec::new();
        let mut base_world = Bitset::with_len(m);
        for (e, _, _, p) in g.edges() {
            if p < 1.0 {
                uncertain.push(e.index());
            } else {
                base_world.insert(e.index());
            }
        }
        if uncertain.len() > Self::MAX_UNCERTAIN_EDGES {
            return Err(TooManyUncertainEdges {
                count: uncertain.len(),
                max: Self::MAX_UNCERTAIN_EDGES,
            });
        }

        let mut probs = vec![0.0f64; n * n];
        let mut world = base_world.clone();
        let mut uf = UnionFind::new(n);
        let mut labels = vec![0u32; n];

        for mask in 0u64..(1u64 << uncertain.len()) {
            // Build this world: certain edges + selected uncertain edges.
            world.clone_from(&base_world);
            let mut world_prob = 1.0f64;
            for (bit, &e) in uncertain.iter().enumerate() {
                let p = g.probs()[e];
                if (mask >> bit) & 1 == 1 {
                    world.insert(e);
                    world_prob *= p;
                } else {
                    world_prob *= 1.0 - p;
                }
            }
            if world_prob == 0.0 {
                continue;
            }
            match depth {
                None => {
                    // Components once, then credit all intra-component pairs.
                    uf.reset();
                    for (e, u, v, _) in g.edges() {
                        if world.get(e.index()) {
                            uf.union(u.0, v.0);
                        }
                    }
                    let count = uf.component_labels_into(&mut labels);
                    // Bucket members per component for pair enumeration.
                    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); count];
                    for (node, &l) in labels.iter().enumerate() {
                        buckets[l as usize].push(node as u32);
                    }
                    for bucket in &buckets {
                        for (i, &a) in bucket.iter().enumerate() {
                            for &b in &bucket[i..] {
                                probs[a as usize * n + b as usize] += world_prob;
                                if a != b {
                                    probs[b as usize * n + a as usize] += world_prob;
                                }
                            }
                        }
                    }
                }
                Some(d) => {
                    let view = WorldView::new(g, &world);
                    for u in 0..n {
                        let dist = bfs_distances(&view, NodeId::from_index(u));
                        for (v, &dv) in dist.iter().enumerate() {
                            if dv != u32::MAX && dv <= d {
                                probs[u * n + v] += world_prob;
                            }
                        }
                    }
                }
            }
        }
        Ok(ExactOracle { n, probs })
    }

    /// Exact `Pr(u ~ v)` (or `Pr(u ~d~ v)` if built with a depth).
    #[inline]
    pub fn pair_probability(&self, u: NodeId, v: NodeId) -> f64 {
        self.probs[u.index() * self.n + v.index()]
    }

    /// The row of probabilities from `u` to every node.
    #[inline]
    pub fn probs_from(&self, u: NodeId) -> &[f64] {
        &self.probs[u.index() * self.n..(u.index() + 1) * self.n]
    }
}

/// Exact probabilities need no samples and have one radius: selection and
/// cover rows coincide (build with [`ExactOracle::with_depth`] for exact
/// depth-limited rows).
impl Oracle for ExactOracle {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn prepare(&mut self, _q: f64) -> Result<(), SamplingError> {
        Ok(())
    }

    fn num_samples(&self) -> usize {
        1
    }

    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let n = self.n;
        assert_eq!(cover.len(), centers.len() * n, "batch cover buffer has wrong length");
        assert!(
            select.is_empty() || select.len() == cover.len(),
            "batch select buffer has wrong length"
        );
        for (j, &c) in centers.iter().enumerate() {
            cover[j * n..(j + 1) * n].copy_from_slice(self.probs_from(c));
        }
        if !select.is_empty() {
            select.copy_from_slice(cover);
        }
        Ok(())
    }

    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError> {
        Ok(self.pair_probability(u, v))
    }

    fn identical_rows(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn oracle_impl_is_exact() {
        let mut o = ExactOracle::new(&chain(3, 0.5)).unwrap();
        assert_eq!(o.epsilon(), 0.0);
        o.prepare(1e-9).unwrap(); // no-op
        let mut sel = vec![0.0; 3];
        let mut cov = vec![0.0; 3];
        o.center_probs(NodeId(0), &mut sel, &mut cov).unwrap();
        assert!((cov[1] - 0.5).abs() < 1e-12);
        assert!((cov[2] - 0.25).abs() < 1e-12);
        assert_eq!(sel, cov);
        assert!((o.pair_prob(NodeId(0), NodeId(2)).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn series_composition() {
        // Chain of independent edges: Pr(0 ~ k) = p^k.
        let g = chain(5, 0.5);
        let oracle = ExactOracle::new(&g).unwrap();
        for k in 0..5u32 {
            let want = 0.5f64.powi(k as i32);
            let got = oracle.pair_probability(NodeId(0), NodeId(k));
            assert!((got - want).abs() < 1e-12, "Pr(0~{k}) = {got}, want {want}");
        }
    }

    #[test]
    fn parallel_composition() {
        // Two parallel 2-hop routes 0-1-3 and 0-2-3, all p = 0.5.
        // Pr(route) = 0.25 each; Pr(0~3) = 1 - (1-.25)^2 = 0.4375.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let g = b.build().unwrap();
        let oracle = ExactOracle::new(&g).unwrap();
        let got = oracle.pair_probability(NodeId(0), NodeId(3));
        assert!((got - 0.4375).abs() < 1e-12, "{got}");
    }

    #[test]
    fn diagonal_is_one_rows_symmetric() {
        let g = chain(4, 0.3);
        let oracle = ExactOracle::new(&g).unwrap();
        for u in 0..4u32 {
            assert!((oracle.pair_probability(NodeId(u), NodeId(u)) - 1.0).abs() < 1e-12);
            for v in 0..4u32 {
                let a = oracle.pair_probability(NodeId(u), NodeId(v));
                let b = oracle.pair_probability(NodeId(v), NodeId(u));
                assert!((a - b).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn certain_edges_do_not_blow_up() {
        // 30 certain edges + 2 uncertain ones: must not hit the limit.
        let mut b = GraphBuilder::new(32);
        for i in 0..30 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        b.add_edge(30, 31, 0.5).unwrap();
        b.add_edge(0, 31, 0.5).unwrap();
        let g = b.build().unwrap();
        let oracle = ExactOracle::new(&g).unwrap();
        // 0 and 30 joined by certain chain.
        assert!((oracle.pair_probability(NodeId(0), NodeId(30)) - 1.0).abs() < 1e-12);
        // 0 ~ 31 via either uncertain edge: 1 - 0.25 = 0.75.
        assert!((oracle.pair_probability(NodeId(0), NodeId(31)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn too_many_uncertain_edges_rejected() {
        let mut b = GraphBuilder::new(30);
        for i in 0..28 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let err = ExactOracle::new(&g).unwrap_err();
        assert_eq!(err.count, 28);
        assert!(err.to_string().contains("28"));
    }

    #[test]
    fn depth_limited_excludes_long_paths() {
        // Certain chain 0-1-2: Pr(0 ~1~ 2) = 0 but Pr(0 ~2~ 2) = 1.
        let g = chain(3, 1.0);
        let d1 = ExactOracle::with_depth(&g, 1).unwrap();
        assert_eq!(d1.pair_probability(NodeId(0), NodeId(2)), 0.0);
        let d2 = ExactOracle::with_depth(&g, 2).unwrap();
        assert!((d2.pair_probability(NodeId(0), NodeId(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depth_limited_triangle() {
        // Triangle, p=0.5 each. Pr(0 ~1~ 1) = Pr(direct edge OR nothing else
        // helps at depth 1) = 0.5.
        // Pr(0 ~2~ 1) = Pr(edge01) + Pr(!edge01) * Pr(edge02 & edge12)
        //            = 0.5 + 0.5 * 0.25 = 0.625.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let d1 = ExactOracle::with_depth(&g, 1).unwrap();
        assert!((d1.pair_probability(NodeId(0), NodeId(1)) - 0.5).abs() < 1e-12);
        let d2 = ExactOracle::with_depth(&g, 2).unwrap();
        assert!((d2.pair_probability(NodeId(0), NodeId(1)) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn unlimited_equals_large_depth() {
        let g = chain(5, 0.7);
        let unlimited = ExactOracle::new(&g).unwrap();
        let deep = ExactOracle::with_depth(&g, 4).unwrap();
        for u in 0..5u32 {
            for v in 0..5u32 {
                let a = unlimited.pair_probability(NodeId(u), NodeId(v));
                let b = deep.pair_probability(NodeId(u), NodeId(v));
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn disconnected_pairs_have_zero_probability() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        let g = b.build().unwrap();
        let oracle = ExactOracle::new(&g).unwrap();
        assert_eq!(oracle.pair_probability(NodeId(0), NodeId(2)), 0.0);
        assert!((oracle.pair_probability(NodeId(0), NodeId(1)) - 0.9).abs() < 1e-12);
    }
}

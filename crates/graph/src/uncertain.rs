//! The uncertain graph type.

use crate::csr::Csr;
use crate::ids::{EdgeId, NodeId};
use crate::traversal::Adjacency;

/// An undirected uncertain graph `G = (V, E, p : E → (0, 1])`.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder), which
/// validates probabilities, rejects self-loops, and resolves parallel
/// edges; once built, the graph is immutable. Edge `e` exists in a random
/// possible world with probability `prob(e)`, independently of all other
/// edges (the independence assumption of the paper, §1).
#[derive(Clone, Debug)]
pub struct UncertainGraph {
    csr: Csr,
    /// Canonical endpoints (`u < v`), one entry per undirected edge.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Existence probability per edge, in `(0, 1]`.
    probs: Vec<f64>,
}

impl UncertainGraph {
    /// Assembles a graph from parts. Crate-internal: the public path is
    /// [`GraphBuilder::build`](crate::GraphBuilder::build), which upholds the
    /// invariants (canonical endpoints, valid probabilities, no duplicates).
    pub(crate) fn from_parts(n: usize, endpoints: Vec<(NodeId, NodeId)>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(endpoints.len(), probs.len());
        let csr = Csr::from_edges(n, &endpoints);
        UncertainGraph { csr, endpoints, probs }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Existence probability of edge `e`.
    #[inline]
    pub fn prob(&self, e: EdgeId) -> f64 {
        self.probs[e.index()]
    }

    /// All edge probabilities, indexed by [`EdgeId`].
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterator over `(edge id, u, v, p)` for every undirected edge.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, f64)> + '_ {
        self.endpoints
            .iter()
            .zip(&self.probs)
            .enumerate()
            .map(|(i, (&(u, v), &p))| (EdgeId::from_index(i), u, v, p))
    }

    /// Degree of `u` in the underlying topology (counting all uncertain
    /// edges, regardless of probability).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.csr.degree(u)
    }

    /// Maximum degree Δ of the underlying topology, 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Neighbors of `u` with connecting edge ids.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.csr.neighbors(u)
    }

    /// The CSR adjacency (used by traversal helpers and world views).
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }
}

impl Adjacency for UncertainGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }

    #[inline]
    fn for_each_neighbor(&self, u: NodeId, mut f: impl FnMut(NodeId, EdgeId)) {
        let ns = self.csr.neighbor_slice(u);
        let es = self.csr.edge_id_slice(u);
        for (&v, &e) in ns.iter().zip(es) {
            f(v, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path3() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn edge_probabilities() {
        let g = path3();
        let probs: Vec<f64> = g.edges().map(|(_, _, _, p)| p).collect();
        assert_eq!(probs, vec![0.5, 0.25]);
    }

    #[test]
    fn endpoints_are_canonical() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0, 0.5).unwrap(); // reversed input order
        let g = b.build().unwrap();
        let (_, u, v, _) = g.edges().next().unwrap();
        assert_eq!((u, v), (NodeId(0), NodeId(2)));
    }

    #[test]
    fn adjacency_trait_matches_neighbors() {
        let g = path3();
        let mut via_trait = Vec::new();
        Adjacency::for_each_neighbor(&g, NodeId(1), |n, e| via_trait.push((n, e)));
        let via_iter: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(via_trait, via_iter);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}

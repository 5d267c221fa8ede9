//! Deterministic views of possible worlds.

use crate::bitset::Bitset;
use crate::ids::{EdgeId, NodeId};
use crate::traversal::Adjacency;
use crate::uncertain::UncertainGraph;

/// A zero-copy deterministic view of one possible world of an uncertain
/// graph: the subgraph containing exactly the edges whose bit is set in
/// `present`.
///
/// Implements [`Adjacency`], so every traversal in this crate runs on a
/// world view unchanged.
#[derive(Clone, Copy)]
pub struct WorldView<'a> {
    graph: &'a UncertainGraph,
    present: &'a Bitset,
}

impl<'a> WorldView<'a> {
    /// Creates a view of `graph` restricted to the edges in `present`.
    ///
    /// # Panics
    /// Panics if the bitset length differs from the edge count.
    pub fn new(graph: &'a UncertainGraph, present: &'a Bitset) -> Self {
        assert_eq!(
            present.len(),
            graph.num_edges(),
            "world bitset has {} bits for a graph with {} edges",
            present.len(),
            graph.num_edges()
        );
        WorldView { graph, present }
    }

    /// The underlying uncertain graph.
    #[inline]
    pub fn graph(&self) -> &'a UncertainGraph {
        self.graph
    }
}

impl Adjacency for WorldView<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    #[inline]
    fn for_each_neighbor(&self, u: NodeId, mut f: impl FnMut(NodeId, EdgeId)) {
        let ns = self.graph.csr().neighbor_slice(u);
        let es = self.graph.csr().edge_id_slice(u);
        for (&v, &e) in ns.iter().zip(es) {
            if self.present.get(e.index()) {
                f(v, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::traversal::{bfs_distances, connected_components, UNREACHABLE};

    fn triangle() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_world_sees_all_edges() {
        let g = triangle();
        let mut present = Bitset::with_len(3);
        present.fill();
        let w = WorldView::new(&g, &present);
        let (_, count) = connected_components(&w);
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_world_is_all_isolated() {
        let g = triangle();
        let present = Bitset::with_len(3);
        let w = WorldView::new(&g, &present);
        let (_, count) = connected_components(&w);
        assert_eq!(count, 3);
        let dist = bfs_distances(&w, NodeId(0));
        assert_eq!(dist, vec![0, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn partial_world_filters_adjacency() {
        let g = triangle();
        // Keep only edge (0,1): edges are sorted canonically so (0,1) is e0.
        let mut present = Bitset::with_len(3);
        present.insert(0);
        let w = WorldView::new(&g, &present);
        let mut nbrs = Vec::new();
        w.for_each_neighbor(NodeId(0), |v, _| nbrs.push(v.0));
        assert_eq!(nbrs, vec![1]);
        let dist = bfs_distances(&w, NodeId(2));
        assert_eq!(dist, vec![UNREACHABLE, UNREACHABLE, 0]);
    }

    #[test]
    #[should_panic(expected = "bits for a graph")]
    fn mismatched_bitset_panics() {
        let g = triangle();
        let present = Bitset::with_len(2);
        let _ = WorldView::new(&g, &present);
    }
}

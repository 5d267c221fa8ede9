//! Induced subgraphs and largest-connected-component extraction.
//!
//! The paper's experiments cluster only the **largest connected component**
//! of each dataset (§5: "we target clusterings only for the largest
//! connected component of each graph"), so LCC extraction is a first-class
//! operation here.

use crate::builder::GraphBuilder;
use crate::ids::NodeId;
use crate::traversal::connected_components;
use crate::uncertain::UncertainGraph;

/// An induced subgraph together with the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph, with nodes renumbered `0..kept.len()`.
    pub graph: UncertainGraph,
    /// `original[i]` is the parent-graph id of subgraph node `i`.
    pub original: Vec<NodeId>,
}

impl Subgraph {
    /// Builds the inverse map: parent-graph id → local id (`None` if the
    /// node was not kept). Allocates a vector of parent-graph size.
    pub fn original_to_local(&self, parent_num_nodes: usize) -> Vec<Option<NodeId>> {
        let mut map = vec![None; parent_num_nodes];
        for (local, &orig) in self.original.iter().enumerate() {
            map[orig.index()] = Some(NodeId::from_index(local));
        }
        map
    }
}

/// Extracts the subgraph induced by `nodes` (need not be sorted; duplicates
/// are ignored). Edge probabilities are preserved.
pub fn induced_subgraph(g: &UncertainGraph, nodes: &[NodeId]) -> Subgraph {
    let mut keep = vec![false; g.num_nodes()];
    for &u in nodes {
        keep[u.index()] = true;
    }
    // Local ids in increasing original order for determinism.
    let mut local_of = vec![u32::MAX; g.num_nodes()];
    let mut original = Vec::new();
    for u in 0..g.num_nodes() {
        if keep[u] {
            local_of[u] = original.len() as u32;
            original.push(NodeId::from_index(u));
        }
    }
    let mut b = GraphBuilder::with_capacity(original.len(), g.num_edges());
    for (_, u, v, p) in g.edges() {
        if keep[u.index()] && keep[v.index()] {
            b.add_edge(local_of[u.index()], local_of[v.index()], p)
                .unwrap_or_else(|e| unreachable!("validated parent edges stay valid: {e}"));
        }
    }
    let graph = b
        .build()
        .unwrap_or_else(|e| unreachable!("induced subgraph construction cannot fail: {e}"));
    Subgraph { graph, original }
}

/// Extracts the largest connected component of the **topology** (edge
/// probabilities are ignored for connectivity, matching the paper's setup).
/// Ties are broken toward the component containing the smallest node id.
pub fn largest_connected_component(g: &UncertainGraph) -> Subgraph {
    if g.num_nodes() == 0 {
        let empty = GraphBuilder::new(0)
            .build()
            .unwrap_or_else(|e| unreachable!("an empty graph always builds: {e}"));
        return Subgraph { graph: empty, original: Vec::new() };
    }
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    // Labels are assigned in order of first appearance, so the first maximal
    // label is the one containing the smallest node id among ties.
    let best = sizes
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i as u32)
        .unwrap_or_else(|| unreachable!("a non-empty graph has at least one component"));
    let nodes: Vec<NodeId> = labels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l == best)
        .map(|(i, _)| NodeId::from_index(i))
        .collect();
    induced_subgraph(g, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;

    /// Two components: triangle {0,1,2} (p=0.5) and edge {3,4} (p=0.9).
    fn two_components() -> UncertainGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = two_components();
        let sub = induced_subgraph(&g, &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.graph.num_nodes(), 3);
        // Only (0,1) survives: (3,*) has no kept partner.
        assert_eq!(sub.graph.num_edges(), 1);
        assert_eq!(sub.graph.probs()[0], 0.5);
    }

    #[test]
    fn induced_mapping_roundtrip() {
        let g = two_components();
        let sub = induced_subgraph(&g, &[NodeId(4), NodeId(2)]); // unsorted on purpose
        assert_eq!(sub.original, vec![NodeId(2), NodeId(4)]);
        let inv = sub.original_to_local(g.num_nodes());
        assert_eq!(inv[2], Some(NodeId(0)));
        assert_eq!(inv[4], Some(NodeId(1)));
        assert_eq!(inv[0], None);
    }

    #[test]
    fn induced_ignores_duplicates() {
        let g = two_components();
        let sub = induced_subgraph(&g, &[NodeId(3), NodeId(3), NodeId(4)]);
        assert_eq!(sub.graph.num_nodes(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
    }

    #[test]
    fn lcc_picks_triangle() {
        let g = two_components();
        let lcc = largest_connected_component(&g);
        assert_eq!(lcc.graph.num_nodes(), 3);
        assert_eq!(lcc.graph.num_edges(), 3);
        assert_eq!(lcc.original, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn lcc_preserves_probabilities() {
        let g = two_components();
        let lcc = largest_connected_component(&g);
        for e in 0..lcc.graph.num_edges() {
            assert_eq!(lcc.graph.prob(EdgeId::from_index(e)), 0.5);
        }
    }

    #[test]
    fn lcc_tie_breaks_to_smallest_node() {
        // Two components of equal size: {0,1} and {2,3}.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let g = b.build().unwrap();
        let lcc = largest_connected_component(&g);
        assert_eq!(lcc.original, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn lcc_of_empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        let lcc = largest_connected_component(&g);
        assert_eq!(lcc.graph.num_nodes(), 0);
        assert!(lcc.original.is_empty());
    }

    #[test]
    fn lcc_of_connected_graph_is_identity() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let lcc = largest_connected_component(&g);
        assert_eq!(lcc.graph.num_nodes(), 3);
        assert_eq!(lcc.original, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}

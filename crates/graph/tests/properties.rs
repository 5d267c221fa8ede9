//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use ugraph_graph::{
    bfs_distances, connected_components, io, largest_connected_component, Bitset, GraphBuilder,
    NodeId, UncertainGraph, UnionFind,
};

/// Strategy: a random edge list on up to `max_n` nodes.
fn edge_list(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f64)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0.01f64..=1.0);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

fn build_graph(n: u32, edges: &[(u32, u32, f64)]) -> UncertainGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    /// CSR degrees sum to 2m and adjacency is symmetric.
    #[test]
    fn csr_degree_sum_and_symmetry((n, edges) in edge_list(40, 120)) {
        let g = build_graph(n, &edges);
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for u in g.nodes() {
            for (v, e) in g.neighbors(u) {
                prop_assert!(g.neighbors(v).any(|(w, e2)| w == u && e2 == e));
            }
        }
    }

    /// Every edge's endpoints are canonical and probabilities valid.
    #[test]
    fn edges_are_canonical((n, edges) in edge_list(40, 120)) {
        let g = build_graph(n, &edges);
        for (_, u, v, p) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(p > 0.0 && p <= 1.0);
        }
    }

    /// Union-find agrees with BFS-computed components on the full topology.
    #[test]
    fn union_find_matches_bfs_components((n, edges) in edge_list(40, 120)) {
        let g = build_graph(n, &edges);
        let (labels, count) = connected_components(&g);
        let mut uf = UnionFind::new(g.num_nodes());
        for (_, u, v, _) in g.edges() {
            uf.union(u.0, v.0);
        }
        let (uf_labels, uf_count) = uf.component_labels();
        prop_assert_eq!(count, uf_count);
        // Canonical first-appearance labeling must agree exactly.
        prop_assert_eq!(labels, uf_labels);
    }

    /// BFS distance 1 exactly for neighbors, 0 exactly for the source.
    #[test]
    fn bfs_distance_sanity((n, edges) in edge_list(30, 90)) {
        let g = build_graph(n, &edges);
        if g.num_nodes() == 0 { return Ok(()); }
        let src = NodeId(0);
        let dist = bfs_distances(&g, src);
        prop_assert_eq!(dist[0], 0);
        for (v, _) in g.neighbors(src) {
            prop_assert!(dist[v.index()] == 1);
        }
        // Triangle inequality on hops along every edge.
        for (_, u, v, _) in g.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    /// The LCC is connected and at least as large as any other component.
    #[test]
    fn lcc_is_connected_and_maximal((n, edges) in edge_list(40, 80)) {
        let g = build_graph(n, &edges);
        let lcc = largest_connected_component(&g);
        if lcc.graph.num_nodes() > 0 {
            let (_, count) = connected_components(&lcc.graph);
            prop_assert_eq!(count, 1);
        }
        let (labels, count) = connected_components(&g);
        let mut sizes = vec![0usize; count];
        for &l in &labels { sizes[l as usize] += 1; }
        let max_size = sizes.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(lcc.graph.num_nodes(), max_size);
    }

    /// Edge-list round trip preserves the graph exactly.
    #[test]
    fn io_roundtrip((n, edges) in edge_list(40, 120)) {
        let g = build_graph(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g.num_nodes(), g2.num_nodes());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }

    /// Bitset ones() agrees with a naive bool-vector model.
    #[test]
    fn bitset_matches_model(ops in proptest::collection::vec((0usize..300, any::<bool>()), 0..200)) {
        let mut bs = Bitset::with_len(300);
        let mut model = vec![false; 300];
        for (i, v) in ops {
            bs.set(i, v);
            model[i] = v;
        }
        let got: Vec<usize> = bs.ones().collect();
        let want: Vec<usize> = model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bs.count_ones(), model.iter().filter(|&&b| b).count());
    }

    /// Union-find `connected` is an equivalence relation consistent with the
    /// unions performed.
    #[test]
    fn union_find_transitivity(unions in proptest::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let mut uf = UnionFind::new(30);
        for &(a, b) in &unions {
            uf.union(a, b);
        }
        // Reflexive + symmetric by construction; check transitivity.
        for a in 0..30u32 {
            for b in 0..30u32 {
                for c in 0..30u32 {
                    if uf.connected(a, b) && uf.connected(b, c) {
                        prop_assert!(uf.connected(a, c));
                    }
                }
            }
        }
        // Set count = n - effective unions.
        let (_, count) = uf.component_labels();
        prop_assert_eq!(count, uf.num_sets());
    }
}

//! Graph traversals over deterministic views.
//!
//! All traversals are generic over [`Adjacency`], so the same code runs on
//! the full topology ([`crate::UncertainGraph`]) and on a single possible
//! world ([`crate::WorldView`]). The depth-limited BFS is the workhorse of
//! d-connection-probability estimation (paper §3.4), where it runs once per
//! Monte-Carlo sample — hence the reusable, epoch-stamped buffers.

use std::collections::VecDeque;

use crate::ids::{EdgeId, NodeId};

/// Minimal adjacency abstraction: node count plus neighbor enumeration.
///
/// Uses an internal-iteration (callback) style rather than returning an
/// iterator so implementations that filter edges (world views) stay
/// allocation-free and monomorphize well.
pub trait Adjacency {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Calls `f(neighbor, edge)` for each edge incident to `u`.
    fn for_each_neighbor(&self, u: NodeId, f: impl FnMut(NodeId, EdgeId));
}

/// Unreachable marker in distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Full BFS from `source`; returns hop distances (`UNREACHABLE` where not
/// reachable).
pub fn bfs_distances(g: &impl Adjacency, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        g.for_each_neighbor(u, |v, _| {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        });
    }
    dist
}

/// Connected components of a deterministic view; returns `(labels, count)`
/// with labels canonical in order of first appearance (node 0's component is
/// labeled 0, and so on).
pub fn connected_components(g: &impl Adjacency) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    const UNSET: u32 = u32::MAX;
    let mut labels = vec![UNSET; n];
    let mut count = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for start in 0..n as u32 {
        if labels[start as usize] != UNSET {
            continue;
        }
        labels[start as usize] = count;
        stack.push(NodeId(start));
        while let Some(u) = stack.pop() {
            g.for_each_neighbor(u, |v, _| {
                if labels[v.index()] == UNSET {
                    labels[v.index()] = count;
                    stack.push(v);
                }
            });
        }
        count += 1;
    }
    (labels, count as usize)
}

/// Reusable depth-limited BFS with O(1) amortized reset.
///
/// The `visited` buffer stores the epoch at which each node was last seen;
/// bumping the epoch invalidates the whole buffer without touching memory.
/// One `DepthBfs` is typically reused across all Monte-Carlo samples of a
/// depth-limited probability estimation.
#[derive(Clone, Debug)]
pub struct DepthBfs {
    visited: Vec<u32>,
    epoch: u32,
    queue: VecDeque<(NodeId, u32)>,
}

impl DepthBfs {
    /// Creates a BFS workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        DepthBfs { visited: vec![0; n], epoch: 0, queue: VecDeque::new() }
    }

    /// Runs a BFS from `source` visiting nodes within `depth_limit` hops,
    /// calling `visit(node, depth)` for every reached node **including the
    /// source** (at depth 0). Each node is visited once, at its hop distance.
    ///
    /// # Panics
    /// Panics if the view has more nodes than the workspace.
    pub fn run(
        &mut self,
        g: &impl Adjacency,
        source: NodeId,
        depth_limit: u32,
        mut visit: impl FnMut(NodeId, u32),
    ) {
        assert!(
            g.num_nodes() <= self.visited.len(),
            "DepthBfs workspace sized for {} nodes, graph has {}",
            self.visited.len(),
            g.num_nodes()
        );
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: clear and restart. Happens once per 2^32 runs.
                self.visited.fill(0);
                1
            }
        };
        self.queue.clear();
        self.visited[source.index()] = self.epoch;
        self.queue.push_back((source, 0));
        visit(source, 0);
        while let Some((u, d)) = self.queue.pop_front() {
            if d == depth_limit {
                continue;
            }
            let epoch = self.epoch;
            // Split borrows: the closure below only touches `visited`.
            let visited = &mut self.visited;
            let queue = &mut self.queue;
            g.for_each_neighbor(u, |v, _| {
                if visited[v.index()] != epoch {
                    visited[v.index()] = epoch;
                    queue.push_back((v, d + 1));
                    visit(v, d + 1);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::uncertain::UncertainGraph;

    /// Nodes `bfs` visits within `depth_limit` hops of `source` (including
    /// it).
    fn count_within(
        bfs: &mut DepthBfs,
        g: &UncertainGraph,
        source: u32,
        depth_limit: u32,
    ) -> usize {
        let mut count = 0usize;
        bfs.run(g, NodeId(source), depth_limit, |_, _| count += 1);
        count
    }

    /// 0-1-2-3 path plus isolated node 4.
    fn path_graph() -> UncertainGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph();
        let dist = bfs_distances(&g, NodeId(0));
        assert_eq!(dist, vec![0, 1, 2, 3, UNREACHABLE]);
    }

    #[test]
    fn bfs_from_middle() {
        let g = path_graph();
        let dist = bfs_distances(&g, NodeId(2));
        assert_eq!(dist, vec![2, 1, 0, 1, UNREACHABLE]);
    }

    #[test]
    fn components_of_path_plus_isolated() {
        let g = path_graph();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels, vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn components_all_isolated() {
        let g = GraphBuilder::new(3).build().unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 1, 2]);
    }

    #[test]
    fn depth_bfs_respects_limit() {
        let g = path_graph();
        let mut bfs = DepthBfs::new(g.num_nodes());
        let mut seen: Vec<(u32, u32)> = Vec::new();
        bfs.run(&g, NodeId(0), 2, |n, d| seen.push((n.0, d)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn depth_bfs_zero_depth_visits_source_only() {
        let g = path_graph();
        let mut bfs = DepthBfs::new(g.num_nodes());
        assert_eq!(count_within(&mut bfs, &g, 1, 0), 1);
    }

    #[test]
    fn depth_bfs_reuse_is_clean() {
        let g = path_graph();
        let mut bfs = DepthBfs::new(g.num_nodes());
        assert_eq!(count_within(&mut bfs, &g, 0, 3), 4);
        // Second run must not see stale visited marks.
        assert_eq!(count_within(&mut bfs, &g, 3, 1), 2);
        assert_eq!(count_within(&mut bfs, &g, 4, 5), 1);
    }

    #[test]
    fn depth_bfs_large_limit_equals_component() {
        let g = path_graph();
        let mut bfs = DepthBfs::new(g.num_nodes());
        assert_eq!(count_within(&mut bfs, &g, 0, u32::MAX - 1), 4);
    }

    #[test]
    fn depth_bfs_visits_each_node_once_on_cycle() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(3, 0, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut bfs = DepthBfs::new(4);
        let mut visits = vec![0u32; 4];
        bfs.run(&g, NodeId(0), 10, |n, _| visits[n.index()] += 1);
        assert_eq!(visits, vec![1, 1, 1, 1]);
    }
}

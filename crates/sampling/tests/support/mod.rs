//! A naive reference implementation of the `WorldEngine` seam for the
//! equivalence suites.
//!
//! It keeps one edge `Bitset` per world, drawn by `WorldSampler::sample`
//! from per-index RNG stream `i` exactly as the pools draw world `i`, and
//! answers every query with one BFS per world. It has no shards, no memory
//! budget and no threads, and implements only the required trait methods:
//! batched, pair and full-pool queries run through the trait's default
//! implementations on top of the two ranged ones. Its counts are the
//! definition the optimized pools are checked against.

use ugraph_graph::{connected_components, Bitset, DepthBfs, NodeId, UncertainGraph, WorldView};
use ugraph_sampling::{WorldEngine, WorldSampler, DEPTH_UNLIMITED};

/// One world per query step: world `i` as an edge bitset.
pub struct ReferenceEngine<'g> {
    sampler: WorldSampler<'g>,
    worlds: Vec<Bitset>,
    bfs: DepthBfs,
}

impl<'g> ReferenceEngine<'g> {
    /// An empty reference pool over `graph` with master `seed`.
    pub fn new(graph: &'g UncertainGraph, seed: u64) -> Self {
        ReferenceEngine {
            sampler: WorldSampler::new(graph, seed),
            worlds: Vec::new(),
            bfs: DepthBfs::new(graph.num_nodes()),
        }
    }

    /// Component labels of world `i`, numbered in order of each
    /// component's smallest node.
    pub fn labels(&self, i: usize) -> Vec<u32> {
        connected_components(&WorldView::new(self.sampler.graph(), &self.worlds[i])).0
    }
}

impl WorldEngine for ReferenceEngine<'_> {
    fn graph(&self) -> &UncertainGraph {
        self.sampler.graph()
    }

    fn num_samples(&self) -> usize {
        self.worlds.len()
    }

    fn ensure(&mut self, r: usize) {
        while self.worlds.len() < r {
            let i = self.worlds.len() as u64;
            self.worlds.push(self.sampler.sample(i));
        }
    }

    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let mut select = vec![0u32; out.len()];
        let d = DEPTH_UNLIMITED;
        self.counts_within_depths_range(center, d, d, lo, hi, &mut select, out);
    }

    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!((out_select.len(), out_cover.len()), (n, n), "count buffers have wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        out_select.fill(0);
        out_cover.fill(0);
        let ReferenceEngine { sampler, worlds, bfs } = self;
        for world in &worlds[lo..hi] {
            let view = WorldView::new(sampler.graph(), world);
            bfs.run(&view, center, d_cover, |node, depth| {
                out_cover[node.index()] += 1;
                if depth <= d_select {
                    out_select[node.index()] += 1;
                }
            });
        }
    }
}

//! Sampling possible worlds.
//!
//! A possible world of `G = (V, E, p)` keeps each edge `e` independently
//! with probability `p(e)`. Two materializations are supported:
//!
//! * an **edge bitset** ([`WorldSampler::sample_into`]) — one world on its
//!   own, as exact enumeration and reference checks use it;
//! * a **lane of a mask block** ([`WorldSampler::sample_block_lane`]) — how
//!   the bit-parallel pools assemble `64·W` worlds per block.

use rand::Rng;

use ugraph_graph::{Bitset, Mask, UncertainGraph};

use crate::error::SamplingError;
use crate::rng::sample_rng;

/// Stateless sampler bound to a graph and a master seed.
#[derive(Clone, Copy, Debug)]
pub struct WorldSampler<'g> {
    graph: &'g UncertainGraph,
    seed: u64,
}

impl<'g> WorldSampler<'g> {
    /// Creates a sampler for `graph` under `seed`.
    pub fn new(graph: &'g UncertainGraph, seed: u64) -> Self {
        WorldSampler { graph, seed }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.graph
    }

    /// Draws world `index` into `out` (one bit per [`ugraph_graph::EdgeId`]).
    ///
    /// # Errors
    /// Returns [`SamplingError::BufferMismatch`] if `out.len() != m`.
    pub fn sample_into(&self, index: u64, out: &mut Bitset) -> Result<(), SamplingError> {
        if out.len() != self.graph.num_edges() {
            return Err(SamplingError::BufferMismatch {
                what: "world bitset",
                expected: self.graph.num_edges(),
                got: out.len(),
            });
        }
        out.clear();
        let mut rng = sample_rng(self.seed, index);
        for (i, &p) in self.graph.probs().iter().enumerate() {
            // `gen::<f64>() < p` is the standard Bernoulli draw; for p = 1.0
            // it always succeeds since gen() is in [0, 1).
            if rng.gen::<f64>() < p {
                out.insert(i);
            }
        }
        Ok(())
    }

    /// Draws world `index` into lane `lane` of a block of `W * 64` worlds
    /// (word `lane / 64`, bit `lane % 64`): after the call, lane `lane` of
    /// `masks[e]` is set iff edge `e` exists in world `index`. Other lanes
    /// are left untouched, so a block is assembled lane by lane — each lane
    /// from its own per-index RNG stream, which keeps bit-parallel pools
    /// world-for-world identical to [`WorldSampler::sample_into`] under the
    /// same master seed, at every width.
    ///
    /// # Errors
    /// Returns [`SamplingError::BufferMismatch`] if `masks.len() != m`.
    ///
    /// # Panics
    /// Panics if `lane >= W * 64`.
    pub fn sample_block_lane<const W: usize>(
        &self,
        index: u64,
        lane: usize,
        masks: &mut [Mask<W>],
    ) -> Result<(), SamplingError> {
        assert!(lane < Mask::<W>::LANES, "lane {lane} out of range");
        if masks.len() != self.graph.num_edges() {
            return Err(SamplingError::BufferMismatch {
                what: "edge-mask buffer",
                expected: self.graph.num_edges(),
                got: masks.len(),
            });
        }
        let word = lane / ugraph_graph::LANES;
        let shift = lane % ugraph_graph::LANES;
        let mut rng = sample_rng(self.seed, index);
        // Branchless store: at p ≈ 0.5 a conditional write mispredicts on
        // every other edge, which dominates this RNG-bound loop's tail.
        for (mask, &p) in masks.iter_mut().zip(self.graph.probs()) {
            mask.0[word] |= ((rng.gen::<f64>() < p) as u64) << shift;
        }
        Ok(())
    }

    /// Convenience allocating variant of [`WorldSampler::sample_into`].
    pub fn sample(&self, index: u64) -> Bitset {
        let mut b = Bitset::with_len(self.graph.num_edges());
        self.sample_into(index, &mut b)
            .unwrap_or_else(|e| unreachable!("freshly sized bitset cannot mismatch: {e}"));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{connected_components, GraphBuilder, NodeId, WorldView};

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn certain_edges_always_present() {
        let g = chain(5, 1.0);
        let s = WorldSampler::new(&g, 1);
        for i in 0..20 {
            let w = s.sample(i);
            assert_eq!(w.count_ones(), 4, "world {i} dropped a certain edge");
        }
    }

    #[test]
    fn sampling_is_reproducible_per_index() {
        let g = chain(30, 0.5);
        let s1 = WorldSampler::new(&g, 99);
        let s2 = WorldSampler::new(&g, 99);
        for i in 0..10 {
            assert_eq!(s1.sample(i), s2.sample(i));
        }
        let s3 = WorldSampler::new(&g, 100);
        // Different master seed gives (almost surely) different worlds.
        assert_ne!(s1.sample(0), s3.sample(0));
    }

    #[test]
    fn empirical_edge_frequency_matches_p() {
        let g = chain(2, 0.3);
        let s = WorldSampler::new(&g, 7);
        let r = 20_000;
        let mut hits = 0usize;
        let mut w = Bitset::with_len(1);
        for i in 0..r {
            s.sample_into(i, &mut w).unwrap();
            if w.get(0) {
                hits += 1;
            }
        }
        let freq = hits as f64 / r as f64;
        assert!((freq - 0.3).abs() < 0.02, "frequency {freq} too far from 0.3");
    }

    #[test]
    fn sample_into_rejects_misized_buffer() {
        let g = chain(4, 0.5);
        let s = WorldSampler::new(&g, 1);
        let mut wrong = Bitset::with_len(2);
        assert_eq!(
            s.sample_into(0, &mut wrong),
            Err(crate::SamplingError::BufferMismatch { what: "world bitset", expected: 3, got: 2 })
        );
    }

    #[test]
    fn wide_block_lanes_match_narrow_lanes() {
        let g = chain(20, 0.4);
        let s = WorldSampler::new(&g, 123);
        let m = g.num_edges();
        let mut wide = vec![Mask::<4>::ZERO; m];
        // 150 worlds straddle words 0..3 of a 256-lane block.
        for lane in 0..150usize {
            s.sample_block_lane(lane as u64, lane, &mut wide).unwrap();
        }
        for lane in 0..150usize {
            let world = s.sample(lane as u64);
            for (e, mask) in wide.iter().enumerate() {
                assert_eq!(mask.get(lane), world.get(e), "edge {e} lane {lane} disagrees");
            }
        }
        let mut wrong = vec![Mask::<4>::ZERO; m - 1];
        assert!(s.sample_block_lane(0, 0, &mut wrong).is_err());
    }

    #[test]
    fn zero_edges_graph() {
        let g = GraphBuilder::new(3).build().unwrap();
        let s = WorldSampler::new(&g, 1);
        let w = s.sample(0);
        assert_eq!(w.len(), 0);
        let (_, count) = connected_components(&WorldView::new(&g, &w));
        assert_eq!(count, 3);
    }

    #[test]
    fn node_connectivity_probability_on_path() {
        // Pr(0 ~ 2) on a 3-chain with p=0.5 per edge is 0.25.
        let g = chain(3, 0.5);
        let s = WorldSampler::new(&g, 11);
        let mut w = Bitset::with_len(g.num_edges());
        let r = 20_000;
        let mut hits = 0;
        for i in 0..r {
            s.sample_into(i, &mut w).unwrap();
            let (labels, _) = connected_components(&WorldView::new(&g, &w));
            if labels[NodeId(0).index()] == labels[NodeId(2).index()] {
                hits += 1;
            }
        }
        let freq = hits as f64 / r as f64;
        assert!((freq - 0.25).abs() < 0.02, "frequency {freq} too far from 0.25");
    }
}

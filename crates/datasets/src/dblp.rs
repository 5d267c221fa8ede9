//! DBLP-like collaboration-graph generator.
//!
//! The paper derives its large benchmark from DBLP: authors are nodes, an
//! edge joins two authors with `x` co-authored journal papers, and the
//! edge probability is `p = 1 − e^(−x/2)` (the Potamias et al. convention).
//! The resulting distribution is discrete: ≈ 80 % of the edges have
//! `x = 1` (`p ≈ 0.39`), ≈ 12 % have `x = 2` (`p ≈ 0.63`) and the
//! remaining ≈ 8 % have `x ≥ 3` (§5, Table 1: 636 751 nodes / 2 366 461
//! edges in the largest connected component).
//!
//! The generator reproduces (a) that probability distribution exactly and
//! (b) the community-structured, heavy-tailed topology of co-authorship
//! networks, with a growth model: each new author joins a random research
//! community, co-authors with `1 + Geom` members of it chosen by
//! preferential attachment (guaranteeing connectivity), and occasionally
//! collaborates across communities. A `scale` factor shrinks the node
//! count for laptop-sized experiments while preserving average degree —
//! the benchmark harness defaults to `scale = 0.1` and documents it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ugraph_graph::{GraphBuilder, UncertainGraph};

/// Parameters of the DBLP-like generator.
#[derive(Clone, Debug, PartialEq)]
pub struct DblpConfig {
    /// Scale factor on the published node count (1.0 = 636 751 authors).
    pub scale: f64,
    /// Number of research communities (scaled alongside nodes).
    pub communities_per_kilonode: f64,
    /// Probability that a collaboration crosses communities.
    pub cross_community: f64,
    /// Mean of the geometric "extra collaborators per new author" draw;
    /// tunes the edge/node ratio (paper: ≈ 3.72 edges per node).
    pub extra_collaborators_mean: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            scale: 0.1,
            communities_per_kilonode: 2.0,
            cross_community: 0.05,
            extra_collaborators_mean: 2.7,
            seed: 0,
        }
    }
}

/// Published size of the DBLP largest connected component (paper Table 1).
pub const DBLP_PAPER_NODES: usize = 636_751;
/// Published edge count of the DBLP LCC (paper Table 1).
pub const DBLP_PAPER_EDGES: usize = 2_366_461;

/// Draws the number of co-authored papers `x ≥ 1` with the published
/// frequencies: 80 % x=1, 12 % x=2, 8 % tail (x = 3 + Geom(0.5)).
fn sample_paper_count(rng: &mut SmallRng) -> u32 {
    let u: f64 = rng.gen();
    if u < 0.80 {
        1
    } else if u < 0.92 {
        2
    } else {
        let mut x = 3u32;
        while rng.gen::<f64>() < 0.5 && x < 30 {
            x += 1;
        }
        x
    }
}

/// The Potamias et al. probability of an edge with `x` joint papers.
#[inline]
pub fn collaboration_prob(x: u32) -> f64 {
    1.0 - (-0.5 * f64::from(x)).exp()
}

/// Generates the DBLP-like uncertain collaboration graph.
pub fn dblp_like(cfg: &DblpConfig) -> UncertainGraph {
    assert!(cfg.scale > 0.0 && cfg.scale <= 1.0, "scale must be in (0, 1]");
    let n = ((DBLP_PAPER_NODES as f64) * cfg.scale).round().max(10.0) as usize;
    let num_communities =
        ((n as f64 / 1000.0 * cfg.communities_per_kilonode).round() as usize).max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Community member lists; membership entries are repeated per
    // collaboration so sampling from the list is degree-biased
    // (preferential attachment without an explicit degree array).
    let mut community_members: Vec<Vec<u32>> = vec![Vec::new(); num_communities];
    let mut b = GraphBuilder::with_capacity(n, n * 4);

    // Geometric success probability for "extra collaborators".
    let geo_p = 1.0 / (1.0 + cfg.extra_collaborators_mean);

    for u in 0..n as u32 {
        let home = rng.gen_range(0..num_communities);
        if community_members[home].is_empty() {
            community_members[home].push(u);
            // First author of a community: link to a random earlier author
            // to keep the graph connected (skip the very first author).
            if u > 0 {
                let v = rng.gen_range(0..u);
                let x = sample_paper_count(&mut rng);
                b.add_edge(u, v, collaboration_prob(x))
                    .unwrap_or_else(|e| unreachable!("generated edge is valid: {e}"));
            }
            continue;
        }
        // 1 + Geom(mean) collaborators from the home community (or across).
        let mut collaborators = 1usize;
        while rng.gen::<f64>() > geo_p {
            collaborators += 1;
        }
        for _ in 0..collaborators {
            let pool = if rng.gen::<f64>() < cfg.cross_community {
                let c = rng.gen_range(0..num_communities);
                if community_members[c].is_empty() {
                    home
                } else {
                    c
                }
            } else {
                home
            };
            let list = &community_members[pool];
            let v = list[rng.gen_range(0..list.len())];
            if v != u {
                let x = sample_paper_count(&mut rng);
                b.add_edge(u, v, collaboration_prob(x))
                    .unwrap_or_else(|e| unreachable!("generated edge is valid: {e}"));
                community_members[pool].push(v); // degree bias
            }
        }
        community_members[home].push(u);
    }
    b.build().unwrap_or_else(|e| unreachable!("DBLP build cannot fail: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::connected_components;

    fn tiny() -> UncertainGraph {
        dblp_like(&DblpConfig { scale: 0.01, seed: 7, ..Default::default() })
    }

    #[test]
    fn probability_levels_match_formula() {
        assert!((collaboration_prob(1) - 0.3934693402873666).abs() < 1e-12);
        assert!((collaboration_prob(2) - 0.6321205588285577).abs() < 1e-12);
        assert!((collaboration_prob(5) - 0.9179150013761012).abs() < 1e-12);
    }

    #[test]
    fn scale_controls_node_count() {
        let g = tiny();
        let want = (DBLP_PAPER_NODES as f64 * 0.01).round() as usize;
        assert_eq!(g.num_nodes(), want);
    }

    #[test]
    fn graph_is_connected() {
        let g = tiny();
        let (_, count) = connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn probability_mass_matches_published_distribution() {
        let g = tiny();
        let m = g.num_edges() as f64;
        let p1 = collaboration_prob(1);
        let at_p1 = g.probs().iter().filter(|&&p| (p - p1).abs() < 1e-9).count() as f64 / m;
        // Dedup keeps the max of parallel draws, so the x = 1 share lands a
        // little under the raw 80 %.
        assert!(at_p1 > 0.65, "x=1 share {at_p1}");
        let p2 = collaboration_prob(2);
        let at_p2 = g.probs().iter().filter(|&&p| (p - p2).abs() < 1e-9).count() as f64 / m;
        assert!(at_p2 > 0.08 && at_p2 < 0.25, "x=2 share {at_p2}");
        let higher = g.probs().iter().filter(|&&p| p > p2 + 1e-9).count() as f64 / m;
        assert!(higher < 0.2, "x≥3 share {higher}");
    }

    #[test]
    fn average_degree_near_published_ratio() {
        let g = tiny();
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        let published = 2.0 * DBLP_PAPER_EDGES as f64 / DBLP_PAPER_NODES as f64; // ≈ 7.43
        assert!(
            (avg_deg - published).abs() < 2.5,
            "generated avg degree {avg_deg} vs published {published}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.probs(), b.probs());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = dblp_like(&DblpConfig { scale: 0.0, ..Default::default() });
    }
}

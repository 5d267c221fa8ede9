//! Pins the evaluation answers bit for bit: `UgraphSession::evaluate`,
//! `UgraphSession::evaluate_depth`, `clustering_quality` and `avpr` on a
//! generated 320-node graph over 512 evaluation worlds, at k = 1, 24 and
//! 65 (65 centers leave a one-center tail after any 64-center batch).
//!
//! Session answers must not depend on the memory ledger: the same
//! requests under a ledger smaller than one shard (so every query
//! regenerates the evaluation pool's shard) fold into the same digest.
//! The hand-built pools must agree across pure-mask and adaptive modes
//! and block widths. The recorded digests hold across refactors of the
//! evaluation kernels; a change in them is a change in the answers.

use std::collections::VecDeque;

use ugraph_cluster::{ClusterConfig, Clustering, EvalQuality, UgraphSession};
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_metrics::{avpr, clustering_quality, Avpr, Quality};
use ugraph_sampling::{BitParallelPool, WorldEngine, SHARD_WORLDS};

const NODES: u32 = 320;
const EVAL_WORLDS: usize = 512;
const KS: [usize; 3] = [1, 24, 65];

/// Digest of every session answer below, unbounded and under a ledger
/// smaller than one shard alike.
const SESSION_DIGEST: u64 = 0x15f6_e41d_921b_6f04;
/// Digest of `clustering_quality` and `avpr` on the hand-built pools.
const POOL_DIGEST: u64 = 0x376a_f3e3_4bd3_3e77;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A ring of nodes, each linked to two others: mostly near neighbours,
/// one link in eight anywhere, probabilities spread over (0.05, 0.95].
fn generated_graph() -> UncertainGraph {
    let mut state = 0x5eed_2017;
    let mut b = GraphBuilder::new(NODES as usize);
    for u in 0..NODES {
        for _ in 0..2 {
            let x = splitmix(&mut state);
            let hop = (x >> 8) as u32;
            let v = if x.is_multiple_of(8) { hop % NODES } else { (u + 1 + hop % 5) % NODES };
            let p = 0.05 + 0.9 * ((x >> 32) as f64 / f64::from(u32::MAX));
            if v != u {
                b.add_edge(u, v, p).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// `k` centers spread over the ring, every node joined to its nearest
/// center by hop count (ties to the lower index), and every ninth
/// non-center node left out as an outlier.
fn voronoi_clustering(g: &UncertainGraph, k: usize) -> Clustering {
    let n = g.num_nodes();
    let centers: Vec<NodeId> = (0..k).map(|j| NodeId::from_index(j * n / k)).collect();
    let mut assign: Vec<Option<u32>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (j, &c) in centers.iter().enumerate() {
        assign[c.index()] = Some(j as u32);
        queue.push_back(c);
    }
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if assign[v.index()].is_none() {
                assign[v.index()] = assign[u.index()];
                queue.push_back(v);
            }
        }
    }
    for (u, a) in assign.iter_mut().enumerate() {
        if u % 9 == 4 && !centers.contains(&NodeId::from_index(u)) {
            *a = None;
        }
    }
    Clustering::new(centers, assign)
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eval(&mut self, q: EvalQuality) {
        self.word(q.p_min.to_bits());
        self.word(q.p_avg.to_bits());
        self.word(q.samples as u64);
    }

    fn quality(&mut self, q: Quality) {
        self.word(q.p_min.to_bits());
        self.word(q.p_avg.to_bits());
    }

    fn avpr(&mut self, a: Avpr) {
        self.word(a.inner.to_bits());
        self.word(a.outer.to_bits());
    }
}

#[test]
fn session_evaluation_answers_are_pinned() {
    let g = generated_graph();
    let clusterings: Vec<Clustering> = KS.iter().map(|&k| voronoi_clustering(&g, k)).collect();
    // The evaluation pool's 512 worlds fill two 256-world blocks of its
    // first shard; a full shard's masks take `m · SHARD_WORLDS / 8` bytes.
    let limit = g.num_edges() * (SHARD_WORLDS / 8) / 4;
    let mut digests = Vec::new();
    for budget in [None, Some(limit)] {
        let mut cfg = ClusterConfig::default().with_seed(11);
        if let Some(b) = budget {
            cfg = cfg.with_memory_budget(b);
        }
        let mut session = UgraphSession::new(&g, cfg).unwrap().with_eval_samples(EVAL_WORLDS);
        let mut digest = Digest::new();
        for c in &clusterings {
            digest.avpr(avpr(session.eval_pool(), c));
            digest.eval(session.evaluate(c));
            for d in [2, 4] {
                digest.eval(session.evaluate_depth(c, d));
            }
        }
        if let Some(b) = budget {
            let stats = session.stats();
            assert!(stats.bytes_held <= b, "ledger holds {} B over {b} B", stats.bytes_held);
            assert!(stats.shards_regenerated > 0, "the ledger never forced a regeneration");
        }
        digests.push(digest.0);
    }
    assert_eq!(digests[0], digests[1], "evaluation answers depend on the ledger");
    assert_eq!(digests[0], SESSION_DIGEST, "session evaluation answers changed: {:#x}", digests[0]);
}

#[test]
fn pool_metrics_are_pinned_and_agree_across_pools() {
    let g = generated_graph();
    let mut mask = BitParallelPool::<1>::new(&g, 5, 1);
    let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
    mask.ensure(EVAL_WORLDS);
    adaptive.ensure(EVAL_WORLDS);
    let mut digest = Digest::new();
    for &k in &KS {
        let c = voronoi_clustering(&g, k);
        let q = clustering_quality(&mut mask, &c);
        let a = avpr(&mut mask, &c);
        assert_eq!(q, clustering_quality(&mut adaptive, &c), "k = {k}: quality differs");
        assert_eq!(a, avpr(&mut adaptive, &c), "k = {k}: AVPR differs");
        // Once `avpr` has labelled the adaptive pool's blocks, quality
        // still reads the same.
        assert_eq!(q, clustering_quality(&mut adaptive, &c), "k = {k}: labelled pool differs");
        digest.quality(q);
        digest.avpr(a);
    }
    assert_eq!(digest.0, POOL_DIGEST, "pool metric answers changed: {:#x}", digest.0);
}

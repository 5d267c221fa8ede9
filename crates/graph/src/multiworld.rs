//! Bit-parallel traversal over blocks of possible worlds.
//!
//! Monte-Carlo reliability estimation runs the *same* traversal over many
//! independently sampled worlds of the *same* topology. Packing worlds
//! into machine words per edge (bit `l` of `edge_masks[e]` = "edge `e`
//! exists in world `l` of the block") turns per-world traversals into a
//! single mask-propagating traversal: every node carries a *reach mask*
//! (the worlds in which it has been reached), and traversing an edge
//! ANDs the frontier mask with the edge's presence mask.
//!
//! Masks are [`Mask<W>`] — a fixed `[u64; W]` word array, so one block
//! carries `W * 64` worlds (64/256/512 for `W` ∈ {1, 4, 8}). All mask
//! ops are fixed-size-array loops that LLVM autovectorizes on stable;
//! there is no `portable_simd` dependency. `W = 1` is the default and
//! behaves exactly like the historical plain-`u64` kernels.
//!
//! Two propagation modes are provided, matching the two query families of
//! the sampling layer:
//!
//! * [`MultiWorldBfs::run`] — level-synchronous BFS with a depth limit;
//!   `visit(node, depth, mask)` reports, per node and hop distance, the
//!   worlds in which the node is first reached at exactly that distance
//!   (the d-connection semantics of the paper, §3.4);
//! * [`MultiWorldBfs::run_unlimited`] — chaotic worklist iteration to the
//!   connectivity fixpoint, ignoring distances; `visit(node, mask)` reports
//!   each reached node once with the full set of worlds in which it is
//!   connected to the source. This is the cheaper mode when only
//!   connectivity matters, because a node is not re-visited per hop level
//!   when different worlds reach it at different distances.
//!
//! Batches of centers reuse the single-source runs. Unlimited batches
//! (batched rows and clustering evaluation alike) go through
//! [`MultiWorldBfs::share_components`], where a center inherits the
//! fixpoint of an earlier center in its component instead of re-walking
//! it, and the caller reads what it needs from the reach masks.
//! Depth-limited batches call [`MultiWorldBfs::run`] once per center, so a
//! block's edge masks stay in cache across its centers.
//!
//! The workspace is reusable across calls (and across blocks): only nodes
//! touched by the previous run are cleared, so a run over a small reachable
//! set costs proportionally to that set, not to `n`.

use crate::ids::NodeId;
use crate::traversal::Adjacency;

/// Number of possible worlds packed per mask *word* (a block of width `W`
/// carries `W * LANES` worlds).
pub const LANES: usize = 64;

/// A block-width lane set: `W` words of 64 lanes each, lane `l` living in
/// bit `l % 64` of word `l / 64`.
///
/// This is the `BlockWidth` seam: every mask kernel is generic over `W`,
/// and all combining ops below compile to fixed-size-array loops that
/// LLVM unrolls and autovectorizes (AVX2 for `W = 4`, AVX-512 where
/// available for `W = 8`) on stable Rust.
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mask<const W: usize>(pub [u64; W]);

impl<const W: usize> Mask<W> {
    /// Total lanes (worlds) carried by one mask of this width.
    pub const LANES: usize = W * LANES;

    /// The empty lane set.
    pub const ZERO: Self = Mask([0; W]);

    /// The full lane set.
    #[inline]
    pub fn ones() -> Self {
        Mask([!0; W])
    }

    /// Mask with the low `lanes` bits set — the valid lanes of a partially
    /// filled block (`lanes == Self::LANES` gives the all-ones mask).
    ///
    /// # Panics
    /// Panics if `lanes > Self::LANES`.
    #[inline]
    pub fn prefix(lanes: usize) -> Self {
        assert!(lanes <= Self::LANES, "a block holds at most {} worlds, got {lanes}", Self::LANES);
        let mut out = [0u64; W];
        let full = lanes / LANES;
        for w in out.iter_mut().take(full) {
            *w = !0;
        }
        let rem = lanes % LANES;
        if rem != 0 {
            out[full] = (1u64 << rem) - 1;
        }
        Mask(out)
    }

    /// Mask with only `lane` set.
    ///
    /// # Panics
    /// Panics if `lane >= Self::LANES`.
    #[inline]
    pub fn bit(lane: usize) -> Self {
        assert!(lane < Self::LANES, "lane {lane} out of range for width {}", Self::LANES);
        let mut out = [0u64; W];
        out[lane / LANES] = 1u64 << (lane % LANES);
        Mask(out)
    }

    /// Whether `lane` is set.
    #[inline]
    pub fn get(self, lane: usize) -> bool {
        self.0[lane / LANES] >> (lane % LANES) & 1 == 1
    }

    /// Whether any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        let mut or = 0u64;
        for w in self.0 {
            or |= w;
        }
        or != 0
    }

    /// Whether no lane is set.
    #[inline]
    pub fn is_zero(self) -> bool {
        !self.any()
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(self) -> u32 {
        let mut c = 0u32;
        for w in self.0 {
            c += w.count_ones();
        }
        c
    }

    /// `self & !rhs` without materializing the intermediate complement.
    #[inline]
    pub fn and_not(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o &= !r;
        }
        Mask(out)
    }

    /// Calls `f(lane)` for every set lane, in increasing lane order.
    #[inline]
    pub fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for (wi, mut w) in self.0.into_iter().enumerate() {
            while w != 0 {
                let l = w.trailing_zeros() as usize;
                w &= w - 1;
                f(wi * LANES + l);
            }
        }
    }
}

impl<const W: usize> Default for Mask<W> {
    #[inline]
    fn default() -> Self {
        Self::ZERO
    }
}

impl From<u64> for Mask<1> {
    #[inline]
    fn from(word: u64) -> Self {
        Mask([word])
    }
}

impl<const W: usize> std::ops::BitAnd for Mask<W> {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o &= r;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::BitOr for Mask<W> {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o |= r;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::BitXor for Mask<W> {
    type Output = Self;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o ^= r;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::Not for Mask<W> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = !*o;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::BitAndAssign for Mask<W> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o &= r;
        }
    }
}

impl<const W: usize> std::ops::BitOrAssign for Mask<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o |= r;
        }
    }
}

/// Reusable workspace for bit-parallel multi-world traversals over blocks
/// of `W * 64` worlds.
///
/// One `MultiWorldBfs` is typically reused across all blocks of a sample
/// pool; rayon workers build their own (see the sampling crate's pools).
#[derive(Clone, Debug)]
pub struct MultiWorldBfs<const W: usize = 1> {
    /// Worlds in which each node has been reached so far.
    reach: Vec<Mask<W>>,
    /// Worlds that first reached each node at the current BFS level.
    gain: Vec<Mask<W>>,
    /// Next-level accumulation (nonzero only for nodes queued in `next`).
    pend: Vec<Mask<W>>,
    /// Current-level frontier nodes.
    cur: Vec<u32>,
    /// Next-level frontier nodes.
    next: Vec<u32>,
    /// Every node reached in the current run, for O(touched) cleanup.
    touched: Vec<u32>,
    /// Per-center lanes still unknown in the component-sharing sweep
    /// ([`MultiWorldBfs::share_components`]).
    share_todo: Vec<Mask<W>>,
    /// `(center index, shared lanes)` of the later centers the sweep's
    /// current traversal met.
    share_met: Vec<(u32, Mask<W>)>,
    /// The sweep's node → center-index map (`NO_CENTER` off the centers),
    /// sized on first use.
    center_at: Vec<u32>,
}

/// `MultiWorldBfs::center_at` entry of a node that is no center.
const NO_CENTER: u32 = u32::MAX;

impl<const W: usize> MultiWorldBfs<W> {
    /// Creates a workspace for graphs of at most `n` nodes.
    pub fn new(n: usize) -> Self {
        MultiWorldBfs {
            reach: vec![Mask::ZERO; n],
            gain: vec![Mask::ZERO; n],
            pend: vec![Mask::ZERO; n],
            cur: Vec::new(),
            next: Vec::new(),
            touched: Vec::new(),
            share_todo: Vec::new(),
            share_met: Vec::new(),
            center_at: Vec::new(),
        }
    }

    /// Clears state left by the previous run (only touched nodes).
    fn reset(&mut self) {
        for &t in &self.touched {
            self.reach[t as usize] = Mask::ZERO;
            self.gain[t as usize] = Mask::ZERO;
        }
        self.touched.clear();
        self.cur.clear();
        self.next.clear();
    }

    /// Level-synchronous BFS from `source` over the worlds selected by
    /// `lanes`, limited to `depth_limit` hops.
    ///
    /// `edge_masks[e]` holds the presence mask of edge `e` (lane `l` set ⇔
    /// the edge exists in world `l`). `visit(node, depth, mask)` is called
    /// once per `(node, depth)` pair with the worlds in which `node` is
    /// first reached at exactly `depth` hops — including the source at
    /// depth 0 with the full `lanes` mask. Summing `mask.count_ones()` over
    /// all calls for a node therefore counts the worlds in which the node
    /// is within `depth_limit` hops of the source.
    ///
    /// # Panics
    /// Panics if the workspace is sized for fewer nodes than `g`, or if an
    /// edge id of `g` indexes past `edge_masks`.
    pub fn run(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        source: NodeId,
        lanes: Mask<W>,
        depth_limit: u32,
        mut visit: impl FnMut(NodeId, u32, Mask<W>),
    ) {
        assert!(
            g.num_nodes() <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            g.num_nodes()
        );
        self.reset();
        if lanes.is_zero() {
            return;
        }
        self.reach[source.index()] = lanes;
        self.gain[source.index()] = lanes;
        self.touched.push(source.0);
        self.cur.push(source.0);
        visit(source, 0, lanes);

        let mut depth = 0u32;
        while !self.cur.is_empty() && depth < depth_limit {
            depth += 1;
            let reach = &mut self.reach;
            let gain = &mut self.gain;
            let pend = &mut self.pend;
            let next = &mut self.next;
            for &u in &self.cur {
                let gu = gain[u as usize];
                g.for_each_neighbor(NodeId(u), |v, e| {
                    let add = (gu & edge_masks[e.index()]).and_not(reach[v.index()]);
                    if add.any() {
                        if pend[v.index()].is_zero() {
                            next.push(v.0);
                        }
                        pend[v.index()] |= add;
                    }
                });
            }
            for &v in next.iter() {
                let mask = pend[v as usize];
                pend[v as usize] = Mask::ZERO;
                if reach[v as usize].is_zero() {
                    self.touched.push(v);
                }
                reach[v as usize] |= mask;
                gain[v as usize] = mask;
                visit(NodeId(v), depth, mask);
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            self.next.clear();
        }
    }

    /// Connectivity fixpoint from `source` over the worlds selected by
    /// `lanes`, ignoring distances.
    ///
    /// Chaotic worklist iteration: a node is re-queued whenever its reach
    /// mask grows, until no mask changes. `visit(node, mask)` is called
    /// once per reached node (source included) with the final mask of
    /// worlds in which the node is connected to the source.
    ///
    /// # Panics
    /// Same conditions as [`MultiWorldBfs::run`].
    pub fn run_unlimited(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        source: NodeId,
        lanes: Mask<W>,
        mut visit: impl FnMut(NodeId, Mask<W>),
    ) {
        assert!(
            g.num_nodes() <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            g.num_nodes()
        );
        self.reset();
        if lanes.is_zero() {
            return;
        }
        // `gain` doubles as the "queued" flag: nonzero ⇔ node is in `cur`
        // awaiting propagation of those newly arrived worlds.
        self.reach[source.index()] = lanes;
        self.gain[source.index()] = lanes;
        self.touched.push(source.0);
        self.cur.push(source.0);
        let mut head = 0usize;
        while head < self.cur.len() {
            let u = self.cur[head];
            head += 1;
            let gu = std::mem::take(&mut self.gain[u as usize]);
            if gu.is_zero() {
                continue; // re-queued entry already drained
            }
            let reach = &mut self.reach;
            let gain = &mut self.gain;
            let cur = &mut self.cur;
            let touched = &mut self.touched;
            g.for_each_neighbor(NodeId(u), |v, e| {
                let add = (gu & edge_masks[e.index()]).and_not(reach[v.index()]);
                if add.any() {
                    if reach[v.index()].is_zero() {
                        touched.push(v.0);
                    }
                    reach[v.index()] |= add;
                    if gain[v.index()].is_zero() {
                        cur.push(v.0);
                    }
                    gain[v.index()] |= add;
                }
            });
        }
        for &v in &self.touched {
            visit(NodeId(v), self.reach[v as usize]);
        }
    }

    /// The reach mask of `node` after the last run (zero if unreached).
    #[inline]
    pub fn reach(&self, node: NodeId) -> Mask<W> {
        self.reach[node.index()]
    }

    /// The nodes reached by the last run, in the order they were first
    /// reached.
    pub fn reached(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched.iter().map(|&v| NodeId(v))
    }

    /// Component-sharing sweep over a batch of `centers` within the worlds
    /// of `lanes`, on the workspace's own scratch buffers (no allocation
    /// once warm).
    ///
    /// Each center runs one connectivity fixpoint over the lanes where its
    /// component is still unknown, and `visit(j, lanes_j, self)` is called
    /// with them: in lanes `lanes_j`, the reach masks ([`Self::reach`] over
    /// [`Self::reached`]) are center `j`'s component. A later center that
    /// the traversal reaches shares that component in the lanes where it is
    /// reached, so it is visited from the same traversal with those lanes
    /// and drops them from its own. The traversal finds later centers
    /// through a node → center-index map as it visits them; for a repeated
    /// center the map holds its last index, and the other copies run their
    /// own traversals. Within one block, centers in the same component are
    /// the common case, so a batch of `k` centers usually pays far fewer
    /// than `k` traversals. Every `(center, lane)` of `lanes` is visited
    /// exactly once.
    ///
    /// # Panics
    /// Under the conditions of [`MultiWorldBfs::run_unlimited`].
    pub fn share_components(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        centers: &[NodeId],
        lanes: Mask<W>,
        mut visit: impl FnMut(usize, Mask<W>, &Self),
    ) {
        if centers.is_empty() || lanes.is_zero() {
            return;
        }
        // The scratch is detached from `self` for the duration of the sweep
        // so the traversals below can still borrow the workspace.
        let mut todo = std::mem::take(&mut self.share_todo);
        let mut met = std::mem::take(&mut self.share_met);
        let mut center_at = std::mem::take(&mut self.center_at);
        center_at.resize(self.reach.len(), NO_CENTER);
        for (j, c) in centers.iter().enumerate() {
            center_at[c.index()] = j as u32;
        }
        todo.clear();
        todo.resize(centers.len(), lanes);
        for (j, &center) in centers.iter().enumerate() {
            let unknown = std::mem::take(&mut todo[j]);
            if unknown.is_zero() {
                continue;
            }
            met.clear();
            self.run_unlimited(g, edge_masks, center, unknown, |v, reach| {
                let i = center_at[v.index()];
                if i != NO_CENTER {
                    let shared = todo[i as usize] & reach;
                    if shared.any() {
                        met.push((i, shared));
                    }
                }
            });
            visit(j, unknown, self);
            for &(i, shared) in &met {
                todo[i as usize] = todo[i as usize].and_not(shared);
                visit(i as usize, shared, self);
            }
        }
        for c in centers {
            center_at[c.index()] = NO_CENTER;
        }
        self.share_todo = todo;
        self.share_met = met;
        self.center_at = center_at;
    }

    /// Labels the connected components of **every** world selected by
    /// `lanes` in one component-sharing sweep: one connectivity-fixpoint
    /// traversal per *component*, not per node — the traversal from a node
    /// `u` that is still unlabeled in lanes `M` discovers, for every lane
    /// `l ∈ M` simultaneously, the full member set of `u`'s component in
    /// world `l` (the reach masks say which lanes each reached node shares
    /// with `u`).
    ///
    /// `assign(node, mask, next)` is called once per `(reached node,
    /// traversal)` with the lanes `mask` the node was reached in and the
    /// per-lane label counters `next` (one per lane, `Mask::<W>::LANES`
    /// entries): the node's label in lane `l` of `mask` is `next[l]`.
    /// Labels are dense per lane (`0..counts[l]`) in first-seen node
    /// order. Returns the per-lane component counts (0 for lanes outside
    /// `lanes`).
    ///
    /// Unlabeled lanes of a node are always a superset of the unlabeled
    /// lanes of its whole component (components are labeled atomically), so
    /// restricting each traversal to the source's unlabeled lanes never
    /// splits a component.
    ///
    /// # Panics
    /// Panics if the workspace is sized for fewer nodes than `g`, or if an
    /// edge id of `g` indexes past `edge_masks`.
    pub fn label_components(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        lanes: Mask<W>,
        mut assign: impl FnMut(NodeId, Mask<W>, &[u32]),
    ) -> Vec<u32> {
        let n = g.num_nodes();
        assert!(
            n <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            n
        );
        let mut next = vec![0u32; Mask::<W>::LANES];
        if lanes.is_zero() {
            return next;
        }
        // Lanes in which each node has not been assigned a label yet.
        let mut unlabeled = vec![lanes; n];
        for u in 0..n as u32 {
            let m = unlabeled[u as usize];
            if m.is_zero() {
                continue;
            }
            // `next` is only advanced after the traversal, so the counters
            // seen by `assign` are the labels of this component per lane.
            self.run_unlimited(g, edge_masks, NodeId(u), m, |v, mask| {
                unlabeled[v.index()] = unlabeled[v.index()].and_not(mask);
                assign(v, mask, &next);
            });
            m.for_each_lane(|l| next[l] += 1);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::uncertain::UncertainGraph;

    /// Single-word mask literal.
    fn m1(word: u64) -> Mask<1> {
        Mask([word])
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
    fn mask_prefix_matches_lane_mask_per_word() {
        assert_eq!(Mask::<1>::prefix(0), m1(0));
        assert_eq!(Mask::<1>::prefix(5), m1(0b11111));
        assert_eq!(Mask::<1>::prefix(64), m1(!0));
        // Tails that straddle word boundaries.
        assert_eq!(Mask::<4>::prefix(64), Mask([!0, 0, 0, 0]));
        assert_eq!(Mask::<4>::prefix(70), Mask([!0, 0b111111, 0, 0]));
        assert_eq!(Mask::<4>::prefix(256), Mask([!0; 4]));
        assert_eq!(Mask::<8>::prefix(511), Mask([!0, !0, !0, !0, !0, !0, !0, !0 >> 1]));
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn mask_prefix_rejects_overflow() {
        Mask::<4>::prefix(257);
    }

    #[test]
    fn mask_ops_cover_all_words() {
        let a = Mask([0b1100, 0, !0, 1]);
        let b = Mask([0b1010, 5, 0, 1]);
        assert_eq!(a & b, Mask([0b1000, 0, 0, 1]));
        assert_eq!(a | b, Mask([0b1110, 5, !0, 1]));
        assert_eq!(a ^ b, Mask([0b0110, 5, !0, 0]));
        assert_eq!(a.and_not(b), Mask([0b0100, 0, !0, 0]));
        assert_eq!(a.and_not(b), a & !b);
        assert_eq!(a.count_ones(), 2 + 64 + 1);
        assert!(a.any());
        assert!(!Mask::<4>::ZERO.any());
        assert!(Mask::<4>::ZERO.is_zero());
        assert_eq!(Mask::<4>::ones().count_ones(), 256);
        let mut c = a;
        c |= b;
        assert_eq!(c, a | b);
        c = a;
        c &= b;
        assert_eq!(c, a & b);
    }

    #[test]
    fn mask_lane_addressing_spans_words() {
        let bit = Mask::<4>::bit(130);
        assert_eq!(bit, Mask([0, 0, 1 << 2, 0]));
        assert!(bit.get(130));
        assert!(!bit.get(129));
        let mut lanes = Vec::new();
        (Mask::<4>::bit(3) | Mask::<4>::bit(64) | Mask::<4>::bit(255)).for_each_lane(|l| {
            lanes.push(l);
        });
        assert_eq!(lanes, vec![3, 64, 255]);
        assert_eq!(Mask::<4>::LANES, 256);
        assert_eq!(Mask::<8>::LANES, 512);
        assert_eq!(Mask::from(0b101u64), m1(0b101));
    }

    #[test]
    fn all_worlds_full_edges_reach_everything() {
        let g = path_graph();
        // All three edges present in all 64 worlds.
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(!0), 10, |n, d, m| seen.push((n.0, d, m.0[0])));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0, !0), (1, 1, !0), (2, 2, !0), (3, 3, !0)]);
    }

    #[test]
    fn per_world_edges_split_reach_masks() {
        let g = path_graph();
        // Edge (0,1) exists only in world 0; edge (1,2) in worlds 0 and 1;
        // edge (2,3) nowhere.
        let masks = vec![m1(0b01), m1(0b11), m1(0b00)];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(0b11), 10, |n, d, m| seen.push((n.0, d, m.0[0])));
        seen.sort_unstable();
        // World 1 never leaves the source: edge (0,1) is missing there.
        assert_eq!(seen, vec![(0, 0, 0b11), (1, 1, 0b01), (2, 2, 0b01)]);
    }

    #[test]
    fn depth_limit_respected() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut reached: Vec<u32> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(!0), 2, |n, _, _| reached.push(n.0));
        reached.sort_unstable();
        assert_eq!(reached, vec![0, 1, 2]);
    }

    #[test]
    fn zero_depth_visits_source_only() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut count = 0;
        bfs.run(&g, &masks, NodeId(1), m1(!0), 0, |_, _, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn lane_mask_restricts_worlds() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(0b101), 10, |n, _, m| seen.push((n.0, m.0[0])));
        assert!(seen.iter().all(|&(_, m)| m == 0b101));
    }

    #[test]
    fn unlimited_matches_depth_run_totals() {
        // Cycle where worlds take different routes, so distances differ but
        // connectivity agrees.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.add_edge(3, 0, 0.5).unwrap();
        let g = b.build().unwrap();
        let masks = vec![m1(0b110), m1(0b011), m1(0b101), m1(0b111)];
        let mut bfs = MultiWorldBfs::new(4);
        let mut by_depth = vec![0u64; 4];
        bfs.run(&g, &masks, NodeId(0), m1(0b111), 10, |n, _, m| by_depth[n.index()] |= m.0[0]);
        let mut by_fix = vec![0u64; 4];
        bfs.run_unlimited(&g, &masks, NodeId(0), m1(0b111), |n, m| by_fix[n.index()] = m.0[0]);
        assert_eq!(by_depth, by_fix);
    }

    #[test]
    fn unlimited_visits_each_node_once() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.add_edge(3, 0, 0.5).unwrap();
        let g = b.build().unwrap();
        let masks = vec![m1(0b01), m1(0b10), m1(0b10), m1(0b01)];
        let mut bfs = MultiWorldBfs::new(4);
        let mut visits = vec![0u32; 4];
        bfs.run_unlimited(&g, &masks, NodeId(0), m1(0b11), |n, _| visits[n.index()] += 1);
        assert!(visits.iter().all(|&v| v <= 1), "visits {visits:?}");
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        bfs.run(&g, &masks, NodeId(0), m1(!0), 10, |_, _, _| {});
        assert_eq!(bfs.reach(NodeId(3)), m1(!0));
        // Second run from the isolated node must not see stale reach masks.
        let mut reached: Vec<u32> = Vec::new();
        bfs.run(&g, &masks, NodeId(4), m1(!0), 10, |n, _, _| reached.push(n.0));
        assert_eq!(reached, vec![4]);
        assert_eq!(bfs.reach(NodeId(3)), m1(0));
        // And a mode switch must also start clean.
        let mut reached_fix: Vec<u32> = Vec::new();
        bfs.run_unlimited(&g, &masks, NodeId(2), m1(!0), |n, _| reached_fix.push(n.0));
        reached_fix.sort_unstable();
        assert_eq!(reached_fix, vec![0, 1, 2, 3]);
    }

    #[test]
    fn label_components_partitions_every_lane() {
        // Deterministic pseudo-random 8-lane block over a denser graph;
        // check per-lane labels against a per-world scalar labeling.
        use crate::bitset::Bitset;
        use crate::view::WorldView;
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 8;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 23 + l * 41 + 5) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        let mut bfs = MultiWorldBfs::new(7);
        let mut labels = vec![u32::MAX; 7 * LANES];
        let counts = bfs.label_components(&g, &masks, Mask::prefix(lanes), |v, mk, next| {
            mk.for_each_lane(|l| {
                assert_eq!(labels[v.index() * LANES + l], u32::MAX, "node relabeled");
                labels[v.index() * LANES + l] = next[l];
            });
        });
        for l in 0..lanes {
            let mut world = Bitset::with_len(m);
            for (e, mask) in masks.iter().enumerate() {
                if mask.get(l) {
                    world.insert(e);
                }
            }
            let view = WorldView::new(&g, &world);
            let (want, want_count) = crate::connected_components(&view);
            assert_eq!(counts[l] as usize, want_count, "lane {l} component count");
            // Same partition: labels agree on every node pair.
            for u in 0..7 {
                assert!(labels[u * LANES + l] < counts[l], "lane {l} node {u} unlabeled");
                for v in 0..7 {
                    assert_eq!(
                        labels[u * LANES + l] == labels[v * LANES + l],
                        want[u] == want[v],
                        "lane {l} pair ({u}, {v}) partition disagrees"
                    );
                }
            }
        }
        // Lanes outside the mask are untouched.
        assert!(counts[lanes..].iter().all(|&c| c == 0));
    }

    #[test]
    fn label_components_zero_mask_is_noop() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let counts = bfs.label_components(&g, &masks, m1(0), |_, _, _| panic!("no assignments"));
        assert_eq!(counts, vec![0u32; LANES]);
    }

    #[test]
    fn mask_bfs_agrees_with_per_world_bfs() {
        // A denser random-ish fixed graph; compare against per-world
        // DepthBfs through WorldViews for all depths.
        use crate::bitset::Bitset;
        use crate::traversal::DepthBfs;
        use crate::view::WorldView;
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5), (1, 6)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        // 8 worlds with deterministic pseudo-random edge membership.
        let lanes = 8;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 31 + l * 17 + 7) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        let mut mw = MultiWorldBfs::new(7);
        let mut scalar = DepthBfs::new(7);
        for depth in [0u32, 1, 2, 3, 10] {
            for source in 0..7u32 {
                let mut counts = vec![0u32; 7];
                mw.run(&g, &masks, NodeId(source), Mask::prefix(lanes), depth, |n, _, mk| {
                    counts[n.index()] += mk.count_ones();
                });
                let mut want = vec![0u32; 7];
                for l in 0..lanes {
                    let mut world = Bitset::with_len(m);
                    for (e, mask) in masks.iter().enumerate() {
                        if mask.get(l) {
                            world.insert(e);
                        }
                    }
                    let view = WorldView::new(&g, &world);
                    scalar.run(&view, NodeId(source), depth, |n, _| want[n.index()] += 1);
                }
                assert_eq!(counts, want, "source {source} depth {depth}");
            }
        }
    }

    /// Deterministic pseudo-random masks for a width-4 block with `lanes`
    /// active lanes, plus the same worlds split into four width-1 blocks
    /// (word `w` of the wide mask = the narrow block `w`).
    fn wide_and_narrow_masks(m: usize, lanes: usize) -> (Vec<Mask<4>>, [Vec<Mask<1>>; 4]) {
        let mut wide = vec![Mask::<4>::ZERO; m];
        let mut narrow = [vec![m1(0); m], vec![m1(0); m], vec![m1(0); m], vec![m1(0); m]];
        for (e, mask) in wide.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 37 + l * 11 + 1) % 3 != 0 {
                    mask.0[l / LANES] |= 1 << (l % LANES);
                    narrow[l / LANES][e].0[0] |= 1 << (l % LANES);
                }
            }
        }
        (wide, narrow)
    }

    #[test]
    fn wide_runs_match_per_word_narrow_runs() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5), (1, 6)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        // 200 lanes: words 0–2 full, word 3 a partial tail.
        let lanes = 200;
        let (wide_masks, narrow_masks) = wide_and_narrow_masks(m, lanes);
        let wide_lanes = Mask::<4>::prefix(lanes);
        let mut wide = MultiWorldBfs::<4>::new(7);
        let mut narrow = MultiWorldBfs::<1>::new(7);
        for depth in [0u32, 2, 10] {
            for source in 0..7u32 {
                let mut wide_counts = vec![0u32; 7];
                wide.run(&g, &wide_masks, NodeId(source), wide_lanes, depth, |n, _, mk| {
                    wide_counts[n.index()] += mk.count_ones();
                });
                let mut narrow_counts = vec![0u32; 7];
                for (w, masks) in narrow_masks.iter().enumerate() {
                    let word_lanes = m1(wide_lanes.0[w]);
                    narrow.run(&g, masks, NodeId(source), word_lanes, depth, |n, _, mk| {
                        narrow_counts[n.index()] += mk.count_ones();
                    });
                }
                assert_eq!(wide_counts, narrow_counts, "source {source} depth {depth}");
            }
        }
        // Connectivity fixpoint agrees word-for-word, not just in counts.
        let mut wide_reach = vec![Mask::<4>::ZERO; 7];
        wide.run_unlimited(&g, &wide_masks, NodeId(0), wide_lanes, |n, mk| {
            wide_reach[n.index()] = mk;
        });
        for (w, masks) in narrow_masks.iter().enumerate() {
            let mut narrow_reach = [0u64; 7];
            narrow.run_unlimited(&g, masks, NodeId(0), m1(wide_lanes.0[w]), |n, mk| {
                narrow_reach[n.index()] = mk.0[0];
            });
            for u in 0..7 {
                assert_eq!(wide_reach[u].0[w], narrow_reach[u], "word {w} node {u}");
            }
        }
    }

    #[test]
    fn wide_label_components_match_per_word_narrow_labels() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 130; // partial tail in word 2
        let (wide_masks, narrow_masks) = wide_and_narrow_masks(m, lanes);
        let mut wide = MultiWorldBfs::<4>::new(7);
        let mut narrow = MultiWorldBfs::<1>::new(7);
        let mut wide_labels = vec![u32::MAX; 7 * Mask::<4>::LANES];
        let wide_counts =
            wide.label_components(&g, &wide_masks, Mask::prefix(lanes), |v, mk, next| {
                mk.for_each_lane(|l| wide_labels[v.index() * Mask::<4>::LANES + l] = next[l]);
            });
        for (w, masks) in narrow_masks.iter().enumerate() {
            let word_lanes = m1(Mask::<4>::prefix(lanes).0[w]);
            let mut narrow_labels = vec![u32::MAX; 7 * LANES];
            let narrow_counts = narrow.label_components(&g, masks, word_lanes, |v, mk, next| {
                mk.for_each_lane(|l| narrow_labels[v.index() * LANES + l] = next[l]);
            });
            for l in 0..LANES {
                assert_eq!(wide_counts[w * LANES + l], narrow_counts[l], "word {w} lane {l}");
                for u in 0..7 {
                    assert_eq!(
                        wide_labels[u * Mask::<4>::LANES + w * LANES + l],
                        narrow_labels[u * LANES + l],
                        "word {w} lane {l} node {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn share_components_match_independent_runs() {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (2, 4), (0, 7)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 10;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 19 + l * 7 + 2) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        // Duplicates and same-component centers exercise the inherit path.
        let centers = [NodeId(0), NodeId(2), NodeId(0), NodeId(5), NodeId(7)];
        let mut bfs = MultiWorldBfs::new(8);
        let mut counts = vec![0u32; centers.len() * 8];
        let sweep = |bfs: &mut MultiWorldBfs, counts: &mut [u32]| {
            bfs.share_components(&g, &masks, &centers, Mask::prefix(lanes), |j, lanes, bfs| {
                for u in bfs.reached() {
                    counts[j * 8 + u.index()] += (bfs.reach(u) & lanes).count_ones();
                }
            });
        };
        sweep(&mut bfs, &mut counts);
        for (j, &c) in centers.iter().enumerate() {
            let mut want = [0u32; 8];
            bfs.run_unlimited(&g, &masks, c, Mask::prefix(lanes), |n, mk| {
                want[n.index()] += mk.count_ones();
            });
            assert_eq!(&counts[j * 8..(j + 1) * 8], &want[..], "center {j} ({c}) differs");
        }
        // The visits accumulate: a second pass doubles every entry.
        let before = counts.clone();
        sweep(&mut bfs, &mut counts);
        for (a, b) in counts.iter().zip(before.iter()) {
            assert_eq!(*a, b * 2);
        }
    }
}

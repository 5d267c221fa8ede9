//! Session-reuse equivalence suite: every request served by a warm
//! [`UgraphSession`] must be **bit-identical** to the corresponding
//! one-shot free-function call — same clustering, same assignment
//! probabilities, same guess trace, same sample counts — with and without
//! block labels, with the row cache on or off, across interleaved request
//! shapes and k-sweeps.

use proptest::prelude::*;
use ugraph_cluster::{
    acp, acp_depth, mcp, mcp_depth, AcpInvocation, CancelToken, ClusterConfig, ClusterError,
    ClusterRequest, DegradeMode, GuessStrategy, SolveResult, UgraphSession,
};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::{GraphBuilder, UncertainGraph};

/// Two strong triangles bridged by a mid-probability edge, plus a tail —
/// connected, so MCP succeeds for small k.
fn communities_with_tail() -> UncertainGraph {
    let mut b = GraphBuilder::new(8);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    b.add_edge(2, 3, 0.4).unwrap();
    b.add_edge(5, 6, 0.7).unwrap();
    b.add_edge(6, 7, 0.8).unwrap();
    b.build().unwrap()
}

/// Asserts a session result equals the one-shot MCP-shaped result in every
/// algorithmic field (cache counters excluded: on a warm session they are
/// *supposed* to differ — rows arrive as hits instead of recomputes).
fn assert_mcp_identical(tag: &str, s: &SolveResult, r: &ugraph_cluster::McpResult) {
    assert_eq!(s.clustering, r.clustering, "{tag}: clustering differs");
    assert_eq!(s.assign_probs, r.assign_probs, "{tag}: assign_probs differ");
    assert_eq!(s.objective_estimate, r.min_prob_estimate, "{tag}: objective differs");
    assert_eq!(s.final_q, r.final_q, "{tag}: final_q differs");
    assert_eq!(s.guesses, r.guesses, "{tag}: guesses differ");
    assert_eq!(s.samples_used, r.samples_used, "{tag}: samples_used differ");
    assert_eq!(s.row_cache.rows_served(), r.row_cache.rows_served(), "{tag}: rows served differ");
}

fn assert_acp_identical(tag: &str, s: &SolveResult, r: &ugraph_cluster::AcpResult) {
    assert_eq!(s.clustering, r.clustering, "{tag}: clustering differs");
    assert_eq!(s.assign_probs, r.assign_probs, "{tag}: assign_probs differ");
    assert_eq!(s.objective_estimate, r.avg_prob_estimate, "{tag}: objective differs");
    assert_eq!(s.final_q, r.final_q, "{tag}: final_q differs");
    assert_eq!(s.guesses, r.guesses, "{tag}: guesses differ");
    assert_eq!(s.samples_used, r.samples_used, "{tag}: samples_used differ");
}

/// FNV-1a over 64-bit words: a stable digest of session results.
#[derive(Clone, Copy)]
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

    /// Folds every field of `s` that the estimates or the oracle's engine
    /// and cache traffic can change (wall time excluded).
    fn result(&mut self, s: &SolveResult) {
        self.answer(s);
        for x in [s.row_cache.hits, s.row_cache.topups, s.row_cache.fulls] {
            self.word(x as u64);
        }
        let e = s.engine;
        for x in [e.finalized_blocks, e.finalized_lanes, e.label_queries, e.mask_queries] {
            self.word(x as u64);
        }
    }

    /// Folds the answer of `s`: the clustering, its probabilities and
    /// objective, and the guess trace, but none of the engine, cache or
    /// ledger counters that a memory budget shapes.
    fn answer(&mut self, s: &SolveResult) {
        let c = &s.clustering;
        self.word(c.num_clusters() as u64);
        for center in c.centers() {
            self.word(u64::from(center.0));
        }
        for u in 0..c.num_nodes() {
            self.word(c.cluster_of_u32(u as u32).map_or(u64::MAX, |i| i as u64));
        }
        self.word(s.assign_probs.len() as u64);
        for p in &s.assign_probs {
            self.word(p.to_bits());
        }
        self.word(s.objective_estimate.to_bits());
        self.word(s.final_q.to_bits());
        self.word(s.guesses as u64);
        self.word(s.samples_used as u64);
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Folds a solve's outcome: the result with its interrupt report, or
    /// the error's text.
    fn outcome(&mut self, o: &Result<SolveResult, ClusterError>) {
        match o {
            Ok(s) => {
                self.result(s);
                self.text(&s.interrupt.map_or_else(String::new, |r| r.to_string()));
            }
            Err(e) => self.text(&e.to_string()),
        }
    }
}

/// A memory limit that holds the edge masks and rows of these tests'
/// small graphs (five nodes or more) but not what the labelling rule
/// counts for one block's labels (at least 8 356 B at five nodes), so
/// sessions under it answer every row from masks.
const NO_LABELS: Option<usize> = Some(8 << 10);

/// Digest of every session result of
/// `interleaved_request_shapes_match_one_shot_on_both_engines`, per memory
/// limit. Each pins the answers and engine/cache traffic with the row
/// cache on and off, across unlimited, `d_select = d_cover` and
/// `d_select < d_cover` oracles, of a session that labels blocks
/// (unbounded) and of one whose limit declines every label.
const ENGINE_DIGESTS: [(Option<usize>, u64); 2] =
    [(NO_LABELS, 0xa975_224b_9ccf_b7b1), (None, 0x1ccc_79d4_2f7f_15f1)];

#[test]
fn interleaved_request_shapes_match_one_shot_on_both_engines() {
    let g = communities_with_tail();
    for (memory_budget, engine_digest) in ENGINE_DIGESTS {
        let mut digest = Digest::new();
        for row_cache in [true, false] {
            let cfg = ClusterConfig { memory_budget, ..ClusterConfig::default() }
                .with_seed(42)
                .with_row_cache(row_cache);
            let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
            let tag = format!("limit {memory_budget:?} cache={row_cache}");

            // mcp → acp → mcp_depth → mcp (again, warm) on ONE session.
            let s1 = session.solve(ClusterRequest::mcp(2)).unwrap();
            assert_mcp_identical(&format!("{tag} mcp#1"), &s1, &mcp(&g, 2, &cfg).unwrap());

            let s2 = session.solve(ClusterRequest::acp(3)).unwrap();
            assert_acp_identical(&format!("{tag} acp"), &s2, &acp(&g, 3, &cfg).unwrap());

            let s3 = session.solve(ClusterRequest::mcp_depth(3, 2)).unwrap();
            assert_mcp_identical(
                &format!("{tag} mcp_depth"),
                &s3,
                &mcp_depth(&g, 3, 2, &cfg).unwrap(),
            );

            // The warm repeat is the crucial one: its oracle pool has
            // grown past what a fresh run would sample, and its cache
            // holds rows from three earlier requests.
            let s4 = session.solve(ClusterRequest::mcp(2)).unwrap();
            assert_mcp_identical(&format!("{tag} mcp#2"), &s4, &mcp(&g, 2, &cfg).unwrap());

            let s5 = session.solve(ClusterRequest::acp_depth(2, 3)).unwrap();
            assert_acp_identical(
                &format!("{tag} acp_depth"),
                &s5,
                &acp_depth(&g, 2, 3, &cfg).unwrap(),
            );

            // Selection disks narrower than cover disks: the only shape
            // whose oracle keeps a separate selection row. No free function
            // takes explicit depths, so a fresh session is the one-shot.
            let explicit = ClusterRequest::acp(2).with_depths(1, 3);
            let s6 = session.solve(explicit.clone()).unwrap();
            let cold = UgraphSession::new(&g, cfg.clone()).unwrap().solve(explicit).unwrap();
            assert_eq!(s6.clustering, cold.clustering, "{tag} acp(1, 3): clustering differs");
            assert_eq!(s6.assign_probs, cold.assign_probs, "{tag} acp(1, 3): probs differ");
            assert_eq!(s6.objective_estimate, cold.objective_estimate, "{tag} acp(1, 3)");
            assert_eq!(s6.final_q, cold.final_q, "{tag} acp(1, 3): final_q differs");
            assert_eq!(s6.guesses, cold.guesses, "{tag} acp(1, 3): guesses differ");
            assert_eq!(s6.samples_used, cold.samples_used, "{tag} acp(1, 3): samples differ");

            for s in [&s1, &s2, &s3, &s4, &s5, &s6] {
                let labelled = s.engine.finalized_lanes > 0;
                assert!(!labelled || memory_budget.is_none(), "{tag}: labelled under the limit");
                digest.result(s);
            }
        }
        assert_eq!(
            digest.0, engine_digest,
            "limit {memory_budget:?}: session results differ from the recorded digest"
        );
    }
}

#[test]
fn warm_k_sweep_equals_cold_calls() {
    let g = communities_with_tail();
    for memory_budget in [NO_LABELS, None] {
        let cfg = ClusterConfig { memory_budget, ..ClusterConfig::default() }.with_seed(7);
        let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
        for k in 2..=6 {
            let warm = session.solve(ClusterRequest::mcp(k)).unwrap();
            let cold = mcp(&g, k, &cfg).unwrap();
            assert_mcp_identical(&format!("{memory_budget:?} k={k}"), &warm, &cold);
        }
        // The sweep must actually have exercised reuse (deterministic:
        // same centers recur across k).
        let stats = session.stats();
        assert!(
            stats.row_cache.hits + stats.row_cache.topups > 0,
            "{memory_budget:?}: warm sweep served no cached rows: {stats}"
        );
        // One shared pool across the sweep, not one per k.
        assert!(
            stats.worlds_held <= stats.per_request.iter().map(|r| r.samples_used).sum(),
            "{memory_budget:?}: session holds more worlds than the requests used combined"
        );
    }
}

#[test]
fn acp_theory_invocation_matches_one_shot_on_session() {
    // α = n re-queries candidates across guesses — the heaviest cache
    // workload; run it twice on one session to cross request boundaries.
    let g = communities_with_tail();
    let cfg = ClusterConfig::default()
        .with_seed(19)
        .with_acp_invocation(AcpInvocation::Theory)
        .with_alpha(4);
    let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
    for _ in 0..2 {
        let warm = session.solve(ClusterRequest::acp(2)).unwrap();
        assert_acp_identical("theory acp", &warm, &acp(&g, 2, &cfg).unwrap());
    }
}

#[test]
fn explicit_depths_match_depth_oracle_runs() {
    // with_depths(d, d) for MCP resolves to the same oracle shape as
    // mcp_depth(k, d) — the two request forms must join the same session
    // oracle and produce identical results.
    let g = communities_with_tail();
    let cfg = ClusterConfig::default().with_seed(23);
    let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
    let a = session.solve(ClusterRequest::mcp_depth(2, 3)).unwrap();
    let b = session.solve(ClusterRequest::mcp(2).with_depths(3, 3)).unwrap();
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.assign_probs, b.assign_probs);
    assert_mcp_identical("explicit depths", &b, &mcp_depth(&g, 2, 3, &cfg).unwrap());
}

#[test]
fn adaptive_sessions_agree_with_pure_mask_sessions() {
    // Sessions that label blocks and sessions whose limit declines every
    // label must produce identical results through the full session
    // stack — including requests served warm from pools whose blocks were
    // finalized by earlier requests.
    let g = communities_with_tail();
    let run = |memory_budget: Option<usize>| {
        let cfg = ClusterConfig { memory_budget, ..ClusterConfig::default() }.with_seed(11);
        let mut session = UgraphSession::new(&g, cfg).unwrap();
        let results: Vec<SolveResult> = [
            ClusterRequest::mcp(2),
            ClusterRequest::acp(3),
            ClusterRequest::mcp(3),
            ClusterRequest::mcp(2),
        ]
        .into_iter()
        .map(|rq| session.solve(rq).unwrap())
        .collect();
        (results, session.stats())
    };
    let (mask, mask_stats) = run(NO_LABELS);
    let (adaptive, stats) = run(None);
    assert_eq!(mask_stats.engine.finalized_lanes, 0, "labelled under the limit: {mask_stats}");
    for (m, a) in mask.iter().zip(&adaptive) {
        assert_eq!(m.clustering, a.clustering, "adaptive diverges from pure-mask");
        assert_eq!(m.assign_probs, a.assign_probs);
        assert_eq!((m.guesses, m.samples_used), (a.guesses, a.samples_used));
    }
    // The unlimited oracles actually finalized blocks and served label
    // queries; each lane was labeled at most once.
    assert!(stats.engine.finalized_blocks > 0, "no finalization happened: {stats}");
    assert!(stats.engine.label_queries > 0, "{stats}");
    assert!(stats.engine.finalized_lanes <= stats.worlds_held, "relabeling detected: {stats}");
}

/// Byte limits of `budgeted_sessions_answer_like_the_unbounded_one`. Its
/// unbounded session ends holding about 5.9 MB: 4.6 MB of edge masks,
/// about 0.65 MB of component labels and the cached rows.
const BUDGET_LIMITS: [Option<usize>; 4] = [
    None,
    // Every label stays resident.
    Some(64 << 20),
    // Everything fits, but the labelling rule counts each missing block
    // at its worst case (about 4.2 MB), so only the first blocks are
    // labelled.
    Some(8 << 20),
    // Below the masks: shards are evicted and regenerated.
    Some(1 << 20),
];

/// Digest of each session's answers in
/// `budgeted_sessions_answer_like_the_unbounded_one`.
const BUDGET_DIGEST: u64 = 0xbade_4c1e_0566_6588;

/// A memory budget decides only what a session keeps resident, never what
/// it answers: on a 2 000-node sparse graph spanning several blocks, a
/// session at each of [`BUDGET_LIMITS`] serves MCP and ACP at two values of
/// k, unlimited and at depth 2, with the same answers (engine, cache and
/// ledger counters excluded).
#[test]
fn budgeted_sessions_answer_like_the_unbounded_one() {
    let g = DatasetSpec::LargeSparse { nodes: 2_000 }.generate(31).graph;
    for limit in BUDGET_LIMITS {
        let mut cfg = ClusterConfig::default().with_seed(5).with_threads(1);
        if let Some(bytes) = limit {
            cfg = cfg.with_memory_budget(bytes);
        }
        let mut session = UgraphSession::new(&g, cfg).unwrap();
        let mut digest = Digest::new();
        for k in [2, 4] {
            for rq in [
                ClusterRequest::mcp(k),
                ClusterRequest::acp(k),
                ClusterRequest::mcp_depth(k, 2),
                ClusterRequest::acp_depth(k, 2),
            ] {
                match session.solve(rq) {
                    Ok(s) => digest.answer(&s),
                    Err(e) => digest.text(&e.to_string()),
                }
            }
        }
        let stats = session.stats();
        if let Some(bytes) = limit {
            assert!(stats.bytes_held <= bytes, "limit {bytes}: {stats}");
        }
        assert_eq!(digest.0, BUDGET_DIGEST, "limit {limit:?}: answers differ ({stats})");
    }
}

/// Ten nodes in two components: a 6-path, which no single center covers
/// within depth 2, and a 4-clique. MCP at k = 2 and depth 2 has no full
/// clustering at any threshold.
fn two_components() -> UncertainGraph {
    let mut b = GraphBuilder::new(10);
    for (u, p) in [(0, 0.9), (1, 0.8), (2, 0.95), (3, 0.7), (4, 0.85)] {
        b.add_edge(u, u + 1, p).unwrap();
    }
    for u in 6..10 {
        for v in u + 1..10 {
            b.add_edge(u, v, 0.6).unwrap();
        }
    }
    b.build().unwrap()
}

/// Ten connected nodes: two groups bridged by a weak edge, plus a tail.
fn connected_ten() -> UncertainGraph {
    let mut b = GraphBuilder::new(10);
    for u in 0..4 {
        for v in u + 1..4 {
            b.add_edge(u, v, 0.8).unwrap();
        }
    }
    for (u, v) in [(4, 5), (5, 6), (4, 6)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    for (u, v, p) in [(3, 4, 0.3), (6, 7, 0.7), (7, 8, 0.6), (8, 9, 0.9)] {
        b.add_edge(u, v, p).unwrap();
    }
    b.build().unwrap()
}

/// Digest of every outcome of `guess_schedules_and_interruptions_are_pinned`.
const SCHEDULE_DIGEST: u64 = 0x0851_e613_d14c_7246;

/// `(errors, partial results)` of each best-effort sweep below.
const SWEEP_TALLIES: [(usize, usize); 6] = [(55, 0), (28, 12), (10, 18), (10, 18), (3, 0), (3, 0)];

/// Pins both drivers' threshold schedules and interruption handling: every
/// `GuessStrategy × AcpInvocation × p_L × γ` on a connected and a
/// two-component graph, MCP and ACP at k = 2, 3, unlimited and at depth 2,
/// plus best-effort solves cancelled at every checkpoint in turn. Each
/// outcome (result and interrupt report, or error text) is folded into one
/// digest.
#[test]
fn guess_schedules_and_interruptions_are_pinned() {
    let graphs = [connected_ten(), two_components()];
    let base = ClusterConfig::default().with_seed(7).with_threads(1);
    let mut digest = Digest::new();
    let (mut no_full, mut outcomes) = (0usize, 0usize);
    for guess in [GuessStrategy::Geometric, GuessStrategy::Accelerated] {
        for inv in [AcpInvocation::Practical, AcpInvocation::Theory] {
            for p_l in [1e-4, 0.05, 0.5, 1.0] {
                for gamma in [0.1, 0.3] {
                    let cfg = base
                        .clone()
                        .with_guess(guess)
                        .with_acp_invocation(inv)
                        .with_p_l(p_l)
                        .with_gamma(gamma);
                    for g in &graphs {
                        let mut session = UgraphSession::new(g, cfg.clone()).unwrap();
                        for k in [2, 3] {
                            for rq in [
                                ClusterRequest::mcp(k),
                                ClusterRequest::mcp_depth(k, 2),
                                ClusterRequest::acp(k),
                                ClusterRequest::acp_depth(k, 2),
                            ] {
                                let o = session.solve(rq);
                                no_full += usize::from(matches!(
                                    o,
                                    Err(ClusterError::NoFullClustering { .. })
                                ));
                                outcomes += 1;
                                digest.outcome(&o);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(no_full > 0, "no configuration reached NoFullClustering");

    // Best-effort solves cancelled at the n-th checkpoint, n = 1, 2, …
    // until the first clean completion: errors before the first full
    // clustering, flagged partial results after it.
    let g = &graphs[0];
    let mut tallies = Vec::new();
    let sweeps = [
        (GuessStrategy::Geometric, AcpInvocation::Practical, ClusterRequest::mcp(3)),
        (GuessStrategy::Accelerated, AcpInvocation::Practical, ClusterRequest::mcp(3)),
        (GuessStrategy::Geometric, AcpInvocation::Practical, ClusterRequest::acp(3)),
        (GuessStrategy::Accelerated, AcpInvocation::Practical, ClusterRequest::acp(3)),
        (GuessStrategy::Geometric, AcpInvocation::Theory, ClusterRequest::acp(3)),
        (GuessStrategy::Accelerated, AcpInvocation::Theory, ClusterRequest::acp(3)),
    ];
    for (guess, inv, rq) in sweeps {
        let cfg = base
            .clone()
            .with_guess(guess)
            .with_acp_invocation(inv)
            .with_degrade(DegradeMode::BestEffort);
        let (mut errors, mut partials) = (0usize, 0usize);
        for checks in 1u64.. {
            let mut session = UgraphSession::new(g, cfg.clone()).unwrap();
            let o = session.solve(rq.clone().with_cancel_token(CancelToken::after_checks(checks)));
            outcomes += 1;
            digest.outcome(&o);
            match o {
                Err(e) => {
                    assert!(matches!(e, ClusterError::Cancelled(_)), "{rq} {guess:?}: {e}");
                    errors += 1;
                }
                Ok(r) if r.interrupt.is_some() => partials += 1,
                Ok(_) => break,
            }
            assert!(checks < 10_000, "cancellation token was never outrun");
        }
        tallies.push((errors, partials));
    }
    // Geometric MCP stops at its first full clustering, so it has nothing
    // to degrade to.
    assert_eq!(tallies, SWEEP_TALLIES, "(errors, partial results) per sweep");

    // With p_L = 1 the ACP descent's first threshold is floored back to 1,
    // the threshold already run, so q = 1 runs once.
    let r = acp(g, 2, &base.clone().with_p_l(1.0)).unwrap();
    assert_eq!((r.guesses, r.final_q), (1, 1.0));

    assert_eq!(digest.0, SCHEDULE_DIGEST, "{outcomes} outcomes differ from the recorded digest");
}

/// Random small connected graphs for the property sweep.
fn small_graph() -> impl Strategy<Value = UncertainGraph> {
    (5..=9u32).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n, 0.15f64..=1.0), 0..8);
        (Just(n), extra, 0.4f64..=0.95).prop_map(|(n, extra, p_spine)| {
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..n - 1 {
                b.add_edge(i, i + 1, p_spine).unwrap();
            }
            for (u, v, p) in extra {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary (graph, seed, label limit, request sequence): a warm session
    /// replays every request bit-identically to its cold counterpart.
    #[test]
    fn session_replay_is_bit_identical(
        g in small_graph(),
        seed in any::<u64>(),
        limit_pick in 0u8..2,
        ks in proptest::collection::vec(2usize..4, 2..5),
    ) {
        let memory_budget = if limit_pick == 0 { NO_LABELS } else { None };
        let cfg = ClusterConfig { memory_budget, ..ClusterConfig::default() }.with_seed(seed);
        let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
        for (i, &k) in ks.iter().enumerate() {
            prop_assume!(k < g.num_nodes());
            // Alternate objectives so oracles interleave within one session.
            if i % 2 == 0 {
                let warm = session.solve(ClusterRequest::mcp(k));
                let cold = mcp(&g, k, &cfg);
                match (warm, cold) {
                    (Ok(w), Ok(c)) => {
                        prop_assert_eq!(&w.clustering, &c.clustering);
                        prop_assert_eq!(&w.assign_probs, &c.assign_probs);
                        prop_assert_eq!(w.final_q, c.final_q);
                        prop_assert_eq!(w.guesses, c.guesses);
                        prop_assert_eq!(w.samples_used, c.samples_used);
                    }
                    (Err(we), Err(ce)) => prop_assert_eq!(we, ce),
                    (w, c) => prop_assert!(false, "warm {w:?} vs cold {c:?} diverge"),
                }
            } else {
                let warm = session.solve(ClusterRequest::acp(k)).unwrap();
                let cold = acp(&g, k, &cfg).unwrap();
                prop_assert_eq!(&warm.clustering, &cold.clustering);
                prop_assert_eq!(&warm.assign_probs, &cold.assign_probs);
                prop_assert_eq!(warm.objective_estimate, cold.avg_prob_estimate);
                prop_assert_eq!(warm.guesses, cold.guesses);
                prop_assert_eq!(warm.samples_used, cold.samples_used);
            }
        }
    }
}

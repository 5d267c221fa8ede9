//! Robustness of the solver stack: cooperative cancellation, wall-clock
//! deadlines, best-effort degradation, and fault-injected recovery,
//! property-tested across both engines and both drivers.
//!
//! The invariant under test everywhere is **no-poison**: a solve that is
//! interrupted or killed by an injected fault returns a typed error and
//! leaves the session fully usable — re-issuing the same request
//! completes bit-identically to a run that was never disturbed, and the
//! memory ledger holds exactly the bytes an undisturbed session holds.

use std::time::Duration;

use proptest::prelude::*;
use ugraph_cluster::{
    CancelToken, ClusterConfig, ClusterError, ClusterRequest, DegradeMode, EngineKind,
    SamplingError, SolveResult, UgraphSession,
};
use ugraph_graph::{GraphBuilder, UncertainGraph};
use ugraph_sampling::faults::{self, FaultPlan};
use ugraph_sampling::{FaultSite, SampleSchedule};

const ENGINES: [EngineKind; 2] = [EngineKind::BitParallel, EngineKind::Adaptive];

/// Three reliable communities joined by weak bridges: full 3-clusterings
/// exist, and the drivers run a non-trivial guess schedule.
fn three_communities() -> UncertainGraph {
    let mut b = GraphBuilder::new(12);
    for base in [0u32, 4, 8] {
        for u in base..base + 4 {
            for v in u + 1..base + 4 {
                b.add_edge(u, v, 0.85).unwrap();
            }
        }
    }
    b.add_edge(3, 4, 0.05).unwrap();
    b.add_edge(7, 8, 0.05).unwrap();
    b.build().unwrap()
}

fn config(engine: EngineKind, seed: u64) -> ClusterConfig {
    ClusterConfig::default()
        .with_seed(seed)
        .with_threads(1)
        .with_engine(engine)
        .with_schedule(SampleSchedule::Fixed(192))
}

fn request(acp: bool, k: usize) -> ClusterRequest {
    if acp {
        ClusterRequest::acp(k)
    } else {
        ClusterRequest::mcp(k)
    }
}

fn assert_identical(got: &SolveResult, want: &SolveResult, what: &str) {
    assert_eq!(got.clustering, want.clustering, "{what}: clustering diverged");
    assert_eq!(got.assign_probs, want.assign_probs, "{what}: probabilities diverged");
    assert_eq!(
        (got.guesses, got.samples_used),
        (want.guesses, want.samples_used),
        "{what}: schedule diverged"
    );
    assert!(got.interrupt.is_none(), "{what}: undisturbed solve flagged as interrupted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancelling at an arbitrary checkpoint returns a typed
    /// [`ClusterError::Cancelled`] with a phase-stamped report (or
    /// completes untouched when the trip point lies past the last poll),
    /// and never poisons the session: the re-issued request is
    /// bit-identical to the undisturbed baseline.
    #[test]
    fn cancellation_at_any_checkpoint_never_poisons_the_session(
        engine_idx in 0usize..2,
        acp in any::<bool>(),
        checks in 1u64..400,
        seed in 1u64..1000,
    ) {
        let g = three_communities();
        let engine = ENGINES[engine_idx];
        let rq = request(acp, 3);

        let mut session = UgraphSession::new(&g, config(engine, seed)).unwrap();
        let baseline = session.solve(rq.clone()).unwrap();

        let cancelled =
            session.solve(rq.clone().with_cancel_token(CancelToken::after_checks(checks)));
        match cancelled {
            Err(ClusterError::Cancelled(report)) => {
                prop_assert!(
                    report.guesses_completed <= baseline.guesses,
                    "interrupted run reported more guesses than the full schedule"
                );
            }
            Ok(ref r) => assert_identical(r, &baseline, "untripped token"),
            Err(ref other) => prop_assert!(false, "expected Cancelled, got {other}"),
        }

        let again = session.solve(rq).unwrap();
        assert_identical(&again, &baseline, "re-issue after cancellation");
        // `requests` counts issued solves, successful or not; an
        // interrupted solve must still be accounted for exactly once.
        prop_assert_eq!(session.stats().requests, 3);
    }

    /// Failing shard generation, pool growth, or row-cache admission at
    /// an arbitrary hit yields a typed
    /// [`SamplingError::FaultInjected`] (never a panic, never a
    /// best-effort result), and once the plan is disarmed the same
    /// session recovers bit-identically to a never-faulted control.
    #[test]
    fn injected_faults_are_typed_and_recoverable(
        engine_idx in 0usize..2,
        acp in any::<bool>(),
        site_idx in 0usize..2,
        hit in 1u64..40,
        seed in 1u64..1000,
    ) {
        let g = three_communities();
        let engine = ENGINES[engine_idx];
        let site = [FaultSite::PoolGrow, FaultSite::BudgetAdmission][site_idx];
        let rq = request(acp, 3);

        let mut control = UgraphSession::new(&g, config(engine, seed)).unwrap();
        let baseline = control.solve(rq.clone()).unwrap();

        let mut session = UgraphSession::new(&g,
            config(engine, seed).with_degrade(DegradeMode::BestEffort)).unwrap();
        let guard = faults::install(FaultPlan::new().fail_at(site, hit));
        let faulted = session.solve(rq.clone());
        drop(guard);
        match faulted {
            Err(ClusterError::Sampling(SamplingError::FaultInjected { site: s, hit: h })) => {
                prop_assert_eq!(s, site);
                prop_assert_eq!(h, hit);
            }
            // The plan's trip point lay past the site's last hit.
            Ok(ref r) => assert_identical(r, &baseline, "untripped failpoint"),
            Err(other) => prop_assert!(false, "expected FaultInjected, got {other}"),
        }

        let recovered = session.solve(rq).unwrap();
        assert_identical(&recovered, &baseline, "re-issue after injected fault");
    }
}

/// A deadline that has already passed interrupts the very first
/// checkpoint with a typed report, at the config level and the request
/// level alike; dropping the deadline heals the session in place.
#[test]
fn expired_deadline_interrupts_and_session_heals() {
    let g = three_communities();
    for engine in ENGINES {
        let mut control = UgraphSession::new(&g, config(engine, 7)).unwrap();
        let baseline = control.solve(ClusterRequest::mcp(3)).unwrap();

        // Request-level deadline.
        let mut session = UgraphSession::new(&g, config(engine, 7)).unwrap();
        let err = session
            .solve(ClusterRequest::mcp(3).with_deadline(Duration::ZERO))
            .expect_err("zero deadline must interrupt");
        let report = err.interrupt_report().expect("interruption must carry a report");
        assert!(matches!(err, ClusterError::DeadlineExceeded(_)), "got {err}");
        assert_eq!(report.guesses_completed, 0, "nothing can complete under a zero deadline");
        let healed = session.solve(ClusterRequest::mcp(3)).unwrap();
        assert_identical(&healed, &baseline, "re-issue after request deadline");

        // Config-level deadline: every solve inherits it.
        let mut strict =
            UgraphSession::new(&g, config(engine, 7).with_timeout(Duration::ZERO)).unwrap();
        for _ in 0..2 {
            let err = strict.solve(ClusterRequest::mcp(3)).expect_err("config deadline");
            assert!(matches!(err, ClusterError::DeadlineExceeded(_)), "got {err}");
        }
        // `requests` counts issued solves whether or not they complete.
        assert_eq!(strict.stats().requests, 2);
        assert!(
            strict.stats().per_request.is_empty(),
            "failed solves must not leave per-request records"
        );
    }
}

/// An already-cancelled config-level token fails every solve with
/// [`ClusterError::Cancelled`]; the identical session without the token
/// is untouched.
#[test]
fn cancelled_config_token_fails_every_solve() {
    let g = three_communities();
    let token = CancelToken::new();
    token.cancel();
    let mut session =
        UgraphSession::new(&g, config(EngineKind::Adaptive, 7).with_cancel_token(token)).unwrap();
    for _ in 0..2 {
        let err = session.solve(ClusterRequest::acp(3)).expect_err("cancelled token");
        assert!(matches!(err, ClusterError::Cancelled(_)), "got {err}");
    }
}

/// Under [`DegradeMode::BestEffort`], sweeping the cancellation trip
/// point across the whole poll range partitions the outcomes into three
/// regimes — typed errors early (no full clustering in hand), flagged
/// partial results mid-schedule, clean completions past the last poll —
/// and every partial result is a *full* clustering with a progress
/// report, on a session that stays bit-identical afterwards.
#[test]
fn best_effort_returns_flagged_partial_results() {
    let g = three_communities();
    for engine in ENGINES {
        let cfg = config(engine, 11).with_degrade(DegradeMode::BestEffort);
        let mut control = UgraphSession::new(&g, config(engine, 11)).unwrap();
        let baseline = control.solve(ClusterRequest::mcp(3)).unwrap();

        let (mut errors, mut partials, mut clean) = (0u32, 0u32, 0u32);
        for checks in 1u64.. {
            let mut session = UgraphSession::new(&g, cfg.clone()).unwrap();
            let rq = ClusterRequest::mcp(3).with_cancel_token(CancelToken::after_checks(checks));
            match session.solve(rq) {
                Err(e) => {
                    assert!(matches!(e, ClusterError::Cancelled(_)), "got {e}");
                    errors += 1;
                }
                Ok(r) => match r.interrupt {
                    Some(report) => {
                        assert!(
                            r.clustering.is_full(),
                            "a best-effort result must already be a full clustering"
                        );
                        assert!(
                            report.guesses_completed > 0,
                            "a full clustering in hand means at least one completed guess"
                        );
                        // The session survives a degraded solve untouched.
                        let again = session.solve(ClusterRequest::mcp(3)).unwrap();
                        assert_identical(&again, &baseline, "re-issue after best-effort");
                        partials += 1;
                    }
                    None => {
                        assert_identical(&r, &baseline, "token past the last poll");
                        clean += 1;
                        break; // later trip points can only repeat this outcome
                    }
                },
            }
            assert!(checks < 10_000, "cancellation token was never outrun");
        }
        assert!(errors > 0, "{engine:?}: no trip point hit the pre-clustering phase");
        assert!(partials > 0, "{engine:?}: no trip point produced a best-effort result");
        assert_eq!(clean, 1);
    }
}

/// Injected faults never degrade to a best-effort result — a fault is a
/// bug-shaped condition, not progress worth returning.
#[test]
fn faults_never_degrade_to_partial_results() {
    let g = three_communities();
    let cfg = config(EngineKind::Adaptive, 13).with_degrade(DegradeMode::BestEffort);
    let mut session = UgraphSession::new(&g, cfg).unwrap();
    let _guard = faults::install(FaultPlan::new().fail_always(FaultSite::PoolGrow));
    let err = session.solve(ClusterRequest::mcp(3)).expect_err("pool growth always fails");
    assert!(
        matches!(
            err,
            ClusterError::Sampling(SamplingError::FaultInjected { site: FaultSite::PoolGrow, .. })
        ),
        "got {err}"
    );
    assert!(err.interrupt_report().is_none(), "faults must not carry interrupt reports");
}

/// A ring with chords, large enough that two world-shards overflow the
/// tight budget used below and the pools must evict and regenerate
/// mid-solve.
fn ring_with_chords(n: u32) -> UncertainGraph {
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, 0.9).unwrap();
        b.add_edge(u, (u + 7) % n, 0.3).unwrap();
    }
    b.build().unwrap()
}

/// Failing the first shard regeneration under a budget tight enough to
/// force eviction mid-solve returns a typed error with every reserved
/// byte rolled back (the ledger never exceeds the budget), and the
/// recovered session is bit-identical to a never-faulted control.
#[test]
fn shard_regen_fault_keeps_ledger_within_budget_and_recovers() {
    let g = ring_with_chords(200);
    const BUDGET: usize = 256 << 10;
    let cfg = ClusterConfig::default()
        .with_seed(7)
        .with_threads(1)
        .with_schedule(SampleSchedule::Fixed(1100))
        .with_memory_budget(BUDGET);

    let mut control = UgraphSession::new(&g, cfg.clone()).unwrap();
    let baseline = control.solve(ClusterRequest::mcp(4)).unwrap();
    assert!(
        control.stats().shards_regenerated > 0,
        "budget must force regeneration mid-solve for this test to bite"
    );

    let mut session = UgraphSession::new(&g, cfg).unwrap();
    let guard = faults::install(FaultPlan::new().fail_at(FaultSite::ShardRegen, 1));
    let err = session.solve(ClusterRequest::mcp(4)).expect_err("first regeneration must fail");
    assert!(faults::hits(FaultSite::ShardRegen) >= 1, "failpoint never fired");
    drop(guard);
    assert!(
        matches!(
            err,
            ClusterError::Sampling(SamplingError::FaultInjected {
                site: FaultSite::ShardRegen,
                hit: 1
            })
        ),
        "got {err}"
    );
    assert!(
        session.stats().bytes_held <= BUDGET,
        "failed regeneration leaked charges: {} bytes over the {BUDGET}-byte budget",
        session.stats().bytes_held
    );

    let recovered = session.solve(ClusterRequest::mcp(4)).unwrap();
    assert_identical(&recovered, &baseline, "re-issue after regeneration fault");
    assert!(session.stats().bytes_held <= BUDGET);
}

/// With a budget generous enough that nothing is ever evicted, the byte
/// ledger is a deterministic function of the worlds sampled and the rows
/// admitted — so a session that faulted on a row admission and then
/// recovered must hold *exactly* the bytes of a never-faulted control.
/// Any difference is a leaked (or double-rolled-back) charge.
#[test]
fn admission_fault_balances_the_ledger_exactly() {
    let g = three_communities();
    let cfg = config(EngineKind::Adaptive, 7).with_memory_budget(1 << 30);

    let mut control = UgraphSession::new(&g, cfg.clone()).unwrap();
    let baseline = control.solve(ClusterRequest::mcp(3)).unwrap();

    let mut session = UgraphSession::new(&g, cfg).unwrap();
    let guard = faults::install(FaultPlan::new().fail_at(FaultSite::BudgetAdmission, 1));
    let err = session.solve(ClusterRequest::mcp(3)).expect_err("first admission must fail");
    drop(guard);
    assert!(
        matches!(err, ClusterError::Sampling(SamplingError::FaultInjected { .. })),
        "got {err}"
    );

    let recovered = session.solve(ClusterRequest::mcp(3)).unwrap();
    assert_identical(&recovered, &baseline, "re-issue after admission fault");
    assert_eq!(
        session.stats().bytes_held,
        control.stats().bytes_held,
        "ledger of the recovered session diverged from the never-faulted control"
    );
}

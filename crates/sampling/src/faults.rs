//! Deterministic fault injection for recovery testing.
//!
//! Real deployments lose shard regenerations to OOM kills, pool growth to
//! allocation failure, dataset reads to IO errors, and cache admissions
//! to budget pressure. This module plants **failpoints** at those sites
//! so tests can fail each one at a chosen point and assert the no-poison
//! invariant: the operation returns a typed
//! [`SamplingError::FaultInjected`], every ledger charge is rolled back,
//! and the session remains usable — re-issuing the failed request
//! completes bit-identically to an undisturbed run.
//!
//! A [`FaultPlan`] names which hit numbers of which [`FaultSite`]s fail;
//! [`install`] arms it **for the current thread only** (hooks fire on the
//! thread driving the solve, never inside rayon workers, so plans cannot
//! leak across tests running in parallel). The [`FaultGuard`] returned by
//! `install` disarms the plan when dropped.
//!
//! The hooks always compile in; with no plan armed, a hook checks one
//! thread-local and returns `Ok(())`.

use std::cell::RefCell;
use std::fmt;

use crate::error::SamplingError;

/// A failpoint site of the sampling stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Regenerating an evicted shard from its RNG streams.
    ShardRegen,
    /// Growing a pool by one shard of fresh samples (`ensure`).
    PoolGrow,
    /// Reading or generating a dataset (exercised by the CLI layer).
    DatasetIo,
    /// Admitting a row into a budget-governed row cache.
    BudgetAdmission,
    /// Writing a protocol frame to a network socket (exercised by the
    /// server layer for torn-write simulation).
    WireWrite,
    /// Reading a protocol frame from a network socket (exercised by the
    /// server layer for dropped-read simulation, symmetric to
    /// [`FaultSite::WireWrite`]).
    WireRead,
    /// Dialing a TCP connection (exercised by the client pool for
    /// connect-refusal simulation).
    Connect,
    /// A mid-frame stall on the wire: the writer emits half a frame,
    /// pauses longer than a peer's IO deadline, then finishes — the slow
    /// peer the server's stall hardening must survive.
    WireStall,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::ShardRegen => write!(f, "shard regeneration"),
            FaultSite::PoolGrow => write!(f, "pool growth"),
            FaultSite::DatasetIo => write!(f, "dataset IO"),
            FaultSite::BudgetAdmission => write!(f, "budget admission"),
            FaultSite::WireWrite => write!(f, "wire write"),
            FaultSite::WireRead => write!(f, "wire read"),
            FaultSite::Connect => write!(f, "connection dial"),
            FaultSite::WireStall => write!(f, "mid-frame wire stall"),
        }
    }
}

const NUM_SITES: usize = 8;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::ShardRegen => 0,
            FaultSite::PoolGrow => 1,
            FaultSite::DatasetIo => 2,
            FaultSite::BudgetAdmission => 3,
            FaultSite::WireWrite => 4,
            FaultSite::WireRead => 5,
            FaultSite::Connect => 6,
            FaultSite::WireStall => 7,
        }
    }
}

/// Which hits of which sites fail — a deterministic schedule, seeded
/// per-site by hit number rather than by wall clock, so a failing run is
/// exactly reproducible.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per site: 1-based hit numbers that fail (empty = never fails).
    fail_hits: [Vec<u64>; NUM_SITES],
}

impl FaultPlan {
    /// A plan with no scheduled failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the `hit`-th (1-based) execution of `site` to fail.
    pub fn fail_at(mut self, site: FaultSite, hit: u64) -> Self {
        self.fail_hits[site.index()].push(hit);
        self
    }

    /// Schedules every execution of `site` to fail.
    pub fn fail_always(mut self, site: FaultSite) -> Self {
        self.fail_hits[site.index()].push(0); // 0 = wildcard
        self
    }

    fn fails(&self, site: FaultSite, hit: u64) -> bool {
        self.fail_hits[site.index()].iter().any(|&h| h == 0 || h == hit)
    }
}

/// The current thread's armed plan and its per-site hit counters.
struct Active {
    plan: FaultPlan,
    hits: [u64; NUM_SITES],
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Disarms the thread's fault plan when dropped (returned by [`install`]).
#[derive(Debug)]
#[must_use = "dropping the guard disarms the plan immediately"]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Arms `plan` for the current thread, replacing any previous plan and
/// resetting all hit counters. Disarm by dropping the returned guard (or
/// calling [`clear`]).
pub fn install(plan: FaultPlan) -> FaultGuard {
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Active { plan, hits: [0; NUM_SITES] });
    });
    FaultGuard(())
}

/// Disarms the current thread's fault plan, if any.
pub fn clear() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
}

/// Number of times `site` has been hit under the current plan (0 when no
/// plan is armed) — lets tests assert a failpoint was actually reached.
pub fn hits(site: FaultSite) -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |act| act.hits[site.index()]))
}

/// The failpoint hook: counts one hit of `site` against the current
/// thread's plan and fails if this hit is scheduled to. Without an armed
/// plan this is a no-op returning `Ok(())`.
#[inline]
pub fn hit(site: FaultSite) -> Result<(), SamplingError> {
    ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        let Some(act) = active.as_mut() else { return Ok(()) };
        act.hits[site.index()] += 1;
        let hit = act.hits[site.index()];
        if act.plan.fails(site, hit) {
            Err(SamplingError::FaultInjected { site, hit })
        } else {
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hits_pass() {
        clear();
        assert_eq!(hit(FaultSite::ShardRegen), Ok(()));
        assert_eq!(hits(FaultSite::ShardRegen), 0);
    }

    #[test]
    fn plan_fails_the_scheduled_hit_only() {
        let _guard = install(FaultPlan::new().fail_at(FaultSite::PoolGrow, 2));
        assert_eq!(hit(FaultSite::PoolGrow), Ok(()));
        assert_eq!(
            hit(FaultSite::PoolGrow),
            Err(SamplingError::FaultInjected { site: FaultSite::PoolGrow, hit: 2 })
        );
        assert_eq!(hit(FaultSite::PoolGrow), Ok(()));
        // Other sites are untouched.
        assert_eq!(hit(FaultSite::DatasetIo), Ok(()));
        assert_eq!(hits(FaultSite::PoolGrow), 3);
    }

    #[test]
    fn fail_always_is_a_wildcard_and_guard_disarms() {
        {
            let _guard = install(FaultPlan::new().fail_always(FaultSite::ShardRegen));
            assert!(hit(FaultSite::ShardRegen).is_err());
            assert!(hit(FaultSite::ShardRegen).is_err());
        }
        assert_eq!(hit(FaultSite::ShardRegen), Ok(()));
    }

    #[test]
    fn reinstall_resets_counters() {
        let _guard = install(FaultPlan::new().fail_at(FaultSite::BudgetAdmission, 1));
        assert!(hit(FaultSite::BudgetAdmission).is_err());
        let _guard2 = install(FaultPlan::new().fail_at(FaultSite::BudgetAdmission, 2));
        assert_eq!(hit(FaultSite::BudgetAdmission), Ok(()));
        assert!(hit(FaultSite::BudgetAdmission).is_err());
    }
}

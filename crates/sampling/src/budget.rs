//! Global memory budgets for sample storage.
//!
//! Pools store their samples in fixed-size **shards**
//! ([`crate::SHARD_WORLDS`] worlds each). Every shard's bytes are charged
//! against a shared [`MemoryBudget`] handle when the shard is materialized
//! and released when it is evicted; when the ledger exceeds the configured
//! limit, the pool evicts its least-recently-used shards until the ledger
//! fits again. Because world `i` is always drawn from
//! per-index RNG stream `i` (see [`crate::rng`]), an evicted shard is a
//! pure function of `(graph, seed, shard index)` — eviction is cache
//! management over deterministic regeneration, and every estimate stays
//! **bit-identical** to the unbounded run.
//!
//! One budget is shared by every pool and row cache of a session: the
//! handle is cheaply cloneable, and each of them charges the one ledger,
//! so any of them can put it over its limit. Eviction is per pool: the
//! pool whose growth or query finds the ledger over its limit evicts its
//! own least-recently-used shards, in the order of the stamps the shared
//! recency clock handed out, and leaves other pools' shards resident.
//!
//! The shards themselves, their charges and the eviction policy live in
//! [`crate::BitParallelPool`]; this module keeps only the ledger and its
//! [`MemoryStats`] snapshots.

use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct BudgetInner {
    /// Byte ceiling; `None` = unbounded (ledger only).
    limit: Option<usize>,
    /// Bytes currently charged by live shards and cached rows.
    held: usize,
    /// Monotone recency clock handed out by [`MemoryBudget::touch`].
    clock: u64,
    /// Shards evicted across all pools sharing this budget.
    evicted: u64,
    /// Shards regenerated across all pools sharing this budget.
    regenerated: u64,
}

/// Shared charge/release ledger with a byte limit and a recency clock —
/// the coordination point of shard eviction (see the module docs).
///
/// Cloning shares the underlying ledger; [`MemoryBudget::default`] is
/// unbounded (accounting without eviction pressure).
///
/// A budget can be a **subledger** of a parent budget
/// ([`MemoryBudget::subledger`]): every charge and release is applied to
/// the subledger *and* to the parent, and eviction pressure
/// ([`MemoryBudget::over_budget`] / [`MemoryBudget::would_exceed`])
/// observes both limits. A server hands each session a subledger of one
/// global budget: the session's own accounting stays intact (its stats
/// report only its bytes), while the global ledger sees the total across
/// all sessions and pool-level shard eviction reacts to global pressure
/// exactly as it does to a per-session limit.
#[derive(Clone, Debug, Default)]
pub struct MemoryBudget {
    inner: Arc<Mutex<BudgetInner>>,
    /// Parent ledger charges/releases are mirrored into (`None` for a
    /// root budget). Lock order is strictly child → parent, so the chain
    /// can never deadlock.
    parent: Option<Box<MemoryBudget>>,
}

impl MemoryBudget {
    /// The ledger lock. A panic while holding it can only poison
    /// accounting metadata, never sample data, so recovering the guard
    /// from a poisoned lock is always safe.
    fn locked(&self) -> std::sync::MutexGuard<'_, BudgetInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An unbounded budget: bytes are tracked, nothing is ever evicted.
    pub fn unbounded() -> Self {
        MemoryBudget::default()
    }

    /// A budget capped at `bytes`. Pools sharing the handle evict
    /// least-recently-used shards whenever the ledger exceeds it.
    pub fn bounded(bytes: usize) -> Self {
        let budget = MemoryBudget::default();
        budget.locked().limit = Some(bytes);
        budget
    }

    /// A child ledger of `self` with its own accounting and recency clock
    /// and an optional limit of its own (`None` = only the ancestors'
    /// limits apply). Charges and releases against the child are mirrored
    /// into `self` (and transitively into *its* parents), and the child
    /// reports pressure whenever its own limit **or any ancestor's** is
    /// exceeded — so pools driven by the child evict under global
    /// pressure exactly as they do under local pressure.
    pub fn subledger(&self, limit: Option<usize>) -> MemoryBudget {
        let child = MemoryBudget::default();
        child.locked().limit = limit;
        MemoryBudget { inner: child.inner, parent: Some(Box::new(self.clone())) }
    }

    /// The byte ceiling (`None` = unbounded).
    pub fn limit(&self) -> Option<usize> {
        self.locked().limit
    }

    /// Bytes currently charged against this budget.
    pub fn bytes_held(&self) -> usize {
        self.locked().held
    }

    /// Charges `bytes` to the ledger (never blocks or fails — eviction is
    /// the *pools'* reaction to an over-full ledger, via
    /// [`MemoryBudget::over_budget`]).
    pub fn charge(&self, bytes: usize) {
        self.locked().held += bytes;
        if let Some(parent) = &self.parent {
            parent.charge(bytes);
        }
    }

    /// Releases `bytes` from the ledger (saturating). Only the bytes
    /// actually subtracted here are mirrored into the parent, so an
    /// over-release on a child can never drain sibling charges from the
    /// shared ancestor ledger.
    pub fn release(&self, bytes: usize) {
        let released = {
            let mut inner = self.locked();
            let released = inner.held.min(bytes);
            inner.held -= released;
            released
        };
        if let Some(parent) = &self.parent {
            parent.release(released);
        }
    }

    /// Whether this ledger — or any ancestor it mirrors into — currently
    /// exceeds its limit.
    pub fn over_budget(&self) -> bool {
        let over_own = {
            let inner = self.locked();
            inner.limit.is_some_and(|l| inner.held > l)
        };
        over_own || self.parent.as_ref().is_some_and(|p| p.over_budget())
    }

    /// Whether charging `bytes` more would push this ledger — or any
    /// ancestor — over its limit; the admission test of the grow-only row
    /// caches, which cannot be evicted and therefore must never be
    /// admitted past a ceiling.
    pub fn would_exceed(&self, bytes: usize) -> bool {
        let exceeds_own = {
            let inner = self.locked();
            inner.limit.is_some_and(|l| inner.held.saturating_add(bytes) > l)
        };
        exceeds_own || self.parent.as_ref().is_some_and(|p| p.would_exceed(bytes))
    }

    /// Advances and returns the recency clock; pools stamp a shard with
    /// the returned tick on every touch. A pool that trims evicts its own
    /// shards in stamp order, least recently used first.
    pub fn touch(&self) -> u64 {
        let mut inner = self.locked();
        inner.clock += 1;
        inner.clock
    }

    /// Records one shard eviction (for [`MemoryBudget::stats`]).
    pub fn note_eviction(&self) {
        self.locked().evicted += 1;
        if let Some(parent) = &self.parent {
            parent.note_eviction();
        }
    }

    /// Records one shard regeneration (for [`MemoryBudget::stats`]).
    pub fn note_regeneration(&self) {
        self.locked().regenerated += 1;
        if let Some(parent) = &self.parent {
            parent.note_regeneration();
        }
    }

    /// Snapshot of the ledger and the global eviction/regeneration
    /// counters.
    pub fn stats(&self) -> MemoryStats {
        let inner = self.locked();
        MemoryStats {
            bytes_held: inner.held,
            bytes_limit: inner.limit,
            shards_evicted: inner.evicted,
            shards_regenerated: inner.regenerated,
        }
    }
}

/// Memory accounting snapshot — reported uniformly by every pool backend
/// (via [`crate::WorldEngine::memory_stats`]) and by the shared budget
/// ([`MemoryBudget::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes currently held (resident shards, plus cached rows when
    /// reported by the budget).
    pub bytes_held: usize,
    /// Byte ceiling in force (`None` = unbounded).
    pub bytes_limit: Option<usize>,
    /// Shards evicted so far (cumulative).
    pub shards_evicted: u64,
    /// Shards regenerated from their RNG streams so far (cumulative).
    pub shards_regenerated: u64,
}

impl MemoryStats {
    /// Counters accumulated since `earlier` (a prior snapshot of the same
    /// source). `bytes_held`/`bytes_limit` are gauges, not counters — the
    /// later snapshot's values are kept as-is.
    pub fn since(&self, earlier: &MemoryStats) -> MemoryStats {
        MemoryStats {
            bytes_held: self.bytes_held,
            bytes_limit: self.bytes_limit,
            shards_evicted: self.shards_evicted.saturating_sub(earlier.shards_evicted),
            shards_regenerated: self.shards_regenerated.saturating_sub(earlier.shards_regenerated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_charge_and_release() {
        let b = MemoryBudget::bounded(100);
        assert_eq!(b.limit(), Some(100));
        assert!(!b.over_budget());
        b.charge(60);
        assert_eq!(b.bytes_held(), 60);
        assert!(!b.over_budget());
        assert!(b.would_exceed(41));
        assert!(!b.would_exceed(40));
        b.charge(60);
        assert!(b.over_budget());
        b.release(80);
        assert_eq!(b.bytes_held(), 40);
        assert!(!b.over_budget());
        b.release(1000); // saturates
        assert_eq!(b.bytes_held(), 0);
    }

    #[test]
    fn unbounded_budget_never_pressures() {
        let b = MemoryBudget::unbounded();
        b.charge(usize::MAX / 2);
        assert!(!b.over_budget());
        assert!(!b.would_exceed(usize::MAX / 2));
        assert_eq!(b.limit(), None);
    }

    #[test]
    fn clones_share_the_ledger_and_clock() {
        let a = MemoryBudget::bounded(10);
        let b = a.clone();
        a.charge(8);
        assert_eq!(b.bytes_held(), 8);
        let t1 = a.touch();
        let t2 = b.touch();
        assert!(t2 > t1, "clock must be monotone across clones");
        b.note_eviction();
        a.note_regeneration();
        let s = a.stats();
        assert_eq!((s.shards_evicted, s.shards_regenerated), (1, 1));
    }

    #[test]
    fn subledger_mirrors_charges_into_parent() {
        let global = MemoryBudget::bounded(100);
        let a = global.subledger(None);
        let b = global.subledger(None);
        a.charge(30);
        b.charge(50);
        assert_eq!(a.bytes_held(), 30);
        assert_eq!(b.bytes_held(), 50);
        assert_eq!(global.bytes_held(), 80);
        a.release(10);
        assert_eq!(a.bytes_held(), 20);
        assert_eq!(global.bytes_held(), 70);
        // An over-release on the child saturates locally and only the
        // actually-released bytes reach the parent: b's charges survive.
        a.release(1000);
        assert_eq!(a.bytes_held(), 0);
        assert_eq!(global.bytes_held(), 50);
    }

    #[test]
    fn subledger_reports_parent_pressure() {
        let global = MemoryBudget::bounded(100);
        let a = global.subledger(None);
        let b = global.subledger(Some(40));
        // Child limit trips on its own.
        b.charge(41);
        assert!(b.over_budget());
        assert!(!a.over_budget());
        b.release(41);
        // Parent limit trips through the child view.
        a.charge(90);
        assert!(!a.over_budget(), "own ledger is unbounded");
        assert!(b.would_exceed(20), "parent would exceed 100");
        assert!(!b.would_exceed(5));
        b.charge(20);
        assert!(b.over_budget(), "global ledger at 110 > 100");
        assert!(a.over_budget(), "sibling sees the same global pressure");
    }

    #[test]
    fn subledger_propagates_eviction_counters() {
        let global = MemoryBudget::unbounded();
        let child = global.subledger(Some(10));
        child.note_eviction();
        child.note_regeneration();
        child.note_regeneration();
        let local = child.stats();
        assert_eq!((local.shards_evicted, local.shards_regenerated), (1, 2));
        let total = global.stats();
        assert_eq!((total.shards_evicted, total.shards_regenerated), (1, 2));
        // Clocks stay per-ledger: touching the child leaves the parent's alone.
        let t_child = child.touch();
        let t_global = global.touch();
        assert_eq!(t_child, 1);
        assert_eq!(t_global, 1);
    }

    #[test]
    fn stats_since_diffs_counters_and_keeps_gauges() {
        let b = MemoryBudget::bounded(10);
        b.charge(4);
        b.note_eviction();
        let before = b.stats();
        b.note_eviction();
        b.note_regeneration();
        b.charge(2);
        let d = b.stats().since(&before);
        assert_eq!(d.bytes_held, 6);
        assert_eq!(d.bytes_limit, Some(10));
        assert_eq!((d.shards_evicted, d.shards_regenerated), (1, 1));
    }
}

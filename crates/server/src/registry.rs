//! The [`SessionRegistry`]: one session per graph, leased to workers,
//! under one global memory budget.
//!
//! The registry generalizes the per-session ledger of the solver stack to
//! a **server-wide** one: every session it spawns charges a
//! [`MemoryBudget::subledger`] of a single global budget, so
//!
//! * pool-level shard eviction inside any session reacts to *global*
//!   pressure exactly as it does to a per-session limit, and
//! * the registry itself evicts **whole idle sessions** (LRU by lease
//!   time) when the global ledger runs hot — freeing their row caches and
//!   labels too, which shard eviction alone cannot.
//!
//! Eviction is safe because a session is a pure function of
//! `(graph, config, seed)`: a respawned session answers every request
//! **bit-identically** to the evicted one (per-index RNG streams). Graphs
//! themselves stay resident in the catalog — only solver state is evicted.
//!
//! Leases ([`SessionRegistry::acquire`]) carry an in-flight guard:
//! sessions with live leases are never evicted, so the LRU policy always
//! takes an idle victim, never the session a worker is solving on.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ugraph_cluster::{ClusterConfig, ClusterError, ClusterRequest, SessionHandle, SolveResult};
use ugraph_graph::UncertainGraph;
use ugraph_sampling::{BlockWidth, EngineKind, MemoryBudget, MemoryStats};

use crate::protocol::{ClusterCall, SessionEntry};

/// Registry construction parameters.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Base solver configuration for every session (seed, schedule,
    /// thresholds, cancellation token, …). `memory_budget` is ignored in
    /// favor of the ledger plumbing below.
    pub base: ClusterConfig,
    /// Global byte ceiling across **all** sessions (`None` = unbounded).
    pub global_budget: Option<usize>,
    /// Optional additional per-session ceiling (`None` = sessions bound
    /// only by the global ledger).
    pub session_budget: Option<usize>,
}

/// Why the registry refused to lease a session.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// The named graph is not in the catalog.
    UnknownGraph(String),
    /// The global ledger is over its limit even with every idle session
    /// evicted — all remaining footprint belongs to active sessions, so
    /// admitting more work would only deepen the overload.
    AdmissionRejected {
        /// Bytes currently held globally.
        held: usize,
        /// The global limit.
        limit: usize,
    },
    /// Spawning or configuring the session failed.
    Session(ClusterError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            RegistryError::AdmissionRejected { held, limit } => write!(
                f,
                "admission rejected: {held} bytes held by active sessions exceed the global \
                 budget of {limit} bytes"
            ),
            RegistryError::Session(e) => write!(f, "session failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One live session plus its bookkeeping.
struct Entry {
    handle: Arc<SessionHandle>,
    /// Live leases (queued or executing requests). Guarded sessions are
    /// never evicted.
    in_flight: Arc<AtomicUsize>,
    /// Lease-time tick of the registry clock — the LRU order.
    last_used: u64,
    /// Wall-clock moment of the last lease or release — the age
    /// [`SessionRegistry::evict_idle_for`] measures against.
    last_activity: Instant,
    /// This session's own subledger (its footprint, excluding siblings).
    ledger: MemoryBudget,
    /// Last `kv_line` snapshot, refreshed whenever the session is
    /// observed idle — served for busy sessions so a stats request never
    /// queues behind a long solve.
    last_kv: String,
}

struct Inner {
    /// Sessions by graph name, insertion-ordered so stats listings are
    /// deterministic.
    sessions: Vec<(String, Entry)>,
    clock: u64,
}

/// The session registry — see the [module docs](self).
pub struct SessionRegistry {
    catalog: HashMap<String, Arc<UncertainGraph>>,
    /// Catalog names in registration order (deterministic listings).
    names: Vec<String>,
    inner: Mutex<Inner>,
    global: MemoryBudget,
    config: RegistryConfig,
    evicted: AtomicU64,
}

/// A leased session: solve through it, drop it to release. While any
/// lease on a session is alive the registry will not evict it.
#[must_use = "dropping the lease releases the session"]
pub struct Lease<'r> {
    registry: &'r SessionRegistry,
    handle: Arc<SessionHandle>,
    guard: Arc<AtomicUsize>,
    graph: String,
}

impl fmt::Debug for Lease<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lease")
            .field("in_flight", &self.guard.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Lease<'_> {
    /// Solves on the leased session ([`SessionHandle::solve`]).
    ///
    /// # Errors
    /// The [`SessionHandle::solve`] contract.
    pub fn solve(&self, request: ClusterRequest) -> Result<SolveResult, ClusterError> {
        self.handle.solve(request)
    }

    /// The leased handle.
    pub fn handle(&self) -> &Arc<SessionHandle> {
        &self.handle
    }

    /// The graph whose session this lease holds.
    pub fn key(&self) -> &str {
        &self.graph
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.guard.fetch_sub(1, Ordering::SeqCst);
        // Idle age counts from release, not lease: a long solve must not
        // look stale the moment it finishes.
        {
            let mut inner = self.registry.locked();
            if let Some((_, entry)) = inner.sessions.iter_mut().find(|(g, _)| *g == self.graph) {
                entry.last_activity = Instant::now();
            }
        }
        // At-rest trim: respect the full ceiling once this request is
        // done (the acquire path trims more aggressively, to half).
        if let Some(limit) = self.registry.config.global_budget {
            self.registry.evict_idle_above(limit);
        }
    }
}

impl SessionRegistry {
    /// Builds a registry over a fixed catalog of graphs. Graph memory is
    /// not governed by the budget — only solver state (pools, caches,
    /// labels) is, exactly as in the per-session ledger design.
    pub fn new(
        graphs: Vec<(String, Arc<UncertainGraph>)>,
        config: RegistryConfig,
    ) -> SessionRegistry {
        let global =
            config.global_budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bounded);
        let names = graphs.iter().map(|(n, _)| n.clone()).collect();
        SessionRegistry {
            catalog: graphs.into_iter().collect(),
            names,
            inner: Mutex::new(Inner { sessions: Vec::new(), clock: 0 }),
            global,
            config,
            evicted: AtomicU64::new(0),
        }
    }

    /// Registered graph names, in registration order.
    pub fn graph_names(&self) -> &[String] {
        &self.names
    }

    /// The global ledger's snapshot (bytes held across all sessions plus
    /// propagated eviction/regeneration counters).
    pub fn global_stats(&self) -> MemoryStats {
        self.global.stats()
    }

    /// Whole sessions evicted so far.
    pub fn sessions_evicted(&self) -> u64 {
        self.evicted.load(Ordering::SeqCst)
    }

    /// The registry lock (poison-safe: the lock only guards bookkeeping).
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Leases the session for `call`, spawning it on first use. Before a
    /// spawn or reuse, idle sessions are evicted (LRU first) until the
    /// global ledger holds at most **half** its limit — headroom for the
    /// incoming request, so a hot request set does not thrash against
    /// cold sessions' resident shards.
    ///
    /// # Errors
    /// [`RegistryError::UnknownGraph`] for a graph outside the catalog;
    /// [`RegistryError::AdmissionRejected`] when the ledger is over
    /// budget with no idle session left to evict;
    /// [`RegistryError::Session`] when the session cannot be spawned.
    pub fn acquire(&self, call: &ClusterCall) -> Result<Lease<'_>, RegistryError> {
        let key = call.graph.clone();
        let graph =
            self.catalog.get(&key).ok_or_else(|| RegistryError::UnknownGraph(key.clone()))?;

        let mut inner = self.locked();
        inner.clock += 1;
        let tick = inner.clock;
        if let Some((_, entry)) = inner.sessions.iter_mut().find(|(k, _)| *k == key) {
            entry.last_used = tick;
            entry.last_activity = Instant::now();
            entry.in_flight.fetch_add(1, Ordering::SeqCst);
            let lease = Lease {
                registry: self,
                handle: Arc::clone(&entry.handle),
                guard: Arc::clone(&entry.in_flight),
                graph: key,
            };
            drop(inner);
            self.make_headroom()?;
            return Ok(lease);
        }
        drop(inner);

        // Make room before spawning: the new session starts empty, but
        // its pools will want the budget's headroom immediately.
        self.make_headroom()?;

        let config = self.config.base.clone();
        let ledger = self.global.subledger(self.config.session_budget);
        let handle = SessionHandle::spawn_with_ledger(Arc::clone(graph), config, ledger.clone())
            .map_err(RegistryError::Session)?;
        let handle = Arc::new(handle);
        let in_flight = Arc::new(AtomicUsize::new(1));

        let mut inner = self.locked();
        // Another worker may have spawned the same key while we were
        // unlocked; keep the first one (ours is fresh and empty, cheap to
        // drop) so both workers serialize on a single session.
        if let Some((_, entry)) = inner.sessions.iter_mut().find(|(k, _)| *k == key) {
            entry.in_flight.fetch_add(1, Ordering::SeqCst);
            let lease = Lease {
                registry: self,
                handle: Arc::clone(&entry.handle),
                guard: Arc::clone(&entry.in_flight),
                graph: key,
            };
            return Ok(lease);
        }
        let lease = Lease {
            registry: self,
            handle: Arc::clone(&handle),
            guard: Arc::clone(&in_flight),
            graph: key.clone(),
        };
        let entry = Entry {
            handle,
            in_flight,
            last_used: tick,
            last_activity: Instant::now(),
            ledger,
            last_kv: String::new(),
        };
        inner.sessions.push((key, entry));
        Ok(lease)
    }

    /// Acquire-path trim: evict idle sessions (LRU first) until the
    /// global ledger holds at most half its limit, then check admission.
    fn make_headroom(&self) -> Result<(), RegistryError> {
        let Some(limit) = self.config.global_budget else { return Ok(()) };
        self.evict_idle_above(limit / 2);
        let held = self.global.bytes_held();
        if held > limit {
            return Err(RegistryError::AdmissionRejected { held, limit });
        }
        Ok(())
    }

    /// Evicts idle sessions, least-recently-leased first, until the
    /// global ledger holds at most `watermark` bytes or no idle session
    /// remains. Active sessions (live leases) are never touched.
    fn evict_idle_above(&self, watermark: usize) {
        loop {
            if self.global.bytes_held() <= watermark {
                return;
            }
            let victim = {
                let mut inner = self.locked();
                let victim_idx = inner
                    .sessions
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, e))| {
                        e.in_flight.load(Ordering::SeqCst) == 0 && e.ledger.bytes_held() > 0
                    })
                    .min_by_key(|(_, (_, e))| e.last_used)
                    .map(|(i, _)| i);
                match victim_idx {
                    Some(i) => inner.sessions.remove(i),
                    None => return,
                }
            };
            // Dropping outside the lock: the handle join (actor drain)
            // must not serialize unrelated registry traffic.
            drop(victim);
            self.evicted.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Evicts every session that has been idle (no live lease) for at
    /// least `age`, regardless of memory pressure — freeing its worker
    /// thread and resident state. Returns how many were evicted. The
    /// server's accept loop drives this for the `--idle-evict` flag.
    pub fn evict_idle_for(&self, age: Duration) -> usize {
        let victims: Vec<(String, Entry)> = {
            let mut inner = self.locked();
            let mut victims = Vec::new();
            let mut i = 0;
            while i < inner.sessions.len() {
                let (_, entry) = &inner.sessions[i];
                if entry.in_flight.load(Ordering::SeqCst) == 0
                    && entry.last_activity.elapsed() >= age
                {
                    victims.push(inner.sessions.remove(i));
                } else {
                    i += 1;
                }
            }
            victims
        };
        let n = victims.len();
        // Dropped outside the lock: actor joins must not block traffic.
        drop(victims);
        self.evicted.fetch_add(n as u64, Ordering::SeqCst);
        n
    }

    /// Per-session stats rows for the wire `stats` response, optionally
    /// filtered by graph name. Idle sessions are queried live (and the
    /// snapshot cached); busy sessions report their cached snapshot, so a
    /// stats request never queues behind a long-running solve.
    pub fn stats_entries(&self, graph_filter: Option<&str>) -> Vec<SessionEntry> {
        // Snapshot handles outside the lock: stats() can block briefly.
        let snapshot: Vec<(String, Arc<SessionHandle>, Arc<AtomicUsize>)> = {
            let inner = self.locked();
            inner
                .sessions
                .iter()
                .filter(|(k, _)| graph_filter.is_none_or(|g| k == g))
                .map(|(k, e)| (k.clone(), Arc::clone(&e.handle), Arc::clone(&e.in_flight)))
                .collect()
        };
        let mut entries = Vec::with_capacity(snapshot.len());
        for (key, handle, in_flight) in snapshot {
            let load = in_flight.load(Ordering::SeqCst);
            let kv = if load == 0 {
                match handle.stats() {
                    Ok(stats) => {
                        let kv = stats.kv_line();
                        let mut inner = self.locked();
                        if let Some((_, e)) = inner.sessions.iter_mut().find(|(k, _)| *k == key) {
                            e.last_kv.clone_from(&kv);
                        }
                        kv
                    }
                    Err(_) => String::new(),
                }
            } else {
                let inner = self.locked();
                inner
                    .sessions
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, e)| e.last_kv.clone())
                    .unwrap_or_default()
            };
            entries.push(SessionEntry {
                graph: key,
                engine: EngineKind::Adaptive.name().to_string(),
                width: BlockWidth::W256.name().to_string(),
                in_flight: load as u32,
                kv,
            });
        }
        entries
    }

    /// Removes the session for `graph` from the registry, if present — the
    /// recovery path for a dead session actor
    /// ([`ClusterError::SessionClosed`](ugraph_cluster::ClusterError)):
    /// a poisoned entry must not be handed to the next request, which
    /// should instead respawn a fresh session (bit-identical by the
    /// per-index RNG stream invariant). Callers may still hold leases on
    /// the discarded session; its state is freed once the last one drops.
    /// Not counted as an eviction — discards are a failure path, not a
    /// memory-pressure decision.
    pub fn discard(&self, graph: &str) {
        let victim = {
            let mut inner = self.locked();
            inner.sessions.iter().position(|(k, _)| k == graph).map(|i| inner.sessions.remove(i))
        };
        // Dropped outside the lock, like every other entry removal.
        drop(victim);
    }

    /// Number of live sessions.
    pub fn num_sessions(&self) -> usize {
        self.locked().sessions.len()
    }
}

impl fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("graphs", &self.names)
            .field("sessions", &self.num_sessions())
            .field("global", &self.global.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireDepth;
    use ugraph_cluster::Objective;
    use ugraph_graph::GraphBuilder;

    fn two_communities() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.2).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn call(graph: &str) -> ClusterCall {
        ClusterCall {
            graph: graph.into(),
            engine: EngineKind::Adaptive,
            width: BlockWidth::W256,
            objective: Objective::MinProb,
            k: 2,
            depth: WireDepth::Unlimited,
            deadline_micros: None,
        }
    }

    fn registry(global: Option<usize>) -> SessionRegistry {
        SessionRegistry::new(
            vec![("a".into(), two_communities()), ("b".into(), two_communities())],
            RegistryConfig {
                base: ClusterConfig::default().with_seed(7),
                global_budget: global,
                session_budget: None,
            },
        )
    }

    #[test]
    fn sessions_are_keyed_by_shape_and_reused() {
        let r = registry(None);
        {
            let lease = r.acquire(&call("a")).unwrap();
            lease.solve(ClusterRequest::mcp(2)).unwrap();
        }
        {
            let lease = r.acquire(&call("a")).unwrap();
            lease.solve(ClusterRequest::mcp(3)).unwrap();
        }
        assert_eq!(r.num_sessions(), 1, "same graph reuses the session");
        let bitparallel = EngineKind::from_name("bitparallel").unwrap();
        drop(r.acquire(&ClusterCall { engine: bitparallel, ..call("a") }).unwrap());
        assert_eq!(r.num_sessions(), 1, "a call naming bitparallel reuses the graph's session");
        drop(r.acquire(&call("b")).unwrap());
        assert_eq!(r.num_sessions(), 2, "the graph is the key");
        let entries = r.stats_entries(None);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].engine, "adaptive");
        assert!(entries[0].kv.contains("requests=2"), "{}", entries[0].kv);
        assert_eq!(r.stats_entries(Some("b")).len(), 1);
    }

    #[test]
    fn unknown_graph_is_rejected() {
        let r = registry(None);
        assert_eq!(
            r.acquire(&call("nope")).unwrap_err(),
            RegistryError::UnknownGraph("nope".into())
        );
    }

    #[test]
    fn idle_sessions_are_evicted_lru_and_respawn_bit_identically() {
        // Reference answers from an unbudgeted registry.
        let free = registry(None);
        let ref_a = free.acquire(&call("a")).unwrap().solve(ClusterRequest::mcp(2)).unwrap();
        let ref_b = free.acquire(&call("b")).unwrap().solve(ClusterRequest::mcp(2)).unwrap();

        // A global budget below one session's 224 B of edge masks.
        let tight = registry(Some(160));
        let a1 = tight.acquire(&call("a")).unwrap().solve(ClusterRequest::mcp(2)).unwrap();
        assert!(tight.global_stats().bytes_held > 0);
        // Leasing the second graph must make headroom by evicting the
        // idle session for "a" — not by touching the one we lease.
        let b1 = {
            let lease = tight.acquire(&call("b")).unwrap();
            assert!(
                tight.sessions_evicted() >= 1,
                "idle session must be evicted for headroom: {:?}",
                tight.global_stats()
            );
            lease.solve(ClusterRequest::mcp(2)).unwrap()
        };
        // Both graphs keep answering, bit-identically to the unbudgeted
        // run, across evict/respawn cycles.
        let a2 = tight.acquire(&call("a")).unwrap().solve(ClusterRequest::mcp(2)).unwrap();
        for (got, want) in [(&a1, &ref_a), (&b1, &ref_b), (&a2, &ref_a)] {
            assert_eq!(got.clustering, want.clustering);
            assert_eq!(got.objective_estimate.to_bits(), want.objective_estimate.to_bits());
            assert_eq!(got.assign_probs, want.assign_probs);
        }
        // The ledger respects the ceiling at rest.
        assert!(tight.global_stats().bytes_held <= 160);
    }

    #[test]
    fn active_sessions_are_never_evicted() {
        // At rest a session trims its pools to the ceiling, so only a
        // session at work holds the ledger over it: "a" keeps 96 B of
        // cached rows of a 160 B budget, below its 224 B of edge masks, and
        // a working-set charge on its ledger stands in for the shards an
        // in-flight query regenerates.
        let limit = 160;
        let r = registry(Some(limit));
        let lease_a = r.acquire(&call("a")).unwrap();
        lease_a.solve(ClusterRequest::mcp(2)).unwrap();
        let resident = r.global_stats().bytes_held;
        assert!(resident > limit / 2 && resident <= limit, "{resident} B resident");
        let ledger_a = r.locked().sessions[0].1.ledger.clone();
        ledger_a.charge(limit);
        // "a" is still leased: headroom-making cannot evict it, and with
        // no idle victim left the next acquire is an admission rejection.
        let err = r.acquire(&call("b")).unwrap_err();
        assert!(
            matches!(err, RegistryError::AdmissionRejected { .. }),
            "expected admission rejection, got {err:?}"
        );
        assert_eq!(r.sessions_evicted(), 0);
        // Releasing the lease frees the victim; "b" is admitted.
        ledger_a.release(limit);
        drop(lease_a);
        let lease_b = r.acquire(&call("b")).unwrap();
        assert!(r.sessions_evicted() >= 1, "idle 'a' must have been evicted");
        lease_b.solve(ClusterRequest::mcp(2)).unwrap();
    }
}

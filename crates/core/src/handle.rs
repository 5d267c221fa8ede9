//! [`SessionHandle`] — an owned, thread-backed handle to a
//! [`UgraphSession`].
//!
//! A [`UgraphSession`] borrows its graph (`UgraphSession<'g>`), which makes
//! it awkward to store in registries, share across worker threads, or keep
//! alive independently of a caller's stack frame. A `SessionHandle` solves
//! this by moving the session onto a dedicated **actor thread** that owns
//! an `Arc` of the graph and serves typed commands over a channel:
//!
//! * the handle is `'static`, `Send`, and `Sync` — it can sit behind a
//!   registry lock and be shared by any number of server workers;
//! * every method takes `&self`; concurrent calls are **serialized in
//!   arrival order** by the actor's command queue (the per-session
//!   serialization a server wants), while distinct handles run fully in
//!   parallel;
//! * results are bit-identical to driving the underlying session directly:
//!   the actor does nothing but forward commands to
//!   [`UgraphSession::solve`] and [`UgraphSession::stats`];
//! * dropping the handle drains the queued commands, shuts the session
//!   down, and joins the thread.
//!
//! ```
//! use std::sync::Arc;
//! use ugraph_graph::GraphBuilder;
//! use ugraph_cluster::{ClusterConfig, ClusterRequest, SessionHandle};
//!
//! let mut b = GraphBuilder::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     b.add_edge(u, v, 0.9).unwrap();
//! }
//! b.add_edge(2, 3, 0.05).unwrap();
//! let g = Arc::new(b.build().unwrap());
//!
//! let handle = SessionHandle::spawn(g, ClusterConfig::default()).unwrap();
//! let r = handle.solve(ClusterRequest::mcp(2)).unwrap();
//! assert_eq!(r.clustering.num_clusters(), 2);
//! assert_eq!(handle.stats().unwrap().requests, 1);
//! ```

use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use ugraph_graph::UncertainGraph;
use ugraph_sampling::MemoryBudget;

use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::request::{ClusterRequest, SolveResult};
use crate::session::{SessionStats, UgraphSession};

/// One command of the actor protocol; each solve/stats call creates a
/// one-shot reply channel and blocks on it.
enum Command {
    Solve(ClusterRequest, mpsc::Sender<Result<SolveResult, ClusterError>>),
    Stats(mpsc::Sender<SessionStats>),
}

/// An owned, shareable handle to a [`UgraphSession`] running on its own
/// actor thread — see the [module docs](self) for the contract.
pub struct SessionHandle {
    /// Command queue into the actor (`None` once shut down). Behind a
    /// mutex only so the handle is `Sync` on every toolchain; each call
    /// clones the sender out and releases the lock before blocking.
    tx: Mutex<Option<mpsc::Sender<Command>>>,
    join: Option<thread::JoinHandle<()>>,
    graph: Arc<UncertainGraph>,
    config: ClusterConfig,
}

impl SessionHandle {
    /// Spawns a session over `graph` with a private memory ledger derived
    /// from [`ClusterConfig::memory_budget`] (the [`UgraphSession::new`]
    /// behavior).
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] for invalid parameter ranges;
    /// [`ClusterError::SessionClosed`] if the actor thread cannot be
    /// spawned.
    pub fn spawn(graph: Arc<UncertainGraph>, config: ClusterConfig) -> Result<Self, ClusterError> {
        let ledger =
            config.memory_budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bounded);
        SessionHandle::spawn_with_ledger(graph, config, ledger)
    }

    /// Spawns a session charging against a caller-supplied `ledger` (the
    /// [`UgraphSession::with_ledger`] behavior) — hand each session a
    /// [`MemoryBudget::subledger`] of one global budget to run many
    /// sessions under a shared ceiling.
    ///
    /// # Errors
    /// As [`SessionHandle::spawn`].
    pub fn spawn_with_ledger(
        graph: Arc<UncertainGraph>,
        config: ClusterConfig,
        ledger: MemoryBudget,
    ) -> Result<Self, ClusterError> {
        // Validate synchronously so a bad config is a typed error here,
        // not a dead actor discovered on first use.
        config.validate()?;
        let (tx, rx) = mpsc::channel::<Command>();
        let thread_graph = Arc::clone(&graph);
        let thread_config = config.clone();
        let join = thread::Builder::new()
            .name("ugraph-session".into())
            .spawn(move || {
                // Cannot fail: the config was validated above and
                // validation is deterministic.
                let Ok(mut session) =
                    UgraphSession::with_ledger(&thread_graph, thread_config, ledger)
                else {
                    return;
                };
                // The loop ends when every sender is gone (handle dropped
                // and no call in flight); queued commands are drained
                // first, so shutdown never loses accepted work.
                while let Ok(command) = rx.recv() {
                    match command {
                        Command::Solve(request, reply) => {
                            let _ = reply.send(session.solve(request));
                        }
                        Command::Stats(reply) => {
                            let _ = reply.send(session.stats());
                        }
                    }
                }
            })
            .map_err(|_| ClusterError::SessionClosed)?;
        Ok(SessionHandle { tx: Mutex::new(Some(tx)), join: Some(join), graph, config })
    }

    /// The graph the session is bound to.
    pub fn graph(&self) -> &Arc<UncertainGraph> {
        &self.graph
    }

    /// The session's (immutable) configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Sends `command` built around a fresh reply channel and blocks for
    /// the reply. The sender is cloned out of the lock, which is never
    /// held while blocking.
    fn call<T>(&self, build: impl FnOnce(mpsc::Sender<T>) -> Command) -> Result<T, ClusterError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let tx = tx.ok_or(ClusterError::SessionClosed)?;
        tx.send(build(reply_tx)).map_err(|_| ClusterError::SessionClosed)?;
        reply_rx.recv().map_err(|_| ClusterError::SessionClosed)
    }

    /// Solves one typed request — exactly [`UgraphSession::solve`], with
    /// the additional [`ClusterError::SessionClosed`] failure mode when
    /// the actor is gone. Concurrent calls on one handle are served one
    /// at a time in arrival order.
    ///
    /// # Errors
    /// The [`UgraphSession::solve`] error contract, plus
    /// [`ClusterError::SessionClosed`].
    pub fn solve(&self, request: ClusterRequest) -> Result<SolveResult, ClusterError> {
        self.call(|reply| Command::Solve(request, reply))?
    }

    /// Cumulative session statistics ([`UgraphSession::stats`]).
    ///
    /// # Errors
    /// [`ClusterError::SessionClosed`] when the actor is gone.
    pub fn stats(&self) -> Result<SessionStats, ClusterError> {
        self.call(Command::Stats)
    }
}

impl Drop for SessionHandle {
    /// Closes the command queue and joins the actor, draining (not
    /// abandoning) any already-queued commands first. Attach a deadline or
    /// [`CancelToken`](ugraph_sampling::CancelToken) to in-flight requests
    /// to bound how long the drain can take.
    fn drop(&mut self) {
        *self.tx.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("nodes", &self.graph.num_nodes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ClusterRequest;
    use std::time::Duration;
    use ugraph_graph::GraphBuilder;

    fn two_communities() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.2).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn handle_matches_direct_session_bit_for_bit() {
        let g = two_communities();
        let cfg = ClusterConfig::default().with_seed(11);
        let handle = SessionHandle::spawn(Arc::clone(&g), cfg.clone()).unwrap();
        let mut direct = UgraphSession::new(&g, cfg).unwrap();
        for k in [2usize, 3] {
            let a = handle.solve(ClusterRequest::mcp(k)).unwrap();
            let b = direct.solve(ClusterRequest::mcp(k)).unwrap();
            assert_eq!(a.clustering, b.clustering);
            assert_eq!(a.objective_estimate, b.objective_estimate);
            assert_eq!(a.assign_probs, b.assign_probs);
        }
        let a = handle.solve(ClusterRequest::acp(2)).unwrap();
        let b = direct.solve(ClusterRequest::acp(2)).unwrap();
        assert_eq!(a.clustering, b.clustering);
        // Every counter must match; the wall-clock solve time cannot.
        let deterministic = |line: String| -> Vec<String> {
            line.split(' ')
                .filter(|kv| !kv.starts_with("solve_time_ms="))
                .map(String::from)
                .collect()
        };
        let (a, b) = (handle.stats().unwrap().kv_line(), direct.stats().kv_line());
        assert_eq!(deterministic(a), deterministic(b));
    }

    #[test]
    fn concurrent_callers_are_serialized_not_poisoned() {
        let g = two_communities();
        let handle =
            Arc::new(SessionHandle::spawn(g, ClusterConfig::default().with_seed(3)).unwrap());
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let h = Arc::clone(&handle);
                thread::spawn(move || h.solve(ClusterRequest::mcp(2 + (i % 2))))
            })
            .collect();
        for w in workers {
            let r = w.join().unwrap().unwrap();
            assert!(r.clustering.num_clusters() >= 2);
        }
        assert_eq!(handle.stats().unwrap().requests, 4);
    }

    #[test]
    fn errors_and_mismatches_are_typed_not_panics() {
        let g = two_communities();
        let handle = SessionHandle::spawn(Arc::clone(&g), ClusterConfig::default()).unwrap();
        assert!(matches!(
            handle.solve(ClusterRequest::mcp(0)),
            Err(ClusterError::KOutOfRange { .. })
        ));
        // A deadline that has already passed interrupts deterministically,
        // and the session survives to serve the re-issue.
        let late = ClusterRequest::mcp(2).with_deadline(Duration::ZERO);
        assert!(matches!(handle.solve(late), Err(ClusterError::DeadlineExceeded(_))));
        assert!(handle.solve(ClusterRequest::mcp(2)).is_ok());
        // Bad configs fail at spawn, synchronously.
        assert!(SessionHandle::spawn(g, ClusterConfig::default().with_gamma(0.0)).is_err());
    }
}

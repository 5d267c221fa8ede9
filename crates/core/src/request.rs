//! Typed clustering requests and their unified result — the vocabulary of
//! [`UgraphSession::solve`](crate::session::UgraphSession::solve).
//!
//! The paper's four entry points (`mcp`, `mcp_depth`, `acp`, `acp_depth`)
//! differ along exactly two axes: the **objective** (minimum vs. average
//! connection probability) and the **depth** restriction on the paths that
//! contribute to connection probabilities (§3.4). [`ClusterRequest`]
//! spells both out, so one `solve` entry point serves the whole quartet —
//! and a session can interleave request shapes while reusing the sampled
//! state behind each one.

use std::fmt;
use std::time::Duration;

use ugraph_sampling::{CancelToken, EngineStats, RowCacheStats};

use crate::clustering::Clustering;
use crate::config::{AcpInvocation, ClusterConfig};
use crate::error::InterruptReport;

/// Which objective of the paper a request optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Maximize the **minimum** connection probability of a node to its
    /// center — MCP, the k-center analogue (Theorem 3).
    MinProb,
    /// Maximize the **average** connection probability of the nodes to
    /// their centers — ACP, the k-median analogue (Theorem 4).
    AvgProb,
}

/// Depth restriction of a request (which paths count toward connection
/// probabilities, paper §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DepthSpec {
    /// Unlimited path length — the plain MCP/ACP setting.
    Unlimited,
    /// The `d` of `mcp_depth`/`acp_depth`: selection and cover depths are
    /// derived per algorithm (Lemma 5 uses `(d, d)` for MCP; the ACP
    /// *Theory* invocation uses `(⌊d/3⌋, d)` per Theorem 6, *Practical*
    /// uses `(d, d)`), resolved against the session's
    /// [`ClusterConfig::acp_invocation`] at solve time.
    Uniform(u32),
    /// Explicit selection/cover depths (the generalized form exposed by
    /// [`ClusterRequest::with_depths`]).
    Explicit { d_select: u32, d_cover: u32 },
}

/// One typed clustering request served by a
/// [`UgraphSession`](crate::session::UgraphSession).
///
/// ```
/// use ugraph_cluster::ClusterRequest;
///
/// let plain = ClusterRequest::mcp(4);
/// let depth_limited = ClusterRequest::acp_depth(4, 3);
/// let explicit = ClusterRequest::mcp(4).with_depths(1, 3);
/// assert_ne!(plain, explicit);
/// ```
///
/// A request can carry its own run budget — a wall-clock deadline
/// ([`ClusterRequest::with_deadline`]) and/or a cancellation token
/// ([`ClusterRequest::with_cancel_token`]) — composing with any
/// session-level budget on the [`ClusterConfig`]: the tighter deadline
/// wins and every token is honored. Requests compare tokens by clone
/// identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterRequest {
    objective: Objective,
    k: usize,
    depth: DepthSpec,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl ClusterRequest {
    /// MCP with unlimited path length: maximize the minimum connection
    /// probability over a `k`-clustering (equivalent to the free function
    /// [`crate::mcp()`](crate::mcp::mcp)).
    pub fn mcp(k: usize) -> Self {
        ClusterRequest {
            objective: Objective::MinProb,
            k,
            depth: DepthSpec::Unlimited,
            deadline: None,
            cancel: None,
        }
    }

    /// Depth-limited MCP: only paths of length ≤ `d` contribute
    /// (equivalent to [`crate::mcp_depth()`](crate::mcp::mcp_depth); per
    /// Lemma 5 both the selection and cover disks use depth `d`).
    pub fn mcp_depth(k: usize, d: u32) -> Self {
        ClusterRequest { depth: DepthSpec::Uniform(d), ..ClusterRequest::mcp(k) }
    }

    /// ACP with unlimited path length: maximize the average connection
    /// probability (equivalent to [`crate::acp()`](crate::acp::acp)).
    pub fn acp(k: usize) -> Self {
        ClusterRequest { objective: Objective::AvgProb, ..ClusterRequest::mcp(k) }
    }

    /// Depth-limited ACP (equivalent to
    /// [`crate::acp_depth()`](crate::acp::acp_depth); the selection depth
    /// follows the session's [`AcpInvocation`]).
    pub fn acp_depth(k: usize, d: u32) -> Self {
        ClusterRequest { depth: DepthSpec::Uniform(d), ..ClusterRequest::acp(k) }
    }

    /// Overrides the depth pair explicitly: selection disks at depth
    /// `d_select`, cover disks at depth `d_cover` (`d_select ≤ d_cover`;
    /// violations surface as a configuration error at solve time). The
    /// generalized form of the `*_depth` constructors.
    pub fn with_depths(mut self, d_select: u32, d_cover: u32) -> Self {
        self.depth = DepthSpec::Explicit { d_select, d_cover };
        self
    }

    /// Bounds this request to `deadline` of wall-clock time from the
    /// moment the solve starts. On expiry the solve stops cooperatively at
    /// the next shard/block checkpoint and returns
    /// [`ClusterError::DeadlineExceeded`](crate::ClusterError::DeadlineExceeded)
    /// (or a best-effort partial result under
    /// [`DegradeMode::BestEffort`](crate::config::DegradeMode::BestEffort)).
    /// Composes with a session-level
    /// [`ClusterConfig::with_timeout`](crate::ClusterConfig::with_timeout):
    /// the tighter deadline wins.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Attaches a cancellation token to this request; cancel any clone of
    /// the token (e.g. from another thread) and the solve stops at its
    /// next checkpoint with
    /// [`ClusterError::Cancelled`](crate::ClusterError::Cancelled).
    /// Composes with any session-level token — both are honored.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The per-request wall-clock bound, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The per-request cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The request's objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The requested number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `(d_select, d_cover)` depth pair this request resolves to under
    /// `config`, or `None` for unlimited path length.
    pub(crate) fn resolved_depths(&self, config: &ClusterConfig) -> Option<(u32, u32)> {
        match self.depth {
            DepthSpec::Unlimited => None,
            DepthSpec::Uniform(d) => match self.objective {
                Objective::MinProb => Some((d, d)),
                Objective::AvgProb => {
                    let d_select = match config.acp_invocation {
                        AcpInvocation::Theory => (d / 3).max(1),
                        AcpInvocation::Practical => d,
                    };
                    Some((d_select.min(d), d))
                }
            },
            DepthSpec::Explicit { d_select, d_cover } => Some((d_select, d_cover)),
        }
    }
}

impl fmt::Display for ClusterRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.objective {
            Objective::MinProb => "mcp",
            Objective::AvgProb => "acp",
        };
        match self.depth {
            DepthSpec::Unlimited => write!(f, "{name}(k={})", self.k),
            DepthSpec::Uniform(d) => write!(f, "{name}(k={}, d={d})", self.k),
            DepthSpec::Explicit { d_select, d_cover } => {
                write!(f, "{name}(k={}, d_select={d_select}, d_cover={d_cover})", self.k)
            }
        }
    }
}

/// Unified result of [`UgraphSession::solve`](crate::session::UgraphSession::solve) — the common shape behind
/// [`McpResult`](crate::mcp::McpResult) and
/// [`AcpResult`](crate::acp::AcpResult).
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The request that produced this result.
    pub request: ClusterRequest,
    /// The full k-clustering.
    pub clustering: Clustering,
    /// Estimated connection probability of each node to its center.
    pub assign_probs: Vec<f64>,
    /// The driver's own estimate of its objective: minimum assignment
    /// probability for [`Objective::MinProb`], the best partial average
    /// `φ_best` for [`Objective::AvgProb`].
    pub objective_estimate: f64,
    /// The threshold `q` that produced the returned clustering.
    pub final_q: f64,
    /// Number of `min-partial` invocations performed.
    pub guesses: usize,
    /// Monte-Carlo samples backing this request's estimates (the active
    /// window — identical to what a one-shot run would have used).
    pub samples_used: usize,
    /// Row-cache service counters accumulated **by this request** (the
    /// session-cumulative counters live in
    /// [`SessionStats`](crate::session::SessionStats)). On a warm session
    /// the hits/top-ups here are rows inherited from earlier requests.
    pub row_cache: RowCacheStats,
    /// Lazy block-finalization counters accumulated **by this request**
    /// (all zero for depth-limited requests). On a warm session the
    /// `label_queries` here are served from blocks finalized by earlier
    /// requests.
    pub engine: EngineStats,
    /// Wall-clock time spent solving this request.
    pub elapsed: Duration,
    /// `Some` iff the solve was interrupted and completed **best-effort**
    /// under [`DegradeMode::BestEffort`](crate::config::DegradeMode):
    /// the clustering is the best one found before the interruption, and
    /// the report says how far the solve got. `None` for a run that
    /// completed its full schedule.
    pub interrupt: Option<InterruptReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_resolution_follows_the_paper() {
        let cfg = ClusterConfig::default(); // Practical ACP invocation
        assert_eq!(ClusterRequest::mcp(3).resolved_depths(&cfg), None);
        assert_eq!(ClusterRequest::mcp_depth(3, 4).resolved_depths(&cfg), Some((4, 4)));
        assert_eq!(ClusterRequest::acp_depth(3, 4).resolved_depths(&cfg), Some((4, 4)));
        let theory = cfg.clone().with_acp_invocation(AcpInvocation::Theory);
        assert_eq!(ClusterRequest::acp_depth(3, 4).resolved_depths(&theory), Some((1, 4)));
        assert_eq!(ClusterRequest::acp_depth(3, 9).resolved_depths(&theory), Some((3, 9)));
        assert_eq!(ClusterRequest::acp(3).with_depths(2, 5).resolved_depths(&theory), Some((2, 5)));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(ClusterRequest::mcp(2).to_string(), "mcp(k=2)");
        assert_eq!(ClusterRequest::acp_depth(5, 3).to_string(), "acp(k=5, d=3)");
        assert_eq!(
            ClusterRequest::mcp(2).with_depths(1, 4).to_string(),
            "mcp(k=2, d_select=1, d_cover=4)"
        );
    }
}

//! The guess loop shared by Algorithms 2 (MCP) and 3 (ACP): validation,
//! set-up, one guess at a time, the best-effort rule and the result.
//!
//! Both algorithms lower a threshold `q` along
//! [`ClusterConfig::descent`] and run `min-partial` at each guess; only
//! where they stop and which clustering they keep differ, so each module
//! writes just that part (`mcp::schedule`, `acp::schedule`). Every entry
//! point — the one-shot functions, the `*_with_oracle` functions and
//! [`UgraphSession::solve`](crate::UgraphSession::solve) — runs
//! [`solve_on`].

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::Oracle;

use crate::clustering::{Clustering, PartialClustering};
use crate::config::{ClusterConfig, DegradeMode};
use crate::error::{interrupted, ClusterError, InterruptReport};
use crate::min_partial::{min_partial_with, MinPartialParams, MinPartialWorkspace};
use crate::request::{ClusterRequest, Objective, SolveResult};
use crate::{acp, mcp};

/// What a schedule returns: the clustering, each node's assignment
/// probability, the objective estimate and the threshold that produced
/// the clustering.
pub(crate) type Found = (Clustering, Vec<f64>, f64, f64);

/// The state one schedule threads through its guesses.
pub(crate) struct Guesser<'a, O: ?Sized> {
    oracle: &'a mut O,
    pub(crate) cfg: &'a ClusterConfig,
    k: usize,
    rng: SmallRng,
    /// One workspace for the whole schedule: every guess reuses the same
    /// min-partial buffers, as the oracle's row cache carries center rows
    /// across guesses.
    ws: MinPartialWorkspace,
    /// Guesses that ran to completion, so an interruption reports only
    /// those.
    guesses: usize,
    interrupt: Option<InterruptReport>,
}

impl<O: Oracle + ?Sized> Guesser<'_, O> {
    /// One guess: prepares the oracle for cover threshold `q` and runs
    /// `min-partial(G, k, q, alpha, q_bar)`. An interruption comes back
    /// as a typed error reporting the worlds sampled and the guesses
    /// completed.
    pub(crate) fn run(
        &mut self,
        q: f64,
        alpha: usize,
        q_bar: f64,
    ) -> Result<PartialClustering, ClusterError> {
        let params =
            MinPartialParams { k: self.k, q, alpha, q_bar, epsilon: self.oracle.epsilon() };
        let pc = self
            .oracle
            .prepare(q)
            .and_then(|()| min_partial_with(self.oracle, &params, &mut self.rng, &mut self.ws))
            .map_err(|e| interrupted(e, self.oracle.num_samples(), self.guesses))?;
        self.guesses += 1;
        Ok(pc)
    }

    /// The best-effort rule, for an error of [`Guesser::run`] once a
    /// usable clustering is in hand: under [`DegradeMode::BestEffort`] an
    /// interruption just ends the schedule early and its report is kept;
    /// any other error, injected faults included, is returned. Before
    /// that point schedules return every error as it is.
    pub(crate) fn stop(&mut self, e: ClusterError) -> Result<(), ClusterError> {
        match (self.cfg.degrade, e.interrupt_report()) {
            (DegradeMode::BestEffort, Some(&report)) => {
                self.interrupt = Some(report);
                Ok(())
            }
            _ => Err(e),
        }
    }
}

/// Solves `request`'s objective at `request.k()` on `oracle`, whose depths
/// the caller has already chosen. The result's counters are the oracle's
/// cumulative ones.
pub(crate) fn solve_on<O: Oracle + ?Sized>(
    oracle: &mut O,
    request: ClusterRequest,
    cfg: &ClusterConfig,
) -> Result<SolveResult, ClusterError> {
    let t0 = Instant::now();
    cfg.validate()?;
    let (n, k) = (oracle.num_nodes(), request.k());
    if k < 1 || k >= n {
        return Err(ClusterError::KOutOfRange { k, n });
    }
    // Candidate-rng tags, decorrelated from the oracles' sampling streams.
    let tag = match request.objective() {
        Objective::MinProb => 0x6d63_7001,
        Objective::AvgProb => 0x6163_7001,
    };
    let mut g = Guesser {
        oracle,
        cfg,
        k,
        rng: SmallRng::seed_from_u64(mix_seed(cfg.seed, tag)),
        ws: MinPartialWorkspace::new(n),
        guesses: 0,
        interrupt: None,
    };
    let (clustering, assign_probs, objective_estimate, final_q) = match request.objective() {
        Objective::MinProb => mcp::schedule(&mut g)?,
        Objective::AvgProb => acp::schedule(&mut g)?,
    };
    Ok(SolveResult {
        request,
        clustering,
        assign_probs,
        objective_estimate,
        final_q,
        guesses: g.guesses,
        samples_used: g.oracle.num_samples(),
        row_cache: g.oracle.cache_stats(),
        engine: g.oracle.engine_stats(),
        elapsed: t0.elapsed(),
        interrupt: g.interrupt,
    })
}

//! Configuration of the clustering drivers.

use std::time::Duration;

use ugraph_sampling::{BlockWidth, CancelToken, EngineKind, SampleSchedule};

use crate::error::ClusterError;

/// How the probability threshold `q` is lowered across guesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GuessStrategy {
    /// The schedule of Algorithms 2/3: `q ← q/(1+γ)` starting from 1.
    /// Faithful to the pseudocode; needs `Θ(log_{1+γ} 1/p_opt)` guesses.
    Geometric,
    /// The accelerated schedule of the paper's implementation (§5):
    /// `q_i = max{1 − γ·2^i, p_L}`, followed by a binary search between the
    /// last failing and the first succeeding guess, stopping when the ratio
    /// between lower and upper bound exceeds `1 − γ`. Equivalent to the
    /// geometric schedule up to constants (§5) but needs far fewer guesses.
    #[default]
    Accelerated,
}

/// Which `min-partial` invocation the ACP driver uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AcpInvocation {
    /// Theorem 4's invocation `min-partial(G, k, q³, n, q)`: cover threshold
    /// `q³`, selection threshold `q`, candidate set = all uncovered nodes.
    Theory,
    /// The paper's practical invocation `min-partial(G, k, q, 1, q)` (§5),
    /// chosen by the authors "after testing different combinations" for
    /// better time performance at equal quality.
    #[default]
    Practical,
}

/// What an interrupted solve returns (deadline passed or token fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Return a typed error —
    /// [`ClusterError::DeadlineExceeded`]
    /// or [`ClusterError::Cancelled`] —
    /// carrying an [`InterruptReport`](crate::error::InterruptReport).
    /// The session stays usable either way.
    #[default]
    Fail,
    /// *Anytime* semantics: if a full k-clustering was already found when
    /// the interruption fired, return it as a normal result with
    /// [`SolveResult::interrupt`](crate::SolveResult::interrupt) set (the
    /// guessing schedule just stopped refining early). With no full
    /// clustering yet, the typed error is returned as under
    /// [`DegradeMode::Fail`].
    BestEffort,
}

/// Shared configuration for [`crate::mcp()`](crate::mcp::mcp) and [`crate::acp()`](crate::acp::acp).
///
/// Defaults follow the paper's experimental setup (§5): `γ = 0.1`,
/// `p_L = 10⁻⁴`, `α = 1`, progressive sampling starting at 50 samples,
/// accelerated guessing with binary-search refinement.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Guess-schedule parameter `γ > 0` (time/quality trade-off).
    pub gamma: f64,
    /// Probability floor `p_L ∈ (0, 1]`: guesses never go below it.
    pub p_l: f64,
    /// Relative-error target ε for Monte-Carlo estimates; thresholds are
    /// relaxed to `(1 − ε/2)·q` per §4.1.
    pub epsilon: f64,
    /// Candidate-set size `α ≥ 1` in `min-partial` (`usize::MAX` = all
    /// uncovered nodes). Higher values lower the variance of the returned
    /// quality at higher cost (§5).
    pub alpha: usize,
    /// Master RNG seed; fixing it makes every run bit-reproducible.
    pub seed: u64,
    /// Worker threads for sampling (0 = all available cores).
    pub threads: usize,
    /// Monte-Carlo sample-size schedule.
    pub schedule: SampleSchedule,
    /// Threshold guessing strategy.
    pub guess: GuessStrategy,
    /// ACP invocation flavor.
    pub acp_invocation: AcpInvocation,
    /// Monte-Carlo backend: the pure-mask bit-parallel block pool or the
    /// default **adaptive** backend (bit-parallel plus lazy per-block
    /// component-label finalization). Backends are count-identical for a
    /// fixed seed, so this knob trades nothing but time; it is threaded
    /// through `mcp`/`acp` (and their depth variants) into every
    /// `min-partial` probability estimate.
    pub engine: EngineKind,
    /// Mask-block width: always 256 worlds (see
    /// [`ugraph_sampling::BlockWidth`]). Kept for callers that read it.
    #[doc(hidden)]
    pub block_width: BlockWidth,
    /// Per-center row cache in the Monte-Carlo oracles (default on).
    /// Results are bit-identical either way; tests and benchmarks turn it
    /// off to compare.
    #[doc(hidden)]
    pub row_cache: bool,
    /// Retired shared-pool mode: must stay `false`
    /// ([`ClusterConfig::validate`] rejects `true`). Kept for callers that
    /// read it.
    #[doc(hidden)]
    pub shared_pool: bool,
    /// Byte ceiling for sample storage and cached probability rows
    /// (default `None` = unbounded). With a limit set, every oracle's
    /// shard-granular pool charges a shared ledger; under pressure,
    /// least-recently-used shards are evicted and regenerated on demand
    /// from their per-index RNG streams. Results are **bit-identical**
    /// under any budget — the knob trades time (regeneration sweeps) for
    /// a hard memory bound.
    pub memory_budget: Option<usize>,
    /// Session-level wall-clock bound applied to **every** solve (default
    /// `None` = unbounded). The solve stops cooperatively at the next
    /// shard/block checkpoint after expiry; composes with a per-request
    /// [`ClusterRequest::with_deadline`](crate::ClusterRequest::with_deadline)
    /// (tighter wins). Cancellation latency is bounded by one block of
    /// work; an uninterrupted run is bit-identical with or without the
    /// bound.
    pub timeout: Option<Duration>,
    /// Session-level cancellation token checked by every solve (default
    /// `None`). Cancel any clone of it — e.g. from a signal handler or a
    /// server thread — and the running solve stops at its next
    /// checkpoint. Composes with per-request tokens (all are honored).
    pub cancel_token: Option<CancelToken>,
    /// What an interrupted solve returns (default
    /// [`DegradeMode::Fail`]: a typed error).
    pub degrade: DegradeMode,
}

impl PartialEq for ClusterConfig {
    /// Cancellation tokens compare by clone identity
    /// ([`CancelToken::same_token`]); everything else structurally.
    fn eq(&self, other: &Self) -> bool {
        self.gamma == other.gamma
            && self.p_l == other.p_l
            && self.epsilon == other.epsilon
            && self.alpha == other.alpha
            && self.seed == other.seed
            && self.threads == other.threads
            && self.schedule == other.schedule
            && self.guess == other.guess
            && self.acp_invocation == other.acp_invocation
            && self.engine == other.engine
            && self.row_cache == other.row_cache
            && self.shared_pool == other.shared_pool
            && self.memory_budget == other.memory_budget
            && self.timeout == other.timeout
            && self.degrade == other.degrade
            && match (&self.cancel_token, &other.cancel_token) {
                (None, None) => true,
                (Some(a), Some(b)) => a.same_token(b),
                _ => false,
            }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            gamma: 0.1,
            p_l: 1e-4,
            epsilon: 0.1,
            alpha: 1,
            seed: 0,
            threads: 0,
            schedule: SampleSchedule::practical(),
            guess: GuessStrategy::default(),
            acp_invocation: AcpInvocation::default(),
            engine: EngineKind::default(),
            block_width: BlockWidth::default(),
            row_cache: true,
            shared_pool: false,
            memory_budget: None,
            timeout: None,
            cancel_token: None,
            degrade: DegradeMode::default(),
        }
    }
}

impl ClusterConfig {
    /// Validates parameter ranges, returning a descriptive error.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if !(self.gamma > 0.0 && self.gamma.is_finite()) {
            return Err(ClusterError::InvalidConfig {
                message: format!("gamma must be a positive finite number, got {}", self.gamma),
            });
        }
        if !(self.p_l > 0.0 && self.p_l <= 1.0) {
            return Err(ClusterError::InvalidConfig {
                message: format!("p_l must be in (0, 1], got {}", self.p_l),
            });
        }
        if !(self.epsilon >= 0.0 && self.epsilon < 2.0) {
            return Err(ClusterError::InvalidConfig {
                message: format!("epsilon must be in [0, 2), got {}", self.epsilon),
            });
        }
        if self.alpha == 0 {
            return Err(ClusterError::InvalidConfig {
                message: "alpha must be at least 1".to_string(),
            });
        }
        if self.memory_budget == Some(0) {
            return Err(ClusterError::InvalidConfig {
                message: "memory_budget must be positive (use None for unbounded)".to_string(),
            });
        }
        if self.shared_pool {
            return Err(ClusterError::InvalidConfig {
                message: "the shared-pool mode was removed; shared_pool must be false".to_string(),
            });
        }
        Ok(())
    }

    /// Builder-style setter for `gamma`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Builder-style setter for `p_l`.
    pub fn with_p_l(mut self, p_l: f64) -> Self {
        self.p_l = p_l;
        self
    }

    /// Builder-style setter for `epsilon`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for `alpha`.
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style setter for `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for `threads`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style setter for the sample schedule.
    pub fn with_schedule(mut self, schedule: SampleSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Builder-style setter for the guess strategy.
    pub fn with_guess(mut self, guess: GuessStrategy) -> Self {
        self.guess = guess;
        self
    }

    /// Builder-style setter for the ACP invocation flavor.
    pub fn with_acp_invocation(mut self, inv: AcpInvocation) -> Self {
        self.acp_invocation = inv;
        self
    }

    /// Builder-style setter for the Monte-Carlo backend.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style setter for the oracle row cache.
    #[doc(hidden)]
    pub fn with_row_cache(mut self, row_cache: bool) -> Self {
        self.row_cache = row_cache;
        self
    }

    /// Builder-style setter for the memory budget in bytes (see
    /// [`ClusterConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Builder-style setter for the session-level wall-clock bound (see
    /// [`ClusterConfig::timeout`]). Applied per solve, not to the session
    /// lifetime; tightens (never loosens) an existing value.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(self.timeout.map_or(timeout, |t| t.min(timeout)));
        self
    }

    /// Builder-style setter for the session-level cancellation token (see
    /// [`ClusterConfig::cancel_token`]).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel_token = Some(token);
        self
    }

    /// Builder-style setter for the degrade mode (see [`DegradeMode`]).
    pub fn with_degrade(mut self, degrade: DegradeMode) -> Self {
        self.degrade = degrade;
        self
    }

    /// The per-solve [`RunBudget`](ugraph_sampling::RunBudget) of this
    /// configuration combined with `request`-level bounds: the tighter
    /// deadline wins, every cancellation token is attached.
    pub(crate) fn run_budget(&self, request: &crate::ClusterRequest) -> ugraph_sampling::RunBudget {
        let mut budget = ugraph_sampling::RunBudget::unlimited();
        if let Some(t) = self.timeout {
            budget = budget.with_timeout(t);
        }
        if let Some(tok) = &self.cancel_token {
            budget = budget.with_token(tok.clone());
        }
        if let Some(t) = request.deadline() {
            budget = budget.with_timeout(t);
        }
        if let Some(tok) = request.cancel_token() {
            budget = budget.with_token(tok.clone());
        }
        budget
    }

    /// The relaxed threshold actually compared against estimates:
    /// `(1 − ε/2) · q` (§4.1). With ε = 0 (exact oracles) this is `q`.
    #[inline]
    pub fn relaxed(&self, q: f64, oracle_epsilon: f64) -> f64 {
        (1.0 - oracle_epsilon / 2.0) * q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ClusterConfig::default();
        assert_eq!(c.gamma, 0.1);
        assert_eq!(c.p_l, 1e-4);
        assert_eq!(c.alpha, 1);
        assert_eq!(c.guess, GuessStrategy::Accelerated);
        assert_eq!(c.acp_invocation, AcpInvocation::Practical);
        assert_eq!(c.engine, EngineKind::Adaptive);
        assert!(!c.shared_pool);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn shared_pool_is_rejected() {
        let c = ClusterConfig { shared_pool: true, ..ClusterConfig::default() };
        assert!(matches!(c.validate(), Err(ClusterError::InvalidConfig { .. })));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ClusterConfig::default().with_gamma(0.0).validate().is_err());
        assert!(ClusterConfig::default().with_gamma(f64::NAN).validate().is_err());
        assert!(ClusterConfig::default().with_p_l(0.0).validate().is_err());
        assert!(ClusterConfig::default().with_p_l(1.5).validate().is_err());
        assert!(ClusterConfig::default().with_epsilon(-0.1).validate().is_err());
        assert!(ClusterConfig::default().with_epsilon(2.0).validate().is_err());
        assert!(ClusterConfig::default().with_alpha(0).validate().is_err());
        assert!(ClusterConfig::default().with_memory_budget(0).validate().is_err());
        assert!(ClusterConfig::default().with_memory_budget(1 << 30).validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::default()
            .with_gamma(0.2)
            .with_seed(7)
            .with_alpha(3)
            .with_threads(2)
            .with_guess(GuessStrategy::Geometric)
            .with_engine(EngineKind::BitParallel);
        assert_eq!(c.gamma, 0.2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.alpha, 3);
        assert_eq!(c.threads, 2);
        assert_eq!(c.guess, GuessStrategy::Geometric);
        assert_eq!(c.engine, EngineKind::BitParallel);
    }

    #[test]
    fn relaxed_threshold() {
        let c = ClusterConfig::default();
        assert!((c.relaxed(0.8, 0.1) - 0.76).abs() < 1e-12);
        assert_eq!(c.relaxed(0.8, 0.0), 0.8);
    }
}

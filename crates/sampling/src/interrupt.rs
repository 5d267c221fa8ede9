//! Deadlines and cooperative cancellation for long-running solves.
//!
//! Monte-Carlo estimation is an *anytime* computation: fewer samples mean
//! wider error bars, not wrong answers. This module provides the plumbing
//! that lets a caller bound a solve in wall-clock time or abort it from
//! another thread without poisoning any session state:
//!
//! * [`CancelToken`] — a shareable atomic flag; cloning shares the flag,
//!   so a server thread can hand a token to a solve and trip it later;
//! * [`RunBudget`] — an optional deadline plus any number of tokens,
//!   polled together;
//! * [`RunState`] — the per-solve handle threaded through oracles and
//!   pool backends. Backends poll it at shard/block boundaries
//!   ([`RunState::checkpoint`], one relaxed atomic load when armed, a
//!   plain branch when not) and *record* the interruption instead of
//!   unwinding; fallible layers above ([`crate::Oracle`] methods, the
//!   clustering drivers) observe the recorded error and return it before
//!   committing any cached state.
//!
//! The discipline that keeps interrupted sessions reusable: a checkpoint
//! may only fire **between** self-contained units of work (a generated
//! shard, a swept block, a cache merge), never inside one — so every
//! structure is either fully updated or untouched, and re-issuing the
//! interrupted request completes bit-identically to an uninterrupted run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{SamplingError, SamplingPhase};

/// Why a run was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline of the [`RunBudget`] passed.
    DeadlineExceeded,
    /// A [`CancelToken`] attached to the run was cancelled.
    Cancelled,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deterministic trip point: cancel on the `n`-th checkpoint poll
    /// (0 = disarmed). Lets tests cancel at an exact, reproducible
    /// checkpoint without racing a second thread.
    trip_at_poll: u64,
    polls: AtomicU64,
}

/// A shareable cancellation flag.
///
/// Clones share the flag: cancel any clone and every holder observes it at
/// its next checkpoint. Polling is a single relaxed atomic load, so tokens
/// are cheap enough to check per block of work.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself at its `n`-th checkpoint poll (1-based):
    /// `after_checks(1)` cancels at the very first checkpoint it is polled
    /// at, `after_checks(5)` lets four checkpoints pass. Deterministic —
    /// the property tests use this to cancel at every reachable
    /// checkpoint in turn and assert the session survives each one.
    pub fn after_checks(n: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                trip_at_poll: n,
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Cancels the token; every clone observes it at its next checkpoint.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled (does not count as a poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Checkpoint poll: counts towards [`CancelToken::after_checks`].
    fn poll(&self) -> bool {
        if self.inner.trip_at_poll != 0 {
            let seen = self.inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
            if seen >= self.inner.trip_at_poll {
                self.inner.cancelled.store(true, Ordering::Relaxed);
            }
        }
        self.is_cancelled()
    }
}

impl PartialEq for CancelToken {
    /// Tokens are equal when they share one flag (clone identity).
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

/// The interruption sources of one run: an optional wall-clock deadline
/// plus any number of [`CancelToken`]s (session-level and request-level
/// tokens compose by both being attached).
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    tokens: Vec<CancelToken>,
}

impl RunBudget {
    /// A budget with no deadline and no tokens — never interrupts.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Tightens the deadline to at most `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        let at = Instant::now() + timeout;
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        self
    }

    /// Attaches a cancellation token (in addition to any already present).
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.tokens.push(token);
        self
    }

    /// Whether any interruption source is armed.
    pub fn armed(&self) -> bool {
        self.deadline.is_some() || !self.tokens.is_empty()
    }

    /// Polls every source; `None` means keep running. Token checks are one
    /// relaxed atomic load each; the deadline check reads the clock only
    /// when a deadline is set.
    pub fn poll(&self) -> Option<Interrupt> {
        for t in &self.tokens {
            if t.poll() {
                return Some(Interrupt::Cancelled);
            }
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(Interrupt::DeadlineExceeded),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct RunStateInner {
    budget: RunBudget,
    /// Fast flag: set exactly when `pending` holds an error.
    tripped: AtomicBool,
    /// The first error observed by any checkpoint; later checkpoints
    /// return clones of it rather than re-polling.
    pending: Mutex<Option<SamplingError>>,
}

/// Shared per-solve interruption state, threaded from the session through
/// oracles into the pool backends (see [`crate::WorldEngine::set_run_state`]).
///
/// Clones share one underlying state. A backend checkpoint that observes
/// an interruption (or an injected fault) **records** it here and bails
/// out of its current operation between units of work; the fallible layer
/// above picks the error up via [`RunState::error`] before committing any
/// derived state.
#[derive(Debug, Clone, Default)]
pub struct RunState {
    inner: Arc<RunStateInner>,
}

impl RunState {
    /// A state that never interrupts (the default for standalone pools).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A fresh state polling `budget`.
    pub fn new(budget: RunBudget) -> Self {
        RunState {
            inner: Arc::new(RunStateInner {
                budget,
                tripped: AtomicBool::new(false),
                pending: Mutex::new(None),
            }),
        }
    }

    /// Whether an interruption or fault has been recorded.
    pub fn interrupted(&self) -> bool {
        self.inner.tripped.load(Ordering::Relaxed)
    }

    /// Records `err` as this run's interruption (first writer wins).
    pub fn record(&self, err: SamplingError) {
        let mut pending = self.inner.pending.lock().unwrap_or_else(|e| e.into_inner());
        if pending.is_none() {
            *pending = Some(err);
        }
        self.inner.tripped.store(true, Ordering::Relaxed);
    }

    /// The cooperative checkpoint of the pool backends: returns `true` if
    /// the current operation should be abandoned — either something was
    /// already recorded, or the budget just interrupted (recorded now,
    /// tagged with `phase`). Unarmed and untripped, this is one relaxed
    /// load and one branch.
    #[must_use]
    pub fn checkpoint(&self, phase: SamplingPhase) -> bool {
        if self.interrupted() {
            return true;
        }
        if let Some(kind) = self.inner.budget.poll() {
            self.record(SamplingError::Interrupted { kind, phase });
            return true;
        }
        false
    }

    /// The recorded error, if any — checked by the fallible layers before
    /// committing caches or returning estimates. The error stays recorded
    /// (the whole solve is aborting); a new solve gets a fresh state.
    pub fn error(&self) -> Result<(), SamplingError> {
        if !self.interrupted() {
            return Ok(());
        }
        let pending = self.inner.pending.lock().unwrap_or_else(|e| e.into_inner());
        match pending.clone() {
            Some(err) => Err(err),
            // `record` sets the flag after storing, but tolerate the gap.
            None => Err(SamplingError::Interrupted {
                kind: Interrupt::Cancelled,
                phase: SamplingPhase::Sweep,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(a == b);
        assert!(a != CancelToken::new());
    }

    #[test]
    fn after_checks_trips_at_exactly_the_nth_poll() {
        let budget = RunBudget::unlimited().with_token(CancelToken::after_checks(3));
        assert_eq!(budget.poll(), None);
        assert_eq!(budget.poll(), None);
        assert_eq!(budget.poll(), Some(Interrupt::Cancelled));
        assert_eq!(budget.poll(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_in_the_past_interrupts() {
        let budget = RunBudget::unlimited().with_timeout(Duration::ZERO);
        assert_eq!(budget.poll(), Some(Interrupt::DeadlineExceeded));
        let lax = RunBudget::unlimited().with_timeout(Duration::from_secs(3600));
        assert_eq!(lax.poll(), None);
        assert!(lax.armed());
        assert!(!RunBudget::unlimited().armed());
    }

    #[test]
    fn run_state_records_once_and_reports() {
        let state = RunState::new(RunBudget::unlimited().with_token(CancelToken::after_checks(1)));
        assert!(state.error().is_ok());
        assert!(state.checkpoint(SamplingPhase::Generation));
        let err = state.error().unwrap_err();
        assert_eq!(
            err,
            SamplingError::Interrupted {
                kind: Interrupt::Cancelled,
                phase: SamplingPhase::Generation
            }
        );
        // A later checkpoint in another phase reports the first recording.
        assert!(state.checkpoint(SamplingPhase::Sweep));
        assert_eq!(state.error().unwrap_err(), err);
    }

    #[test]
    fn unarmed_state_never_trips() {
        let state = RunState::unlimited();
        for _ in 0..1000 {
            assert!(!state.checkpoint(SamplingPhase::Sweep));
        }
        assert!(state.error().is_ok());
    }
}

//! Typed errors of the sampling layer.

use std::fmt;

use crate::faults::FaultSite;
use crate::interrupt::Interrupt;

/// Which stage of the sampling machinery a run was interrupted in —
/// carried by [`SamplingError::Interrupted`] so callers can report how
/// far a cancelled or timed-out solve got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingPhase {
    /// Growing a pool (`ensure`) or regenerating an evicted shard.
    Generation,
    /// A Monte-Carlo aggregation sweep over sampled worlds.
    Sweep,
    /// Lazy per-block component-label finalization (adaptive engine).
    Labeling,
    /// Row-cache / budget admission.
    Admission,
}

impl fmt::Display for SamplingPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingPhase::Generation => write!(f, "generation"),
            SamplingPhase::Sweep => write!(f, "sweep"),
            SamplingPhase::Labeling => write!(f, "labeling"),
            SamplingPhase::Admission => write!(f, "admission"),
        }
    }
}

/// Failure modes of samplers, pools, and oracle construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// A caller-provided buffer does not match the graph's dimensions
    /// (e.g. a world bitset whose length differs from the edge count).
    BufferMismatch {
        /// What the buffer holds (e.g. `"world bitset"`).
        what: &'static str,
        /// Required length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A depth-limited oracle was configured with a selection depth above
    /// its cover depth (`min-partial-d` requires `d_select ≤ d_cover`).
    InvalidDepths {
        /// The selection depth `d'`.
        d_select: u32,
        /// The cover depth `d`.
        d_cover: u32,
    },
    /// A depth-limited oracle was given an engine that cannot answer
    /// finite-depth queries (e.g. one that precomputes per-world
    /// connectivity and loses distances).
    DepthIncapableEngine,
    /// The run was interrupted cooperatively — its deadline passed or a
    /// [`crate::CancelToken`] fired (see [`crate::RunBudget`]). The
    /// session survives; re-issuing the request completes bit-identically
    /// to an uninterrupted run.
    Interrupted {
        /// What interrupted the run.
        kind: Interrupt,
        /// The stage the interruption was observed in.
        phase: SamplingPhase,
    },
    /// A deterministic failpoint of the fault-injection harness fired
    /// (see [`crate::faults`]). Only produced while a fault plan is
    /// installed; like [`SamplingError::Interrupted`], it never poisons
    /// session state.
    FaultInjected {
        /// The failpoint that fired.
        site: FaultSite,
        /// Which hit of that site fired (1-based).
        hit: u64,
    },
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::BufferMismatch { what, expected, got } => {
                write!(f, "{what} has length {got}, the graph requires {expected}")
            }
            SamplingError::InvalidDepths { d_select, d_cover } => {
                write!(f, "d_select ({d_select}) must be ≤ d_cover ({d_cover})")
            }
            SamplingError::DepthIncapableEngine => {
                write!(f, "engine cannot answer finite-depth queries; use BitParallelPool")
            }
            SamplingError::Interrupted { kind, phase } => {
                write!(f, "run {kind} during {phase}")
            }
            SamplingError::FaultInjected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SamplingError::BufferMismatch { what: "world bitset", expected: 5, got: 3 };
        let s = e.to_string();
        assert!(s.contains("world bitset") && s.contains('5') && s.contains('3'));

        let e = SamplingError::InvalidDepths { d_select: 4, d_cover: 2 };
        assert!(e.to_string().contains("d_select"));
    }
}

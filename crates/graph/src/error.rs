//! Error types for graph construction and I/O.

use std::fmt;
use std::io;

/// Errors raised while building, transforming, or (de)serializing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge `(u, u)` was added; uncertain graphs here are simple.
    SelfLoop {
        /// The offending node.
        node: u32,
    },
    /// An edge probability outside `(0, 1]` was supplied.
    ///
    /// The paper defines `p : E → (0, 1]`: a zero-probability edge is not an
    /// edge, and probabilities above one are meaningless.
    InvalidProbability {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
        /// The rejected probability value.
        p: f64,
    },
    /// An endpoint referenced a node `>= n`.
    NodeOutOfBounds {
        /// The offending node index.
        node: u32,
        /// Number of nodes declared on the builder.
        num_nodes: usize,
    },
    /// Graph exceeds the `u32` index space (more than `u32::MAX` nodes or
    /// edges).
    TooLarge {
        /// Human-readable description of which dimension overflowed.
        what: &'static str,
    },
    /// A malformed line was found while parsing an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what was wrong.
        message: String,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} is not allowed")
            }
            GraphError::InvalidProbability { u, v, p } => {
                write!(f, "edge ({u}, {v}) has probability {p}, expected a value in (0, 1]")
            }
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node {node} is out of bounds for a graph with {num_nodes} nodes")
            }
            GraphError::TooLarge { what } => {
                write!(f, "graph too large: {what} exceeds the u32 index space")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offenders() {
        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains('3'));

        let e = GraphError::InvalidProbability { u: 1, v: 2, p: 1.5 };
        let s = e.to_string();
        assert!(s.contains("1.5") && s.contains("(0, 1]"));

        let e = GraphError::NodeOutOfBounds { node: 9, num_nodes: 4 };
        assert!(e.to_string().contains('9'));

        let e = GraphError::Parse { line: 12, message: "bad float".into() };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }
}
